// Self-test of the benchmark's output checks: each check must pass on a
// correct output and fail on a deliberately wrong one (one perturbed logit,
// a non-finite logit, one swapped response, a wrong byte or row count).
// perfbench/run.py runs it before every measured run; exit code 1 means a
// check no longer catches what it exists to catch.
#include <cmath>
#include <cstdio>
#include <vector>

#include "checks.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void expect_pass(const pb::Check& c, const char* what) {
  if (!c.ok) {
    std::printf("FAIL %s: rejected a correct output (%s)\n", what, c.detail.c_str());
    ++failures;
  }
}

void expect_reject(const pb::Check& c, const char* what) {
  if (c.ok) {
    std::printf("FAIL %s: accepted a wrong output\n", what);
    ++failures;
  }
}

std::vector<float> logits() {
  return {0.98f, -1.63f, 0.69f, -0.27f, 0.20f, 0.73f, -0.13f, -0.80f, -0.32f, -1.04f};
}

}  // namespace

int main() {
  // classify: B=8 logits bitwise equal to B=1; finite; close to the float IP.
  const std::vector<float> ref = logits();
  std::vector<float> same = ref;
  expect_pass(pb::bitwise_equal(same, ref), "bitwise, identical logits");
  std::vector<float> one_ulp = ref;
  one_ulp[3] = std::nextafter(one_ulp[3], 1.0f);
  expect_reject(pb::bitwise_equal(one_ulp, ref), "bitwise, one logit one ulp off");
  std::vector<float> neg_zero = {0.0f};
  expect_reject(pb::bitwise_equal(std::vector<float>{-0.0f}, neg_zero), "bitwise, -0 vs +0");
  expect_reject(pb::bitwise_equal(std::vector<float>(9, 0.0f), ref), "bitwise, short row");

  expect_pass(pb::all_finite(ref), "finite, ordinary logits");
  std::vector<float> nan = ref;
  nan[5] = std::nanf("");
  expect_reject(pb::all_finite(nan), "finite, one NaN logit");
  std::vector<float> inf = ref;
  inf[0] = INFINITY;
  expect_reject(pb::all_finite(inf), "finite, one infinite logit");

  std::vector<float> close = ref;
  close[1] *= 1.0f + 1e-6f;
  expect_pass(pb::within_relative(close, ref, 1e-5), "relative, reassociation-sized error");
  std::vector<float> perturbed = ref;
  perturbed[7] += 1e-3f;
  expect_reject(pb::within_relative(perturbed, ref, 1e-5), "relative, one perturbed logit");
  expect_reject(pb::within_relative(nan, ref, 1e-5), "relative, NaN logit");

  // hybrid_fixed: argmax equal to the float path; features within tolerance;
  // DMA bytes equal to the closed form.
  expect_pass(pb::same_argmax(close, ref), "argmax, same winner");
  std::vector<float> flipped = ref;
  flipped[2] = 1.5f;
  expect_reject(pb::same_argmax(flipped, ref), "argmax, another winner");
  expect_pass(pb::within_absolute(close, ref, 2e-3), "absolute, small feature error");
  expect_reject(pb::within_absolute(perturbed, ref, 2e-4), "absolute, perturbed feature");
  expect_reject(pb::within_absolute(nan, ref, 2e-3), "absolute, NaN feature");

  // The paper's (64, 6, 6) point, 4 heads, C = 6: per invocation
  // 3*64*64 + 4*(6+6)*16 + 2*64 = 13184 parameter words and 2*36*64 = 4608
  // feature words, 32-bit each: 71168 bytes, times 6.
  const pb::MhsaGeometry g;
  const std::int64_t bytes = pb::hybrid_dma_bytes_per_image(g, 4, 6);
  expect_pass(pb::equal_count(bytes, 427008, "bytes"), "closed-form DMA count, by hand");
  expect_reject(pb::equal_count(bytes + 4, 427008, "bytes"), "DMA count, one word too many");
  expect_reject(pb::equal_count(pb::hybrid_dma_bytes_per_image(g, 4, 1), bytes, "bytes"),
                "DMA count, weights streamed once instead of C times");

  // serve_mhsa: every response bitwise equal to its own standalone IP run,
  // and the engine's rows equal to the generator's submissions.
  const std::vector<float> response_a = {0.25f, -1.5f, 3.0f, 0.0f};
  const std::vector<float> response_b = {0.25f, -1.5f, 3.0f, 0.125f};
  expect_pass(pb::bitwise_equal(response_a, response_a), "bitwise, own response");
  expect_reject(pb::bitwise_equal(response_b, response_a), "bitwise, swapped response");
  expect_pass(pb::equal_count(1025, 1025, "rows"), "row count, equal");
  expect_reject(pb::equal_count(1024, 1025, "rows"), "row count, one request lost");

  if (failures == 0) std::printf("perfbench self-test: all checks behave\n");
  return failures == 0 ? 0 : 1;
}
