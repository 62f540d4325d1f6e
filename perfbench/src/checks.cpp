#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

Check size_mismatch(std::size_t got, std::size_t want) {
  return {false, "size " + std::to_string(got) + " != " + std::to_string(want)};
}

double max_abs_diff(std::span<const float> got, std::span<const float> want, std::size_t* at) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::fabs(static_cast<double>(got[i]) - static_cast<double>(want[i]));
    // A NaN difference must fail the comparison, not vanish in std::max.
    if (!(d <= worst)) {
      worst = std::isnan(d) ? INFINITY : d;
      *at = i;
    }
  }
  return worst;
}

}  // namespace

Check bitwise_equal(std::span<const float> got, std::span<const float> want) {
  if (got.size() != want.size()) return size_mismatch(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &got[i], sizeof a);
    std::memcpy(&b, &want[i], sizeof b);
    if (a != b) {
      return {false, "element " + std::to_string(i) + ": " + std::to_string(got[i]) +
                         " != " + std::to_string(want[i])};
    }
  }
  return {};
}

Check all_finite(std::span<const float> got) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i])) return {false, "element " + std::to_string(i) + " not finite"};
  }
  return {};
}

Check within_relative(std::span<const float> got, std::span<const float> want, double rel_tol) {
  if (got.size() != want.size()) return size_mismatch(got.size(), want.size());
  double scale = 0.0;
  for (float w : want) scale = std::max(scale, std::fabs(static_cast<double>(w)));
  std::size_t at = 0;
  const double worst = max_abs_diff(got, want, &at);
  const double rel = scale > 0.0 ? worst / scale : worst;
  if (worst <= rel_tol * scale) return {true, "", rel};
  return {false, "max |diff| " + std::to_string(worst) + " at " + std::to_string(at) +
                     " exceeds " + std::to_string(rel_tol) + " x max|ref| " +
                     std::to_string(scale),
          rel};
}

Check within_absolute(std::span<const float> got, std::span<const float> want, double abs_tol) {
  if (got.size() != want.size()) return size_mismatch(got.size(), want.size());
  std::size_t at = 0;
  const double worst = max_abs_diff(got, want, &at);
  if (worst <= abs_tol) return {true, "", worst};
  return {false,
          "max |diff| " + std::to_string(worst) + " at " + std::to_string(at) + " exceeds " +
              std::to_string(abs_tol),
          worst};
}

Check same_argmax(std::span<const float> got, std::span<const float> want) {
  if (got.size() != want.size() || got.empty()) return size_mismatch(got.size(), want.size());
  const auto a = std::max_element(got.begin(), got.end()) - got.begin();
  const auto b = std::max_element(want.begin(), want.end()) - want.begin();
  if (a == b) return {};
  return {false, "argmax " + std::to_string(a) + " != " + std::to_string(b)};
}

Check equal_count(std::int64_t got, std::int64_t want, const char* what) {
  if (got == want) return {};
  return {false, std::string(what) + " " + std::to_string(got) + " != " + std::to_string(want)};
}

std::int64_t hybrid_dma_bytes_per_image(const MhsaGeometry& g, std::int64_t word_bytes,
                                        std::int64_t solver_steps) {
  const std::int64_t dh = g.dim / g.heads;
  const std::int64_t tokens = g.height * g.width;
  std::int64_t param_words = 3 * g.dim * g.dim;
  if (g.relative_tables) param_words += g.heads * (g.height + g.width) * dh;
  if (g.layer_norm) param_words += 2 * g.dim;
  const std::int64_t io_words = 2 * tokens * g.dim;
  return solver_steps * (param_words + io_words) * word_bytes;
}

}  // namespace perfbench
