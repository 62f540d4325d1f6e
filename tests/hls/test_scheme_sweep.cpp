// Parameterized sweep over the paper's five quantization schemes: invariants
// that must hold for EVERY format (Table VIII's rows), exercised end to end
// through the lowered whole-model fixed datapath.
#include <gtest/gtest.h>

#include "nodetr/hls/model_plan.hpp"
#include "nodetr/models/zoo.hpp"
#include "nodetr/tensor/ops.hpp"

namespace hls = nodetr::hls;
namespace m = nodetr::models;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

namespace {

struct SchemeCase {
  fx::QuantizationScheme scheme;
  float logit_error_bound;  ///< loose per-format cap on mean |Δlogit|
};

class SchemeSweep : public ::testing::TestWithParam<SchemeCase> {
 protected:
  static nodetr::nn::Module& model() {
    static nt::Rng rng(0x5c4);
    static auto net = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
    net->train(false);
    return *net;
  }
  static const nt::Tensor& input() {
    static nt::Rng rng(0x5c5);
    static nt::Tensor x = rng.rand(nt::Shape{2, 3, 32, 32});
    return x;
  }
  static hls::ModelPlan plan(const fx::QuantizationScheme& scheme) {
    return hls::lower(model(), scheme, nt::Shape{3, 32, 32});
  }
  static const nt::Tensor& reference() {
    static nt::Tensor ref = model().forward(input());
    return ref;
  }
};

}  // namespace

TEST_P(SchemeSweep, FullModelOutputFiniteAndShapeCorrect) {
  auto q = plan(GetParam().scheme).run_fixed(input());
  ASSERT_EQ(q.shape(), reference().shape());
  for (nt::index_t i = 0; i < q.numel(); ++i) EXPECT_FALSE(std::isnan(q[i]));
}

TEST_P(SchemeSweep, LogitErrorBounded) {
  auto q = plan(GetParam().scheme).run_fixed(input());
  EXPECT_LE(nt::mean_abs_diff(q, reference()), GetParam().logit_error_bound)
      << GetParam().scheme.to_string();
}

TEST_P(SchemeSweep, BitExactDeterminism) {
  auto ya = plan(GetParam().scheme).run_fixed(input());
  auto yb = plan(GetParam().scheme).run_fixed(input());
  EXPECT_TRUE(nt::allclose(ya, yb, 0.0f, 0.0f)) << GetParam().scheme.to_string();
}

TEST_P(SchemeSweep, FeatureFormatRangeCoversUnitActivations) {
  // Every Table VIII feature format must represent at least [-1, 1] with
  // resolution finer than 1/128 — otherwise even the input image degrades.
  const auto f = GetParam().scheme.feature;
  EXPECT_GE(f.max_value(), 1.0);
  EXPECT_LE(f.min_value(), -1.0);
  EXPECT_LE(f.resolution(), 1.0 / 128.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table8, SchemeSweep,
    // Bounds: ~4x headroom over errors measured on the untrained reference
    // model (an untrained net has far larger activation spread than a
    // trained one, so these are loose).
    ::testing::Values(SchemeCase{fx::scheme_32_24(), 5e-3f},
                      SchemeCase{fx::scheme_24_20(), 1.0f},
                      SchemeCase{fx::scheme_20_16(), 2.0f},
                      SchemeCase{fx::scheme_18_14(), 2.5f},
                      SchemeCase{fx::scheme_16_12(), 3.0f}),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      std::string n = info.param.scheme.to_string();
      for (char& c : n) {
        if (c == '(' || c == ')' || c == '-') c = '_';
      }
      return n;
    });
