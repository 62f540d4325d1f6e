// The whole-model fixed datapath: hls::lower + ModelPlan::run_fixed.
#include "nodetr/hls/model_plan.hpp"

#include <gtest/gtest.h>

#include "nodetr/models/zoo.hpp"
#include "nodetr/tensor/ops.hpp"

namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace m = nodetr::models;
namespace nt = nodetr::tensor;
namespace fx = nodetr::fx;

namespace {
nt::Tensor run_fixed(nn::Module& m, const nt::Tensor& x,
                     fx::QuantizationScheme scheme = fx::scheme_32_24()) {
  const auto& d = x.shape().dims();
  return hls::lower(m, scheme, nt::Shape(std::vector<nt::index_t>(d.begin() + 1, d.end())))
      .run_fixed(x);
}
}  // namespace

TEST(QExec, ConvLayerMatchesFloat) {
  nt::Rng rng(1);
  nn::Conv2d conv(3, 4, 3, 1, 1, true, rng);
  conv.train(false);
  auto x = rng.randn(nt::Shape{2, 3, 5, 5});
  EXPECT_LE(nt::max_abs_diff(run_fixed(conv, x), conv.forward(x)), 2e-2f);
}

TEST(QExec, SequentialChainMatchesFloat) {
  nt::Rng rng(2);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 8, 3, 2, 1, false, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2d>(3, 2, 1);
  net.emplace<nn::GlobalAvgPool>();
  net.emplace<nn::Linear>(8, 4, true, rng);
  // Prime BN running stats, then evaluate.
  net.train(true);
  for (int i = 0; i < 10; ++i) (void)net.forward(rng.rand(nt::Shape{4, 3, 16, 16}));
  net.train(false);
  auto x = rng.rand(nt::Shape{2, 3, 16, 16});
  EXPECT_LE(nt::max_abs_diff(run_fixed(net, x), net.forward(x)), 5e-2f);
}

TEST(QExec, FullProposedModelMatchesFloatAtWideFormat) {
  nt::Rng rng(3);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{2, 3, 32, 32});
  auto ref = model->forward(x);
  auto q = run_fixed(*model, x);
  EXPECT_EQ(q.shape(), ref.shape());
  // 32(16)-24(8): the paper's "no degradation" point.
  EXPECT_LE(nt::max_abs_diff(q, ref), 0.05f);
}

TEST(QExec, FullOdeNetMatchesFloat) {
  nt::Rng rng(4);
  auto model = m::make_model(m::ModelKind::kTinyOdeNet, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  EXPECT_LE(nt::max_abs_diff(run_fixed(*model, x), model->forward(x)), 0.05f);
}

TEST(QExec, ErrorGrowsWithNarrowerSchemes) {
  nt::Rng rng(5);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  auto ref = model->forward(x);
  float prev = -1.0f;
  for (const auto& scheme : fx::table8_schemes()) {
    const float err = nt::mean_abs_diff(run_fixed(*model, x, scheme), ref);
    EXPECT_GE(err, prev * 0.3f) << scheme.to_string();
    prev = std::max(prev, err);
  }
  EXPECT_GT(prev, 1e-3f);
}

TEST(QExec, DeterministicBitExactAcrossRuns) {
  nt::Rng rng(6);
  auto model = m::make_model(m::ModelKind::kTinyProposed, 32, 10, rng);
  model->train(false);
  auto x = rng.rand(nt::Shape{1, 3, 32, 32});
  const auto plan = hls::lower(*model, fx::scheme_20_16(), nt::Shape{3, 32, 32});
  auto a = plan.run_fixed(x);
  auto b = plan.run_fixed(x);
  EXPECT_TRUE(nt::allclose(a, b, 0.0f, 0.0f));
}

TEST(QExec, RejectsUnsupportedModules) {
  nt::Rng rng(7);
  nn::SeqMhsa unsupported(8, 2, rng);
  EXPECT_THROW((void)run_fixed(unsupported, nt::Tensor(nt::Shape{1, 3, 8})),
               std::invalid_argument);
}

TEST(QExec, RejectsNonEulerOdeBlocks) {
  nt::Rng rng(8);
  auto model = m::make_model(m::ModelKind::kTinyOdeNet, 32, 10, rng);
  model->train(false);
  auto* onet = static_cast<m::OdeNet*>(model.get());
  for (auto* b : onet->ode_blocks()) b->set_solver(nodetr::ode::SolverKind::kRk4);
  EXPECT_THROW((void)run_fixed(*model, nt::Tensor(nt::Shape{1, 3, 32, 32})),
               std::invalid_argument);
}

TEST(QExec, LayerNormOverLastAxisMatchesFloat) {
  nt::Rng rng(9);
  nn::LayerNorm ln(8);
  auto x = rng.randn(nt::Shape{2, 3, 4, 8});
  EXPECT_LE(nt::max_abs_diff(run_fixed(ln, x), ln.forward(x)), 2e-2f);
}
