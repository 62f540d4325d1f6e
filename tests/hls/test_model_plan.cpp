#include "nodetr/hls/model_plan.hpp"

#include <gtest/gtest.h>

#include <array>

#include "nodetr/models/odenet.hpp"
#include "nodetr/ode/adjoint.hpp"

namespace hls = nodetr::hls;
namespace models = nodetr::models;
namespace nt = nodetr::tensor;
using nt::index_t;

namespace {

/// The proposed model (Fig. 2 right) lowered at 32(16)-24(8).
hls::ModelPlan lower_proposed(index_t image, index_t steps,
                              std::array<index_t, 3> channels = {64, 128, 256}) {
  models::OdeNetConfig cfg;
  cfg.image_size = image;
  cfg.steps = steps;
  cfg.stem_channels = channels[0];
  cfg.stage_channels = channels;
  cfg.final_stage = models::FinalStage::kMhsaOde;
  nt::Rng rng(0x91a);
  models::OdeNet model(cfg, rng);
  return hls::lower(model, nodetr::fx::scheme_32_24(), nt::Shape{3, image, image});
}

/// The conv, DSC and linear layers of the proposed model in execution order,
/// written out from the architecture (odenet.hpp) with ConvCycleModel's
/// closed forms.
std::vector<hls::LayerCost> mac_layers(index_t s, std::array<index_t, 3> c, index_t steps) {
  const hls::ConvCycleModel cm(128);
  std::vector<hls::LayerCost> l;
  l.push_back(cm.conv2d("stem", 3, c[0], 3, s / 2, s / 2));
  for (index_t i = 0; i < 2 * steps; ++i) {
    l.push_back(cm.depthwise_separable("ode1", c[0], c[0], 3, s / 4, s / 4));
  }
  l.push_back(cm.conv2d("down1", c[0], c[1], 3, s / 8, s / 8));
  l.push_back(cm.conv2d("down1 skip", c[0], c[1], 1, s / 8, s / 8));
  for (index_t i = 0; i < 2 * steps; ++i) {
    l.push_back(cm.depthwise_separable("ode2", c[1], c[1], 3, s / 8, s / 8));
  }
  l.push_back(cm.conv2d("down2", c[1], c[2], 3, s / 16, s / 16));
  l.push_back(cm.conv2d("down2 skip", c[1], c[2], 1, s / 16, s / 16));
  for (index_t i = 0; i < steps; ++i) {
    l.push_back(cm.conv2d("mhsa reduce", c[2], 64, 1, s / 16, s / 16));
    l.push_back(cm.conv2d("mhsa expand", 64, c[2], 1, s / 16, s / 16));
  }
  l.push_back(cm.linear("fc", c[2], 10));
  return l;
}

std::vector<hls::LayerCost> mac_costs(const hls::PlanCost& cost) {
  std::vector<hls::LayerCost> l;
  for (const auto& c : cost.ops) {
    if (c.kind == hls::OpKind::kConv || c.kind == hls::OpKind::kDepthwiseSeparable ||
        c.kind == hls::OpKind::kLinear) {
      l.push_back(c.cost);
    }
  }
  return l;
}

std::int64_t layer_sum(const hls::PlanCost& cost) {
  return cost.total_cycles() - cost.mhsa_cycles();
}

}  // namespace

TEST(ConvCycleModel, MacCountsExact) {
  hls::ConvCycleModel m(128);
  // Dense conv: Cin*Cout*K^2*Ho*Wo.
  EXPECT_EQ(m.conv2d("c", 3, 64, 3, 48, 48).macs, 3LL * 64 * 9 * 48 * 48);
  // DSC: (Cin*K^2 + Cin*Cout) * Ho*Wo.
  EXPECT_EQ(m.depthwise_separable("d", 64, 64, 3, 24, 24).macs,
            (64LL * 9 + 64 * 64) * 24 * 24);
  EXPECT_EQ(m.linear("l", 256, 10).macs, 2560);
  EXPECT_EQ(m.elementwise("e", 100).macs, 0);
}

TEST(ConvCycleModel, UnrollSpeedsUpMacLayers) {
  hls::ConvCycleModel seq(1), par(128);
  const auto s = seq.conv2d("c", 64, 128, 3, 12, 12);
  const auto p = par.conv2d("c", 64, 128, 3, 12, 12);
  EXPECT_GT(s.cycles, 50 * p.cycles);
  // Elementwise layers are already pipelined — unroll independent.
  EXPECT_EQ(seq.elementwise("e", 1000).cycles, par.elementwise("e", 1000).cycles);
}

TEST(ProposedModelPlan, StructureAndTotals) {
  const auto cost = lower_proposed(96, 6).cost();
  index_t mhsa_calls = 0;
  std::int64_t layers = 0;
  for (const auto& c : cost.ops) {
    if (c.kind == hls::OpKind::kMhsa) {
      ++mhsa_calls;
    } else {
      layers += c.cost.cycles;
    }
  }
  EXPECT_EQ(mhsa_calls, 6);  // one per solver step
  EXPECT_FALSE(cost.ops.empty());
  EXPECT_GT(cost.mhsa_cycles(), 0);
  // Total covers all layers plus the per-step MHSA.
  EXPECT_EQ(cost.total_cycles(), layers + cost.mhsa_cycles());
  EXPECT_GT(cost.total_ms(), 0.0);
}

TEST(ProposedModelPlan, MoreSolverStepsCostMore) {
  const auto c3 = lower_proposed(96, 3).cost();
  const auto c12 = lower_proposed(96, 12).cost();
  EXPECT_GT(c12.total_cycles(), c3.total_cycles());
  // MHSA share scales exactly with the step count.
  EXPECT_EQ(c12.mhsa_cycles(), 4 * c3.mhsa_cycles());
}

TEST(ProposedModelPlan, SmallerImagesAreCheaper) {
  const auto big = lower_proposed(96, 6).cost();
  const auto small = lower_proposed(32, 6).cost();
  // Conv stages shrink with the image (the MHSA point shrinks too, so
  // compare layer sums).
  EXPECT_GT(layer_sum(big), layer_sum(small));
}

TEST(ModelPlan, PaperModelMacLayersMatchClosedForms) {
  const auto plan = lower_proposed(96, 6);
  const auto got = mac_costs(plan.cost());
  const auto want = mac_layers(96, {64, 128, 256}, 6);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].macs, want[i].macs) << i << " " << got[i].name;
    EXPECT_EQ(got[i].cycles, want[i].cycles) << i << " " << got[i].name;
  }
  // Each MHSA op is the paper's (64, 6x6) IP with its output LayerNorm.
  const auto ip = hls::CycleModel{}.estimate(
      hls::MhsaDesignPoint::proposed_64(hls::DataType::kFixed), /*include_layer_norm=*/true);
  EXPECT_EQ(plan.cost().mhsa_cycles(), 6 * ip.total());
  EXPECT_EQ(plan.ops.back().out, nt::Shape{10});
  // The projection EXPERIMENTS.md reports (bench_future_fullmodel).
  EXPECT_EQ(plan.cost().total_cycles(), 22'542'013);
}

TEST(ModelPlan, ConvMacsFollowTheModelsStageChannels) {
  const auto narrow = mac_costs(lower_proposed(96, 6, {32, 64, 128}).cost());
  const auto want = mac_layers(96, {32, 64, 128}, 6);
  ASSERT_EQ(narrow.size(), want.size());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    EXPECT_EQ(narrow[i].macs, want[i].macs) << i << " " << narrow[i].name;
  }
  // Halving every stage halves the stem and roughly quarters the rest.
  const auto wide = mac_costs(lower_proposed(96, 6).cost());
  EXPECT_EQ(2 * narrow.front().macs, wide.front().macs);
  EXPECT_LT(4 * narrow[1].macs, 2 * wide[1].macs);
}

TEST(ModelPlan, ElementwiseOpsCostOnePipelinedOpPerOutputElement) {
  const auto plan = lower_proposed(96, 6);
  const hls::ConvCycleModel cm(128);
  for (const auto& c : plan.cost().ops) {
    const auto& op = plan.ops[c.top];
    if (c.kind == hls::OpKind::kEuler) {  // z + h*f on the block's feature map
      EXPECT_EQ(c.cost.cycles, cm.elementwise("", op.out.numel()).cycles) << op.name;
    }
    if (c.kind == hls::OpKind::kMaxPool) {  // the stem pool, charged at its output
      EXPECT_EQ(c.cost.cycles, cm.elementwise("", 64 * 24 * 24).cycles);
    }
  }
}

TEST(ModelPlan, RejectsInputsTheModelCannotTake) {
  nt::Rng rng(9);
  nodetr::nn::Conv2d conv(3, 4, 3, 1, 1, false, rng);
  EXPECT_THROW((void)hls::lower(conv, nodetr::fx::scheme_32_24(), nt::Shape{4, 8, 8}),
               std::invalid_argument);
  const auto plan = hls::lower(conv, nodetr::fx::scheme_32_24(), nt::Shape{3, 8, 8});
  EXPECT_EQ(plan.ops.back().out, (nt::Shape{4, 8, 8}));
  EXPECT_THROW((void)plan.run_fixed(nt::Tensor(nt::Shape{1, 3, 9, 9})), std::invalid_argument);
}

TEST(ModelPlan, RejectsSoftmaxAttentionAndAdjointBlocks) {
  nt::Rng rng(10);
  nodetr::nn::MhsaConfig mc;
  mc.attention = nodetr::nn::AttentionKind::kSoftmax;
  nodetr::nn::MultiHeadSelfAttention softmax(mc, rng);
  EXPECT_THROW((void)hls::lower(softmax, nodetr::fx::scheme_32_24(), nt::Shape{64, 6, 6}),
               std::invalid_argument);
  nodetr::ode::AdjointOdeBlock adjoint(std::make_unique<nodetr::nn::ReLU>(), 2);
  EXPECT_THROW((void)hls::lower(adjoint, nodetr::fx::scheme_32_24(), nt::Shape{4, 3, 3}),
               std::invalid_argument);
}
