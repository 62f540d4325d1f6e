// Reproduces Table VIII: accuracy vs fixed-point representation. A tiny
// proposed model is trained briefly on SynthSTL, then evaluated with its
// MHSA executed by the bit-accurate fixed-point IP at each of the paper's
// five formats. The expected *shape*: no degradation for the wide formats,
// mild loss at 20(10)-16(4), collapse below.
#include "common.hpp"
#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/hls/model_plan.hpp"
#include "nodetr/tensor/ops.hpp"
#include "nodetr/train/trainer.hpp"

namespace core = nodetr::core;
namespace d = nodetr::data;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace tr = nodetr::train;
using nodetr::bench::env_int;
using nodetr::bench::header;

int main() {
  header("Table VIII", "Accuracy vs fixed-point representations");
  const auto epochs = env_int("NODETR_BENCH_EPOCHS", 25);
  d::SynthStl ds({.image_size = 32, .train_per_class = 40, .test_per_class = 15, .seed = 0x8,
                  .noise_stddev = 0.08f});

  core::Options opts;
  opts.image_size = 32;
  opts.stem_channels = 16;
  opts.mhsa_bottleneck = 32;
  opts.mhsa_heads = 2;
  opts.solver_steps = 3;
  core::LightweightTransformer model(opts);

  tr::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.batch_size = 10;
  cfg.augment = false;
  cfg.sgd = {.lr = 0.03f, .momentum = 0.9f, .weight_decay = 1e-4f};
  cfg.schedule = {.eta_max = 0.03f, .eta_min = 1e-4f, .t0 = 10, .t_mult = 2};
  (void)model.fit(ds.train(), ds.test(), cfg);
  model.model().train(false);

  const float original = model.evaluate(ds.test());
  auto probe = d::stack(ds.test(), 0, 32);
  const auto ref_logits = model.predict_logits(probe.images);
  const double paper[] = {78.7, 78.7, 76.9, 59.8, 16.9};
  std::printf("\n  %-16s %10s %10s %12s %12s\n", "Model", "ours acc", "paper acc",
              "mean|dlogit|", "max|dlogit|");
  std::printf("  %-16s %9.1f%% %9s %12s %12s\n", "Original(float)", 100.0f * original, "78.7%",
              "0", "0");
  int i = 0;
  for (const auto& scheme : fx::table8_schemes()) {
    // Full fixed-point inference (Sec. V-B1): EVERY layer executes on the
    // bit-accurate fixed datapath of the lowered plan — the functional
    // equivalent of the paper's evaluation where feature maps and weights
    // are fixed point throughout.
    const auto plan = hls::lower(model.model(), scheme, nodetr::tensor::Shape{3, 32, 32});
    nodetr::tensor::index_t correct = 0;
    const auto n = static_cast<nodetr::tensor::index_t>(ds.test().size());
    for (nodetr::tensor::index_t begin = 0; begin < n; begin += 32) {
      const auto end = std::min(begin + 32, n);
      auto batch = d::stack(ds.test(), begin, end);
      auto logits = plan.run_fixed(batch.images);
      const auto k = logits.dim(1);
      for (nodetr::tensor::index_t r = 0; r < end - begin; ++r) {
        nodetr::tensor::index_t best = 0;
        for (nodetr::tensor::index_t c = 1; c < k; ++c) {
          if (logits[r * k + c] > logits[r * k + best]) best = c;
        }
        correct += (best == batch.labels[static_cast<std::size_t>(r)]);
      }
    }
    const float acc = static_cast<float>(correct) / static_cast<float>(n);
    const auto logits = plan.run_fixed(probe.images);
    std::printf("  %-16s %9.1f%% %9.1f%% %12.5f %12.5f\n", scheme.to_string().c_str(),
                100.0f * acc, paper[i], nodetr::tensor::mean_abs_diff(logits, ref_logits),
                nodetr::tensor::max_abs_diff(logits, ref_logits));
    ++i;
  }
  std::printf("\nexpected shape: wide formats lossless, monotone error growth as formats\n"
              "narrow (cf. Figs. 9-10). The paper notes the error 'directly appears at\n"
              "the input values to the final FC layer rather than the classification\n"
              "results'; at this reduced scale the dynamic range is small enough that\n"
              "top-1 accuracy stays robust where the paper's 96px model collapses.\n");
  return 0;
}
