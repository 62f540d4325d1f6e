// Full-model fixed-point inference (the paper's future work): execute the
// ENTIRE proposed model on the bit-accurate fixed datapath and compare with
// float software execution across the Table VIII formats. Also prints the
// model structure via nn::summary.
//
//   ./full_fixed_inference [checkpoint.bin]
#include <cstdio>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/hls/model_plan.hpp"
#include "nodetr/nn/summary.hpp"
#include "nodetr/tensor/ops.hpp"

namespace core = nodetr::core;
namespace d = nodetr::data;
namespace fx = nodetr::fx;
namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;

int main(int argc, char** argv) {
  core::Options opts;
  opts.image_size = 32;
  opts.stem_channels = 16;
  opts.mhsa_bottleneck = 32;
  opts.mhsa_heads = 2;
  opts.solver_steps = 3;
  core::LightweightTransformer model(opts);
  if (argc > 1) model.load(argv[1]);
  model.model().train(false);

  std::printf("%s\n", nodetr::nn::summary(model.model()).c_str());

  d::SynthStl ds({.image_size = 32, .train_per_class = 1, .test_per_class = 3, .seed = 0xff1});
  auto batch = d::stack(ds.test(), 0, static_cast<nt::index_t>(ds.test().size()));
  auto ref = model.predict_logits(batch.images);

  std::printf("full-model fixed-point inference vs float software:\n");
  std::printf("  %-14s %14s %14s\n", "scheme", "mean|dlogit|", "max|dlogit|");
  for (const auto& scheme : fx::table8_schemes()) {
    const auto plan = hls::lower(model.model(), scheme, nt::Shape{3, 32, 32});
    auto q = plan.run_fixed(batch.images);
    std::printf("  %-14s %14.6f %14.6f\n", scheme.to_string().c_str(),
                nt::mean_abs_diff(q, ref), nt::max_abs_diff(q, ref));
  }

  // The same lowering costs the model on the PL (independent of the scheme);
  // bench_future_fullmodel does this at paper scale.
  const auto plan = hls::lower(model.model(), fx::scheme_32_24(), nt::Shape{3, 32, 32});
  std::printf("\nprojected full-model PL latency of this model: %.2f ms/inference\n",
              plan.cost().total_ms());
  return 0;
}
