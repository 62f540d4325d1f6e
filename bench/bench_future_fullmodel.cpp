// Future-work projection (Sec. VII): "we are currently implementing the
// proposed model on the FPGA entirely to further improve the performance."
// Lowers the paper-scale proposed model (96x96, C = 6) and walks the plan
// with the calibrated cycle model to estimate the latency of running the
// WHOLE model on the PL — versus the paper's implemented hybrid (MHSA on PL,
// everything else on the PS).
#include "common.hpp"
#include "nodetr/hls/model_plan.hpp"
#include "nodetr/models/odenet.hpp"

namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;
using nodetr::bench::header;

int main() {
  header("Future work", "Projected latency of a full-model FPGA implementation");
  nt::Rng rng(0xf17);
  auto model = nodetr::models::proposed_model(/*image_size=*/96, /*classes=*/10, rng,
                                              /*steps=*/6);
  const auto plan = hls::lower(*model, nodetr::fx::scheme_32_24(), nt::Shape{3, 96, 96});
  const auto cost = plan.cost();  // at the IP's unroll of 128

  // One row per top-level op (an ODE block sums its C steps); the MHSA IP
  // invocations get their own row.
  std::vector<std::int64_t> cycles(plan.ops.size(), 0);
  std::int64_t mhsa_calls = 0;
  for (const auto& c : cost.ops) {
    if (c.kind == hls::OpKind::kMhsa) {
      ++mhsa_calls;
    } else {
      cycles[c.top] += c.cost.cycles;
    }
  }
  const auto ms = [](std::int64_t cyc) { return cyc * hls::CycleModel::kClockNs * 1e-6; };
  std::printf("  %-32s %-12s %14s %12s\n", "op", "output", "cycles", "ms @200MHz");
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const auto& op = plan.ops[i];
    std::printf("  %-32s %-12s %14lld %12.3f\n", op.name.c_str(), op.out.to_string().c_str(),
                static_cast<long long>(cycles[i]), ms(cycles[i]));
  }
  std::printf("  %-45s %14lld %12.3f   (x%lld solver steps)\n", "MHSA (IP)",
              static_cast<long long>(cost.mhsa_cycles()), ms(cost.mhsa_cycles()),
              static_cast<long long>(mhsa_calls));
  std::printf("  %-45s %14lld %12.3f\n", "TOTAL (full model on PL)",
              static_cast<long long>(cost.total_cycles()), cost.total_ms());

  std::printf("\nwith the whole model on the PL there is no DDR round-trip per MHSA\n"
              "invocation and the conv stages inherit the same 128-lane MAC engine —\n"
              "this is the speedup path the authors name as future work.\n");
  return 0;
}
