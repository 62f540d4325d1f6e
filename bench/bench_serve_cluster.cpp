// Closed-loop fleet-scaling benchmark: goodput vs device count for the
// cluster-mode engine (central queue -> ClusterRouter -> per-board queues),
// plus graceful degradation with one board under a permanent fault storm.
//
// The host simulates every board on however many cores it has, so wall-clock
// throughput cannot show fleet scaling on a small machine. The scaling
// metric is therefore *simulated* goodput: total rows divided by the busiest
// board's simulated busy time (DeviceCounters::total_cycles() / clock_mhz).
// A perfectly balanced router makes the busiest board's share shrink as 1/N,
// so sim goodput grows ~N-linearly; the exit code enforces >= 0.8x linear at
// the largest fleet. The storm run is judged on wall goodput (the demoted
// board's work runs on the host CPU, which simulated time cannot see).
//
//   ./bench_serve_cluster [requests-per-run] [max-devices]   (default 200000 8)
//
// Defaults drive 1M requests total: one run per fleet size 1,2,4,8 plus the
// fault-storm run at 8. Writes BENCH_cluster.json with the headline
// `scaling_ratio_linear` and `storm_goodput_ratio`.
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "common.hpp"
#include "nodetr/fault/fault.hpp"
#include "nodetr/nn/attention.hpp"
#include "nodetr/serve/serve.hpp"
#include "nodetr/tensor/ops.hpp"

namespace bench = nodetr::bench;
namespace serve = nodetr::serve;
namespace hls = nodetr::hls;
namespace nn = nodetr::nn;
namespace nt = nodetr::tensor;
namespace fault = nodetr::fault;
using nt::index_t;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kClockMhz = 200.0;
constexpr std::size_t kInflightWindow = 512;  // closed-loop pacing depth

struct RunResult {
  std::size_t devices = 0;
  std::uint64_t requests = 0;
  std::uint64_t rows = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t breaker_opens = 0;
  double wall_s = 0.0;
  double max_busy_us = 0.0;     ///< busiest board's simulated time
  double sim_goodput_rps = 0.0; ///< rows / busiest board's simulated second
  double wall_goodput_rps = 0.0;
  std::uint64_t rows_min = 0, rows_max = 0;  ///< per-board routed-row spread
};

serve::EngineConfig fleet_config(const hls::MhsaDesignPoint& point, std::size_t n) {
  serve::EngineConfig cfg;
  cfg.point = point;
  cfg.queue_capacity = 256;
  cfg.batcher.max_batch = 8;
  cfg.batcher.max_wait_us = 100;  // closed loop keeps the queues fed anyway
  // Under the storm the second consecutive fault must open the breaker
  // before retry budgets are exhausted (see tests/serve/test_cluster.cpp).
  cfg.breaker.open_after = 2;
  cfg.devices.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cfg.devices[i].name = "dev" + std::to_string(i);
    cfg.devices[i].backend = serve::Backend::kFpgaFloat;
    cfg.devices[i].clock_mhz = kClockMhz;
  }
  return cfg;
}

/// Closed-loop run: keep kInflightWindow requests outstanding, reap in FIFO
/// order, shut down, and fold the per-board counters into the scaling view.
RunResult run_fleet(const hls::MhsaDesignPoint& point, const hls::MhsaWeights& weights,
                    const std::vector<nt::Tensor>& pool, std::size_t n_devices,
                    std::uint64_t requests, bool storm) {
  fault::Injector::instance().reset();
  if (storm) {
    fault::Injector::instance().seed(17);
    fault::Injector::instance().arm("rt.dma.error.dev0", fault::Schedule::always());
  }

  RunResult r;
  r.devices = n_devices;
  r.requests = requests;

  serve::InferenceEngine engine(fleet_config(point, n_devices), weights);
  std::deque<std::future<nt::Tensor>> inflight;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < requests; ++i) {
    const nt::Tensor& x = pool[i % pool.size()];
    r.rows += static_cast<std::uint64_t>(x.dim(0));
    inflight.push_back(engine.submit(x));
    if (inflight.size() >= kInflightWindow) {
      try {
        (void)inflight.front().get();
        ++r.completed;
      } catch (const std::runtime_error&) {
        ++r.failed;
      }
      inflight.pop_front();
    }
  }
  engine.shutdown();
  while (!inflight.empty()) {
    try {
      (void)inflight.front().get();
      ++r.completed;
    } catch (const std::runtime_error&) {
      ++r.failed;
    }
    inflight.pop_front();
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const serve::EngineStats stats = engine.stats();
  r.breaker_opens = stats.breaker_opens;
  bool first = true;
  for (const auto& [name, ds] : stats.device_stats) {
    const double busy_us = static_cast<double>(ds.counters.total_cycles()) / kClockMhz;
    r.max_busy_us = std::max(r.max_busy_us, busy_us);
    r.rows_min = first ? ds.rows : std::min(r.rows_min, ds.rows);
    r.rows_max = first ? ds.rows : std::max(r.rows_max, ds.rows);
    first = false;
  }
  r.sim_goodput_rps =
      r.max_busy_us > 0.0 ? static_cast<double>(r.rows) / (r.max_busy_us * 1e-6) : 0.0;
  r.wall_goodput_rps = r.wall_s > 0.0 ? static_cast<double>(r.completed) / r.wall_s : 0.0;
  fault::Injector::instance().reset();
  return r;
}

void print_result(const RunResult& r, const char* tag) {
  std::printf("  %zu board%s%-8s %9llu req  %9llu rows  sim %11.0f rows/s  "
              "wall %7.0f req/s  rows/board %llu..%llu  opens %llu  failed %llu\n",
              r.devices, r.devices == 1 ? " " : "s", tag,
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.rows), r.sim_goodput_rps, r.wall_goodput_rps,
              static_cast<unsigned long long>(r.rows_min),
              static_cast<unsigned long long>(r.rows_max),
              static_cast<unsigned long long>(r.breaker_opens),
              static_cast<unsigned long long>(r.failed));
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t requests = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200'000;
  const std::size_t max_devices = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  bench::header("cluster", "fleet goodput scaling + fault-storm degradation");

  nt::Rng rng(42);
  nn::MhsaConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.height = 4;
  cfg.width = 4;
  nn::MultiHeadSelfAttention mhsa(cfg, rng);
  mhsa.train(false);
  const auto weights = hls::MhsaWeights::from_module(mhsa);
  const hls::MhsaDesignPoint point =
      hls::design_point_of(mhsa, hls::DataType::kFixed, nodetr::fx::scheme_32_24());

  // Request pool: rows 1..4 so batches split and merge like live traffic.
  std::vector<nt::Tensor> pool;
  for (index_t r = 1; r <= 4; ++r) {
    for (int copy = 0; copy < 2; ++copy) {
      pool.push_back(rng.rand(nt::Shape{r, cfg.dim, cfg.height, cfg.width}));
    }
  }

  std::vector<std::size_t> fleet_sizes;
  for (std::size_t n = 1; n < max_devices; n *= 2) fleet_sizes.push_back(n);
  fleet_sizes.push_back(max_devices);

  std::vector<RunResult> clean;
  std::uint64_t failed_total = 0;
  bool all_resolved = true;
  for (std::size_t n : fleet_sizes) {
    clean.push_back(run_fleet(point, weights, pool, n, requests, /*storm=*/false));
    print_result(clean.back(), "");
    failed_total += clean.back().failed;
    all_resolved = all_resolved && (clean.back().completed + clean.back().failed == requests);
  }
  const RunResult storm =
      run_fleet(point, weights, pool, max_devices, requests, /*storm=*/true);
  print_result(storm, " [storm]");
  failed_total += storm.failed;
  all_resolved = all_resolved && (storm.completed + storm.failed == requests);

  const RunResult& base = clean.front();
  const RunResult& top = clean.back();
  const double scaling_ratio =
      base.sim_goodput_rps > 0.0
          ? top.sim_goodput_rps /
                (base.sim_goodput_rps * static_cast<double>(top.devices))
          : 0.0;
  const double storm_ratio =
      top.wall_goodput_rps > 0.0 ? storm.wall_goodput_rps / top.wall_goodput_rps : 0.0;
  std::printf("  sim scaling 1 -> %zu boards: %.2fx linear  (target >= 0.80)\n",
              top.devices, scaling_ratio);
  std::printf("  storm wall goodput ratio: %.2f  (target >= 0.90; exit floor 0.75)\n",
              storm_ratio);
  std::printf("  storm breaker opens: %llu (dev0 must trip at least once)\n",
              static_cast<unsigned long long>(storm.breaker_opens));

  bench::JsonReport report("cluster");
  report.set("requests_per_run", static_cast<std::int64_t>(requests));
  report.set("max_devices", static_cast<std::int64_t>(max_devices));
  report.set("runs", static_cast<std::int64_t>(fleet_sizes.size() + 1));
  report.set("requests_total",
             static_cast<std::int64_t>(requests * (fleet_sizes.size() + 1)));
  for (const RunResult& r : clean) {
    const std::string n = std::to_string(r.devices);
    report.set("sim_goodput_rows_per_s_n" + n, r.sim_goodput_rps);
    report.set("wall_goodput_rps_n" + n, r.wall_goodput_rps);
    report.set("wall_s_n" + n, r.wall_s);
    report.set("rows_per_board_min_n" + n, static_cast<std::int64_t>(r.rows_min));
    report.set("rows_per_board_max_n" + n, static_cast<std::int64_t>(r.rows_max));
  }
  report.set("scaling_ratio_linear", scaling_ratio);
  report.set("storm_wall_goodput_rps", storm.wall_goodput_rps);
  report.set("storm_goodput_ratio", storm_ratio);
  report.set("storm_breaker_opens", static_cast<std::int64_t>(storm.breaker_opens));
  report.set("storm_failed", static_cast<std::int64_t>(storm.failed));
  report.set("failed_total", static_cast<std::int64_t>(failed_total));
  report.write();

  // Exit bars: near-linear simulated scaling, graceful (not cliff-edge)
  // degradation under the storm, the stormed board's breaker actually
  // tripped, and every future resolved — with zero typed failures, since a
  // float fleet falls back to the bitwise-identical CPU datapath.
  const bool ok = scaling_ratio >= 0.8 && storm_ratio >= 0.75 &&
                  storm.breaker_opens >= 1 && all_resolved && failed_total == 0;
  return ok ? 0 : 1;
}
