// perfbench: the repository benchmark's driver binary (see perfbench/README.md).
//
//   perfbench prepare --seed N --dir D
//       writes the seeded model checkpoint the runs load (its own process, so
//       a run's set-up is cold and starts from a checkpoint on disk);
//   perfbench --workload W --seed N --seconds S --trace 0|1 --dir D
//       one run of workload W: set-up, references, S seconds of whole rounds,
//       output checks, and the result as the last stdout line. --trace 1
//       reports the per-layer table instead of the end-to-end metrics.
//
// perfbench/run.py builds this and runs both steps; the GEMM kernel must be
// pinned through NODETR_GEMM_CONFIG (the run refuses to start otherwise).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "nodetr/obs/obs.hpp"
#include "nodetr/tensor/tune.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare --seed N --dir D\n"
               "       perfbench --workload classify|hybrid_fixed|serve_mhsa --seed N "
               "--seconds S --trace 0|1 --dir D\n");
  return 2;
}

/// Untraced phase, then the same workload with the program's tracing on:
/// the traced-minus-untraced overhead, as a share of the untraced rate.
double trace_overhead_pct(pb::Workload& w, double seconds, pb::RunResult& r) {
  const pb::Phase plain = w.run(seconds, r);
  auto& tracer = nodetr::obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  const pb::Phase traced = w.run(seconds, r);
  tracer.set_enabled(false);
  std::printf("traced phase recorded %zu spans\n", tracer.span_count());
  tracer.clear();
  return (plain.throughput_per_s() / traced.throughput_per_s() - 1.0) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opts;
  opts.process_start = pb::Clock::now();
  bool prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "prepare") {
      prepare = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--dir" && has_value) {
      opts.dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.dir.empty() || !(opts.seconds > 0.0)) return usage();

  try {
    if (prepare) {
      pb::write_checkpoint(opts);
      return 0;
    }
    const auto& gemm = nodetr::tensor::tune::gemm_config();
    if (std::strcmp(gemm.source, "env") != 0) {
      std::fprintf(stderr,
                   "perfbench: NODETR_GEMM_CONFIG must pin the GEMM kernel (got source '%s')\n",
                   gemm.source);
      return 2;
    }
    auto workload = pb::make_workload(opts.workload);
    pb::RunResult r;
    workload->setup(opts);
    const double setup_s = pb::ms_since(opts.process_start) * 1e-3;
    std::printf("perfbench %s seed %llu: %s\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                nodetr::tensor::tune::describe(gemm).c_str());
    workload->make_references(opts, r);

    if (!opts.trace) {
      const pb::Phase p = workload->run(opts.seconds, r);
      workload->finish(r);
      r.add("setup_s", setup_s, "s");
      r.add("latency_p10_ms", p.latency(), "ms");
      r.add("throughput_per_s", p.throughput_per_s(), "1/s");
      r.add("cpu_ms_per_item", p.cpu_ms_per_item(), "ms");
      r.add("peak_rss_mib", pb::peak_rss_mib(), "MiB");
      std::printf("%s: %lld items in %zu rounds, %.1f s measured; latency p50 %.3f ms, "
                  "p99 %.3f ms (not bounded: they move with the host's other load)\n",
                  opts.workload.c_str(), static_cast<long long>(p.items), p.round_ms.size(),
                  p.wall_ms * 1e-3, pb::median(p.latency_ms), pb::percentile(p.latency_ms, 99));
    } else {
      const double overhead = trace_overhead_pct(*workload, opts.seconds / 4.0, r);
      workload->finish(r);
      pb::layer_sweep(opts, r);
      r.layer("obs.trace_overhead_pct", overhead, "%", pb::Column::kPercent,
              "traced minus untraced " + opts.workload + " throughput");
    }
    pb::print_result(r, opts.workload, opts.trace,
                     opts.dir + "/layers_" + opts.workload + "_seed" +
                         std::to_string(opts.seed) + ".md");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
