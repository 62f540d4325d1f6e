// The traced run's per-layer sweep. It times calls into each module's public
// functions from here, at the shapes the workloads use, and reads the
// simulated counters the program exports. Every traced run reports the whole
// table (the workload argument only selects whose tracing overhead main.cpp
// measures), so a layer can be compared across runs of any workload.
#include <array>
#include <cmath>
#include <cstdio>

#include "nodetr/fx/qops.hpp"
#include "nodetr/ode/ode_block.hpp"
#include "nodetr/tensor/conv.hpp"
#include "nodetr/tensor/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;
namespace rt = nodetr::rt;

namespace {

// Stage times may differ from the separately timed predict_logits by at most
// this share of it (README: the stages are the same calls in the same order,
// so only timer placement and run-to-run noise separate them).
constexpr double kStageSumTol = 0.10;
// (predict_logits, stage-by-stage) pairs per image; the fastest of each counts.
constexpr int kPairs = 3;
// Each host-time probe repeats until it has run about this long.
constexpr double kProbeMs = 40.0;
// Length of the sweep's serve_mhsa loop.
constexpr double kServeSeconds = 2.0;

const char* const kClassifyB1 = "latency_p10_ms @ classify, hybrid_fixed";
const char* const kClassifyB8 = "throughput_per_s @ classify";
const char* const kHybrid = "latency_p10_ms, throughput_per_s @ hybrid_fixed";
const char* const kServe = "latency_p10_ms, throughput_per_s @ serve_mhsa";
const char* const kSetup = "setup_s @ all";

/// Median wall ms of `fn` over enough repetitions to run about kProbeMs.
template <typename Fn>
double probe_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();  // warm-up: first-touch pages, arena growth
  const double once = std::max(ms_since(t0), 1e-3);
  const int reps = std::clamp(static_cast<int>(kProbeMs / once), 5, 400);
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    fn();
    samples.push_back(ms_since(t));
  }
  return median(samples);
}

void stage_times(const Options& opts, RunResult& r) {
  auto lt = load_model(opts);
  auto& net = *lt->model().children().front();
  const std::vector<nodetr::nn::Module*> stages = net.children();
  std::vector<nodetr::ode::OdeBlock*> blocks;
  std::size_t first_ode = stages.size(), last_ode = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (auto* b = dynamic_cast<nodetr::ode::OdeBlock*>(stages[i])) {
      blocks.push_back(b);
      first_ode = std::min(first_ode, i);
      last_ode = i;
    }
  }
  if (blocks.size() != 3) {
    r.check_failed("layer sweep: expected 3 ODE blocks, found " + std::to_string(blocks.size()));
    return;
  }

  const std::vector<Tensor> images = make_images(opts.seed);
  std::vector<double> predict, staged, stem, down, head, unattributed;
  std::vector<std::vector<double>> block(3), f_eval(3);
  struct Pass {
    double sum = 0.0, stem = 0.0, down = 0.0, head = 0.0;
    std::array<double, 3> block{};
  };
  for (const Tensor& x : images) {
    // kPairs alternating (predict_logits, stage-by-stage) pairs per image;
    // each keeps its fastest, the sample least disturbed by the host.
    double best_predict = 1e300;
    Pass best;
    best.sum = 1e300;
    std::vector<Tensor> block_in;
    for (int rep = 0; rep < kPairs; ++rep) {
      auto t = Clock::now();
      const Tensor want = lt->predict_logits(x);
      best_predict = std::min(best_predict, ms_since(t));

      Pass pass;
      Tensor h = x;
      block_in.clear();
      for (std::size_t i = 0, k = 0; i < stages.size(); ++i) {
        const bool is_block = k < 3 && stages[i] == blocks[k];
        if (is_block) block_in.push_back(h);
        t = Clock::now();
        h = stages[i]->forward(h);
        const double ms = ms_since(t);
        pass.sum += ms;
        if (is_block) {
          pass.block[k++] = ms;
        } else if (i < first_ode) {
          pass.stem += ms;
        } else if (i > last_ode) {
          pass.head += ms;
        } else {
          pass.down += ms;
        }
      }
      if (pass.sum < best.sum) best = pass;
      expect(r, bitwise_equal(h.span(), want.span()), "layer sweep: stage-by-stage logits");
    }
    // One dynamics evaluation f(z) of each block, on the block's own input.
    for (std::size_t k = 0; k < 3; ++k) {
      const auto t = Clock::now();
      (void)blocks[k]->dynamics().forward(block_in[k]);
      f_eval[k].push_back(ms_since(t));
    }
    predict.push_back(best_predict);
    staged.push_back(best.sum);
    stem.push_back(best.stem);
    down.push_back(best.down);
    head.push_back(best.head);
    for (std::size_t k = 0; k < 3; ++k) block[k].push_back(best.block[k]);
    unattributed.push_back(best_predict - best.sum);
  }
  // Each image's stage sum is compared with its own predict_logits call,
  // made just before, so slow drift of the host cancels out of the ratio.
  std::vector<double> ratio;
  for (std::size_t i = 0; i < predict.size(); ++i) ratio.push_back(staged[i] / predict[i]);
  const double p = median(predict), share = median(ratio) - 1.0;
  if (std::fabs(share) > kStageSumTol) {
    r.check_failed("layer sweep: stage times sum to " + std::to_string(share * 100.0) +
                   "% off predict_logits");
  }
  std::printf("stage sum vs predict_logits: %+.1f%% (median of per-image ratios, tolerance %.0f%%)\n",
              share * 100.0, kStageSumTol * 100.0);
  r.layer("core.predict_logits_ms", p, "ms", Column::kHostMs, kClassifyB1);
  r.layer("models.stem_ms", median(stem), "ms", Column::kHostMs, kClassifyB1);
  r.layer("models.downsample_ms", median(down), "ms", Column::kHostMs, kClassifyB1);
  r.layer("models.head_ms", median(head), "ms", Column::kHostMs, kClassifyB1);
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string n = std::to_string(k + 1);
    r.layer("ode.block" + n + "_ms", median(block[k]), "ms", Column::kHostMs,
            std::string(kClassifyB1) + " (PS share)");
  }
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string n = std::to_string(k + 1);
    r.layer("ode.f_eval_ms.block" + n, median(f_eval[k]), "ms", Column::kHostMs, kClassifyB1);
  }
  r.layer("core.unattributed_ms", median(unattributed), "ms", Column::kHostMs,
          "latency_p10_ms @ classify");
}

void kernel_probes(const Options& opts, RunResult& r) {
  nt::Rng rng(opts.seed + 11);
  // The model's pointwise (1x1) convolutions as GEMMs: out-channels x
  // in-channels x pixels, with the pixels of a batch side by side (the shape
  // a batch-fused convolution would issue).
  struct Gemm {
    const char* name;
    index_t m, k, pixels;
  };
  const Gemm gemms[] = {{"pw1", 64, 64, 24 * 24},
                        {"pw2", 128, 128, 12 * 12},
                        {"reduce3", 64, 256, 6 * 6}};
  for (const Gemm& g : gemms) {
    for (index_t b : {index_t{1}, kBatch}) {
      const index_t n = g.pixels * b;
      const Tensor a = rng.randn(nt::Shape{g.m, g.k});
      const Tensor x = rng.randn(nt::Shape{g.k, n});
      Tensor c(nt::Shape{g.m, n});
      const double ms = probe_ms([&] {
        nt::gemm_blocked(g.m, g.k, n, nt::GemmView::plain(a.data(), g.k),
                         nt::GemmView::plain(x.data(), n), c.data(), n);
      });
      const double gflops = 2.0 * static_cast<double>(g.m * g.k * n) / (ms * 1e6);
      r.layer(std::string("tensor.gemm_gflops.") + g.name + "_b" + std::to_string(b), gflops,
              "GFLOP/s", Column::kRate, b == 1 ? kClassifyB1 : kClassifyB8);
    }
  }
  struct Depthwise {
    const char* name;
    index_t channels, extent;
  };
  for (const Depthwise& d : {Depthwise{"block1", 64, 24}, Depthwise{"block2", 128, 12}}) {
    for (index_t b : {index_t{1}, kBatch}) {
      const Tensor x = rng.randn(nt::Shape{b, d.channels, d.extent, d.extent});
      const Tensor w = rng.randn(nt::Shape{d.channels, 3, 3});
      const nt::Conv2dGeom geom{.in_channels = d.channels, .out_channels = d.channels,
                                .kernel = 3, .stride = 1, .pad = 1};
      const double ms = probe_ms([&] { (void)nt::depthwise_conv2d(x, w, {}, geom); });
      r.layer(std::string("tensor.depthwise_ms.") + d.name + "_b" + std::to_string(b), ms, "ms",
              Column::kHostMs, b == 1 ? kClassifyB1 : kClassifyB8);
    }
  }
}

/// The fixed-point kernels, the fixed IP and its driver at the (64, 6, 6)
/// point, and the serve overhead split against the IP's own host time.
void ip_probes(const Options& opts, RunResult& r, hls::MhsaDesignPoint point,
               const hls::MhsaWeights& weights, double serve_rows_per_batch,
               double serve_p50_ms) {
  nt::Rng rng(opts.seed + 13);
  const auto ff = point.scheme.feature;
  const auto fx_x = nodetr::fx::FixedTensor::from_float(rng.randn(nt::Shape{36, 64}), ff);
  const auto fx_w =
      nodetr::fx::FixedTensor::from_float(rng.randn(nt::Shape{64, 64}, 0.0f, 0.125f),
                                          point.scheme.param);
  const double q_ms = probe_ms([&] { (void)nodetr::fx::qmatmul(fx_x, fx_w, ff); });
  r.layer("fixed.qmatmul_gops", 2.0 * 36 * 64 * 64 / (q_ms * 1e6), "Gop/s", Column::kRate,
          "throughput_per_s @ hybrid_fixed, serve_mhsa");

  hls::MhsaIpCore ip(point, weights);
  const Tensor x1 = rng.randn(nt::Shape{1, 64, 6, 6});
  const Tensor x8 = rng.randn(nt::Shape{kBatch, 64, 6, 6});
  const double b1 = probe_ms([&] { (void)ip.run(x1); });
  const std::int64_t cycles = ip.last_cycles().total();
  const double b8 = probe_ms([&] { (void)ip.run(x8); });
  r.layer("hls.ip_fixed_run_ms.b1", b1, "ms", Column::kHostMs, kHybrid);
  r.layer("hls.ip_fixed_run_ms.b8", b8, "ms", Column::kHostMs, kServe);
  r.layer("hls.ip_cycles", static_cast<double>(cycles), "cycles", Column::kSimCycles,
          "rt.sim_board_cycles_per_image @ hybrid_fixed");

  // Driver overhead: the same B=1 run behind the register/DDR/DMA model.
  rt::DdrMemory ddr;
  rt::MhsaAccelerator accel(std::make_unique<hls::MhsaIpCore>(point, weights), ddr);
  const double exec = probe_ms([&] { (void)accel.execute(x1); });
  r.layer("rt.driver_overhead_ms", exec - b1, "ms", Column::kHostMs,
          "latency_p10_ms @ hybrid_fixed");

  // The serve overhead: a request's median latency beyond the IP's own host
  // time for one batch of the engine's mean size.
  const index_t mean_rows =
      std::clamp(static_cast<index_t>(std::lround(serve_rows_per_batch)), index_t{1}, kBatch);
  const Tensor xm = rng.randn(nt::Shape{mean_rows, 64, 6, 6});
  const double bm = mean_rows == kBatch ? b8 : probe_ms([&] { (void)ip.run(xm); });
  r.layer("serve.engine_overhead_us_per_req", (serve_p50_ms - bm) * 1e3, "us", Column::kHostMs,
          "latency_p10_ms @ serve_mhsa");
}

void hybrid_probes(const Options& opts, RunResult& r) {
  auto lt = load_model(opts);
  std::vector<double> load, stage;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    lt->load(checkpoint_path(opts));
    load.push_back(ms_since(t));
  }
  lt->model().train(false);
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    auto session = lt->offload(hls::DataType::kFixed);
    stage.push_back(ms_since(t));
  }
  r.layer("train.checkpoint_load_ms", median(load), "ms", Column::kHostMs, kSetup);
  r.layer("core.offload_stage_ms", median(stage), "ms", Column::kHostMs,
          "setup_s @ hybrid_fixed");

  auto session = lt->offload(hls::DataType::kFixed);
  const std::vector<Tensor> images = make_images(opts.seed);
  std::vector<double> ps;
  rt::DeviceCounters per_image;
  for (std::size_t i = 0; i < kBatch; ++i) {
    (void)session->forward(images[i]);
    ps.push_back(session->last_timing().ps_ms);
    per_image = session->accelerator().take_counters();
  }
  r.layer("rt.ps_host_ms_per_image", median(ps), "ms", Column::kHostMs, kHybrid);
  // Simulated time is reported in PL cycles (200 MHz): it is a pure function
  // of the design point and repeats exactly, unlike any host time.
  r.layer("rt.sim_board_cycles_per_image", static_cast<double>(per_image.total_cycles()),
          "cycles", Column::kSimCycles, "sim board time @ hybrid_fixed (not in host latency)");
  const char* dma = "DMA per image @ hybrid_fixed";
  r.layer("rt.dma_bytes_in", static_cast<double>(per_image.dma_bytes_in), "bytes", Column::kBytes,
          dma);
  r.layer("rt.dma_bytes_out", static_cast<double>(per_image.dma_bytes_out), "bytes",
          Column::kBytes, dma);
  r.layer("rt.weight_bytes", static_cast<double>(per_image.weight_bytes), "bytes", Column::kBytes,
          dma);
  r.layer("rt.dma_cycles", static_cast<double>(per_image.dma_cycles), "cycles",
          Column::kSimCycles, "rt.sim_board_cycles_per_image @ hybrid_fixed");
  r.layer("rt.compute_cycles", static_cast<double>(per_image.compute_cycles), "cycles",
          Column::kSimCycles, "rt.sim_board_cycles_per_image @ hybrid_fixed");
}

}  // namespace

void layer_sweep(const Options& opts, RunResult& r) {
  stage_times(opts, r);
  kernel_probes(opts, r);
  hybrid_probes(opts, r);

  // serve_mhsa's layers: engine start-up, then a short loop of the workload.
  auto lt = load_model(opts);
  const auto weights = hls::MhsaWeights::from_module(lt->model().mhsa_block()->mhsa());
  std::vector<double> start;
  for (int i = 0; i < 3; ++i) {
    const auto t = Clock::now();
    nodetr::serve::InferenceEngine engine(serve_config(*lt), weights);
    start.push_back(ms_since(t));
  }
  r.layer("serve.engine_start_ms", median(start), "ms", Column::kHostMs,
          "setup_s @ serve_mhsa");

  ServeWorkload serve;
  serve.setup(opts);
  serve.make_references(opts, r);
  const Phase p = serve.run(kServeSeconds, r);
  serve.finish(r);
  const auto s = serve.stats();
  const double rows_per_batch =
      s.batches == 0 ? 0.0 : static_cast<double>(s.rows) / static_cast<double>(s.batches);
  r.layer("serve.queue_wait_p50_us", s.queue_wait_p50_us, "us", Column::kHostMs, kServe);
  r.layer("serve.queue_wait_p99_us", s.queue_wait_p99_us, "us", Column::kHostMs, kServe);
  r.layer("serve.request_latency_p99_ms", percentile(p.latency_ms, 99.0), "ms", Column::kHostMs,
          kServe);
  r.layer("serve.rows_per_batch", rows_per_batch, "rows", Column::kCount,
          "throughput_per_s @ serve_mhsa");
  r.layer("serve.occupancy", s.occupancy(kBatch), "ratio", Column::kCount,
          "throughput_per_s @ serve_mhsa");
  rt::DeviceCounters fleet;
  for (const auto& [name, ds] : s.device_stats) {
    fleet += ds.counters;
    r.layer("serve.device." + name + ".utilization_pct", ds.counters.utilization_pct(), "%",
            Column::kPercent, "serve.sim_board_ms_per_req @ serve_mhsa");
  }
  const double rows = static_cast<double>(s.rows);
  const double clock_mhz = serve.engine().config().devices.front().clock_mhz;
  r.layer("serve.sim_board_ms_per_req",
          static_cast<double>(fleet.total_cycles()) / clock_mhz * 1e-3 / rows, "ms",
          Column::kSimMs, "sim board time @ serve_mhsa (not in host latency)");
  r.layer("serve.dma_bytes_per_req",
          static_cast<double>(fleet.dma_bytes_in + fleet.dma_bytes_out) / rows, "bytes",
          Column::kBytes, "DMA per request @ serve_mhsa");

  ip_probes(opts, r, serve.engine().config().point, weights, rows_per_batch,
            p.latency());
}

}  // namespace perfbench
