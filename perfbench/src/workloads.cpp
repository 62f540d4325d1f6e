#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "checks.hpp"
#include "nodetr/data/synth_stl.hpp"
#include "nodetr/nn/norm.hpp"
#include "nodetr/tensor/ops.hpp"

namespace perfbench {

namespace core = nodetr::core;
namespace hls = nodetr::hls;
namespace nt = nodetr::tensor;
namespace serve = nodetr::serve;


namespace {

std::span<const float> view(const Tensor& t) { return t.span(); }
std::span<const float> row(const Tensor& t, index_t i) {
  const auto n = static_cast<std::size_t>(t.numel() / t.dim(0));
  return t.span().subspan(static_cast<std::size_t>(i) * n, n);
}


Tensor concat_rows(const std::vector<Tensor>& xs, std::size_t begin, std::size_t count) {
  nt::Shape shape = xs[begin].shape();
  const index_t per = xs[begin].numel();
  Tensor out(nt::Shape{static_cast<index_t>(count), shape.dim(1), shape.dim(2), shape.dim(3)});
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(xs[begin + i].data(), xs[begin + i].data() + per,
              out.data() + static_cast<index_t>(i) * per);
  }
  return out;
}

/// Wall ms of `fn`; the process CPU it used is added to `cpu_ms`.
template <typename Fn>
double timed(double& cpu_ms, Fn&& fn) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  fn();
  const double ms = ms_since(t0);
  cpu_ms += (cpu_seconds() - c0) * 1e3;
  return ms;
}

// ---- classify ----------------------------------------------------------------

class ClassifyWorkload final : public Workload {
 public:
  void setup(const Options& opts) override {
    lt_ = load_model(opts);
    images_ = make_images(opts.seed);
    for (std::size_t b = 0; b + static_cast<std::size_t>(kBatch) <= images_.size();
         b += static_cast<std::size_t>(kBatch)) {
      batches_.push_back(concat_rows(images_, b, static_cast<std::size_t>(kBatch)));
    }
    first_ = lt_->predict_logits(images_[0]);
  }

  void make_references(const Options& opts, RunResult& r) override {
    // The float IP (hls::MhsaIpCore behind rt::MhsaAccelerator) is an MHSA
    // implementation apart from nn::MultiHeadSelfAttention.
    auto ref = load_model(opts);
    auto offload = ref->offload(hls::DataType::kFloat32);
    for (const Tensor& x : images_) ref_ip_.push_back(offload->forward(x));
    expect(r, bitwise_equal(view(first_), view(lt_->predict_logits(images_[0]))),
           "classify: first result repeats");
  }

  Phase run(double seconds, RunResult& r) override {
    Phase p;
    p.items_per_round = kBatch;          // throughput: the B=8 phase
    p.cpu_items_per_round = 2 * kBatch;  // CPU: both phases
    const auto start = Clock::now();
    std::size_t group = 0;
    std::vector<Tensor> single(static_cast<std::size_t>(kBatch));
    do {
      // One round: the group's 8 images one at a time, then as one batch.
      const std::size_t base = group * static_cast<std::size_t>(kBatch);
      double cpu_ms = 0.0;
      for (std::size_t i = 0; i < single.size(); ++i) {
        p.latency_ms.push_back(
            timed(cpu_ms, [&] { single[i] = lt_->predict_logits(images_[base + i]); }));
      }
      Tensor batched;
      p.round_ms.push_back(
          timed(cpu_ms, [&] { batched = lt_->predict_logits(batches_[group]); }));
      p.round_cpu_ms.push_back(cpu_ms);
      for (std::size_t i = 0; i < single.size(); ++i) {
        const std::string tag = "classify image " + std::to_string(base + i);
        expect(r, bitwise_equal(row(batched, static_cast<index_t>(i)), view(single[i])),
               tag + ": B=8 logits vs B=1");
        expect(r, all_finite(view(single[i])), tag + ": finite");
        ip_tol_.check(r, within_relative(view(single[i]), view(ref_ip_[base + i]), ip_tol_.limit),
                      tag);
      }
      r.attempted += 2 * kBatch;
      p.items += 2 * kBatch;
      group = (group + 1) % batches_.size();
    } while (ms_since(start) < seconds * 1e3);
    p.wall_ms = ms_since(start);
    return p;
  }

  void finish(RunResult&) override { ip_tol_.print(); }

 private:
  std::unique_ptr<core::LightweightTransformer> lt_;
  std::vector<Tensor> images_, batches_, ref_ip_;
  Tensor first_;
  Tolerance ip_tol_{"logits vs float IP path, relative to max |logit|", kFloatIpRelTol};
};

// ---- hybrid_fixed ------------------------------------------------------------

class HybridWorkload final : public Workload {
 public:
  void setup(const Options& opts) override {
    lt_ = load_model(opts);
    images_ = make_images(opts.seed);
    offload_ = lt_->offload(hls::DataType::kFixed);
    (void)offload_->forward(images_[0]);
    (void)offload_->accelerator().take_counters();
  }

  void make_references(const Options& opts, RunResult&) override {
    auto ref = load_model(opts);
    for (const Tensor& x : images_) {
      ref_logits_.push_back(ref->predict_logits(x));
      ref_features_.push_back(ref->model().features(x));
    }
    const auto& mc = lt_->model().mhsa_block()->mhsa().config();
    MhsaGeometry g{.dim = mc.dim, .height = mc.height, .width = mc.width, .heads = mc.heads};
    want_dma_bytes_ = hybrid_dma_bytes_per_image(g, 4, lt_->options().solver_steps);
  }

  Phase run(double seconds, RunResult& r) override {
    Phase p;
    p.items_per_round = kBatch;
    p.cpu_items_per_round = kBatch;
    const auto start = Clock::now();
    std::size_t next = 0;
    do {
      // One round: 8 images, each image -> logits at B=1 through the PS/PL split.
      double cpu_ms = 0.0, busy_ms = 0.0;
      for (index_t i = 0; i < kBatch; ++i, next = (next + 1) % images_.size()) {
        Tensor logits;
        p.latency_ms.push_back(
            timed(cpu_ms, [&] { logits = offload_->forward(images_[next]); }));
        busy_ms += p.latency_ms.back();
        const auto c = offload_->accelerator().take_counters();
        const std::string tag = "hybrid image " + std::to_string(next);
        expect(r, equal_count(c.dma_bytes_in + c.dma_bytes_out, want_dma_bytes_, "DMA bytes"),
               tag);
        expect(r, same_argmax(view(logits), view(ref_logits_[next])), tag + ": vs float");
        expect(r, all_finite(view(logits)), tag + ": finite");
        ++r.attempted;
        ++p.items;
      }
      p.round_ms.push_back(busy_ms);
      p.round_cpu_ms.push_back(cpu_ms);
    } while (ms_since(start) < seconds * 1e3);
    p.wall_ms = ms_since(start);
    return p;
  }

  void finish(RunResult& r) override {
    for (std::size_t i = 0; i < images_.size(); ++i) {
      const Tensor f = lt_->model().features(images_[i]);
      feature_tol_.check(r, within_absolute(view(f), view(ref_features_[i]), feature_tol_.limit),
                         "hybrid image " + std::to_string(i));
    }
    feature_tol_.print();
  }

 private:
  std::unique_ptr<core::LightweightTransformer> lt_;
  std::unique_ptr<nodetr::rt::OffloadedModel> offload_;
  std::vector<Tensor> images_, ref_logits_, ref_features_;
  std::int64_t want_dma_bytes_ = 0;
  Tolerance feature_tol_{"final-FC features vs float, absolute", kFixedFeatureAbsTol};
};

}  // namespace

// ---- serve_mhsa --------------------------------------------------------------

serve::EngineConfig serve_config(core::LightweightTransformer& lt) {
  serve::EngineConfig cfg;
  cfg.point = lt.design_point(hls::DataType::kFixed);
  cfg.queue_capacity = 64;
  cfg.batcher.max_batch = kBatch;
  cfg.batcher.max_wait_us = kLingerUs;
  for (std::size_t i = 0; i < kBoards; ++i) {
    serve::DeviceConfig dev;
    dev.name = "dev" + std::to_string(i);
    dev.backend = serve::Backend::kFpgaFixed;
    cfg.devices.push_back(dev);
  }
  return cfg;
}

void ServeWorkload::setup(const Options& opts) {
  lt_ = load_model(opts);
  maps_ = make_feature_maps(opts.seed);
  engine_ = std::make_unique<serve::InferenceEngine>(
      serve_config(*lt_), hls::MhsaWeights::from_module(lt_->model().mhsa_block()->mhsa()));
  (void)engine_->submit(maps_[0]).get();
  submitted_ = 1;
}

void ServeWorkload::make_references(const Options&, RunResult&) {
  auto& mhsa = lt_->model().mhsa_block()->mhsa();
  hls::MhsaIpCore ip(engine_->config().point, hls::MhsaWeights::from_module(mhsa));
  for (const Tensor& x : maps_) {
    ref_fixed_.push_back(ip.run(x));
    ref_float_.push_back(mhsa.forward(x));
  }
}

Phase ServeWorkload::run(double seconds, RunResult& r) {
  struct InFlight {
    std::future<Tensor> result;
    std::size_t map = 0;
    Clock::time_point submitted;
  };
  Phase p;
  p.items_per_round = static_cast<double>(maps_.size());
  p.cpu_items_per_round = p.items_per_round;
  std::deque<InFlight> inflight;
  const auto start = Clock::now();
  auto round_start = start;
  double round_cpu = cpu_seconds();
  auto reap = [&] {
    InFlight& f = inflight.front();
    f.result.wait();
    p.latency_ms.push_back(ms_since(f.submitted));
    const Tensor y = f.result.get();
    const std::string tag = "serve request (map " + std::to_string(f.map) + ")";
    expect(r, bitwise_equal(view(y), view(ref_fixed_[f.map])), tag + ": vs standalone IP");
    float_tol_.check(r, within_absolute(view(y), view(ref_float_[f.map]), float_tol_.limit), tag);
    inflight.pop_front();
    if (++p.items % static_cast<std::int64_t>(maps_.size()) == 0) {
      // A round ends when its last response has been reaped.
      const auto now = Clock::now();
      const double cpu = cpu_seconds();
      p.round_ms.push_back(ms_between(round_start, now));
      p.round_cpu_ms.push_back((cpu - round_cpu) * 1e3);
      round_start = now;
      round_cpu = cpu;
    }
  };
  do {
    // One round: every map of the pool once, kWindow requests in flight.
    for (std::size_t m = 0; m < maps_.size(); ++m) {
      if (inflight.size() >= kWindow) reap();
      inflight.push_back({engine_->submit(maps_[m]), m, Clock::now()});
      ++submitted_;
      ++r.attempted;
    }
  } while (ms_since(start) < seconds * 1e3);
  while (!inflight.empty()) reap();
  p.wall_ms = ms_since(start);
  return p;
}

void ServeWorkload::finish(RunResult& r) {
  engine_->shutdown();
  const auto s = engine_->stats();
  expect(r, equal_count(static_cast<std::int64_t>(s.rows), submitted_, "engine rows vs submitted"),
         "serve_mhsa");
  expect(r, equal_count(static_cast<std::int64_t>(s.failed), 0, "engine failed futures"),
         "serve_mhsa");
  float_tol_.print();
}

// ---- shared set-up -------------------------------------------------------------

std::string checkpoint_path(const Options& opts) {
  return opts.dir + "/model_seed" + std::to_string(opts.seed) + ".ndck";
}

namespace {

void collect_batch_norms(nodetr::nn::Module& m, std::vector<nodetr::nn::BatchNorm2d*>& out) {
  if (auto* bn = dynamic_cast<nodetr::nn::BatchNorm2d*>(&m)) out.push_back(bn);
  for (nodetr::nn::Module* child : m.children()) collect_batch_norms(*child, out);
}

/// Set every BatchNorm's running statistics to the statistics it sees on
/// `batch`, as a trained model's would be. One train-mode pass from running
/// buffers at 0 leaves w·s (w = 1 - (1 - momentum)^updates, where an ODE
/// block's BNs update once per Euler step); a second pass from buffers at 1
/// adds exactly 1 - w, so s = r0 / (1 - (r1 - r0)) without relying on either
/// the momentum or the update count.
void calibrate_batch_norm(nodetr::models::OdeNet& model, const Tensor& batch) {
  std::vector<nodetr::nn::BatchNorm2d*> bns;
  collect_batch_norms(model, bns);
  auto pass = [&](float init) {
    for (auto* bn : bns) {
      for (Tensor* buf : bn->local_buffers()) buf->fill(init);
    }
    model.train(true);
    (void)model.forward(batch);
    std::vector<Tensor> out;
    for (auto* bn : bns) {
      for (Tensor* buf : bn->local_buffers()) out.push_back(*buf);
    }
    return out;
  };
  const std::vector<Tensor> r0 = pass(0.0f), r1 = pass(1.0f);
  std::size_t i = 0;
  for (auto* bn : bns) {
    for (Tensor* buf : bn->local_buffers()) {
      for (index_t c = 0; c < buf->numel(); ++c) {
        (*buf)[c] = r0[i][c] / (1.0f - (r1[i][c] - r0[i][c]));
      }
      ++i;
    }
  }
  model.train(false);
}

}  // namespace

void write_checkpoint(const Options& opts) {
  core::Options mo;
  mo.image_size = kImageSize;
  mo.seed = opts.seed;
  core::LightweightTransformer lt(mo);
  nodetr::data::SynthStlConfig cfg;
  cfg.image_size = kImageSize;
  cfg.train_per_class = kCalibrationPerClass;
  cfg.test_per_class = 0;
  cfg.seed = opts.seed * 0x94d049bb133111ebULL + 3;
  nodetr::data::SynthStl data(cfg);
  Tensor batch(nt::Shape{static_cast<index_t>(data.train().size()), 3, kImageSize, kImageSize});
  const index_t per = 3 * kImageSize * kImageSize;
  for (std::size_t i = 0; i < data.train().size(); ++i) {
    const Tensor& img = data.train()[i].image;
    std::copy(img.data(), img.data() + per, batch.data() + static_cast<index_t>(i) * per);
  }
  calibrate_batch_norm(lt.model(), batch);
  lt.save(checkpoint_path(opts));
}

std::unique_ptr<core::LightweightTransformer> load_model(const Options& opts) {
  core::Options mo;
  mo.image_size = kImageSize;
  auto lt = std::make_unique<core::LightweightTransformer>(mo);
  lt->load(checkpoint_path(opts));
  lt->model().train(false);
  return lt;
}

std::vector<Tensor> make_images(std::uint64_t seed) {
  nodetr::data::SynthStlConfig cfg;
  cfg.image_size = kImageSize;
  cfg.train_per_class = 0;
  cfg.test_per_class = kImagesPerClass;
  cfg.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  nodetr::data::SynthStl data(cfg);
  std::vector<Tensor> images;
  for (const auto& s : data.test()) {
    images.push_back(s.image.reshape(nt::Shape{1, 3, kImageSize, kImageSize}));
  }
  return images;
}

std::vector<Tensor> make_feature_maps(std::uint64_t seed) {
  nt::Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 2);
  std::vector<Tensor> maps;
  for (index_t i = 0; i < kFeatureMaps; ++i) {
    maps.push_back(rng.randn(nt::Shape{1, 64, kImageSize / 16, kImageSize / 16}));
  }
  return maps;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "classify") return std::make_unique<ClassifyWorkload>();
  if (name == "hybrid_fixed") return std::make_unique<HybridWorkload>();
  if (name == "serve_mhsa") return std::make_unique<ServeWorkload>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
