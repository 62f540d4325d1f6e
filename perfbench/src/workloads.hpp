// The three workloads. Each one is built from the checkpoint the prepare
// step wrote (set-up), computes its references apart from the code it
// measures, and then runs whole rounds of the same operations from a single
// generator thread until the run's time is up, checking every output.
#pragma once

#include <algorithm>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "nodetr/core/lightweight_transformer.hpp"
#include "nodetr/serve/serve.hpp"
#include "checks.hpp"
#include "report.hpp"

namespace perfbench {

using nodetr::tensor::index_t;
using nodetr::tensor::Tensor;

// The paper's configuration: 96 px SynthSTL images, C = 6 Euler steps per
// ODE block, the final block's MHSA at the (64, 6, 6) design point.
inline constexpr index_t kImageSize = 96;
inline constexpr index_t kBatch = 8;            ///< classify's batched phase
inline constexpr index_t kImagesPerClass = 4;   ///< 10 classes -> 40 images
inline constexpr index_t kCalibrationPerClass = 2;  ///< BN calibration batch of 20
inline constexpr index_t kFeatureMaps = 64;     ///< serve_mhsa request pool = one round
inline constexpr std::size_t kWindow = 16;      ///< serve_mhsa requests in flight
inline constexpr std::size_t kBoards = 2;       ///< serve_mhsa simulated kFpgaFixed boards
inline constexpr std::int64_t kLingerUs = 200;  ///< serve_mhsa batcher linger

// Tolerances of the checks; perfbench/README.md derives each one.
// classify: the float IP path sums the MHSA in another order.
inline constexpr double kFloatIpRelTol = 1e-5;
// hybrid_fixed: final-FC features of the fixed-point PS/PL path vs float.
inline constexpr double kFixedFeatureAbsTol = 2e-3;
// serve_mhsa: the fixed IP's output vs the float nn::MultiHeadSelfAttention.
inline constexpr double kFixedMhsaAbsTol = 2e-3;

inline void expect(RunResult& r, const Check& c, const std::string& what) {
  if (!c.ok) r.check_failed(what + ": " + c.detail);
}

/// A tolerance check that also keeps the largest difference it has seen, so
/// each run prints how close its outputs came to the stated tolerance.
struct Tolerance {
  const char* what;
  double limit;
  double worst = 0.0;

  void check(RunResult& r, const Check& c, const std::string& tag) {
    worst = std::max(worst, c.measured);
    expect(r, c, tag + ": " + what);
  }
  void print() const { std::printf("%s: max %.3g (tolerance %.3g)\n", what, worst, limit); }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< prepare output / per-layer table directory
  Clock::time_point process_start;
};

[[nodiscard]] std::string checkpoint_path(const Options& opts);
/// Write the seeded model's checkpoint (the prepare step, its own process).
void write_checkpoint(const Options& opts);
/// A fresh model in eval mode with the checkpoint's weights.
[[nodiscard]] std::unique_ptr<nodetr::core::LightweightTransformer> load_model(
    const Options& opts);
/// The seeded SynthSTL test images, each (1, 3, 96, 96).
[[nodiscard]] std::vector<Tensor> make_images(std::uint64_t seed);
/// Seeded (1, 64, 6, 6) feature maps for serve_mhsa.
[[nodiscard]] std::vector<Tensor> make_feature_maps(std::uint64_t seed);

/// The quantile every end-to-end timing reports (see README: on a shared
/// host the median moves with other tenants' load, the low quantile does not).
inline constexpr double kTimingQuantile = 10.0;

/// What one timed phase measured: one latency per item, and the wall and
/// process CPU time of every round.
struct Phase {
  std::int64_t items = 0;
  double wall_ms = 0.0;
  std::vector<double> latency_ms;    ///< per image at B=1 / per request
  std::vector<double> round_ms;      ///< wall ms of each round's throughput unit
  std::vector<double> round_cpu_ms;  ///< process CPU ms of each round
  double items_per_round = 0.0;      ///< items in one throughput unit
  double cpu_items_per_round = 0.0;  ///< items one round's CPU time is spent on

  [[nodiscard]] double latency() const { return percentile(latency_ms, kTimingQuantile); }
  [[nodiscard]] double throughput_per_s() const {
    return items_per_round / (percentile(round_ms, kTimingQuantile) * 1e-3);
  }
  [[nodiscard]] double cpu_ms_per_item() const {
    return percentile(round_cpu_ms, kTimingQuantile) / cpu_items_per_round;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Load from the checkpoint, stage, and produce the first result.
  virtual void setup(const Options& opts) = 0;
  /// Reference outputs, computed apart from the code under measurement.
  virtual void make_references(const Options& opts, RunResult& r) = 0;
  /// Whole rounds until `seconds` have passed; every output is checked.
  virtual Phase run(double seconds, RunResult& r) = 0;
  /// Checks that need the whole run (row counts, feature tolerance).
  virtual void finish(RunResult& r) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// serve_mhsa's engine configuration, shared with the per-layer sweep.
[[nodiscard]] nodetr::serve::EngineConfig serve_config(nodetr::core::LightweightTransformer& lt);

/// serve_mhsa, exposed so the per-layer sweep can read the engine's stats.
class ServeWorkload final : public Workload {
 public:
  void setup(const Options& opts) override;
  void make_references(const Options& opts, RunResult& r) override;
  Phase run(double seconds, RunResult& r) override;
  void finish(RunResult& r) override;

  [[nodiscard]] nodetr::serve::EngineStats stats() const { return engine_->stats(); }
  [[nodiscard]] nodetr::serve::InferenceEngine& engine() { return *engine_; }

 private:
  std::unique_ptr<nodetr::core::LightweightTransformer> lt_;
  std::unique_ptr<nodetr::serve::InferenceEngine> engine_;
  std::vector<Tensor> maps_;
  std::vector<Tensor> ref_fixed_, ref_float_;
  std::int64_t submitted_ = 0;
  Tolerance float_tol_{"fixed IP output vs float MHSA, absolute", kFixedMhsaAbsTol};
};

/// The traced run's per-layer sweep (layers.cpp).
void layer_sweep(const Options& opts, RunResult& r);

}  // namespace perfbench
