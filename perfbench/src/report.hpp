// Measurement plumbing shared by the workloads: clocks, process CPU and
// memory, order statistics, and the result printer whose last stdout line is
// the one JSON object the benchmark contract asks for.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// User + system CPU seconds of the whole process (every thread).
[[nodiscard]] double cpu_seconds();
/// Peak resident set of the process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100]; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's per-layer table. Exactly one of the value
/// columns is set: host wall time and simulated board quantities are kept in
/// separate columns and never summed.
enum class Column { kHostMs, kSimCycles, kSimMs, kBytes, kRate, kCount, kPercent };

struct LayerRow {
  std::string name;
  double value = 0.0;
  std::string unit;
  Column column = Column::kHostMs;
  std::string moves;  ///< end-to-end metric @ workload this layer should move
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<LayerRow> layers;      ///< traced runs only
  std::vector<std::string> failures; ///< first few failed checks, for stderr

  /// Record a failed output check: the run's outputs are not correct.
  void check_failed(const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit, Column column, std::string moves);
};

/// Human-readable summary on stdout, then the JSON result as the last line.
/// Traced runs also write the per-layer table to `table_path` (markdown).
void print_result(const RunResult& r, const std::string& workload, bool trace,
                  const std::string& table_path);

}  // namespace perfbench
