#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void RunResult::check_failed(const std::string& why) {
  correct = false;
  if (failures.size() < 8) failures.push_back(why);
}

void RunResult::layer(std::string name, double value, std::string unit, Column column,
                      std::string moves) {
  layers.push_back({std::move(name), value, std::move(unit), column, std::move(moves)});
}

namespace {

const char* column_title(Column c) {
  switch (c) {
    case Column::kHostMs: return "host ms";
    case Column::kSimCycles: return "sim cycles";
    case Column::kSimMs: return "sim ms";
    case Column::kBytes: return "sim bytes";
    case Column::kRate: return "host rate";
    case Column::kCount: return "count";
    case Column::kPercent: return "percent";
  }
  return "?";
}

void write_table(const RunResult& r, const std::string& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  constexpr Column kColumns[] = {Column::kHostMs, Column::kSimCycles, Column::kSimMs,
                                 Column::kBytes,  Column::kRate,      Column::kCount,
                                 Column::kPercent};
  out << "# Per-layer table (traced run, workload " << workload << ")\n\n"
      << "Host columns are wall time on this host; sim columns are the simulated board at "
         "its PL clock. The two are never summed.\n\n| metric |";
  for (Column c : kColumns) out << ' ' << column_title(c) << " |";
  out << " unit | moves |\n|---|";
  for (std::size_t i = 0; i < std::size(kColumns); ++i) out << "---:|";
  out << "---|---|\n";
  for (const LayerRow& row : r.layers) {
    out << "| " << row.name << " |";
    for (Column c : kColumns) {
      if (c == row.column) {
        char buf[64];
        std::snprintf(buf, sizeof buf, " %.6g |", row.value);
        out << buf;
      } else {
        out << "  |";
      }
    }
    out << ' ' << row.unit << " | " << row.moves << " |\n";
  }
}

}  // namespace

void print_result(const RunResult& r, const std::string& workload, bool trace,
                  const std::string& table_path) {
  RunResult out = r;
  std::vector<Metric> metrics = out.metrics;
  if (trace) {
    metrics.clear();
    for (const LayerRow& row : out.layers) metrics.push_back({row.name, row.value, row.unit});
    write_table(out, workload, table_path);
    std::printf("per-layer table: %s\n", table_path.c_str());
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) out.check_failed("metric " + m.name + " is not finite");
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %lld  failed %lld  correct %s\n",
              static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
              out.correct ? "true" : "false");
  for (const std::string& f : out.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : -1.0);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
