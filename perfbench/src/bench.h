// Shared plumbing of the repo benchmark: run options, the result a
// workload hands back, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch files (the synthetic SWF)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports. `failures` lists every correctness or
/// coverage check that did not hold; any entry makes the run incorrect.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolation percentile (p in [0, 100]); 0 for no samples.
[[nodiscard]] inline double percentile(const std::vector<double>& values,
                                       double p) {
  return values.empty() ? 0.0 : gridsched::percentile(values, p);
}
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// Process user + system CPU time so far, in milliseconds.
[[nodiscard]] double process_cpu_ms();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over raw bytes, for bit-exact quality fingerprints.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The six default portfolio members, in PortfolioBatchScheduler's
/// default_members() order; per-member metrics use these names.
inline const std::vector<std::string>& member_names() {
  static const std::vector<std::string> names = {
      "MCT", "Min-Min", "StruggleGA", "LAHC", "cMA", "cMA-sync"};
  return names;
}

/// Per-layer self times folded from one traced pass, in milliseconds per
/// activation (top-level span).
struct SelfTimes {
  double activation_ms = 0.0;
  double shard_race_ms = 0.0;
  double drain_steal_ms = 0.0;
  double resize_scan_ms = 0.0;
  double admission_ms = 0.0;
  double next_chunk_ms = 0.0;
  std::vector<double> member_ms = std::vector<double>(member_names().size());
};

/// The end-to-end metrics every workload reports (see README.md for what
/// each one means on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double jobs_per_s = 0.0;
  double activation_ms_p50 = 0.0;
  double activation_ms_p95 = 0.0;
  double cpu_us_per_job = 0.0;
  double makespan_s = 0.0;
  double flowtime_mean_s = 0.0;
  double flowtime_p99_s = 0.0;
  double gap_pct = 0.0;
  double deadline_miss_pct = 0.0;
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics every workload reports; a layer a workload
/// bypasses reads 0.
struct LayerBooks {
  struct Member {
    double ms_per_run = 0.0;
    double evals_per_ms = 0.0;
    double win_pct = 0.0;
    double wait_ms = 0.0;
  };
  double next_chunk_ns_per_job = 0.0;
  double workload_jobs = 0.0;
  double sim_self_ns_per_job = 0.0;
  double sim_activations = 0.0;
  double sim_requeues = 0.0;
  double sim_peak_resident_jobs = 0.0;
  double race_ms = 0.0;
  double overhead_ms = 0.0;
  double shards_raced = 0.0;
  double migrations = 0.0;
  double steals = 0.0;
  double splits = 0.0;
  double merges = 0.0;
  double rerouted = 0.0;
  double accepted = 0.0;
  double degraded = 0.0;
  double rejected = 0.0;
  std::vector<Member> members = std::vector<Member>(member_names().size());
  double preview_move_ns = 0.0;
  double preview_swap_ns = 0.0;
  double reset_to_ns = 0.0;
  double local_search_us = 0.0;
  double lp_ms = 0.0;
  double lp_pivots = 0.0;
  double pivots_per_ms = 0.0;
  double trace_overhead_pct = 0.0;
  SelfTimes self;
};

void emit(const EndToEnd& metrics, RunResult& result);
void emit(const LayerBooks& books, RunResult& result);

RunResult run_stream(const RunOptions& options, bool churn);
RunResult run_braun(const RunOptions& options);

}  // namespace perfbench
