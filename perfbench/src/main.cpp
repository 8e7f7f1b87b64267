// perfbench: the repo benchmark's driver binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir D
//
// Runs one workload (swf-stream, braun-batch or churn-qos) for about S
// seconds of measurement, checks its outputs, and prints as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones, taken from a run that also records spans. Exits 1
// when any correctness or coverage check fails.
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "obs/json.h"

namespace perfbench {

void emit(const EndToEnd& m, RunResult& r) {
  r.e2e("setup_s", m.setup_s, "s");
  r.e2e("jobs_per_s", m.jobs_per_s, "1/s");
  r.e2e("activation_ms_p50", m.activation_ms_p50, "ms");
  r.e2e("activation_ms_p95", m.activation_ms_p95, "ms");
  r.e2e("cpu_us_per_job", m.cpu_us_per_job, "us");
  r.e2e("makespan_s", m.makespan_s, "s");
  r.e2e("flowtime_mean_s", m.flowtime_mean_s, "s");
  r.e2e("flowtime_p99_s", m.flowtime_p99_s, "s");
  r.e2e("gap_pct", m.gap_pct, "%");
  r.e2e("deadline_miss_pct", m.deadline_miss_pct, "%");
  r.e2e("peak_rss_mb", m.peak_rss_mb, "MiB");
}

void emit(const LayerBooks& b, RunResult& r) {
  r.layer("workload.next_chunk_ns_per_job", b.next_chunk_ns_per_job, "ns");
  r.layer("workload.jobs", b.workload_jobs, "count");
  r.layer("sim.self_ns_per_job", b.sim_self_ns_per_job, "ns");
  r.layer("sim.activations", b.sim_activations, "count");
  r.layer("sim.requeues", b.sim_requeues, "count");
  r.layer("sim.peak_resident_jobs", b.sim_peak_resident_jobs, "count");
  r.layer("service.race_ms", b.race_ms, "ms");
  r.layer("service.overhead_ms", b.overhead_ms, "ms");
  r.layer("service.shards_raced", b.shards_raced, "count");
  r.layer("service.migrations", b.migrations, "count");
  r.layer("service.steals", b.steals, "count");
  r.layer("service.splits", b.splits, "count");
  r.layer("service.merges", b.merges, "count");
  r.layer("service.rerouted", b.rerouted, "count");
  r.layer("qos.accepted", b.accepted, "count");
  r.layer("qos.degraded", b.degraded, "count");
  r.layer("qos.rejected", b.rejected, "count");
  const auto& names = member_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string prefix = "member." + names[i] + ".";
    const LayerBooks::Member& m = b.members[i];
    r.layer(prefix + "ms_per_run", m.ms_per_run, "ms");
    r.layer(prefix + "evals_per_ms", m.evals_per_ms, "1/ms");
    r.layer(prefix + "win_pct", m.win_pct, "%");
    r.layer(prefix + "wait_ms", m.wait_ms, "ms");
  }
  r.layer("evaluator.preview_move_ns", b.preview_move_ns, "ns");
  r.layer("evaluator.preview_swap_ns", b.preview_swap_ns, "ns");
  r.layer("evaluator.reset_to_ns", b.reset_to_ns, "ns");
  r.layer("cma.local_search_us", b.local_search_us, "us");
  r.layer("bounds.lp_ms", b.lp_ms, "ms");
  r.layer("bounds.lp_pivots", b.lp_pivots, "count");
  r.layer("bounds.pivots_per_ms", b.pivots_per_ms, "1/ms");
  r.layer("trace.overhead_pct", b.trace_overhead_pct, "%");
  const SelfTimes& s = b.self;
  r.layer("self.activation_ms", s.activation_ms, "ms");
  r.layer("self.shard_race_ms", s.shard_race_ms, "ms");
  r.layer("self.drain_steal_ms", s.drain_steal_ms, "ms");
  r.layer("self.resize_scan_ms", s.resize_scan_ms, "ms");
  r.layer("self.admission_ms", s.admission_ms, "ms");
  r.layer("self.next_chunk_ms", s.next_chunk_ms, "ms");
  for (std::size_t i = 0; i < names.size(); ++i) {
    r.layer("self.member." + names[i] + "_ms", s.member_ms[i], "ms");
  }
}

namespace {

void print(const RunResult& result, bool trace) {
  using gridsched::obs::JsonValue;
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  JsonValue::Object values;
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << gridsched::obs::json_number(m.value)
              << " " << m.unit << "\n";
    values.emplace_back(
        m.name, JsonValue(JsonValue::Object{{"value", JsonValue(m.value)},
                                            {"unit", JsonValue(m.unit)}}));
  }
  for (const std::string& failure : result.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  // Counts are printed as integers: json_number may pick exponent form.
  std::cout << "{\"correct\": "
            << (result.failures.empty() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << JsonValue(std::move(values)).dump() << "}"
            << std::endl;
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      trace_set = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!trace_set) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  if (options.work_dir.empty()) throw std::invalid_argument("--work-dir");
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  RunResult result;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "swf-stream") {
      result = run_stream(options, /*churn=*/false);
    } else if (options.workload == "churn-qos") {
      result = run_stream(options, /*churn=*/true);
    } else if (options.workload == "braun-batch") {
      result = run_braun(options);
    } else {
      std::cerr << "perfbench: unknown workload " << options.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " threw: " << e.what()
              << "\n";
    return 1;
  }
  print(result, options.trace);
  return result.failures.empty() ? 0 : 1;
}
