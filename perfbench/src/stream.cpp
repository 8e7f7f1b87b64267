// The two stream workloads: a synthetic SWF log is written row by row,
// then streamed through SwfStreamReader -> GridSimulator -> a 4-shard
// GridSchedulingService. The simulator waits for every plan before it
// advances (a closed loop with one client).
//
//   swf-stream  the service's plain read path: least-backlog routing, no
//               churn, no resizes, admission off; 25% of jobs carry a
//               deadline. Search work per activation is tiny (60
//               evaluations per member), so the fixed per-activation cost
//               of the whole service path dominates.
//   churn-qos   the same path with every mutating branch on: machine
//               churn with rack-wide storms (requeues, cache remaps),
//               split/merge resizing, drain-tail stealing, deadline-aware
//               routing and admission with overload shedding, under a
//               diurnal arrival rate and deadlines tight enough to bind.
//
// Every member stops on evaluations (ServiceConfig::member_stop); the
// wall-clock budget is far beyond any activation, so the schedules, and
// with them every quality metric, are a pure function of the seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "probes.h"
#include "service/grid_scheduling_service.h"
#include "sim/grid_simulator.h"
#include "workload/swf_io.h"

namespace perfbench {
namespace {

using namespace gridsched;

constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kMinActivations = 200;  // >= 10 samples beyond p95
// One extra set-up is timed after every kSetupEvery-th activation. A
// set-up takes ~0.1 ms, and on a shared host its time follows the host's
// state from second to second, so the samples are spread over the whole
// run, as the passes are, rather than taken in a block.
constexpr int kSetupEvery = 4;

struct StreamShape {
  long jobs = 0;
  double rate = 0.0;          // mean arrivals per simulated second
  double rate_swing = 0.0;    // diurnal amplitude, share of `rate`
  double day_s = 0.0;         // diurnal period, simulated seconds
  int deadline_every = 0;     // every k-th job carries a deadline
  double deadline_factor = 0; // requested = factor * run + slack
  double deadline_slack_s = 0;
};

StreamShape shape_of(bool churn) {
  if (!churn) return {130'000, 20.0, 0.0, 0.0, 4, 1.5, 25.0};
  return {150'000, 20.0, 0.8, 1'800.0, 2, 1.5, 20.0};
}

/// Writes the workload's SWF log row by row (never materialized) and
/// returns the last arrival.
double write_swf(const std::string& path, std::uint64_t seed,
                 const StreamShape& shape) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "; synthetic SWF, " << shape.jobs << " jobs\n";
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5f3);
  double t = 0.0;
  for (long i = 0; i < shape.jobs; ++i) {
    double rate = shape.rate;
    if (shape.rate_swing > 0) {
      rate *= 1.0 + shape.rate_swing *
                        std::sin(2.0 * std::numbers::pi * t / shape.day_s);
    }
    t += rng.exponential(rate);
    // LogNormal run time at the 1000-MIPS reference machine: mean ~1.8 s.
    const double run_seconds = std::exp(rng.normal(7.0, 1.0)) / 1000.0;
    const double requested =
        i % shape.deadline_every == 0
            ? run_seconds * shape.deadline_factor + shape.deadline_slack_s
            : -1.0;
    write_swf_row(out, i + 1, t, run_seconds, /*procs=*/1,
                  /*user=*/static_cast<int>(i % 50),
                  /*queue=*/static_cast<int>(i % 3), requested);
  }
  out.close();
  if (!out) throw std::runtime_error("short write to " + path);
  return t;
}

/// Machine churn for churn-qos. Machines fail independently (one chance
/// per activation window, mean time between failures 1500 s, mean repair
/// 200 s), drawn the way the simulator draws its own churn and never in
/// the window that repaired the machine. On top, every 300 s a storm
/// takes down every machine outside one rack of 12 (ids 12k..12k+11, the
/// rack rotating storm to storm) for 45-60 s. A rack holds machines of
/// every class and every initial shard, so the alive pool thins evenly:
/// shards merge during a storm and split after it, and the overloaded
/// survivors make admission shed. Like the machine speeds, the failure
/// log is the same for every seed (seeded logs moved flowtime_p99_s and
/// the latency tail by ~10% between seeds); it is replayed through
/// SimConfig::churn_replay.
std::vector<ChurnEvent> make_churn(double horizon, double period,
                                   int machines) {
  constexpr int kRack = 12;
  Rng rng(2007);
  std::vector<double> repair_at(static_cast<std::size_t>(machines), 0.0);
  std::vector<ChurnEvent> events;
  const double p_fail = 1.0 - std::exp(-period / 1'500.0);
  int storms = 0;
  for (double now = period; now <= horizon; now += period) {
    const bool storm = std::fmod(now, 300.0) == 0.0;
    const int spared = storms % (machines / kRack);
    if (storm) ++storms;
    for (int m = 0; m < machines; ++m) {
      double& repaired = repair_at[static_cast<std::size_t>(m)];
      if (repaired > now - period) continue;  // down, or just repaired
      const bool hit = storm && m / kRack != spared;
      if (!hit && !rng.chance(p_fail)) continue;
      const double fail_at = now - rng.uniform(0.0, period);
      repaired = fail_at + (hit ? rng.uniform(45.0, 60.0)
                                : rng.exponential(1.0 / 200.0));
      events.push_back({m, fail_at, repaired});
    }
  }
  return events;
}

/// The run's input, made once before anything is timed: the SWF log on
/// disk and, for churn-qos, the replayed failure log.
struct Input {
  std::string path;
  double horizon = 0.0;
  std::shared_ptr<const std::vector<ChurnEvent>> churn;
};

SimConfig sim_config(const Input& input) {
  SimConfig config;
  config.horizon = input.horizon + 1.0;
  config.scheduler_period = 30.0;
  config.num_machines = 48;
  config.mips_min = 500.0;
  config.mips_max = 2'000.0;
  config.num_job_classes = 3;
  // The grid's hardware is the same for every seed (the simulator seed
  // draws machine speeds); the seed varies the job stream and the search.
  // Seeded speeds moved gap_pct by ~10% between seeds.
  config.seed = 2007;
  if (input.churn) {
    // Near-uniform speeds: which rack survives a storm must not decide how
    // much capacity survives it.
    config.mips_min = 1'000.0;
    config.mips_max = 1'200.0;
    config.churn_replay = input.churn;
  }
  return config;
}

ServiceConfig service_config(std::uint64_t seed, bool churn) {
  ServiceConfig config;
  config.num_shards = 4;
  config.threads = kPoolThreads;
  config.total_budget_ms = 1e7;  // never binds: members stop on evaluations
  config.member_stop.max_evaluations = 60;
  config.seed = seed;
  config.routing = RoutingKind::kLeastBacklog;
  if (churn) {
    config.routing = RoutingKind::kDeadlineAware;
    config.split_above_machines = 8;
    config.merge_below_machines = 4;
    config.drain_steal = true;
    config.admission.enabled = true;
    config.admission.overload_backlog = 5.0;
  }
  return config;
}

/// One pass over the whole stream and everything booked about it.
struct Pass {
  bool traced = false;
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  SimMetrics sim;
  std::uint64_t fingerprint = 0;
  std::int64_t observed = 0;
  double flowtime_p99 = 0.0;
  double floor_gap_pct = 0.0;
  int plans_below_floor = 0;
  int incomplete_plans = 0;
  std::vector<double> call_ms;
  LayerBooks books;
  bool trace_ok = true;
};

/// Reads the service's public post-run books into the layer metrics.
void read_service_books(const GridSchedulingService& service,
                        LayerBooks& books) {
  std::map<std::uint64_t, double> slowest;  // activation -> slowest race
  for (const ShardActivationRecord& r : service.shard_activations()) {
    double& worst = slowest[r.activation];
    worst = std::max(worst, r.race_ms);
  }
  std::vector<double> race;
  std::vector<double> overhead;
  for (const ServiceActivationRecord& r : service.service_activations()) {
    const double slow = slowest[r.activation];
    race.push_back(slow);
    overhead.push_back(r.wall_ms - slow);
    books.shards_raced += r.shards_raced;
    books.rerouted += r.jobs_rerouted;
  }
  books.race_ms = median(race);
  books.overhead_ms = median(overhead);
  for (const ShardStats& s : service.shard_stats()) {
    books.migrations += s.migrated_in;
    books.steals += s.stolen_in;
  }
  for (const ShardResizeEvent& e : service.resize_events()) {
    (e.split ? books.splits : books.merges) += 1;
  }
  const AdmissionStats& admission = service.admission_stats();
  books.accepted = static_cast<double>(admission.accepted);
  books.degraded = static_cast<double>(admission.degraded);
  books.rejected = static_cast<double>(admission.rejected());

  const auto& names = member_names();
  std::vector<MemberStats> total(names.size());
  for (int shard = 0; shard < service.num_shards(); ++shard) {
    for (const MemberStats& s :
         service.shard_scheduler(shard).member_stats()) {
      const auto it = std::find(names.begin(), names.end(), s.name);
      if (it == names.end()) continue;
      MemberStats& t = total[static_cast<std::size_t>(it - names.begin())];
      t.runs += s.runs;
      t.wins += s.wins;
      t.total_ms += s.total_ms;
      t.evaluations += s.evaluations;
    }
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    const MemberStats& t = total[i];
    LayerBooks::Member& m = books.members[i];
    if (t.runs == 0) continue;
    m.ms_per_run = t.total_ms / t.runs;
    m.evals_per_ms =
        t.total_ms > 0 ? static_cast<double>(t.evaluations) / t.total_ms : 0;
    m.win_pct = 100.0 * t.wins / t.runs;
  }
}

/// What a pass builds before the stream starts: the open stream, the
/// simulator and the service. Building one is one set-up.
struct Setup {
  Setup(const Input& input, const RunOptions& options, bool churn,
        obs::TraceRecorder* trace)
      : in(input.path),
        source(std::make_shared<TimedSource>(
            std::make_unique<SwfStreamReader>(in), trace)) {
    SimConfig config = sim_config(input);
    config.stream = source;
    sim = std::make_unique<GridSimulator>(config);
    ServiceConfig service_cfg = service_config(options.seed, churn);
    service_cfg.trace = trace;
    service = std::make_unique<GridSchedulingService>(service_cfg);
  }

  std::ifstream in;  // outlives the reader inside `source`
  std::shared_ptr<TimedSource> source;
  std::unique_ptr<GridSimulator> sim;
  std::unique_ptr<GridSchedulingService> service;
};

/// Forwards to the scheduler, and after every kSetupEvery-th plan times
/// one extra set-up (torn down untimed). The wall and CPU time the samples
/// take, teardown included, are booked so the pass can leave them out.
class SetupSampler final : public BatchScheduler {
 public:
  SetupSampler(BatchScheduler& inner, const Input& input,
               const RunOptions& options, bool churn)
      : inner_(inner), input_(input), options_(options), churn_(churn) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc) override {
    Schedule plan = inner_.schedule_batch(etc);
    sample();
    return plan;
  }
  [[nodiscard]] Schedule schedule_batch(const EtcMatrix& etc,
                                        const BatchContext& context) override {
    Schedule plan = inner_.schedule_batch(etc, context);
    sample();
    return plan;
  }

  std::vector<double> setup_s;
  double spent_ms = 0.0;
  double spent_cpu_ms = 0.0;

 private:
  void sample() {
    if (++calls_ % kSetupEvery != 0) return;
    const double cpu_start = process_cpu_ms();
    const auto start = Clock::now();
    {
      const Setup setup(input_, options_, churn_, nullptr);
      setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    }
    spent_ms += ms_between(start, Clock::now());
    spent_cpu_ms += process_cpu_ms() - cpu_start;
  }

  BatchScheduler& inner_;
  const Input& input_;
  const RunOptions& options_;
  bool churn_;
  int calls_ = 0;
};

Pass run_pass(const Input& input, const RunOptions& options, bool churn,
              bool traced) {
  Pass pass;
  pass.traced = traced;
  const StreamShape shape = shape_of(churn);
  std::optional<obs::TraceRecorder> recorder;
  if (traced) recorder.emplace();
  obs::TraceRecorder* trace = traced ? &*recorder : nullptr;

  const auto setup_start = Clock::now();
  Setup setup(input, options, churn, trace);
  const double setup_s = ms_between(setup_start, Clock::now()) / 1e3;
  GridSimulator& sim = *setup.sim;
  TimedSource& source = *setup.source;
  TimedScheduler scheduler(*setup.service, trace);
  SetupSampler sampler(scheduler, input, options, churn);
  Fingerprint fingerprint;
  std::vector<double> flowtimes;
  flowtimes.reserve(static_cast<std::size_t>(shape.jobs));
  sim.set_job_observer([&](const SimJobRecord& r, const TraceJob&) {
    fingerprint.add(r.id);
    fingerprint.add(r.machine);
    fingerprint.add(r.start);
    fingerprint.add(r.finish);
    fingerprint.add(r.attempts);
    fingerprint.add(r.rejected);
    ++pass.observed;
    if (!r.rejected && r.finish >= 0) flowtimes.push_back(r.flowtime());
  });

  // --- Measured: the whole stream, closed loop. ---
  const double cpu_start = process_cpu_ms();
  const auto start = Clock::now();
  pass.sim = sim.run(sampler);
  pass.wall_s = (ms_between(start, Clock::now()) - sampler.spent_ms) / 1e3;
  pass.cpu_ms = process_cpu_ms() - cpu_start - sampler.spent_cpu_ms;
  pass.setup_s = std::move(sampler.setup_s);
  pass.setup_s.push_back(setup_s);

  pass.fingerprint = fingerprint.value();
  pass.flowtime_p99 = percentile(flowtimes, 99.0);
  pass.floor_gap_pct =
      scheduler.gap_pct_sum / std::max(1, scheduler.gap_batches);
  pass.plans_below_floor = scheduler.plans_below_floor;
  pass.incomplete_plans = scheduler.incomplete_plans;
  pass.call_ms = scheduler.call_ms;

  LayerBooks& books = pass.books;
  const double jobs = std::max<double>(1.0, pass.sim.jobs_arrived);
  double scheduler_ms = 0.0;
  for (const double ms : scheduler.call_ms) scheduler_ms += ms;
  books.workload_jobs = static_cast<double>(source.jobs);
  books.next_chunk_ns_per_job =
      source.jobs > 0 ? source.total_ms * 1e6 / source.jobs : 0.0;
  books.sim_self_ns_per_job = (pass.wall_s * 1e3 - scheduler_ms -
                               source.total_ms - scheduler.score_ms) *
                              1e6 / jobs;
  books.sim_activations = pass.sim.activations;
  books.sim_requeues = pass.sim.jobs_requeued;
  books.sim_peak_resident_jobs = pass.sim.peak_resident_jobs;
  read_service_books(*setup.service, books);
  if (traced) {
    pass.trace_ok = fold_trace(*recorder, "activation",
                               {"admission", "resize", "shard", "steal"},
                               books.self);
  }
  return pass;
}

}  // namespace

RunResult run_stream(const RunOptions& options, bool churn) {
  RunResult result;
  std::vector<Pass> passes;
  // The input is written once, untimed: set-up times only the program.
  Input input;
  input.path = options.work_dir + "/" + options.workload + ".swf";
  input.horizon = write_swf(input.path, options.seed, shape_of(churn));
  if (churn) {
    const SimConfig base = sim_config(input);
    input.churn = std::make_shared<const std::vector<ChurnEvent>>(make_churn(
        input.horizon, base.scheduler_period, base.num_machines));
  }
  const auto run_start = Clock::now();
  // At least two passes (in traced runs one untraced, one traced); then
  // more while the next one still fits in the measuring window.
  while (true) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass(input, options, churn, traced));
    const double elapsed = ms_between(run_start, Clock::now()) / 1e3;
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= 2 && elapsed + per_pass > options.seconds) break;
  }

  std::remove(input.path.c_str());

  // --- Correctness and coverage. ---
  const Pass& first = passes.front();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const std::string tag = "pass " + std::to_string(i) + ": ";
    const int lost =
        p.sim.jobs_arrived - p.sim.jobs_completed - p.sim.jobs_rejected;
    result.attempted += p.sim.jobs_arrived;
    result.failed += std::max(lost, 0);
    result.check(lost == 0, tag + "job conservation (completed + rejected "
                                  "== arrived) broken");
    result.check(p.observed == p.sim.jobs_arrived,
                 tag + "observer saw a different job count");
    result.check(p.incomplete_plans == 0, tag + "incomplete plan returned");
    result.check(p.plans_below_floor == 0,
                 tag + "plan makespan below the batch's lower bound");
    result.check(p.fingerprint == first.fingerprint,
                 tag + "per-job fingerprint differs from pass 0");
    result.check(p.trace_ok, tag + "trace did not fold (unbalanced spans)");
    result.check(p.call_ms.size() >= kMinActivations,
                 tag + "fewer than 200 activations");
    result.check(p.call_ms.size() == first.call_ms.size(),
                 tag + "activation count differs from pass 0");
  }
  result.check(first.sim.deadline_jobs > 0, "no deadline jobs in the stream");
  result.check(first.sim.deadline_missed > 0,
               "no deadline misses: deadline_miss_pct would read 0");
  if (churn) {
    const LayerBooks& b = first.books;
    result.check(b.sim_requeues > 0, "churn-qos: no requeues");
    result.check(b.splits > 0, "churn-qos: no shard splits");
    result.check(b.merges > 0, "churn-qos: no shard merges");
    result.check(b.steals > 0, "churn-qos: no drain-tail steals");
    result.check(b.rejected > 0, "churn-qos: no admission rejections");
    result.check(b.degraded > 0, "churn-qos: no admission degradations");
  }

  // --- End-to-end metrics from the untraced passes. ---
  std::vector<double> rate;
  std::vector<double> cpu;
  std::vector<const Pass*> untraced;
  std::vector<double> traced_wall;
  std::vector<double> setup;
  for (const Pass& p : passes) {
    if (p.traced) {
      traced_wall.push_back(p.wall_s);
      continue;
    }
    untraced.push_back(&p);
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    rate.push_back(p.sim.jobs_arrived / p.wall_s);
    cpu.push_back(p.cpu_ms * 1e3 / std::max(1, p.sim.jobs_arrived));
  }
  // Every pass replays the same activations with the same search work, so
  // one activation differs between passes only by host interference. The
  // latency percentiles are taken over each activation's best time across
  // the untraced passes (>= 200 activations, so >= 10 beyond p95): a stall
  // on the host then reaches the tail only if it hits that activation in
  // every pass.
  std::vector<double> best = untraced.front()->call_ms;
  for (const Pass* p : untraced) {
    for (std::size_t a = 0; a < best.size() && a < p->call_ms.size(); ++a) {
      best[a] = std::min(best[a], p->call_ms[a]);
    }
  }
  EndToEnd e2e;
  e2e.setup_s = median(setup);
  e2e.jobs_per_s = median(rate);
  e2e.activation_ms_p50 = percentile(best, 50.0);
  e2e.activation_ms_p95 = percentile(best, 95.0);
  e2e.cpu_us_per_job = median(cpu);
  e2e.makespan_s = first.sim.makespan;
  e2e.flowtime_mean_s = first.sim.mean_flowtime;
  e2e.flowtime_p99_s = first.flowtime_p99;
  e2e.gap_pct = first.floor_gap_pct;
  e2e.deadline_miss_pct = 100.0 * first.sim.deadline_miss_rate();
  e2e.peak_rss_mb = peak_rss_mb();
  emit(e2e, result);

  // --- Per-layer metrics: books of the untraced passes, self times of a
  // traced one. ---
  if (options.trace) {
    LayerBooks books = untraced.back()->books;
    std::vector<double> untraced_wall;
    for (const Pass* p : untraced) untraced_wall.push_back(p->wall_s);
    for (const Pass& p : passes) {
      if (p.traced) {
        books.self = p.books.self;
        break;
      }
    }
    books.trace_overhead_pct =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
    emit(books, result);
  }

  std::cout << options.workload << ": " << passes.size() << " pass(es) of "
            << first.call_ms.size() << " activations and "
            << first.sim.jobs_arrived << " jobs, " << untraced.size()
            << " untraced\n";
  return result;
}

}  // namespace perfbench
