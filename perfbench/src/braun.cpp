// braun-batch: the 12 Braun et al. consistency x heterogeneity classes at
// shard-sized batches (96 jobs x 12 machines), raced cold by the default
// portfolio (MCT, Min-Min, StruggleGA, LAHC, cMA, cMA-sync) at a fixed
// evaluation budget per member. The bench issues one batch at a time and
// waits for its plan (a closed loop with one client).
//
// It spends nearly all its time in search — cMA local search over the
// evaluator, the GA, the heuristics and the portfolio's pool — and none in
// the workload, simulator or service layers. Each instance's LP lower
// bound is computed during set-up, so the bounds layer moves only setup_s.
//
// A round races every instance once on a fresh portfolio seeded from the
// benchmark seed, so every plan is a pure function of that seed: all
// rounds of a run must commit bit-identical plans.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "cma/config.h"
#include "cma/local_search.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluator.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"
#include "portfolio/portfolio.h"
#include "probes.h"

namespace perfbench {
namespace {

using namespace gridsched;

constexpr int kJobs = 96;
constexpr int kMachines = 12;
constexpr std::int64_t kEvaluations = 1'000;
constexpr std::size_t kPoolThreads = 4;
constexpr int kReplicas = 3;  // per class: 36 batches a round
// Latency percentiles pool the middle half of the untraced rounds by round
// wall time, and need >= 200 batches there (>= 10 beyond p95).
constexpr std::size_t kMinRounds = 12;
// Set-ups re-timed after each round, cycling through the instances, so
// that an untraced run times every instance's set-up at least five times,
// spread over the run: on a shared host set-up time follows the host's
// state from second to second, and a median of three samples per
// instance spread 0.26 across seeds.
constexpr std::size_t kSetupsPerRound = 4 * kReplicas;

// Job deadlines: kDeadlineFactor x the job's fastest ETC plus a slack of
// kDeadlineSlack x the instance's LP bound. Both terms are fixed by the
// instance alone, so a plan with earlier completions misses fewer.
constexpr double kDeadlineFactor = 2.0;
constexpr double kDeadlineSlack = 0.5;

struct Instance {
  InstanceSpec spec;
  int replica = 0;
  EtcMatrix etc;
  bounds::MakespanBoundResult bound;
  std::vector<double> deadline;  // per job
  std::vector<double> setup_s;   // every timed set-up of this instance
};

/// One set-up: generates the instance and computes its LP bound, timed.
Instance set_up(const InstanceSpec& spec, int replica, BoundBook& book) {
  const auto start = Clock::now();
  Instance instance{spec, replica, generate_instance(spec, replica), {}, {},
                    {}};
  instance.bound = timed_makespan_bound(instance.etc, book);
  instance.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  return instance;
}

/// The 12 classes x kReplicas instances, each with its LP bound. The
/// instances are the generator's canonical replicas, the same for every
/// seed, like the paper's fixed benchmark files; the seed drives the
/// portfolio's search. Seeded instances spread gap_pct by ~9% across
/// seeds even at 36 batches, which would leave only a bound too loose to
/// gate quality.
std::vector<Instance> make_instances(BoundBook& book) {
  std::vector<Instance> instances;
  for (int replica = 0; replica < kReplicas; ++replica) {
    for (InstanceSpec spec : braun_benchmark_suite()) {
      spec.num_jobs = kJobs;
      spec.num_machines = kMachines;
      Instance instance = set_up(spec, replica, book);
      for (JobId j = 0; j < kJobs; ++j) {
        instance.deadline.push_back(kDeadlineFactor * instance.etc.min_row(j) +
                                    kDeadlineSlack * instance.bound.value);
      }
      instances.push_back(std::move(instance));
    }
  }
  return instances;
}

struct Round {
  bool traced = false;
  double wall_ms = 0.0;  // sum of the round's schedule_batch calls
  double cpu_ms = 0.0;
  std::vector<double> batch_ms;
  std::uint64_t fingerprint = 0;
  double mean_makespan = 0.0;
  double mean_completion = 0.0;
  double completion_p99 = 0.0;  // per-batch p99, averaged over batches
  double mean_gap_pct = 0.0;
  double late_pct = 0.0;  // jobs completing after their deadline
  int failed_batches = 0;
  std::vector<int> wins = std::vector<int>(member_names().size());
  std::vector<int> runs = std::vector<int>(member_names().size());
};

Round run_round(const std::vector<Instance>& instances, ThreadPool& pool,
                std::uint64_t seed, std::vector<MemberBook>& member_books,
                obs::TraceRecorder* trace) {
  Round round;
  round.traced = trace != nullptr;
  PortfolioConfig config;
  config.budget_ms = 1e7;  // never binds: members stop on evaluations
  config.threads = kPoolThreads;
  config.warm_start = false;
  config.member_stop.max_evaluations = kEvaluations;
  config.seed = seed;
  Clock::time_point race_start;
  std::vector<std::unique_ptr<PortfolioMember>> members;
  std::size_t index = 0;
  for (auto& member : PortfolioBatchScheduler::default_members(config)) {
    members.push_back(std::make_unique<TimedMember>(
        std::move(member), member_books.at(index++), race_start));
  }
  PortfolioBatchScheduler portfolio(config, std::move(members), pool);
  portfolio.bind_observability(nullptr, trace, "braun");
  TimedScheduler scheduler(portfolio, trace);

  Fingerprint fingerprint;
  double completions = 0.0;
  double completion_sum = 0.0;
  int late = 0;
  const double cpu_start = process_cpu_ms();
  for (const Instance& instance : instances) {
    race_start = Clock::now();
    const Schedule plan = scheduler.schedule_batch(instance.etc);
    if (trace != nullptr) trace->flush();
    if (!plan.complete(kMachines)) {
      ++round.failed_batches;
      continue;
    }

    ScheduleEvaluator evaluator(instance.etc);
    evaluator.reset(plan);
    const double makespan = evaluator.makespan();
    const double bound = instance.bound.value;
    std::vector<double> batch_completions;
    for (int m = 0; m < kMachines; ++m) {
      double clock = instance.etc.ready_time(m);
      for (const auto& [etc, job] : evaluator.machine_jobs(m)) {
        clock += etc;
        batch_completions.push_back(clock);
        completion_sum += clock;
        if (clock > instance.deadline[static_cast<std::size_t>(job)]) ++late;
      }
    }
    completions += static_cast<double>(batch_completions.size());
    round.completion_p99 += percentile(batch_completions, 99.0);
    for (const MachineId gene : plan.genes()) fingerprint.add(gene);
    round.mean_makespan += makespan;
    round.mean_gap_pct += bounds::optimality_gap_pct(makespan, bound);
    if (makespan < bound * (1.0 - 1e-9) ||
        instance.bound.lp_status != bounds::LpBoundStatus::kOptimal) {
      ++round.failed_batches;
    }
  }
  round.cpu_ms = process_cpu_ms() - cpu_start;
  round.batch_ms = scheduler.call_ms;
  for (const double ms : round.batch_ms) round.wall_ms += ms;
  const auto batches = static_cast<double>(instances.size());
  round.mean_makespan /= batches;
  round.mean_gap_pct /= batches;
  round.completion_p99 /= batches;
  round.mean_completion = completion_sum / completions;
  round.late_pct = 100.0 * late / completions;
  round.fingerprint = fingerprint.value();
  const auto& names = member_names();
  for (const MemberStats& s : portfolio.member_stats()) {
    const auto it = std::find(names.begin(), names.end(), s.name);
    if (it == names.end()) continue;
    round.wins[static_cast<std::size_t>(it - names.begin())] += s.wins;
    round.runs[static_cast<std::size_t>(it - names.begin())] += s.runs;
  }
  return round;
}

/// A benchmark-driven walk over the evaluator core on the run's own
/// instances: random move and swap previews, near-neighbour reset_to()
/// retargets (4 genes apart, like an offspring and its parent) and the
/// cMA's default local search. The calls go into the separately compiled
/// library, so their results need no sink. Returns false if a preview
/// disagrees with applying the same edit.
bool walk_evaluator(const std::vector<Instance>& instances,
                    std::uint64_t seed, LayerBooks& books) {
  constexpr int kPreviews = 20'000;
  constexpr int kVariants = 64;
  constexpr int kResets = 4'000;
  constexpr int kSearches = 200;
  Rng rng(seed ^ 0x5eedULL);
  const CmaConfig cma;
  double move_ns = 0.0;
  double swap_ns = 0.0;
  double reset_ns = 0.0;
  double search_us = 0.0;
  bool exact = true;
  for (const Instance& instance : instances) {
    const EtcMatrix& etc = instance.etc;
    const Schedule base = min_min(etc);
    ScheduleEvaluator evaluator(etc);
    evaluator.reset(base);

    std::vector<std::pair<JobId, MachineId>> moves(kPreviews);
    for (auto& [job, machine] : moves) {
      job = rng.uniform_int(0, kJobs - 1);
      machine = rng.uniform_int(0, kMachines - 1);
    }
    auto start = Clock::now();
    for (const auto& [job, machine] : moves) {
      (void)evaluator.preview_move(job, machine);
    }
    move_ns += ms_between(start, Clock::now()) * 1e6;

    std::vector<std::pair<JobId, JobId>> swaps;
    while (static_cast<int>(swaps.size()) < kPreviews) {
      const JobId a = rng.uniform_int(0, kJobs - 1);
      const JobId b = rng.uniform_int(0, kJobs - 1);
      if (base[a] != base[b]) swaps.emplace_back(a, b);
    }
    start = Clock::now();
    for (const auto& [a, b] : swaps) {
      (void)evaluator.preview_swap(a, b);
    }
    swap_ns += ms_between(start, Clock::now()) * 1e6;

    // Exactness spot check: a preview equals applying the edit.
    for (int i = 0; i < 32; ++i) {
      ScheduleEvaluator probe(etc);
      probe.reset(base);
      const auto [job, machine] = moves[static_cast<std::size_t>(i)];
      const PreviewResult preview = probe.preview_move(job, machine);
      probe.apply_move(job, machine);
      exact = exact &&
              probe.makespan() == preview.objectives.makespan &&
              probe.flowtime() == preview.objectives.flowtime;
    }

    std::vector<Schedule> variants(kVariants, base);
    for (Schedule& variant : variants) {
      for (int g = 0; g < 4; ++g) {
        variant[rng.uniform_int(0, kJobs - 1)] =
            rng.uniform_int(0, kMachines - 1);
      }
    }
    start = Clock::now();
    for (int r = 0; r < kResets; ++r) {
      evaluator.reset_to(variants[static_cast<std::size_t>(r % kVariants)]);
    }
    reset_ns += ms_between(start, Clock::now()) * 1e6;

    for (int r = 0; r < kSearches; ++r) {
      evaluator.reset_to(variants[static_cast<std::size_t>(r % kVariants)]);
      start = Clock::now();
      (void)local_search(cma.local_search, cma.weights, evaluator, rng);
      search_us += ms_between(start, Clock::now()) * 1e3;
    }
  }
  const auto n = static_cast<double>(instances.size());
  books.preview_move_ns = move_ns / (n * kPreviews);
  books.preview_swap_ns = swap_ns / (n * kPreviews);
  books.reset_to_ns = reset_ns / (n * kResets);
  books.local_search_us = search_us / (n * kSearches);
  return exact;
}

}  // namespace

RunResult run_braun(const RunOptions& options) {
  RunResult result;

  // --- Set-up: generate every instance and compute its LP bound. ---
  BoundBook bound_book;
  std::vector<Instance> instances = make_instances(bound_book);
  ThreadPool pool(kPoolThreads);
  for (const Instance& instance : instances) {
    result.check(instance.bound.lp_status == bounds::LpBoundStatus::kOptimal,
                 "an LP bound did not end at kOptimal");
  }

  // --- Measured: rounds until the window is spent. ---
  std::vector<MemberBook> member_books(member_names().size());
  std::optional<obs::TraceRecorder> recorder;
  if (options.trace) recorder.emplace();
  std::vector<Round> rounds;
  const auto run_start = Clock::now();
  std::size_t next_setup = 0;
  while (true) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    rounds.push_back(run_round(instances, pool, options.seed, member_books,
                               traced ? &*recorder : nullptr));
    for (std::size_t k = 0; k < kSetupsPerRound; ++k) {
      Instance& instance = instances[next_setup++ % instances.size()];
      const Instance again = set_up(instance.spec, instance.replica, bound_book);
      instance.setup_s.push_back(again.setup_s.front());
      result.check(again.bound.value == instance.bound.value &&
                       again.bound.lp_pivots == instance.bound.lp_pivots,
                   "a repeated set-up gave a different LP bound");
    }
    const double elapsed = ms_between(run_start, Clock::now()) / 1e3;
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (rounds.size() >= (options.trace ? 2 : kMinRounds) &&
        elapsed + per_round > options.seconds) {
      break;
    }
  }

  const Round& first = rounds.front();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    result.attempted += static_cast<std::int64_t>(r.batch_ms.size());
    result.failed += r.failed_batches;
    result.check(r.failed_batches == 0,
                 "round " + std::to_string(i) +
                     ": a plan was incomplete or beat its LP bound");
    result.check(r.fingerprint == first.fingerprint,
                 "round " + std::to_string(i) +
                     ": winning genes differ from round 0");
  }
  result.check(first.late_pct > 0, "no job missed its deadline");
  for (std::size_t i = 0; i < member_books.size(); ++i) {
    result.check(member_books[i].runs == result.attempted &&
                     member_books[i].evaluations > 0,
                 member_names()[i] + " did not search every batch");
  }

  std::vector<double> rate;
  std::vector<double> cpu;
  std::vector<const Round*> untraced;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  for (const Round& r : rounds) {
    const double jobs = static_cast<double>(r.batch_ms.size()) * kJobs;
    if (r.traced) {
      traced_wall.push_back(r.wall_ms);
      continue;
    }
    untraced_wall.push_back(r.wall_ms);
    rate.push_back(jobs / (r.wall_ms / 1e3));
    cpu.push_back(r.cpu_ms * 1e3 / jobs);
    untraced.push_back(&r);
  }
  // Every round repeats identical work, so rounds differ only by host
  // interference. The latency percentiles pool the middle half of the
  // rounds by wall time, which a slow spell on the host cannot move
  // unless it hits more than a quarter of them.
  std::sort(untraced.begin(), untraced.end(),
            [](const Round* a, const Round* b) {
              return a->wall_ms < b->wall_ms;
            });
  std::vector<double> latency;
  const std::size_t from = untraced.size() / 4;
  const std::size_t count = (untraced.size() + 1) / 2;
  for (std::size_t i = from; i < from + count; ++i) {
    latency.insert(latency.end(), untraced[i]->batch_ms.begin(),
                   untraced[i]->batch_ms.end());
  }
  result.check(options.trace || latency.size() >= 200,
               "fewer than 200 batches in the middle half of the rounds");
  // The workload's whole set-up: every instance's median set-up, summed.
  EndToEnd e2e;
  for (const Instance& instance : instances) {
    e2e.setup_s += median(instance.setup_s);
  }
  e2e.jobs_per_s = median(rate);
  e2e.activation_ms_p50 = percentile(latency, 50.0);
  e2e.activation_ms_p95 = percentile(latency, 95.0);
  e2e.cpu_us_per_job = median(cpu);
  e2e.makespan_s = first.mean_makespan;
  e2e.flowtime_mean_s = first.mean_completion;
  e2e.flowtime_p99_s = first.completion_p99;
  e2e.gap_pct = first.mean_gap_pct;
  e2e.deadline_miss_pct = first.late_pct;
  e2e.peak_rss_mb = peak_rss_mb();
  emit(e2e, result);

  if (options.trace) {
    LayerBooks books;
    const auto& names = member_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const MemberBook& b = member_books[i];
      int wins = 0;
      int runs = 0;
      for (const Round& r : rounds) {
        wins += r.wins[i];
        runs += r.runs[i];
      }
      LayerBooks::Member& m = books.members[i];
      if (b.runs == 0) continue;
      m.ms_per_run = b.solve_ms / b.runs;
      m.evals_per_ms = b.solve_ms > 0 ? b.evaluations / b.solve_ms : 0.0;
      m.wait_ms = b.wait_ms / b.runs;
      m.win_pct = runs > 0 ? 100.0 * wins / runs : 0.0;
    }
    books.lp_ms = bound_book.total_ms / std::max(1, bound_book.calls);
    books.lp_pivots =
        static_cast<double>(bound_book.pivots) / std::max(1, bound_book.calls);
    books.pivots_per_ms =
        bound_book.total_ms > 0 ? bound_book.pivots / bound_book.total_ms : 0;
    books.trace_overhead_pct =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
    result.check(fold_trace(*recorder, "schedule_batch", {"member"},
                            books.self),
                 "trace did not fold (unbalanced spans)");
    result.check(walk_evaluator(instances, options.seed, books),
                 "evaluator preview disagrees with apply");
    emit(books, result);
  }

  std::cout << options.workload << ": " << rounds.size() << " round(s) of "
            << instances.size() << " batches, " << untraced.size()
            << " untraced, " << latency.size()
            << " batches in the middle half\n";
  return result;
}

}  // namespace perfbench
