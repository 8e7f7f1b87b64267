#include "heuristics/constructive.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gridsched {
namespace {

/// Tracks machine completion times while a heuristic builds a schedule.
///
/// Structure-of-arrays hot path: `completion_` is one contiguous double
/// array, and every per-job scan walks it in lockstep with the job's
/// contiguous ETC row. The scans are split into branch-light passes (a
/// pure min-reduction the compiler can vectorize, then an index-recovery
/// pass) instead of one branchy argmin loop. Both passes compare the exact
/// same `completion + etc` doubles the one-pass scan would, and FP min is
/// exact, so the split reproduces the classic first-strict-minimum result
/// bitwise — test_heuristics pins that equivalence.
class MachineLoads {
 public:
  explicit MachineLoads(const EtcMatrix& etc) : etc_(&etc) {
    completion_.assign(etc.ready_times().begin(), etc.ready_times().end());
  }

  [[nodiscard]] double completion(MachineId m) const noexcept {
    return completion_[static_cast<std::size_t>(m)];
  }

  [[nodiscard]] double completion_with(JobId j, MachineId m) const noexcept {
    return completion(m) + (*etc_)(j, m);
  }

  /// Argmin machine plus its completion time, fused in one scan pair.
  struct Best {
    MachineId machine;
    double completion;
  };

  /// Best plus the runner-up completion over the *other* machines
  /// (Sufferage's "second-best earliest completion").
  struct BestAndSecond {
    MachineId machine;
    double completion;
    double second;  // +infinity on single-machine instances
  };

  /// Machine minimizing the completion time of job j (ties: lowest id),
  /// together with that completion time.
  [[nodiscard]] Best best(JobId j) const noexcept {
    const std::span<const double> row = etc_->row(j);
    const std::size_t m = completion_.size();
    double best_c = completion_[0] + row[0];
    for (std::size_t i = 1; i < m; ++i) {
      best_c = std::min(best_c, completion_[i] + row[i]);
    }
    std::size_t arg = 0;
    while (arg + 1 < m && completion_[arg] + row[arg] != best_c) ++arg;
    return {static_cast<MachineId>(arg), best_c};
  }

  [[nodiscard]] MachineId best_machine(JobId j) const noexcept {
    return best(j).machine;
  }

  /// best() plus the minimum completion over the remaining machines.
  /// Later duplicates of the minimum feed the runner-up, exactly like the
  /// skip-the-argmin rescan they replace.
  [[nodiscard]] BestAndSecond best_and_second(JobId j) const noexcept {
    const Best b = best(j);
    const std::span<const double> row = etc_->row(j);
    const std::size_t m = completion_.size();
    const std::size_t skip = static_cast<std::size_t>(b.machine);
    double second = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (i == skip) continue;
      second = std::min(second, completion_[i] + row[i]);
    }
    return {b.machine, b.completion, second};
  }

  /// Machine with the lowest current completion time (ties: lowest id).
  [[nodiscard]] MachineId earliest_free() const noexcept {
    return static_cast<MachineId>(std::distance(
        completion_.begin(),
        std::min_element(completion_.begin(), completion_.end())));
  }

  void assign(Schedule& schedule, JobId j, MachineId m) noexcept {
    schedule[j] = m;
    completion_[static_cast<std::size_t>(m)] += (*etc_)(j, m);
  }

 private:
  const EtcMatrix* etc_;
  std::vector<double> completion_;
};

/// Deadline tail of the O(n^2 m) batch heuristics: one MCT pass over the
/// not-yet-committed jobs (id order, earliest completion given the loads
/// built so far). O(n m) — always affordable, and the schedule stays
/// complete.
void mct_tail(Schedule& schedule, MachineLoads& loads,
              std::vector<JobId>& unassigned) {
  std::sort(unassigned.begin(), unassigned.end());
  for (const JobId j : unassigned) {
    loads.assign(schedule, j, loads.best_machine(j));
  }
  unassigned.clear();
}

/// How often the O(n m) one-pass heuristics poll the token: rarely enough
/// that the clock read disappears against the per-job column scan.
constexpr JobId kPollStride = 64;

/// Deadline tail of the one-pass heuristics: remaining jobs round-robin
/// over the machines, O(1) per job and load-blind — the cheapest complete
/// assignment there is.
void round_robin_tail(Schedule& schedule, MachineLoads& loads,
                      const EtcMatrix& etc, JobId from) {
  for (JobId j = from; j < etc.num_jobs(); ++j) {
    loads.assign(schedule, j, j % etc.num_machines());
  }
}

/// Shared skeleton of Max-Min / Sufferage: repeatedly score every
/// unassigned job (the score function returns the target machine and the
/// job's score in one fused scan) and commit the highest-scoring one; once
/// `cancel` fires, the remaining jobs fall to the MCT tail.
template <typename ScoreFn>
Schedule greedy_batch(const EtcMatrix& etc, const CancellationToken& cancel,
                      ScoreFn score_job) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  std::vector<JobId> unassigned(static_cast<std::size_t>(etc.num_jobs()));
  std::iota(unassigned.begin(), unassigned.end(), 0);

  while (!unassigned.empty() && !cancel.cancelled()) {
    std::size_t pick_idx = 0;
    double pick_score = -std::numeric_limits<double>::infinity();
    MachineId pick_machine = 0;
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      const JobId j = unassigned[i];
      const auto [machine, score] = score_job(loads, j);
      if (score > pick_score) {
        pick_score = score;
        pick_idx = i;
        pick_machine = machine;
      }
    }
    loads.assign(schedule, unassigned[pick_idx], pick_machine);
    unassigned[pick_idx] = unassigned.back();
    unassigned.pop_back();
  }
  mct_tail(schedule, loads, unassigned);
  return schedule;
}

}  // namespace

std::string_view heuristic_name(HeuristicKind kind) noexcept {
  switch (kind) {
    case HeuristicKind::kLjfrSjfr: return "LJFR-SJFR";
    case HeuristicKind::kMinMin: return "Min-Min";
    case HeuristicKind::kMaxMin: return "Max-Min";
    case HeuristicKind::kMct: return "MCT";
    case HeuristicKind::kMet: return "MET";
    case HeuristicKind::kOlb: return "OLB";
    case HeuristicKind::kSufferage: return "Sufferage";
    case HeuristicKind::kRandom: return "Random";
  }
  return "?";
}

std::span<const HeuristicKind> all_heuristics() noexcept {
  static constexpr std::array<HeuristicKind, 8> kAll = {
      HeuristicKind::kLjfrSjfr, HeuristicKind::kMinMin,
      HeuristicKind::kMaxMin,   HeuristicKind::kMct,
      HeuristicKind::kMet,      HeuristicKind::kOlb,
      HeuristicKind::kSufferage, HeuristicKind::kRandom,
  };
  return kAll;
}

Schedule construct_schedule(HeuristicKind kind, const EtcMatrix& etc,
                            Rng& rng) {
  return construct_schedule(kind, etc, rng, CancellationToken{});
}

Schedule construct_schedule(HeuristicKind kind, const EtcMatrix& etc,
                            Rng& rng, const CancellationToken& cancel) {
  switch (kind) {
    case HeuristicKind::kLjfrSjfr: return ljfr_sjfr(etc, cancel);
    case HeuristicKind::kMinMin: return min_min(etc, cancel);
    case HeuristicKind::kMaxMin: return max_min(etc, cancel);
    case HeuristicKind::kMct: return mct(etc, cancel);
    case HeuristicKind::kMet: return met(etc, cancel);
    case HeuristicKind::kOlb: return olb(etc, cancel);
    case HeuristicKind::kSufferage: return sufferage(etc, cancel);
    case HeuristicKind::kRandom:
      return Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  }
  throw std::invalid_argument("construct_schedule: unknown heuristic");
}

Schedule ljfr_sjfr(const EtcMatrix& etc) {
  return ljfr_sjfr(etc, CancellationToken{});
}

Schedule ljfr_sjfr(const EtcMatrix& etc, const CancellationToken& cancel) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  Schedule schedule(n);
  MachineLoads loads(etc);

  // Jobs ascending by workload (mean-ETC proxy); machines descending by
  // speed (smaller mean column ETC = faster machine).
  std::vector<JobId> jobs(static_cast<std::size_t>(n));
  std::iota(jobs.begin(), jobs.end(), 0);
  std::vector<double> workload(static_cast<std::size_t>(n));
  for (JobId j = 0; j < n; ++j) {
    workload[static_cast<std::size_t>(j)] = etc.mean_row(j);
  }
  std::sort(jobs.begin(), jobs.end(), [&](JobId a, JobId b) {
    const double wa = workload[static_cast<std::size_t>(a)];
    const double wb = workload[static_cast<std::size_t>(b)];
    return wa != wb ? wa < wb : a < b;
  });

  // Column means over the machine-major mirror: one contiguous
  // accumulate per machine (same j-ascending summation order as the old
  // row-major double loop, so the means are bitwise unchanged).
  std::vector<double> column_mean(static_cast<std::size_t>(m), 0.0);
  for (MachineId mm = 0; mm < m; ++mm) {
    const auto col = etc.machine_row(mm);
    column_mean[static_cast<std::size_t>(mm)] =
        std::accumulate(col.begin(), col.end(), 0.0);
  }
  std::vector<MachineId> machines_by_speed(static_cast<std::size_t>(m));
  std::iota(machines_by_speed.begin(), machines_by_speed.end(), 0);
  std::sort(machines_by_speed.begin(), machines_by_speed.end(),
            [&](MachineId a, MachineId b) {
              const double ca = column_mean[static_cast<std::size_t>(a)];
              const double cb = column_mean[static_cast<std::size_t>(b)];
              return ca != cb ? ca < cb : a < b;
            });

  // Phase 1 (pure LJFR): the m longest jobs, longest to the fastest machine.
  std::size_t lo = 0;                         // shortest unassigned
  std::size_t hi = jobs.size();               // one past longest unassigned
  const std::size_t initial = std::min<std::size_t>(
      static_cast<std::size_t>(m), jobs.size());
  for (std::size_t i = 0; i < initial; ++i) {
    loads.assign(schedule, jobs[--hi], machines_by_speed[i]);
  }

  // Phase 2: each step the least-loaded machine takes, alternately, the
  // shortest remaining job (SJFR) then the longest (LJFR).
  bool take_shortest = true;
  JobId since_poll = 0;
  while (lo < hi) {
    if (++since_poll >= kPollStride) {
      since_poll = 0;
      if (cancel.cancelled()) break;
    }
    const MachineId target = loads.earliest_free();
    const JobId job = take_shortest ? jobs[lo++] : jobs[--hi];
    loads.assign(schedule, job, target);
    take_shortest = !take_shortest;
  }
  // Deadline fired: the remaining window goes round-robin over machines.
  for (std::size_t i = lo; i < hi; ++i) {
    loads.assign(schedule, jobs[i],
                 static_cast<MachineId>(i - lo) % etc.num_machines());
  }
  return schedule;
}

Schedule min_min(const EtcMatrix& etc) {
  // Delegation keeps the budget-honoring variant bit-identical by
  // construction (an invalid token never fires, so the whole schedule is
  // the committed prefix).
  return min_min(etc, CancellationToken{});
}

Schedule min_min(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  std::vector<JobId> unassigned(static_cast<std::size_t>(etc.num_jobs()));
  std::iota(unassigned.begin(), unassigned.end(), 0);

  // best[i] caches loads.best(unassigned[i]) and is swap-removed in
  // lockstep. A commit only grows the picked machine's load (ETCs are
  // non-negative, as instance_io enforces), so a cached best on any other
  // machine stays exact: its own completion is unchanged, and the grown
  // machine was already strictly worse (lower id) or not better (higher
  // id) than it. Each round rescans only the jobs whose best was the
  // taken machine, which turns the O(n^2 m) rescan into O(n^2 + r m), r
  // the rescans (about n/m a round when bests spread over the machines),
  // with the same picks, tie-breaks included.
  std::vector<MachineLoads::Best> best(unassigned.size());
  for (std::size_t i = 0; i < unassigned.size(); ++i) {
    best[i] = loads.best(unassigned[i]);
  }
  MachineId taken = -1;  // machine the previous round committed to
  while (!unassigned.empty() && !cancel.cancelled()) {
    std::size_t pick_idx = 0;
    double pick_score = std::numeric_limits<double>::infinity();
    MachineId pick_machine = 0;
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      if (best[i].machine == taken) best[i] = loads.best(unassigned[i]);
      if (best[i].completion < pick_score) {
        pick_score = best[i].completion;
        pick_idx = i;
        pick_machine = best[i].machine;
      }
    }
    loads.assign(schedule, unassigned[pick_idx], pick_machine);
    taken = pick_machine;
    unassigned[pick_idx] = unassigned.back();
    unassigned.pop_back();
    best[pick_idx] = best.back();
    best.pop_back();
  }

  mct_tail(schedule, loads, unassigned);
  return schedule;
}

Schedule max_min(const EtcMatrix& etc) {
  return max_min(etc, CancellationToken{});
}

Schedule max_min(const EtcMatrix& etc, const CancellationToken& cancel) {
  return greedy_batch(etc, cancel, [](const MachineLoads& loads, JobId j) {
    const auto b = loads.best(j);
    return std::pair<MachineId, double>{b.machine, b.completion};
  });
}

Schedule sufferage(const EtcMatrix& etc) {
  return sufferage(etc, CancellationToken{});
}

Schedule sufferage(const EtcMatrix& etc, const CancellationToken& cancel) {
  return greedy_batch(etc, cancel, [](const MachineLoads& loads, JobId j) {
    const auto bs = loads.best_and_second(j);
    // Single-machine instances have no second-best; sufferage degenerates
    // to arbitrary order there.
    const double score =
        bs.second == std::numeric_limits<double>::infinity()
            ? 0.0
            : bs.second - bs.completion;
    return std::pair<MachineId, double>{bs.machine, score};
  });
}

Schedule mct(const EtcMatrix& etc) { return mct(etc, CancellationToken{}); }

Schedule mct(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    loads.assign(schedule, j, loads.best_machine(j));
  }
  return schedule;
}

Schedule met(const EtcMatrix& etc) { return met(etc, CancellationToken{}); }

Schedule met(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    const auto row = etc.row(j);
    const auto it = std::min_element(row.begin(), row.end());
    loads.assign(schedule, j,
                 static_cast<MachineId>(std::distance(row.begin(), it)));
  }
  return schedule;
}

Schedule olb(const EtcMatrix& etc) { return olb(etc, CancellationToken{}); }

Schedule olb(const EtcMatrix& etc, const CancellationToken& cancel) {
  Schedule schedule(etc.num_jobs());
  MachineLoads loads(etc);
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    if (j % kPollStride == 0 && cancel.cancelled()) {
      round_robin_tail(schedule, loads, etc, j);
      return schedule;
    }
    loads.assign(schedule, j, loads.earliest_free());
  }
  return schedule;
}

}  // namespace gridsched
