// Incremental schedule evaluation.
//
// The local search methods of the cMA preview tens of thousands of candidate
// moves and swaps per second, so evaluating a neighbor from scratch
// (O(jobs)) would dominate the runtime. ScheduleEvaluator maintains
// per-machine state (assigned jobs sorted by ETC, completion time, SPT
// flowtime) plus two aggregate caches — a running total flowtime and a
// top-3 completion-time cache — so that:
//   - previewing a move/swap costs O(k) in the two affected machines' job
//     counts (an O(1) removal rank plus a vectorized insertion-rank count)
//     and is INDEPENDENT of the machine count: the flowtime is the running
//     total plus two closed-form machine deltas, and the makespan is the
//     maximum of the two new completion times and the first top-3 cache
//     entry not owned by an affected machine,
//   - scoring every swap partner of one focus job (`preview_swaps`, the
//     LMCTS scan) computes the partner-independent terms once per scan or
//     once per partner machine, and every partner's insertion rank on the
//     focus machine in one vectorized key-major count, leaving O(1) work
//     per partner,
//   - applying one costs O(k) for the two affected machines (sorted-list
//     surgery plus a prefix-sum rebuild) and adopts the exact closed-form
//     scalars the preview computed, so a preview is bitwise equal to
//     apply-then-measure,
//   - re-targeting the evaluator at a sibling schedule (`reset_to`) costs
//     O(n + d k) where d is the number of differing genes, instead of the
//     full O(n log n) rebuild — the delta path the cMA offspring pipeline
//     rides (docs/performance.md documents the invariants and formulas).
//
// Canonical vs. fast scalars: closed-form deltas round differently than a
// from-scratch summation, so machines touched by apply_move/apply_swap are
// marked dirty and carry "fast" scalars that may sit a few ULP from the
// canonical values (the job lists themselves are always exact).
// canonicalize() — called implicitly by reset()/reset_to() — recomputes the
// dirty machines and the aggregate caches so the state is bitwise identical
// to a fresh reset() of the same schedule. check_consistency() verifies
// both layers (exact lists + caches within tolerance) against a rebuild.
//
// Objective conventions (Section 2 of the paper; DESIGN.md section 4):
//   completion[m] = ready[m] + sum of ETC of jobs on m          (Eq. 1)
//   makespan      = max over machines of completion[m]          (Eq. 2)
//   flowtime      = sum over jobs of their finishing times, with each
//                   machine running its jobs in SPT (ascending ETC) order,
//                   which minimizes flowtime for a fixed assignment.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "core/schedule.h"
#include "etc/etc_matrix.h"

namespace gridsched {

/// The objective values a hypothetical edit would produce.
struct PreviewResult {
  Objectives objectives;
  [[nodiscard]] double fitness(const FitnessWeights& w,
                               int num_machines) const noexcept {
    return objectives.fitness(w, num_machines);
  }
};

class ScheduleEvaluator {
 public:
  /// Binds to an ETC matrix; the matrix must outlive the evaluator.
  explicit ScheduleEvaluator(const EtcMatrix& etc);

  /// Loads a complete schedule and (re)builds all machine state from
  /// scratch. O(n log n). Recycles every internal buffer, so a warm reset
  /// allocates nothing once capacities have grown to steady state.
  void reset(const Schedule& schedule);

  /// Re-targets the evaluator at `target` by replaying only the genes that
  /// differ from the current schedule, then canonicalizing the touched
  /// machines — bitwise identical to reset(target) at a fraction of the
  /// cost when the two schedules are similar (offspring vs. parent).
  /// Falls back to reset(target) when the evaluator is empty or the diff
  /// is large enough that the full rebuild is cheaper.
  void reset_to(const Schedule& target);

  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  [[nodiscard]] const EtcMatrix& etc() const noexcept { return *etc_; }
  [[nodiscard]] int num_jobs() const noexcept { return etc_->num_jobs(); }
  [[nodiscard]] int num_machines() const noexcept {
    return etc_->num_machines();
  }

  [[nodiscard]] double completion(MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].completion;
  }
  [[nodiscard]] double machine_flow(MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].flow;
  }
  /// Jobs currently assigned to machine m, ascending by (ETC, job id).
  [[nodiscard]] const std::vector<std::pair<double, JobId>>& machine_jobs(
      MachineId m) const noexcept {
    return machines_[static_cast<std::size_t>(m)].jobs;
  }

  /// O(1) from the top-3 cache. Throws std::logic_error on a zero-machine
  /// evaluator (there is no completion time to report).
  [[nodiscard]] double makespan() const;
  /// O(1): the running total maintained across applies.
  [[nodiscard]] double flowtime() const noexcept { return total_flow_; }
  [[nodiscard]] Objectives objectives() const {
    return {makespan(), flowtime()};
  }
  [[nodiscard]] double fitness(const FitnessWeights& w) const {
    return objectives().fitness(w, num_machines());
  }
  /// A machine whose completion time equals the makespan (lowest id).
  /// O(1). Throws std::logic_error on a zero-machine evaluator.
  [[nodiscard]] MachineId makespan_machine() const;

  /// Objectives if job were moved to machine `to` (no state change).
  /// O(k) in the two affected machines — independent of machine count.
  [[nodiscard]] PreviewResult preview_move(JobId job, MachineId to) const;

  /// Objectives if jobs a and b (on different machines) swapped machines.
  /// Precondition: schedule()[a] != schedule()[b]. O(k), like preview_move.
  [[nodiscard]] PreviewResult preview_swap(JobId a, JobId b) const;

  /// Scores every swap partner of focus job `a` in one pass: calls
  /// visit(b, preview) for each job b on another machine, in ascending id
  /// order, with `preview` bitwise equal to preview_swap(a, b). The terms
  /// that do not depend on the partner — a's removal from its machine, and
  /// per partner machine a's insertion rank and the rest-of-fleet makespan
  /// — are computed once instead of once per partner, and the partners'
  /// insertion ranks on a's machine come from one vectorized count. The
  /// scan costs O(m k + n k_a) (k_a = jobs on a's machine) instead of n
  /// previews at O(k_a + k_b) each. Leaves the schedule and every
  /// objective untouched; it is non-const only because it fills scratch
  /// tables.
  template <typename Visit>
  void preview_swaps(JobId a, Visit&& visit);

  /// Moves job to machine `to`. Adopts the closed-form scalars a preview
  /// of the same edit computes, so preview_move(job, to) followed by
  /// apply_move(job, to) leaves makespan()/flowtime() bitwise equal to the
  /// preview. Marks the two machines dirty (see canonicalize()).
  void apply_move(JobId job, MachineId to);

  /// Swaps the machines of jobs a and b (must differ). Same exactness
  /// contract as apply_move.
  void apply_swap(JobId a, JobId b);

  /// Recomputes every dirty machine from its (exact) job list and rebuilds
  /// the aggregate caches, leaving the state bitwise identical to a fresh
  /// reset() of the current schedule. No-op when nothing is dirty. Call
  /// before publishing objectives that must match a from-scratch
  /// evaluation (the evolutionary loops do this at readback).
  void canonicalize();

  /// Rebuilds everything from the current schedule and asserts the cached
  /// state matches (test hook). Throws std::logic_error on mismatch.
  void check_consistency() const;

 private:
  struct MachineState {
    std::vector<std::pair<double, JobId>> jobs;  // ascending (etc, job)
    // prefix[i] = sum of the first i ETC values; size jobs.size() + 1.
    // Lets previews answer "flow without job at p / with x inserted" from
    // closed forms instead of re-merging the whole list. Always canonical
    // (rebuilt by full summation after every structural edit).
    std::vector<double> prefix;
    // Structure-of-arrays mirror of jobs[i].first: previews find a virtual
    // job's insertion rank by a branchless count over this contiguous
    // double array (vectorizable) instead of a serial binary search over
    // the pair list. Kept coherent by the same list surgery as `jobs`.
    std::vector<double> keys;
    double completion = 0.0;  // ready + sum of etc
    double flow = 0.0;        // SPT flowtime contribution of this machine
  };

  // Top-3 completion-time cache, ordered by (completion desc, machine id
  // asc). Invariant: every machine not in the cache compares not-better
  // than the last cache entry, so the first entry is always the makespan
  // machine and the first entry not owned by an edit's two affected
  // machines bounds the rest exactly.
  struct TopEntry {
    double completion = 0.0;
    MachineId machine = -1;
  };

  [[nodiscard]] static bool top_better(double ca, MachineId ma, double cb,
                                       MachineId mb) noexcept {
    return ca != cb ? ca > cb : ma < mb;
  }
  [[nodiscard]] int top_capacity() const noexcept {
    return num_machines() < 3 ? num_machines() : 3;
  }
  /// Largest completion among machines other than x and y (0.0 when none).
  [[nodiscard]] double rest_completion(MachineId x, MachineId y) const noexcept;
  void topk_offer(double completion, MachineId m);
  void topk_update(MachineId m, double completion);
  void topk_rebuild();

  /// Recomputes prefix sums, completion and flow of one machine from its
  /// job list — the canonical (from-scratch) summation order.
  void recompute_machine(MachineId m);
  /// Rebuilds just the prefix sums (canonical order) after list surgery.
  static void rebuild_prefix(MachineState& state);

  void list_insert(MachineState& state, double etc, JobId job);
  void list_erase(MachineState& state, double etc, JobId job);

  /// Installs closed-form scalars on a machine, folds the flow delta into
  /// the running total, refreshes the top-3 cache and marks it dirty.
  void commit_machine(MachineId m, double flow, double completion);
  void mark_dirty(MachineId m);
  /// Recomputes the aggregate caches (total flow in machine-id order, then
  /// the top-3 scan) and clears the dirty set.
  void rebuild_caches();

  /// Flow and completion of machine m with `skip` removed (if >= 0) and a
  /// virtual job `add` of the given ETC inserted (if add_job >= 0). Snaps
  /// to {0.0, ready} exactly when the machine ends up empty.
  [[nodiscard]] std::pair<double, double> flow_completion_with(
      MachineId m, JobId skip, JobId add_job, double add_etc) const;

  // flow_completion_with's closed form, split into its removal, rank and
  // insertion steps so preview_swaps can hoist the partner-independent
  // ones while evaluating the very same FP expressions.
  //   remove at p (0-based, list size k):
  //     flow -= ready + prefix[p] + (k - p) * e_p
  //   insert x at q (list size k after removal):
  //     flow += ready + prefix'(q) + (k + 1 - q) * x
  struct Removal {
    double flow;     // machine flow with the removed job's term taken out
    double sum;      // busy time (completion - ready) without the job
    std::size_t k;   // list size after the removal
    std::size_t at;  // removed rank; the list size when nothing is removed
    double etc;      // removed ETC (0.0 when nothing is removed)
  };
  /// Machine state minus `skip` (nothing when skip < 0). O(1).
  [[nodiscard]] Removal removal(const MachineState& state, double ready,
                                JobId skip) const noexcept;
  /// Rank of (etc, job) in the machine's pre-removal list. O(k).
  [[nodiscard]] static std::size_t insertion_rank(const MachineState& state,
                                                  double etc,
                                                  JobId job) noexcept;
  /// Advances `below` (the count of keys strictly below etc) across the
  /// equal keys whose job id sorts before `job`, giving insertion_rank.
  [[nodiscard]] static std::size_t settle_ties(const MachineState& state,
                                               std::size_t below, double etc,
                                               JobId job) noexcept;
  /// {flow, completion} after inserting a job of ETC `etc` at
  /// pre-removal rank q into the machine `r` was taken from. O(1).
  [[nodiscard]] static std::pair<double, double> with_insertion(
      const MachineState& state, double ready, const Removal& r,
      std::size_t q, double etc) noexcept;
  /// Objectives after an edit that leaves machine x at `side_x` and y at
  /// `side_y` ({flow, completion} each); `rest` is rest_completion(x, y).
  /// The flow arithmetic mirrors the apply commit order (x, then y).
  [[nodiscard]] PreviewResult two_machine_preview(
      MachineId x, std::pair<double, double> side_x, MachineId y,
      std::pair<double, double> side_y, double rest) const noexcept;

  // The focus job's terms on one partner machine of a preview_swaps scan.
  struct SwapPartnerMachine {
    double ready = 0.0;
    double etc = 0.0;       // ETC of the focus job on this machine
    std::size_t rank = 0;   // its insertion rank in this machine's list
    double rest = 0.0;      // rest_completion(focus machine, this machine)
  };
  /// Fills the partner-independent tables of a preview_swaps scan of `a`:
  /// swap_partners_, and swap_below_[b] = the count of keys on a's machine
  /// strictly below job b's ETC there.
  void fill_swap_scan(JobId a);

  const EtcMatrix* etc_;
  Schedule schedule_;
  std::vector<MachineState> machines_;

  double total_flow_ = 0.0;        // sum of machine flows, delta-maintained
  std::array<TopEntry, 3> topk_{};  // see TopEntry invariant above
  int topk_size_ = 0;

  std::vector<std::uint8_t> dirty_flag_;  // per-machine: scalars non-canonical
  std::vector<MachineId> dirty_list_;

  // job_pos_[j] = index of job j in its machine's sorted job list. Gives
  // previews the "remove at p" rank in O(1); maintained by the list
  // surgery (stale for jobs mid-flight between erase and insert, which
  // previews never observe).
  std::vector<int> job_pos_;

  // preview_swaps scratch. swap_below_ holds exact small counts as doubles
  // so its fill loop (a compare mask feeding an add) vectorizes.
  std::vector<SwapPartnerMachine> swap_partners_;
  std::vector<double> swap_below_;
};

inline ScheduleEvaluator::Removal ScheduleEvaluator::removal(
    const MachineState& state, double ready, JobId skip) const noexcept {
  const std::size_t k = state.jobs.size();
  Removal r{state.flow, state.completion - ready, k, k, 0.0};
  if (skip >= 0) {
    // The position index answers "where does skip sit in m's list" in O(1);
    // the cached key is the same double the ETC matrix holds.
    r.at = static_cast<std::size_t>(job_pos_[static_cast<std::size_t>(skip)]);
    r.etc = state.keys[r.at];
    r.flow -= ready + state.prefix[r.at] +
              static_cast<double>(k - r.at) * r.etc;
    r.sum -= r.etc;
    --r.k;
  }
  return r;
}

inline std::size_t ScheduleEvaluator::insertion_rank(const MachineState& state,
                                                     double etc,
                                                     JobId job) noexcept {
  // A branchless strictly-less count over the contiguous key array, four
  // independent accumulator chains so the compare/set latency overlaps
  // (no serial binary-search dependency), then the id-ordered tie walk.
  const double* keys = state.keys.data();
  const std::size_t kk = state.keys.size();
  std::size_t q0 = 0, q1 = 0, q2 = 0, q3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= kk; i += 4) {
    q0 += keys[i] < etc ? 1u : 0u;
    q1 += keys[i + 1] < etc ? 1u : 0u;
    q2 += keys[i + 2] < etc ? 1u : 0u;
    q3 += keys[i + 3] < etc ? 1u : 0u;
  }
  for (; i < kk; ++i) q0 += keys[i] < etc ? 1u : 0u;
  return settle_ties(state, q0 + q1 + q2 + q3, etc, job);
}

inline std::size_t ScheduleEvaluator::settle_ties(const MachineState& state,
                                                  std::size_t below,
                                                  double etc,
                                                  JobId job) noexcept {
  // The equal-key range is almost always empty.
  std::size_t q = below;
  while (q < state.keys.size() && state.keys[q] == etc &&
         state.jobs[q].second < job) {
    ++q;
  }
  return q;
}

inline std::pair<double, double> ScheduleEvaluator::with_insertion(
    const MachineState& state, double ready, const Removal& r, std::size_t q,
    double etc) noexcept {
  // Select, don't branch: across a swap scan whether the insertion lands
  // past the removed job is a coin flip from partner to partner.
  const bool past = q > r.at;
  const double prefix_q[2] = {state.prefix[q], state.prefix[q] - r.etc};
  q -= past ? 1u : 0u;
  return {r.flow + (ready + prefix_q[past] +
                    static_cast<double>(r.k + 1 - q) * etc),
          ready + (r.sum + etc)};
}

inline PreviewResult ScheduleEvaluator::two_machine_preview(
    MachineId x, std::pair<double, double> side_x, MachineId y,
    std::pair<double, double> side_y, double rest) const noexcept {
  double new_flowtime =
      total_flow_ +
      (side_x.first - machines_[static_cast<std::size_t>(x)].flow);
  new_flowtime += side_y.first - machines_[static_cast<std::size_t>(y)].flow;
  const double new_makespan =
      std::max(rest, std::max(side_x.second, side_y.second));
  return {Objectives{std::max(0.0, new_makespan), new_flowtime}};
}

template <typename Visit>
void ScheduleEvaluator::preview_swaps(JobId a, Visit&& visit) {
  const MachineId ma = schedule_[a];
  fill_swap_scan(a);
  const MachineState& sa = machines_[static_cast<std::size_t>(ma)];
  const double ready_a = etc_->ready_time(ma);
  const Removal ra = removal(sa, ready_a, a);
  const std::span<const double> etc_on_a = etc_->machine_row(ma);
  const std::span<const MachineId> genes = schedule_.genes();
  for (std::size_t b = 0; b < genes.size(); ++b) {
    const MachineId mb = genes[b];
    if (mb == ma) continue;
    const SwapPartnerMachine& p = swap_partners_[static_cast<std::size_t>(mb)];
    const MachineState& sb = machines_[static_cast<std::size_t>(mb)];
    const JobId job_b = static_cast<JobId>(b);
    const double etc_b = etc_on_a[b];
    const std::size_t rank_b = settle_ties(
        sa, static_cast<std::size_t>(swap_below_[b]), etc_b, job_b);
    visit(job_b,
          two_machine_preview(
              ma, with_insertion(sa, ready_a, ra, rank_b, etc_b), mb,
              with_insertion(sb, p.ready, removal(sb, p.ready, job_b), p.rank,
                             p.etc),
              p.rest));
  }
}

}  // namespace gridsched
