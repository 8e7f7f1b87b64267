// Optimality-gap machinery: the strongest makespan lower bound the
// library can compute on an ETC instance, and the gap helper every bench
// reports through obs::BenchReport.
//
// Layering: `core/bounds.h` owns the cheap closed-form floors (ready, job
// and load bounds — O(nm), always computed). This module adds the LP
// relaxation of the assignment problem:
//
//   minimize T
//   s.t.  sum_m x[j][m] = 1                      for every job j
//         ready[m] + sum_j ETC[j][m]·x[j][m] <= T  for every machine m
//         x >= 0
//
// i.e. R||Cmax with jobs allowed to split fractionally across machines.
// Every real schedule is a feasible {0,1} point, so the LP optimum is a
// valid lower bound — and a much tighter one than the load bound whenever
// machine speeds are heterogeneous (docs/bounds.md works the math and
// records measured gaps). Two things are easy to get wrong here:
//
//   * A truncated simplex run is NOT a bound. A suboptimal feasible T
//     only says "a fractional schedule this good exists", which can
//     exceed the integer optimum. The LP value is therefore used only
//     when the solver proves optimality within its budget; otherwise the
//     result falls back to the cheap floors alone (lp_status records
//     why).
//   * The LP can sit BELOW the per-job bound (a single job splits across
//     machines, so max_j min_m(ready+ETC) no longer binds it). The final
//     bound is max(cheap, LP), never the LP alone.
//
// The solver's working set is O((n+m)² + nm) — a dense basis inverse over
// the n + m rows plus the LP's sparse columns — down from the
// O((n+m)·nm) of the dense tableau it replaced; the LinearProgram handed
// to it stores only its 2nm + m nonzeros. Pivots grow polynomially in
// practice, so the LP sits behind a budget knob (`LpOptions`) and is
// meant for bench-time gap reporting, not for the scheduling hot path;
// docs/bounds.md records pivots and times up to the paper's 512 x 16.
#pragma once

#include <cstdint>

#include "bounds/simplex.h"
#include "etc/etc_matrix.h"

namespace gridsched::bounds {

/// Budget knob for the LP-relaxation bound.
struct LpOptions {
  bool enabled = true;
  /// Simplex pivot budget (both phases). Exceeding it discards the LP
  /// value — see the header comment — and reports kPivotLimit.
  int max_pivots = 20'000;
  /// Skip instances whose solver working set — (n+m)² basis-inverse
  /// cells plus the constraint nonzeros — would exceed this many cells
  /// (8M cells = 64 MB, reached near n + m = 2800). 512 jobs x 16
  /// machines needs ~0.3M.
  std::int64_t max_tableau_cells = 8'000'000;
};

enum class LpBoundStatus { kOptimal, kPivotLimit, kTooLarge, kDisabled };

struct MakespanBoundResult {
  /// The bound to use: max of every valid component below.
  double value = 0.0;
  /// max(ready, job, load) from core/bounds.h. Always valid.
  double cheap = 0.0;
  /// LP-relaxation optimum; 0.0 unless lp_status == kOptimal.
  double lp = 0.0;
  LpBoundStatus lp_status = LpBoundStatus::kDisabled;
  int lp_pivots = 0;
};

/// The LP relaxation above as makespan_bound solves it: x[j][k] at index
/// j·m + k, then T last, with every ETC and ready time divided by `scale`
/// (makespan_bound uses the largest of them, so the simplex's absolute
/// tolerances see O(1) numbers). Its optimum times `scale` is the LP bound.
[[nodiscard]] LinearProgram makespan_lp(const EtcMatrix& etc, double scale);

[[nodiscard]] MakespanBoundResult makespan_bound(const EtcMatrix& etc,
                                                 const LpOptions& options = {});

/// The gap every bench reports: 100·(objective − lb)/lb. Returns NaN when
/// lb <= 0 (obs::BenchReport serializes non-finite metrics as null).
[[nodiscard]] double optimality_gap_pct(double objective,
                                        double lower_bound) noexcept;

}  // namespace gridsched::bounds
