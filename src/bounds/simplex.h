// A small two-phase revised simplex solver (minimization, x >= 0).
//
// Exists so the library can compute LP-relaxation lower bounds
// (bounds/lower_bound.h) without an external solver dependency — the
// container this builds in is offline. It is tuned for determinism and
// for the assignment LPs of bounds/lower_bound.h (few rows, many
// two-nonzero columns), not for sparse million-row LPs:
//
//   * Constraints are stored as their nonzeros, which are read once into
//     sparse columns (rows ascending within each column), and
//     the solver keeps an explicit dense basis inverse updated in product
//     form. A pivot costs O(rows² + nonzeros), and memory is
//     O(rows² + nonzeros), where the dense tableau it replaced paid
//     O(rows × columns) for both.
//   * Dantzig pricing: the most negative reduced cost enters, smallest
//     index on ties. After a run of degenerate pivots the entering rule
//     falls back to Bland's (smallest index with a negative reduced
//     cost) until a pivot moves the objective again, which rules out
//     cycling. The leaving row is the minimum ratio, smallest basis index
//     on ties. No step depends on anything but the input, so the pivot
//     sequence — and the returned optimum — is bitwise-stable across
//     runs (tests/test_bounds.cpp pins this).
//   * A pivot budget instead of open-ended iteration: a caller that uses
//     the optimum as a *bound* must know whether the solve finished
//     (a truncated minimization is NOT a valid lower bound), so running
//     out of budget is a first-class status, never a silent best-effort.
//
// Phase 1 minimizes the sum of artificial variables to find a feasible
// basis; artificial columns are barred from re-entering in phase 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gridsched::bounds {

enum class SimplexStatus { kOptimal, kInfeasible, kUnbounded, kPivotLimit };

struct SimplexOptions {
  /// Total pivot budget across both phases. The solver terminates
  /// finitely anyway; the cap bounds the worst case wall-clock.
  int max_pivots = 20'000;
};

struct SimplexResult {
  SimplexStatus status = SimplexStatus::kPivotLimit;
  /// c·x at the final basis. Only meaningful when status == kOptimal.
  double objective = 0.0;
  /// Structural variable values (empty unless status == kOptimal).
  std::vector<double> x;
  int pivots = 0;
};

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero of a constraint row: `coeff` times structural variable
/// `index`.
struct LpTerm {
  std::size_t index = 0;
  double coeff = 0.0;
};

struct LinearConstraint {
  /// The row's nonzeros, in any order; terms on one index add up.
  std::vector<LpTerm> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// minimize objective·x subject to the constraints and x >= 0.
struct LinearProgram {
  std::vector<double> objective;
  std::vector<LinearConstraint> constraints;
};

/// Throws std::invalid_argument on a term index outside the objective.
[[nodiscard]] SimplexResult solve_simplex(const LinearProgram& lp,
                                          const SimplexOptions& options = {});

}  // namespace gridsched::bounds
