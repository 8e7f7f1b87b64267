#include "bounds/lower_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bounds/simplex.h"
#include "core/bounds.h"

namespace gridsched::bounds {
namespace {

/// The solver's working set on makespan_lp(etc), in cells (see
/// simplex.cpp): the dense basis inverse over the LP's n + m rows plus the
/// sparse columns' nonzeros — two per x[j][k], one per T entry, one per
/// surplus and one per artificial.
std::int64_t tableau_cells(const EtcMatrix& etc) {
  const std::int64_t n = etc.num_jobs();
  const std::int64_t m = etc.num_machines();
  const std::int64_t rows = n + m;
  const std::int64_t nonzeros = 2 * n * m + m + m + rows;
  return rows * rows + nonzeros;
}

}  // namespace

LinearProgram makespan_lp(const EtcMatrix& etc, double scale) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  const std::size_t num_vars = static_cast<std::size_t>(n) * m + 1;
  const std::size_t t_var = num_vars - 1;
  const double inv_scale = 1.0 / scale;

  LinearProgram lp;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[t_var] = 1.0;
  lp.constraints.reserve(static_cast<std::size_t>(n + m));

  for (int j = 0; j < n; ++j) {
    LinearConstraint con;
    con.terms.reserve(static_cast<std::size_t>(m));
    for (int k = 0; k < m; ++k) {
      con.terms.push_back({static_cast<std::size_t>(j) * m + k, 1.0});
    }
    con.relation = Relation::kEqual;
    con.rhs = 1.0;
    lp.constraints.push_back(std::move(con));
  }
  for (int k = 0; k < m; ++k) {
    // T - sum_j ETC[j][k]·x[j][k] >= ready[k]
    LinearConstraint con;
    con.terms.reserve(static_cast<std::size_t>(n) + 1);
    for (int j = 0; j < n; ++j) {
      con.terms.push_back(
          {static_cast<std::size_t>(j) * m + k, -etc(j, k) * inv_scale});
    }
    con.terms.push_back({t_var, 1.0});
    con.relation = Relation::kGreaterEqual;
    con.rhs = etc.ready_time(k) * inv_scale;
    lp.constraints.push_back(std::move(con));
  }
  return lp;
}

MakespanBoundResult makespan_bound(const EtcMatrix& etc,
                                   const LpOptions& options) {
  MakespanBoundResult result;
  result.cheap = makespan_lower_bound(etc);
  result.value = result.cheap;

  if (!options.enabled || options.max_pivots <= 0) {
    result.lp_status = LpBoundStatus::kDisabled;
    return result;
  }
  if (tableau_cells(etc) > options.max_tableau_cells) {
    result.lp_status = LpBoundStatus::kTooLarge;
    return result;
  }

  // Scale so the largest coefficient is 1.0: the simplex tolerances are
  // absolute, and Braun hi-hi instances reach ETC values of ~3e6.
  double scale = 0.0;
  for (int j = 0; j < etc.num_jobs(); ++j) {
    const auto row = etc.row(j);
    for (const double v : row) scale = std::max(scale, v);
  }
  for (int k = 0; k < etc.num_machines(); ++k) {
    scale = std::max(scale, etc.ready_time(k));
  }
  if (scale <= 0.0) {  // all-zero instance: the cheap bound (0) is exact
    result.lp_status = LpBoundStatus::kOptimal;
    return result;
  }

  SimplexOptions simplex_options;
  simplex_options.max_pivots = options.max_pivots;
  const SimplexResult lp =
      solve_simplex(makespan_lp(etc, scale), simplex_options);
  result.lp_pivots = lp.pivots;
  if (lp.status != SimplexStatus::kOptimal) {
    // Infeasible/unbounded cannot happen for this LP (x = any schedule,
    // T large enough is feasible; T >= 0 bounds it below); treat any
    // non-optimal outcome as "budget exhausted, no LP bound".
    result.lp_status = LpBoundStatus::kPivotLimit;
    return result;
  }
  result.lp_status = LpBoundStatus::kOptimal;
  result.lp = lp.objective * scale;
  result.value = std::max(result.value, result.lp);
  return result;
}

double optimality_gap_pct(double objective, double lower_bound) noexcept {
  if (!(lower_bound > 0.0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return 100.0 * (objective - lower_bound) / lower_bound;
}

}  // namespace gridsched::bounds
