#include "bounds/simplex.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace gridsched::bounds {
namespace {

// Tolerances assume the caller feeds a well-scaled problem (coefficients
// O(1) — lower_bound.cpp normalizes by the largest ETC value before
// building its LP). Zero-pivot and reduced-cost cutoffs are the usual
// simplex compromise between stalling and accepting noise pivots.
constexpr double kEps = 1e-9;
constexpr double kPhase1Tol = 1e-7;

// Consecutive degenerate pivots (step length within kEps of zero) after
// which pricing drops from Dantzig's rule to Bland's smallest-index rule,
// until a pivot moves the objective again.
constexpr int kDegenerateRun = 50;

/// The constraint matrix by columns (rhs-normalized signs applied):
/// column c's nonzeros are entries [start[c], start[c + 1]).
struct SparseColumns {
  std::vector<std::size_t> start;
  std::vector<std::size_t> row;
  std::vector<double> value;
};

}  // namespace

SimplexResult solve_simplex(const LinearProgram& lp,
                            const SimplexOptions& options) {
  SimplexResult result;
  const std::size_t n = lp.objective.size();
  const std::size_t m = lp.constraints.size();

  // Normalize every row to rhs >= 0; that can flip <= into >= and vice
  // versa, so the effective relation decides the extra columns.
  std::vector<double> sign(m);
  std::vector<double> x_basic(m);  // x_B = B⁻¹·b, starting from B = I
  std::vector<Relation> relation(m);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& con = lp.constraints[r];
    sign[r] = con.rhs < 0.0 ? -1.0 : 1.0;
    x_basic[r] = sign[r] * con.rhs;
    relation[r] = con.relation;
    if (con.rhs < 0.0 && con.relation != Relation::kEqual) {
      relation[r] = con.relation == Relation::kLessEqual
                        ? Relation::kGreaterEqual
                        : Relation::kLessEqual;
    }
  }

  // Column layout: [structural n][one slack/surplus per inequality]
  // [one artificial per >=/= row], slack and artificial columns being
  // unit columns in row order. The starting basis is each row's slack
  // (<=) or artificial (>=, =); both are +1 unit columns, so B = I.
  SparseColumns a;
  a.start.assign(n + 1, 0);
  for (const auto& con : lp.constraints) {
    for (const LpTerm& term : con.terms) {
      if (term.index >= n) {
        throw std::invalid_argument("solve_simplex: term index out of range");
      }
      if (term.coeff != 0.0) ++a.start[term.index + 1];
    }
  }
  for (std::size_t c = 0; c < n; ++c) a.start[c + 1] += a.start[c];
  a.row.resize(a.start[n]);
  a.value.resize(a.start[n]);
  std::vector<std::size_t> next(a.start.begin(), a.start.end() - 1);
  for (std::size_t r = 0; r < m; ++r) {  // rows ascending in every column
    for (const LpTerm& term : lp.constraints[r].terms) {
      if (term.coeff == 0.0) continue;
      std::size_t& k = next[term.index];
      a.row[k] = r;
      a.value[k] = sign[r] * term.coeff;
      ++k;
    }
  }
  std::vector<std::size_t> basis(m);
  auto add_unit_column = [&](std::size_t r, double v) {
    a.row.push_back(r);
    a.value.push_back(v);
    a.start.push_back(a.row.size());
  };
  for (std::size_t r = 0; r < m; ++r) {
    if (relation[r] == Relation::kEqual) continue;
    const bool slack = relation[r] == Relation::kLessEqual;  // else surplus
    if (slack) basis[r] = a.start.size() - 1;
    add_unit_column(r, slack ? 1.0 : -1.0);
  }
  const std::size_t num_real = a.start.size() - 1;  // may enter in phase 2
  for (std::size_t r = 0; r < m; ++r) {
    if (relation[r] == Relation::kLessEqual) continue;
    basis[r] = a.start.size() - 1;
    add_unit_column(r, 1.0);
  }
  const std::size_t cols = a.start.size() - 1;
  const bool has_artificials = cols > num_real;
  std::vector<char> in_basis(cols, 0);
  for (const std::size_t c : basis) in_basis[c] = 1;

  // Dense basis inverse, row-major (row r belongs to basis position r).
  std::vector<double> binv(m * m, 0.0);
  for (std::size_t r = 0; r < m; ++r) binv[r * m + r] = 1.0;

  // Phase-1 cost is the sum of artificials; phase-2 cost is c.
  std::vector<double> phase1_cost(cols, 0.0);
  for (std::size_t c = num_real; c < cols; ++c) phase1_cost[c] = 1.0;
  std::vector<double> phase2_cost(cols, 0.0);
  for (std::size_t c = 0; c < n; ++c) phase2_cost[c] = lp.objective[c];

  std::vector<double> duals(m);
  std::vector<double> alpha(m);

  // Revised simplex over `cost`; `limit` bars columns >= limit from
  // entering (used to freeze artificials in phase 2).
  auto iterate = [&](const std::vector<double>& cost,
                     std::size_t limit) -> SimplexStatus {
    int degenerate_run = 0;
    for (;;) {
      // Duals y = c_B·B⁻¹.
      std::fill(duals.begin(), duals.end(), 0.0);
      for (std::size_t r = 0; r < m; ++r) {
        const double cb = cost[basis[r]];
        if (cb == 0.0) continue;
        const double* row = &binv[r * m];
        for (std::size_t i = 0; i < m; ++i) duals[i] += cb * row[i];
      }

      // Entering: the most negative reduced cost c_j − y·a_j, smallest
      // index on ties (Dantzig); during a long degenerate run, the
      // smallest index with a negative reduced cost (Bland).
      const bool bland = degenerate_run >= kDegenerateRun;
      std::size_t entering = limit;
      double best_cost = -kEps;
      for (std::size_t c = 0; c < limit; ++c) {
        if (in_basis[c]) continue;
        double reduced = cost[c];
        for (std::size_t k = a.start[c]; k < a.start[c + 1]; ++k) {
          reduced -= duals[a.row[k]] * a.value[k];
        }
        if (reduced < best_cost) {
          best_cost = reduced;
          entering = c;
          if (bland) break;
        }
      }
      if (entering == limit) return SimplexStatus::kOptimal;

      // The entering column in the current basis: alpha = B⁻¹·a_q.
      std::fill(alpha.begin(), alpha.end(), 0.0);
      for (std::size_t k = a.start[entering]; k < a.start[entering + 1];
           ++k) {
        const double v = a.value[k];
        const double* col = &binv[a.row[k]];
        for (std::size_t r = 0; r < m; ++r) alpha[r] += col[r * m] * v;
      }

      // Leaving: minimum ratio; ties by smallest basis variable index.
      std::size_t leaving = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        const double pivot = alpha[r];
        if (pivot <= kEps) continue;
        const double ratio = x_basic[r] / pivot;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps &&
             (leaving == m || basis[r] < basis[leaving]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving == m) return SimplexStatus::kUnbounded;

      if (result.pivots >= options.max_pivots) {
        return SimplexStatus::kPivotLimit;
      }
      degenerate_run = best_ratio <= kEps ? degenerate_run + 1 : 0;

      // Product-form update: B⁻¹ ← E·B⁻¹ with E the eta matrix of alpha.
      const double inv = 1.0 / alpha[leaving];
      double* pivot_row = &binv[leaving * m];
      for (std::size_t i = 0; i < m; ++i) pivot_row[i] *= inv;
      const double step = x_basic[leaving] * inv;
      for (std::size_t r = 0; r < m; ++r) {
        const double factor = alpha[r];
        if (r == leaving || factor == 0.0) continue;
        double* row = &binv[r * m];
        for (std::size_t i = 0; i < m; ++i) row[i] -= factor * pivot_row[i];
        x_basic[r] -= factor * step;
      }
      x_basic[leaving] = step;
      in_basis[basis[leaving]] = 0;
      in_basis[entering] = 1;
      basis[leaving] = entering;
      ++result.pivots;
    }
  };

  // Phase 1: drive the artificials to zero.
  if (has_artificials) {
    const SimplexStatus phase1 = iterate(phase1_cost, cols);
    if (phase1 != SimplexStatus::kOptimal) {
      // Unbounded cannot happen with the bounded-below phase-1 objective.
      result.status = phase1 == SimplexStatus::kUnbounded
                          ? SimplexStatus::kInfeasible
                          : phase1;
      return result;
    }
    double infeasibility = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (basis[r] >= num_real) infeasibility += x_basic[r];
    }
    if (infeasibility > kPhase1Tol) {
      result.status = SimplexStatus::kInfeasible;
      return result;
    }
  }

  // Phase 2 on the real objective. Artificial columns stay barred; any
  // artificial still basic sits at value ~0 and is harmless.
  result.status = iterate(phase2_cost, num_real);
  if (result.status != SimplexStatus::kOptimal) return result;

  result.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) result.x[basis[r]] = x_basic[r];
  }
  for (std::size_t c = 0; c < n; ++c) {
    result.objective += lp.objective[c] * result.x[c];
  }
  return result;
}

}  // namespace gridsched::bounds
