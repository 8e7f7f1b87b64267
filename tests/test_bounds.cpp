#include "core/bounds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bounds/lower_bound.h"
#include "bounds/simplex.h"
#include "cma/cma.h"
#include "core/evaluator.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

TEST(Bounds, HandComputedTinyInstance) {
  //          m0   m1
  // job 0     2    4
  // job 1     3    1
  // job 2     5    2
  EtcMatrix etc(3, 2, {2, 4, 3, 1, 5, 2});
  EXPECT_DOUBLE_EQ(ready_time_bound(etc), 0.0);
  // min per job: 2, 1, 2 -> job bound 2; load bound (2+1+2)/2 = 2.5.
  EXPECT_DOUBLE_EQ(job_lower_bound(etc), 2.0);
  EXPECT_DOUBLE_EQ(load_lower_bound(etc), 2.5);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 2.5);
  EXPECT_DOUBLE_EQ(flowtime_lower_bound(etc), 5.0);
}

TEST(Bounds, ReadyTimesRaiseTheFloor) {
  EtcMatrix etc(1, 2, {10, 10});
  etc.set_ready_time(0, 100.0);
  // The job can run on m1 (completion 10), but m0 still finishes its
  // backlog at 100 -> makespan >= 100.
  EXPECT_DOUBLE_EQ(ready_time_bound(etc), 100.0);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 100.0);
}

TEST(Bounds, JobBoundDominatesWhenOneJobIsHuge) {
  EtcMatrix etc(2, 2, {1, 1, 1'000, 2'000});
  EXPECT_DOUBLE_EQ(job_lower_bound(etc), 1'000.0);
  EXPECT_DOUBLE_EQ(load_lower_bound(etc), 500.5);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 1'000.0);
}

/// Checks the returned optimum against the LP itself: x is feasible for
/// every constraint (and x >= 0) within 1e-9, and c·x equals `objective`.
void expect_certificate(const bounds::LinearProgram& lp,
                        const bounds::SimplexResult& result) {
  ASSERT_EQ(result.status, bounds::SimplexStatus::kOptimal);
  ASSERT_EQ(result.x.size(), lp.objective.size());
  constexpr double kTol = 1e-9;
  for (const double v : result.x) EXPECT_GE(v, -kTol);
  for (std::size_t r = 0; r < lp.constraints.size(); ++r) {
    const auto& con = lp.constraints[r];
    double lhs = 0.0;
    for (const bounds::LpTerm& term : con.terms) {
      lhs += term.coeff * result.x[term.index];
    }
    if (con.relation != bounds::Relation::kGreaterEqual) {
      EXPECT_LE(lhs, con.rhs + kTol) << "row " << r;
    }
    if (con.relation != bounds::Relation::kLessEqual) {
      EXPECT_GE(lhs, con.rhs - kTol) << "row " << r;
    }
  }
  double cx = 0.0;
  for (std::size_t c = 0; c < result.x.size(); ++c) {
    cx += lp.objective[c] * result.x[c];
  }
  EXPECT_DOUBLE_EQ(cx, result.objective);
}

/// Re-solves the LP behind an optimal makespan_bound, checks its
/// certificate, and checks that it is the LP the bound came from.
void expect_lp_certificate(const EtcMatrix& etc,
                           const bounds::MakespanBoundResult& bound) {
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  double scale = 0.0;  // the largest coefficient, as makespan_bound scales
  for (int j = 0; j < etc.num_jobs(); ++j) {
    for (const double v : etc.row(j)) scale = std::max(scale, v);
  }
  for (int k = 0; k < etc.num_machines(); ++k) {
    scale = std::max(scale, etc.ready_time(k));
  }
  const bounds::LinearProgram lp = bounds::makespan_lp(etc, scale);
  const bounds::SimplexResult result = bounds::solve_simplex(lp);
  expect_certificate(lp, result);
  EXPECT_EQ(result.pivots, bound.lp_pivots);
  EXPECT_EQ(result.objective * scale, bound.lp);  // bitwise
}

std::string param_name(const ::testing::TestParamInfo<InstanceSpec>& info) {
  std::string name = info.param.name();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class BoundsSuiteTest : public ::testing::TestWithParam<InstanceSpec> {};

INSTANTIATE_TEST_SUITE_P(AllTwelveClasses, BoundsSuiteTest,
                         ::testing::ValuesIn(braun_benchmark_suite()),
                         param_name);

TEST_P(BoundsSuiteTest, EverySchedulerRespectsTheBounds) {
  InstanceSpec spec = GetParam();
  spec.num_jobs = 96;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  // The LP-relaxation bound dominates the cheap floors wherever the
  // simplex proves optimality (it does at this size), so assert against
  // the combined bound — the strictest floor the library can state.
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, bound);
  const double makespan_floor = bound.value;
  const double flowtime_floor = flowtime_lower_bound(etc);
  ASSERT_GT(makespan_floor, 0.0);
  EXPECT_GE(bound.value, makespan_lower_bound(etc));

  ScheduleEvaluator eval(etc);
  Rng rng(3);
  for (HeuristicKind kind : all_heuristics()) {
    eval.reset(construct_schedule(kind, etc, rng));
    EXPECT_GE(eval.makespan(), makespan_floor * (1 - 1e-9))
        << heuristic_name(kind);
    EXPECT_GE(eval.flowtime(), flowtime_floor * (1 - 1e-12))
        << heuristic_name(kind);
  }

  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 1'000};
  config.seed = 9;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_GE(result.best.objectives.makespan, makespan_floor * (1 - 1e-9));
  EXPECT_GE(result.best.objectives.flowtime, flowtime_floor * (1 - 1e-12));
}

// ---------------------------------------------------------------------------
// The two-phase revised simplex behind the LP-relaxation bound.

TEST(Simplex, SolvesAKnownTinyLp) {
  // min -x - 2y  s.t.  x + y <= 3, x <= 2, y <= 2  ->  x=1, y=2, obj -5.
  bounds::LinearProgram lp;
  lp.objective = {-1.0, -2.0};
  lp.constraints.push_back(
      {{{0, 1.0}, {1, 1.0}}, bounds::Relation::kLessEqual, 3.0});
  lp.constraints.push_back({{{0, 1.0}}, bounds::Relation::kLessEqual, 2.0});
  lp.constraints.push_back({{{1, 1.0}}, bounds::Relation::kLessEqual, 2.0});
  const auto result = bounds::solve_simplex(lp);
  ASSERT_EQ(result.status, bounds::SimplexStatus::kOptimal);
  EXPECT_NEAR(result.objective, -5.0, 1e-9);
  ASSERT_EQ(result.x.size(), 2u);
  EXPECT_NEAR(result.x[0], 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 2.0, 1e-9);
  expect_certificate(lp, result);
}

TEST(Simplex, HandlesEqualityAndGreaterEqualRows) {
  // min x + y  s.t.  x + y = 2, x >= 0.5  ->  x=0.5 (any split), obj 2.
  bounds::LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back(
      {{{0, 1.0}, {1, 1.0}}, bounds::Relation::kEqual, 2.0});
  lp.constraints.push_back(
      {{{0, 1.0}}, bounds::Relation::kGreaterEqual, 0.5});
  const auto result = bounds::solve_simplex(lp);
  ASSERT_EQ(result.status, bounds::SimplexStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-9);
  expect_certificate(lp, result);
}

TEST(Simplex, TerminatesOnBealesCyclingExample) {
  // Beale (1955): the most-negative-reduced-cost rule with this min-ratio
  // tie-break cycles through six degenerate bases forever. The optimum is
  // -1/20 at x4 = 1/25, x6 = 1 (variables x4..x7 here, x1..x3 slacks).
  bounds::LinearProgram lp;
  lp.objective = {-0.75, 150.0, -0.02, 6.0};
  lp.constraints.push_back(
      {{{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}},
       bounds::Relation::kLessEqual,
       0.0});
  lp.constraints.push_back(
      {{{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}},
       bounds::Relation::kLessEqual,
       0.0});
  lp.constraints.push_back(
      {{{2, 1.0}}, bounds::Relation::kLessEqual, 1.0});
  const auto result = bounds::solve_simplex(lp);
  ASSERT_EQ(result.status, bounds::SimplexStatus::kOptimal);
  EXPECT_NEAR(result.objective, -0.05, 1e-12);
  EXPECT_NEAR(result.x[0], 0.04, 1e-12);
  EXPECT_NEAR(result.x[2], 1.0, 1e-12);
  expect_certificate(lp, result);
}

TEST(Simplex, DetectsInfeasible) {
  bounds::LinearProgram lp;
  lp.objective = {1.0};
  lp.constraints.push_back(
      {{{0, 1.0}}, bounds::Relation::kGreaterEqual, 2.0});
  lp.constraints.push_back({{{0, 1.0}}, bounds::Relation::kLessEqual, 1.0});
  EXPECT_EQ(bounds::solve_simplex(lp).status,
            bounds::SimplexStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x  s.t.  x >= 1: x can grow forever.
  bounds::LinearProgram lp;
  lp.objective = {-1.0};
  lp.constraints.push_back(
      {{{0, 1.0}}, bounds::Relation::kGreaterEqual, 1.0});
  EXPECT_EQ(bounds::solve_simplex(lp).status,
            bounds::SimplexStatus::kUnbounded);
}

TEST(Simplex, PivotBudgetIsAFirstClassStatus) {
  bounds::LinearProgram lp;
  lp.objective = {-1.0, -2.0};
  lp.constraints.push_back(
      {{{0, 1.0}, {1, 1.0}}, bounds::Relation::kLessEqual, 3.0});
  lp.constraints.push_back({{{0, 1.0}}, bounds::Relation::kLessEqual, 2.0});
  bounds::SimplexOptions options;
  options.max_pivots = 0;
  EXPECT_EQ(bounds::solve_simplex(lp, options).status,
            bounds::SimplexStatus::kPivotLimit);
}

TEST(Simplex, RejectsATermOutsideTheObjective) {
  bounds::LinearProgram lp;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{{2, 1.0}}, bounds::Relation::kLessEqual, 1.0});
  EXPECT_THROW((void)bounds::solve_simplex(lp), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The combined makespan bound (cheap floors + LP relaxation).

/// Exhaustive R||Cmax optimum: all m^n assignments. Only for tiny n.
double exhaustive_optimal_makespan(const EtcMatrix& etc) {
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  std::vector<int> assign(static_cast<std::size_t>(n), 0);
  std::vector<double> load(static_cast<std::size_t>(m));
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    for (int k = 0; k < m; ++k) {
      load[static_cast<std::size_t>(k)] = etc.ready_time(k);
    }
    for (int j = 0; j < n; ++j) {
      load[static_cast<std::size_t>(assign[static_cast<std::size_t>(j)])] +=
          etc(j, assign[static_cast<std::size_t>(j)]);
    }
    best = std::min(best, *std::max_element(load.begin(), load.end()));
    int digit = 0;
    while (digit < n && ++assign[static_cast<std::size_t>(digit)] == m) {
      assign[static_cast<std::size_t>(digit)] = 0;
      ++digit;
    }
    if (digit == n) break;
  }
  return best;
}

TEST(LpBound, NeverExceedsTheExhaustiveOptimum) {
  // 6 jobs x 3 machines: 729 schedules, brute-forceable, across all 12
  // Braun classes. The LP value and the combined bound must both sit at
  // or below the true optimum.
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 6;
    spec.num_machines = 3;
    const EtcMatrix etc = generate_instance(spec);
    const double optimal = exhaustive_optimal_makespan(etc);
    const auto bound = bounds::makespan_bound(etc);
    ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal) << spec.name();
    expect_lp_certificate(etc, bound);
    EXPECT_LE(bound.lp, optimal * (1 + 1e-9)) << spec.name();
    EXPECT_LE(bound.value, optimal * (1 + 1e-9)) << spec.name();
    EXPECT_GT(bound.value, 0.0) << spec.name();
  }
}

TEST(LpBound, MatchesTheLoadBoundOnUniformInstances) {
  // All-equal ETC: the LP splits every job evenly, T = n·e/m exactly, and
  // that equals the fractional load bound (here it is tight).
  EtcMatrix etc(8, 4, std::vector<double>(32, 5.0));
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, bound);
  EXPECT_NEAR(bound.lp, 10.0, 1e-9);
  EXPECT_NEAR(bound.value, 10.0, 1e-9);
}

TEST(LpBound, DominatesTheLoadAndReadyBounds) {
  // Weak LP duality: uniform machine weights recover the load bound and a
  // single-machine weight recovers the ready bound, so the LP optimum can
  // never sit below either (it CAN sit below the per-job bound — next
  // test). Checked across all classes at an odd shape.
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 40;
    spec.num_machines = 7;
    const EtcMatrix etc = generate_instance(spec);
    const auto bound = bounds::makespan_bound(etc);
    ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal) << spec.name();
    expect_lp_certificate(etc, bound);
    EXPECT_GE(bound.lp, load_lower_bound(etc) * (1 - 1e-9)) << spec.name();
    EXPECT_GE(bound.lp, ready_time_bound(etc) * (1 - 1e-9)) << spec.name();
    EXPECT_GE(bound.value, makespan_lower_bound(etc)) << spec.name();
  }
}

TEST(LpBound, CanSitBelowTheJobBoundAndTheMaxStillWins) {
  // One unit job on two machines: the LP splits it (T = 0.5) but no real
  // schedule finishes before 1.0 — which is why the combined bound takes
  // max(cheap, LP) instead of trusting the LP alone.
  EtcMatrix etc(1, 2, {1.0, 1.0});
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, bound);
  EXPECT_NEAR(bound.lp, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(bound.value, 1.0);
}

TEST(LpBound, TightensTheCheapBoundOnHeterogeneousMachines) {
  // Three jobs that run 100x slower on m1: the load bound pretends the
  // fast machine can absorb everything, the LP knows the split is lossy.
  EtcMatrix etc(3, 2, {10, 1000, 10, 1000, 10, 1000});
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, bound);
  EXPECT_GT(bound.lp, makespan_lower_bound(etc) * 1.5);
  // Exhaustive optimum at this size confirms validity.
  EXPECT_LE(bound.value,
            exhaustive_optimal_makespan(etc) * (1 + 1e-9));
}

TEST(LpBound, PivotOrderIsDeterministic) {
  // Every pricing and ratio-test choice, the fallback switch included, is
  // a function of the input alone, so two solves must agree bitwise,
  // pivots included.
  InstanceSpec spec;
  spec.num_jobs = 48;
  spec.num_machines = 6;
  const EtcMatrix etc = generate_instance(spec);
  const auto a = bounds::makespan_bound(etc);
  const auto b = bounds::makespan_bound(etc);
  ASSERT_EQ(a.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, a);
  EXPECT_EQ(a.lp, b.lp);        // bitwise, not NEAR
  EXPECT_EQ(a.value, b.value);  // bitwise
  EXPECT_EQ(a.lp_pivots, b.lp_pivots);
}

TEST(LpBound, PinsTheBraunClassesAt96x12) {
  // LP values of the canonical replica of every class at the perfbench
  // braun-batch shape, as the dense Bland-rule tableau solved them. The
  // LP optimum is unique, so any exact solver must land here up to
  // round-off.
  const std::map<std::string, double> pinned = {
      {"u_c_hihi.0", 2251816.7839128766}, {"u_c_hilo.0", 36217.207129236835},
      {"u_c_lohi.0", 67591.711385684495}, {"u_c_lolo.0", 1261.2896061605459},
      {"u_i_hihi.0", 1120079.934829291},  {"u_i_hilo.0", 20079.432536794415},
      {"u_i_lohi.0", 30003.954641569482}, {"u_i_lolo.0", 594.12679172756657},
      {"u_s_hihi.0", 1318258.8416696598}, {"u_s_hilo.0", 23772.513457078709},
      {"u_s_lohi.0", 46293.485367869762}, {"u_s_lolo.0", 900.23338304805839},
  };
  for (InstanceSpec spec : braun_benchmark_suite()) {
    spec.num_jobs = 96;
    spec.num_machines = 12;
    const EtcMatrix etc = generate_instance(spec);
    const auto bound = bounds::makespan_bound(etc);
    ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal) << spec.name();
    expect_lp_certificate(etc, bound);
    const double expected = pinned.at(spec.name());
    EXPECT_NEAR(bound.lp, expected, 1e-12 * expected) << spec.name();
  }
}

TEST(LpBound, SolvesThePaperShape512x16) {
  // The paper's u_c_hihi.0 shape: must finish inside the default budget
  // (the dense tableau ran out of its 20,000 pivots here) and land
  // between the cheap floor and a real schedule's makespan.
  const InstanceSpec spec;  // u_c_hihi, 512 jobs x 16 machines
  const EtcMatrix etc = generate_instance(spec);
  const auto bound = bounds::makespan_bound(etc);
  ASSERT_EQ(bound.lp_status, bounds::LpBoundStatus::kOptimal);
  expect_lp_certificate(etc, bound);
  EXPECT_GE(bound.value, bound.cheap);
  ScheduleEvaluator eval(etc);
  eval.reset(min_min(etc));
  EXPECT_LE(bound.value, eval.makespan());
}

TEST(LpBound, BudgetKnobsFallBackToTheCheapBound) {
  InstanceSpec spec;
  spec.num_jobs = 24;
  spec.num_machines = 4;
  const EtcMatrix etc = generate_instance(spec);
  const double cheap = makespan_lower_bound(etc);

  bounds::LpOptions disabled;
  disabled.enabled = false;
  auto result = bounds::makespan_bound(etc, disabled);
  EXPECT_EQ(result.lp_status, bounds::LpBoundStatus::kDisabled);
  EXPECT_DOUBLE_EQ(result.value, cheap);

  bounds::LpOptions starved;
  starved.max_pivots = 1;
  result = bounds::makespan_bound(etc, starved);
  EXPECT_EQ(result.lp_status, bounds::LpBoundStatus::kPivotLimit);
  EXPECT_DOUBLE_EQ(result.value, cheap);

  bounds::LpOptions cramped;
  cramped.max_tableau_cells = 16;
  result = bounds::makespan_bound(etc, cramped);
  EXPECT_EQ(result.lp_status, bounds::LpBoundStatus::kTooLarge);
  EXPECT_DOUBLE_EQ(result.value, cheap);
}

TEST(LpBound, GapHelperDefinition) {
  EXPECT_DOUBLE_EQ(bounds::optimality_gap_pct(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(bounds::optimality_gap_pct(100.0, 100.0), 0.0);
  EXPECT_TRUE(std::isnan(bounds::optimality_gap_pct(100.0, 0.0)));
  EXPECT_TRUE(std::isnan(bounds::optimality_gap_pct(100.0, -1.0)));
}

TEST(Bounds, LoadBoundTightForUniformInstances) {
  // All ETC equal: LB = n*e/m; a balanced schedule achieves it exactly
  // when n is a multiple of m.
  EtcMatrix etc(8, 4, std::vector<double>(32, 5.0));
  EXPECT_DOUBLE_EQ(makespan_lower_bound(etc), 10.0);
  Schedule balanced(8);
  for (JobId j = 0; j < 8; ++j) balanced[j] = j % 4;
  ScheduleEvaluator eval(etc);
  eval.reset(balanced);
  EXPECT_DOUBLE_EQ(eval.makespan(), 10.0);
}

}  // namespace
}  // namespace gridsched
