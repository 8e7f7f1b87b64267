#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cma/crossover.h"
#include "cma/local_search.h"
#include "cma/mutation.h"
#include "core/individual.h"
#include "etc/instance.h"

namespace gridsched {
namespace {

/// 3 jobs x 2 machines with hand-computable objective values.
EtcMatrix tiny_instance() {
  //          m0   m1
  // job 0     2    4
  // job 1     3    1
  // job 2     5    2
  return EtcMatrix(3, 2, {2, 4, 3, 1, 5, 2});
}

Schedule tiny_schedule() {
  Schedule s(3);
  s[0] = 0;
  s[1] = 0;
  s[2] = 1;
  return s;
}

TEST(Evaluator, HandComputedCompletionAndMakespan) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  EXPECT_DOUBLE_EQ(eval.completion(0), 5.0);  // 2 + 3
  EXPECT_DOUBLE_EQ(eval.completion(1), 2.0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 5.0);
  EXPECT_EQ(eval.makespan_machine(), 0);
}

TEST(Evaluator, HandComputedSptFlowtime) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  // m0 runs j0 (etc 2) before j1 (etc 3): finishing times 2 and 5.
  EXPECT_DOUBLE_EQ(eval.machine_flow(0), 7.0);
  EXPECT_DOUBLE_EQ(eval.machine_flow(1), 2.0);
  EXPECT_DOUBLE_EQ(eval.flowtime(), 9.0);
}

TEST(Evaluator, FitnessMatchesPaperFormula) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  const FitnessWeights w{0.75};
  // 0.75 * 5 + 0.25 * (9 / 2)
  EXPECT_DOUBLE_EQ(eval.fitness(w), 4.875);
}

TEST(Evaluator, ReadyTimesShiftCompletionAndFlow) {
  EtcMatrix etc = tiny_instance();
  etc.set_ready_time(0, 1.0);
  etc.set_ready_time(1, 2.0);
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  EXPECT_DOUBLE_EQ(eval.completion(0), 6.0);
  EXPECT_DOUBLE_EQ(eval.completion(1), 4.0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 6.0);
  // m0: finishes at 3 and 6 -> 9. m1: finishes at 4 -> 4.
  EXPECT_DOUBLE_EQ(eval.flowtime(), 13.0);
}

TEST(Evaluator, EmptyMachineContributesReadyTimeToMakespanOnly) {
  EtcMatrix etc = tiny_instance();
  etc.set_ready_time(1, 50.0);
  ScheduleEvaluator eval(etc);
  Schedule s(3, 0);  // everything on m0
  eval.reset(s);
  EXPECT_DOUBLE_EQ(eval.completion(1), 50.0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 50.0);
  EXPECT_DOUBLE_EQ(eval.machine_flow(1), 0.0);  // no jobs, no flow
}

TEST(Evaluator, ApplyMoveUpdatesEverything) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  eval.apply_move(1, 1);  // j1: m0 -> m1 (etc 1)
  EXPECT_EQ(eval.schedule()[1], 1);
  EXPECT_DOUBLE_EQ(eval.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(eval.completion(1), 3.0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 3.0);
  // m1 SPT: j1 (1) then j2 (2): finishes 1 and 3 -> 4; m0: 2.
  EXPECT_DOUBLE_EQ(eval.flowtime(), 6.0);
  eval.check_consistency();
}

TEST(Evaluator, ApplySwapUpdatesEverything) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  eval.apply_swap(0, 2);  // j0 -> m1 (etc 4), j2 -> m0 (etc 5)
  EXPECT_EQ(eval.schedule()[0], 1);
  EXPECT_EQ(eval.schedule()[2], 0);
  EXPECT_DOUBLE_EQ(eval.completion(0), 8.0);  // 3 + 5
  EXPECT_DOUBLE_EQ(eval.completion(1), 4.0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 8.0);
  // m0 SPT: j1(3) F=3, j2(5) F=8 -> 11; m1: j0(4) F=4.
  EXPECT_DOUBLE_EQ(eval.flowtime(), 15.0);
  eval.check_consistency();
}

TEST(Evaluator, PreviewMoveMatchesApply) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  const auto preview = eval.preview_move(1, 1);
  eval.apply_move(1, 1);
  EXPECT_DOUBLE_EQ(preview.objectives.makespan, eval.makespan());
  EXPECT_DOUBLE_EQ(preview.objectives.flowtime, eval.flowtime());
}

TEST(Evaluator, PreviewSwapMatchesApply) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  const auto preview = eval.preview_swap(0, 2);
  eval.apply_swap(0, 2);
  EXPECT_DOUBLE_EQ(preview.objectives.makespan, eval.makespan());
  EXPECT_DOUBLE_EQ(preview.objectives.flowtime, eval.flowtime());
}

TEST(Evaluator, PreviewMoveToSameMachineIsIdentity) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  const auto preview = eval.preview_move(0, 0);
  EXPECT_DOUBLE_EQ(preview.objectives.makespan, eval.makespan());
  EXPECT_DOUBLE_EQ(preview.objectives.flowtime, eval.flowtime());
}

TEST(Evaluator, SwapOnSameMachineThrows) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  eval.reset(tiny_schedule());
  EXPECT_THROW((void)eval.preview_swap(0, 1), std::invalid_argument);
  EXPECT_THROW(eval.apply_swap(0, 1), std::invalid_argument);
}

TEST(Evaluator, ResetRejectsIncompleteOrMismatched) {
  const EtcMatrix etc = tiny_instance();
  ScheduleEvaluator eval(etc);
  EXPECT_THROW(eval.reset(Schedule(3)), std::invalid_argument);       // -1s
  EXPECT_THROW(eval.reset(Schedule(2, 0)), std::invalid_argument);    // size
  Schedule bad(3, 0);
  bad[2] = 2;  // machine out of range
  EXPECT_THROW(eval.reset(bad), std::invalid_argument);
}

TEST(Evaluator, MachineJobsSortedAscendingByEtc) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 4;
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(1);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(40, 4, rng));
  for (MachineId m = 0; m < 4; ++m) {
    const auto& jobs = eval.machine_jobs(m);
    EXPECT_TRUE(std::is_sorted(jobs.begin(), jobs.end()));
    for (const auto& [cost, job] : jobs) {
      EXPECT_EQ(eval.schedule()[job], m);
      EXPECT_DOUBLE_EQ(cost, etc(job, m));
    }
  }
}

TEST(Evaluator, ZeroMachineMakespanThrows) {
  // A default EtcMatrix has no machines, so there is no completion time to
  // report: makespan()/makespan_machine() must refuse instead of reading
  // an empty top-k cache.
  const EtcMatrix etc;
  ScheduleEvaluator eval(etc);
  EXPECT_THROW((void)eval.makespan(), std::logic_error);
  EXPECT_THROW((void)eval.makespan_machine(), std::logic_error);
  EXPECT_DOUBLE_EQ(eval.flowtime(), 0.0);  // an empty sum is still a sum
}

// The preview contract is EXACT: preview_move/preview_swap must equal
// apply-then-measure bit for bit, because the applies adopt the preview's
// closed-form scalars. A long random walk interleaving previews, applies
// and periodic canonicalize() pins that contract — including on an
// all-integer instance where equal-ETC ties force the id-ordered
// tie-break through the insertion-rank fast path.
void fuzz_walk(const EtcMatrix& etc, std::uint64_t seed, int steps) {
  Rng rng(seed);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  ScheduleEvaluator fresh(etc);

  for (int step = 0; step < steps; ++step) {
    const JobId a = rng.uniform_int(0, etc.num_jobs() - 1);
    if (rng.chance(0.5)) {
      MachineId to = rng.uniform_int(0, etc.num_machines() - 2);
      if (to >= eval.schedule()[a]) ++to;
      const auto preview = eval.preview_move(a, to);
      eval.apply_move(a, to);
      ASSERT_EQ(preview.objectives.makespan, eval.makespan()) << step;
      ASSERT_EQ(preview.objectives.flowtime, eval.flowtime()) << step;
    } else {
      const JobId b = rng.uniform_int(0, etc.num_jobs() - 1);
      if (b == a || eval.schedule()[a] == eval.schedule()[b]) continue;
      const auto preview = eval.preview_swap(a, b);
      eval.apply_swap(a, b);
      ASSERT_EQ(preview.objectives.makespan, eval.makespan()) << step;
      ASSERT_EQ(preview.objectives.flowtime, eval.flowtime()) << step;
    }

    if (step % 256 == 255) {
      ASSERT_NO_THROW(eval.check_consistency()) << step;
      // After canonicalize() the state must be bitwise identical to a
      // fresh reset of the same schedule — fast scalars included.
      eval.canonicalize();
      fresh.reset(eval.schedule());
      ASSERT_EQ(fresh.makespan(), eval.makespan()) << step;
      ASSERT_EQ(fresh.flowtime(), eval.flowtime()) << step;
      for (MachineId m = 0; m < etc.num_machines(); ++m) {
        ASSERT_EQ(fresh.completion(m), eval.completion(m)) << step;
        ASSERT_EQ(fresh.machine_flow(m), eval.machine_flow(m)) << step;
      }
    }
  }
  eval.check_consistency();
}

void set_random_ready_times(EtcMatrix& etc, std::uint64_t seed, double hi) {
  Rng rng(seed);
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    etc.set_ready_time(m, rng.uniform(0.0, hi));
  }
}

/// ETC values from {1..4} x `unit` make duplicate keys the common case, so
/// the strictly-less insertion count plus the id-ordered tie walk is
/// exercised on nearly every step. With unit = 1 every sum is exact, so a
/// job's rank among equal keys cannot change a result; a non-dyadic unit
/// (0.1) makes the sums round, so a wrong rank among ties shows.
EtcMatrix small_integer_instance(int jobs, int machines, std::uint64_t seed,
                                 double unit = 1.0) {
  EtcMatrix etc(jobs, machines);
  Rng rng(seed);
  for (JobId j = 0; j < jobs; ++j) {
    for (MachineId m = 0; m < machines; ++m) {
      etc.set(j, m, static_cast<double>(rng.uniform_int(1, 4)) * unit);
    }
  }
  return etc;
}

TEST(Evaluator, FuzzWalkPreviewExactlyEqualsApply) {
  InstanceSpec spec;
  spec.num_jobs = 80;
  spec.num_machines = 10;
  EtcMatrix etc = generate_instance(spec);
  set_random_ready_times(etc, 11, 50.0);
  fuzz_walk(etc, 2024, 4096);
}

TEST(Evaluator, FuzzWalkSurvivesEqualEtcTies) {
  fuzz_walk(small_integer_instance(48, 6, 77), 4242, 4096);
}

// ---------------------------------------------------------------------------
// preview_swaps: the one-pass LMCTS scan must hand every partner, in id
// order, a preview bitwise equal to preview_swap — on dirty fast scalars
// (the walk never canonicalizes), empty machines and singleton focus
// machines included.
// ---------------------------------------------------------------------------

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

void expect_scan_matches_pairwise(ScheduleEvaluator& eval, JobId a) {
  std::vector<JobId> expected;
  for (JobId b = 0; b < eval.num_jobs(); ++b) {
    if (eval.schedule()[b] != eval.schedule()[a]) expected.push_back(b);
  }
  std::vector<JobId> visited;
  int mismatches = 0;
  eval.preview_swaps(a, [&](JobId b, const PreviewResult& preview) {
    visited.push_back(b);
    const PreviewResult reference = eval.preview_swap(a, b);
    if (!same_bits(preview.objectives.makespan,
                   reference.objectives.makespan) ||
        !same_bits(preview.objectives.flowtime,
                   reference.objectives.flowtime)) {
      ++mismatches;
    }
  });
  EXPECT_EQ(visited, expected) << "focus " << a;
  EXPECT_EQ(mismatches, 0) << "focus " << a;
}

/// What a scan walk covered, so each test can insist on its edge cases.
struct ScanCoverage {
  int scans = 0;
  int singleton_focus = 0;  // focus job alone on its machine
  int with_empty = 0;       // some machine held no jobs
};

/// A random walk of moves, swaps and machine drains (down to zero or one
/// job) that never canonicalizes, so the fast scalars stay dirty; each
/// step scans one focus job (the makespan machine's, a singleton's, or a
/// random one) before editing.
ScanCoverage swap_scan_walk(const EtcMatrix& etc, std::uint64_t seed,
                            int steps) {
  Rng rng(seed);
  const int n = etc.num_jobs();
  const int m = etc.num_machines();
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(n, m, rng));
  ScanCoverage coverage;
  for (int step = 0; step < steps; ++step) {
    MachineId singleton = -1;
    bool has_empty = false;
    for (MachineId mm = 0; mm < m; ++mm) {
      const std::size_t k = eval.machine_jobs(mm).size();
      if (k == 1 && singleton < 0) singleton = mm;
      has_empty = has_empty || k == 0;
    }
    JobId a = rng.uniform_int(0, n - 1);
    const double pick = rng.uniform(0.0, 1.0);
    const auto& critical = eval.machine_jobs(eval.makespan_machine());
    if (pick < 0.3 && singleton >= 0) {
      a = eval.machine_jobs(singleton).front().second;
    } else if (pick < 0.6 && !critical.empty()) {
      a = critical[static_cast<std::size_t>(rng.bounded(critical.size()))]
              .second;
    }
    expect_scan_matches_pairwise(eval, a);
    if (::testing::Test::HasFailure()) return coverage;
    ++coverage.scans;
    coverage.singleton_focus +=
        eval.machine_jobs(eval.schedule()[a]).size() == 1 ? 1 : 0;
    coverage.with_empty += has_empty ? 1 : 0;

    const double edit = rng.uniform(0.0, 1.0);
    if (edit < 0.45) {
      MachineId to = rng.uniform_int(0, m - 2);
      if (to >= eval.schedule()[a]) ++to;
      eval.apply_move(a, to);
    } else if (edit < 0.9) {
      const JobId b = rng.uniform_int(0, n - 1);
      if (eval.schedule()[a] != eval.schedule()[b]) eval.apply_swap(a, b);
    } else {
      // Drain a random machine down to `keep` jobs.
      const MachineId from = rng.uniform_int(0, m - 1);
      const std::size_t keep = rng.chance(0.5) ? 0 : 1;
      while (eval.machine_jobs(from).size() > keep) {
        MachineId to = rng.uniform_int(0, m - 2);
        if (to >= from) ++to;
        eval.apply_move(eval.machine_jobs(from).back().second, to);
      }
    }
  }
  eval.check_consistency();
  return coverage;
}

void expect_edge_cases_covered(const ScanCoverage& coverage, int steps) {
  EXPECT_EQ(coverage.scans, steps);
  EXPECT_GT(coverage.singleton_focus, 0);
  EXPECT_GT(coverage.with_empty, 0);
}

TEST(Evaluator, SwapScanEqualsPairwisePreviewsWithReadyTimes) {
  InstanceSpec spec;
  spec.num_jobs = 80;
  spec.num_machines = 10;
  EtcMatrix etc = generate_instance(spec);
  set_random_ready_times(etc, 12, 50.0);
  expect_edge_cases_covered(swap_scan_walk(etc, 2025, 4096), 4096);
}

TEST(Evaluator, SwapScanEqualsPairwisePreviewsOnEqualEtcTies) {
  for (const double unit : {1.0, 0.1}) {
    const EtcMatrix etc = small_integer_instance(48, 6, 78, unit);
    expect_edge_cases_covered(swap_scan_walk(etc, 4243, 4096), 4096);
  }
}

TEST(Evaluator, SwapScanEqualsPairwisePreviewsOnTwoMachines) {
  EtcMatrix etc = small_integer_instance(30, 2, 79, 0.1);
  set_random_ready_times(etc, 13, 5.0);
  expect_edge_cases_covered(swap_scan_walk(etc, 4244, 4096), 4096);
}

// ---------------------------------------------------------------------------
// reset_to: the gene-diff replay must be indistinguishable from a fresh
// rebuild — bitwise, not approximately.
// ---------------------------------------------------------------------------

TEST(Evaluator, ResetToMatchesFreshResetBitwise) {
  InstanceSpec spec;
  spec.num_jobs = 60;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(31);
  const Schedule base = Schedule::random(60, 8, rng);

  ScheduleEvaluator delta(etc);
  delta.reset(base);
  ScheduleEvaluator fresh(etc);

  for (const int diff_genes : {0, 1, 4, 17, 60}) {
    Schedule target = base;
    for (int d = 0; d < diff_genes; ++d) {
      target[rng.uniform_int(0, 59)] = rng.uniform_int(0, 7);
    }
    delta.reset_to(target);
    fresh.reset(target);
    ASSERT_EQ(fresh.makespan(), delta.makespan()) << diff_genes;
    ASSERT_EQ(fresh.flowtime(), delta.flowtime()) << diff_genes;
    ASSERT_EQ(fresh.makespan_machine(), delta.makespan_machine());
    for (MachineId m = 0; m < 8; ++m) {
      ASSERT_EQ(fresh.completion(m), delta.completion(m));
      ASSERT_EQ(fresh.machine_flow(m), delta.machine_flow(m));
      ASSERT_EQ(fresh.machine_jobs(m), delta.machine_jobs(m));
    }
    delta.check_consistency();
  }
}

TEST(Evaluator, ResetToChainStaysCanonical) {
  // A long chain of reset_to calls (the offspring pipeline's life) must
  // never drift from the fresh-reset state it claims to reproduce.
  InstanceSpec spec;
  spec.num_jobs = 50;
  spec.num_machines = 7;
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(93);
  ScheduleEvaluator delta(etc);
  delta.reset(Schedule::random(50, 7, rng));
  ScheduleEvaluator fresh(etc);
  Schedule target = delta.schedule();
  for (int round = 0; round < 200; ++round) {
    const int flips = rng.uniform_int(1, 10);
    for (int f = 0; f < flips; ++f) {
      target[rng.uniform_int(0, 49)] = rng.uniform_int(0, 6);
    }
    delta.reset_to(target);
    fresh.reset(target);
    ASSERT_EQ(fresh.makespan(), delta.makespan()) << round;
    ASSERT_EQ(fresh.flowtime(), delta.flowtime()) << round;
  }
  delta.check_consistency();
}

// ---------------------------------------------------------------------------
// Diff-replay offspring pipeline: for every crossover x mutation x local
// search combination, the allocation-free delta path (crossover_into +
// reset_to + scratch-reusing mutate) must produce offspring bitwise equal
// to the allocating full-reset path under the same RNG seed.
// ---------------------------------------------------------------------------

TEST(Evaluator, DeltaOffspringPipelineBitwiseEqualsFullReset) {
  InstanceSpec spec;
  spec.num_jobs = 60;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  const FitnessWeights weights;
  Rng parent_rng(55);
  const Schedule pa = Schedule::random(60, 8, parent_rng);
  const Schedule pb = Schedule::random(60, 8, parent_rng);

  MutationScratch scratch;
  Schedule delta_child;
  Individual delta_offspring;
  std::uint64_t seed = 1000;
  for (const CrossoverKind ck :
       {CrossoverKind::kOnePoint, CrossoverKind::kTwoPoint,
        CrossoverKind::kUniform}) {
    for (const MutationKind mk :
         {MutationKind::kRebalance, MutationKind::kMove, MutationKind::kSwap}) {
      for (const LocalSearchKind lk :
           {LocalSearchKind::kNone, LocalSearchKind::kLocalMove,
            LocalSearchKind::kSteepestLocalMove, LocalSearchKind::kLmcts}) {
        ++seed;
        LocalSearchConfig ls;
        ls.kind = lk;
        ls.iterations = 2;

        // Reference arm: fresh allocations, full reset.
        Rng rng_full(seed);
        ScheduleEvaluator eval_full(etc);
        eval_full.reset(crossover(ck, pa, pb, rng_full));
        mutate(mk, eval_full, rng_full);
        local_search(ls, weights, eval_full, rng_full);
        Individual full;
        assign_from_evaluator(full, eval_full, weights);

        // Delta arm: warm evaluator re-targeted via reset_to, reused
        // child/offspring buffers, shared mutation scratch.
        Rng rng_delta(seed);
        ScheduleEvaluator eval_delta(etc);
        eval_delta.reset(pa);
        crossover_into(delta_child, ck, pa, pb, rng_delta);
        eval_delta.reset_to(delta_child);
        mutate(mk, eval_delta, rng_delta, &scratch);
        local_search(ls, weights, eval_delta, rng_delta);
        assign_from_evaluator(delta_offspring, eval_delta, weights);

        const std::string combo =
            std::string(crossover_name(ck)) + "/" +
            std::string(mutation_name(mk)) + "/" +
            std::string(local_search_name(lk));
        ASSERT_TRUE(full.schedule == delta_offspring.schedule) << combo;
        ASSERT_EQ(full.objectives.makespan,
                  delta_offspring.objectives.makespan)
            << combo;
        ASSERT_EQ(full.objectives.flowtime,
                  delta_offspring.objectives.flowtime)
            << combo;
        ASSERT_EQ(full.fitness, delta_offspring.fitness) << combo;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property tests: incremental updates equal full recomputation on every
// benchmark class, across long random edit sequences.
// ---------------------------------------------------------------------------

std::string param_name(const ::testing::TestParamInfo<InstanceSpec>& info) {
  std::string name = info.param.name();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class EvaluatorPropertyTest : public ::testing::TestWithParam<InstanceSpec> {
 protected:
  static InstanceSpec small(const InstanceSpec& base) {
    InstanceSpec spec = base;
    spec.num_jobs = 60;
    spec.num_machines = 8;
    return spec;
  }
};

INSTANTIATE_TEST_SUITE_P(AllTwelveClasses, EvaluatorPropertyTest,
                         ::testing::ValuesIn(braun_benchmark_suite()),
                         param_name);

TEST_P(EvaluatorPropertyTest, IncrementalMatchesRecomputeUnderRandomEdits) {
  const InstanceSpec spec = small(GetParam());
  EtcMatrix etc = generate_instance(spec);
  // Exercise non-zero ready times too.
  Rng ready_rng(7);
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    etc.set_ready_time(m, ready_rng.uniform(0.0, 100.0));
  }

  Rng rng(GetParam().seed + 99);
  ScheduleEvaluator incremental(etc);
  incremental.reset(
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng));

  ScheduleEvaluator fresh(etc);
  for (int step = 0; step < 300; ++step) {
    const JobId a = rng.uniform_int(0, etc.num_jobs() - 1);
    if (rng.chance(0.5)) {
      MachineId to = rng.uniform_int(0, etc.num_machines() - 2);
      if (to >= incremental.schedule()[a]) ++to;
      const auto preview = incremental.preview_move(a, to);
      incremental.apply_move(a, to);
      ASSERT_NEAR(preview.objectives.makespan, incremental.makespan(),
                  1e-9 * incremental.makespan());
      ASSERT_NEAR(preview.objectives.flowtime, incremental.flowtime(),
                  1e-9 * incremental.flowtime());
    } else {
      const JobId b = rng.uniform_int(0, etc.num_jobs() - 1);
      if (b == a || incremental.schedule()[a] == incremental.schedule()[b]) {
        continue;
      }
      const auto preview = incremental.preview_swap(a, b);
      incremental.apply_swap(a, b);
      ASSERT_NEAR(preview.objectives.makespan, incremental.makespan(),
                  1e-9 * incremental.makespan());
      ASSERT_NEAR(preview.objectives.flowtime, incremental.flowtime(),
                  1e-9 * incremental.flowtime());
    }

    fresh.reset(incremental.schedule());
    ASSERT_NEAR(fresh.makespan(), incremental.makespan(),
                1e-9 * fresh.makespan())
        << "step " << step;
    ASSERT_NEAR(fresh.flowtime(), incremental.flowtime(),
                1e-9 * fresh.flowtime())
        << "step " << step;
  }
  incremental.check_consistency();
}

TEST_P(EvaluatorPropertyTest, MakespanIsMaxCompletionAndFlowtimeIsSum) {
  const InstanceSpec spec = small(GetParam());
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(5);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));

  double max_completion = 0.0;
  double flow_sum = 0.0;
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    max_completion = std::max(max_completion, eval.completion(m));
    flow_sum += eval.machine_flow(m);
  }
  EXPECT_DOUBLE_EQ(eval.makespan(), max_completion);
  EXPECT_DOUBLE_EQ(eval.flowtime(), flow_sum);
}

TEST_P(EvaluatorPropertyTest, SptOrderingMinimizesPerMachineFlow) {
  // Any single adjacent transposition away from SPT order cannot decrease
  // a machine's flowtime: verify the closed-form against a brute-force
  // FIFO evaluation of the SPT permutation.
  const InstanceSpec spec = small(GetParam());
  const EtcMatrix etc = generate_instance(spec);
  Rng rng(3);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));

  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    const auto& jobs = eval.machine_jobs(m);
    double cursor = etc.ready_time(m);
    double flow = 0.0;
    for (const auto& [cost, job] : jobs) {
      cursor += cost;
      flow += cursor;
    }
    ASSERT_NEAR(eval.machine_flow(m), flow, 1e-9 * std::max(1.0, flow));
  }
}

}  // namespace
}  // namespace gridsched
