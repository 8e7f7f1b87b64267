#include "cma/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>

#include "etc/instance.h"

namespace gridsched {
namespace {

EtcMatrix test_instance(int jobs = 64, int machines = 8) {
  InstanceSpec spec;
  spec.num_jobs = jobs;
  spec.num_machines = machines;
  return generate_instance(spec);
}

const FitnessWeights kWeights{};

TEST(LocalSearch, NoneIsANoop) {
  const EtcMatrix etc = test_instance();
  Rng rng(1);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const Schedule before = eval.schedule();
  const LocalSearchConfig config{LocalSearchKind::kNone, 5};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(eval.schedule(), before);
}

TEST(LocalSearch, EveryMethodNeverWorsensFitness) {
  const EtcMatrix etc = test_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kLocalMove, LocalSearchKind::kSteepestLocalMove,
        LocalSearchKind::kLmcts}) {
    Rng rng(2);
    ScheduleEvaluator eval(etc);
    for (int trial = 0; trial < 10; ++trial) {
      eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
      const double before = eval.fitness(kWeights);
      const LocalSearchConfig config{kind, 5};
      local_search(config, kWeights, eval, rng);
      EXPECT_LE(eval.fitness(kWeights), before + 1e-9)
          << local_search_name(kind);
      eval.check_consistency();
    }
  }
}

TEST(LocalSearch, MakespanObjectiveNeverWorsensMakespan) {
  const EtcMatrix etc = test_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kLocalMove, LocalSearchKind::kSteepestLocalMove,
        LocalSearchKind::kLmcts}) {
    Rng rng(3);
    ScheduleEvaluator eval(etc);
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    const double before = eval.makespan();
    LocalSearchConfig config{kind, 8};
    config.objective = LsObjective::kMakespan;
    local_search(config, kWeights, eval, rng);
    EXPECT_LE(eval.makespan(), before + 1e-9) << local_search_name(kind);
  }
}

TEST(LocalSearch, LmctsExhaustiveScanFixesAnUnbalancedSchedule) {
  EtcMatrix etc(4, 2, {1, 100,   // job 0: fast on m0
                       100, 1,   // job 1: fast on m1
                       1, 100,   // job 2
                       100, 1}); // job 3
  // Anti-optimal: the slow machine everywhere.
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  EXPECT_DOUBLE_EQ(eval.makespan(), 200.0);
  Rng rng(4);
  LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
  config.scan = LmctsScan::kCriticalAllJobs;
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  // Two swaps fix everything: makespan 2.
  EXPECT_DOUBLE_EQ(eval.makespan(), 2.0);
}

TEST(LocalSearch, LmctsDefaultScanImprovesTheSameSchedule) {
  // Same instance as above, default (random-critical-job) scan: with a few
  // iterations it must at least improve substantially, whichever focus
  // jobs the RNG draws.
  EtcMatrix etc(4, 2, {1, 100, 100, 1, 1, 100, 100, 1});
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  Rng rng(4);
  const LocalSearchConfig config{LocalSearchKind::kLmcts, 8};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  EXPECT_LT(eval.makespan(), 200.0);
}

TEST(LocalSearch, SteepestMoveFindsTheBestMachineForItsJob) {
  // One job, three machines: SLM must land it on the global best.
  EtcMatrix etc(1, 3, {50, 10, 30});
  Schedule s(1, 0);
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  Rng rng(5);
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 1};
  local_search(config, kWeights, eval, rng);
  EXPECT_EQ(eval.schedule()[0], 1);
}

TEST(LocalSearch, IterationBudgetIsRespected) {
  const EtcMatrix etc = test_instance();
  Rng rng(6);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  for (int budget : {1, 3, 7}) {
    const LocalSearchConfig config{LocalSearchKind::kLocalMove, budget};
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_EQ(stats.iterations_run, budget);
  }
}

TEST(LocalSearch, LmctsDeterministicScansStopEarlyAtLocalOptimum) {
  // Tiny instance that is already optimal: exhaustive scans must notice
  // and break out of the iteration budget.
  EtcMatrix etc(4, 2, {1, 2, 2, 1, 1, 2, 2, 1});
  Schedule s(4);
  s[0] = 0;
  s[1] = 1;
  s[2] = 0;
  s[3] = 1;  // already optimal
  for (LmctsScan scan : {LmctsScan::kCriticalAllJobs, LmctsScan::kFull}) {
    ScheduleEvaluator eval(etc);
    eval.reset(s);
    Rng rng(7);
    LocalSearchConfig config{LocalSearchKind::kLmcts, 50};
    config.scan = scan;
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_LT(stats.iterations_run, 50);  // broke out early
    EXPECT_EQ(stats.improvements, 0);
  }
}

TEST(LocalSearch, FullScanFindsStrictlyMoreOrEqualImprovement) {
  const EtcMatrix etc = test_instance(48, 6);
  Rng seed_rng(8);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);

  auto run_scan = [&](LmctsScan scan) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(9);
    LocalSearchConfig config{LocalSearchKind::kLmcts, 1};
    config.scan = scan;
    local_search(config, kWeights, eval, rng);
    return eval.fitness(kWeights);
  };
  // A single full-scan step picks the best swap overall; the restricted
  // scans choose from candidate subsets and cannot beat it.
  EXPECT_LE(run_scan(LmctsScan::kFull),
            run_scan(LmctsScan::kCriticalAllJobs) + 1e-9);
  EXPECT_LE(run_scan(LmctsScan::kFull),
            run_scan(LmctsScan::kCriticalRandomJob) + 1e-9);
}

TEST(LocalSearch, SampledScanImprovesWithinBudget) {
  const EtcMatrix etc = test_instance();
  Rng rng(10);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const double before = eval.fitness(kWeights);
  LocalSearchConfig config{LocalSearchKind::kLmcts, 3};
  config.scan = LmctsScan::kSampled;
  config.sampled_pairs = 256;
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_LE(eval.fitness(kWeights), before);
  EXPECT_LE(stats.previews, 3 * 256);
}

TEST(LocalSearch, StatsCountPreviews) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(11);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 2};
  const auto stats = local_search(config, kWeights, eval, rng);
  // SLM previews every other machine once per iteration.
  EXPECT_EQ(stats.previews, 2 * (4 - 1));
}

TEST(LocalSearch, DeterministicInSeed) {
  const EtcMatrix etc = test_instance();
  Rng seed_rng(12);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);
  auto run = [&](std::uint64_t seed) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(seed);
    const LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
    local_search(config, kWeights, eval, rng);
    return eval.schedule();
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(LocalSearch, PreCancelledTokenStopsBeforeTheFirstMove) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(7);
  ScheduleEvaluator eval(etc);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  eval.reset(start);
  CancellationSource source;
  source.request_cancel();
  const LocalSearchConfig config{LocalSearchKind::kLmcts, 5};
  const auto stats = local_search(config, kWeights, eval, rng, source.token());
  // The poll fires between neighborhood moves, so an already-expired
  // budget costs zero previews and leaves the schedule untouched.
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(stats.previews, 0);
  EXPECT_EQ(eval.schedule(), start);
}

TEST(LocalSearch, InvalidTokenKeepsTheFullWalk) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(7);
  ScheduleEvaluator eval(etc);
  eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
  const LocalSearchConfig config{LocalSearchKind::kSteepestLocalMove, 3};
  const auto stats =
      local_search(config, kWeights, eval, rng, CancellationToken{});
  EXPECT_EQ(stats.iterations_run, 3);
}

TEST(LocalSearch, NamesAreStable) {
  EXPECT_EQ(local_search_name(LocalSearchKind::kNone), "None");
  EXPECT_EQ(local_search_name(LocalSearchKind::kLocalMove), "LM");
  EXPECT_EQ(local_search_name(LocalSearchKind::kSteepestLocalMove), "SLM");
  EXPECT_EQ(local_search_name(LocalSearchKind::kLmcts), "LMCTS");
  EXPECT_EQ(local_search_name(LocalSearchKind::kVns), "VNS");
}

TEST(Vns, LadderWithEscalationDisabledIsBitwiseSteepestMove) {
  // With vns_max_rung = 0 the ladder never leaves rung 0, which delegates
  // to the SLM step: same RNG draws, same previews, same applies — the
  // walks must agree bitwise (schedule, objectives, stats).
  const EtcMatrix etc = test_instance();
  Rng seed_rng(20);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);

  auto run = [&](LocalSearchKind kind) {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(21);
    LocalSearchConfig config{kind, 12};
    config.vns_max_rung = 0;
    const auto stats = local_search(config, kWeights, eval, rng);
    return std::tuple{eval.schedule(), eval.makespan(), eval.flowtime(),
                      stats.iterations_run, stats.improvements,
                      stats.previews};
  };
  EXPECT_EQ(run(LocalSearchKind::kVns),
            run(LocalSearchKind::kSteepestLocalMove));
}

TEST(Vns, NeverWorsensAndLeavesAConsistentState) {
  const EtcMatrix etc = test_instance();
  Rng rng(22);
  ScheduleEvaluator eval(etc);
  for (int trial = 0; trial < 10; ++trial) {
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    const double before = eval.fitness(kWeights);
    LocalSearchConfig config{LocalSearchKind::kVns, 20};
    const auto stats = local_search(config, kWeights, eval, rng);
    EXPECT_LE(eval.fitness(kWeights), before + 1e-9);
    EXPECT_EQ(stats.iterations_run, 20);  // no deterministic early break
    eval.check_consistency();
  }
}

TEST(Vns, EjectionChainRungFixesWhatSingleMovesCannot) {
  // Start anti-optimal on a 2-machine instance where single moves off the
  // critical machine stall (every relocation overloads the target) but
  // the two-move chain — move a critical job over, eject one back —
  // makes progress. Force the chain rung by running enough iterations.
  EtcMatrix etc(4, 2, {1, 100, 100, 1, 1, 100, 100, 1});
  Schedule bad(4);
  bad[0] = 1;
  bad[1] = 0;
  bad[2] = 1;
  bad[3] = 0;
  ScheduleEvaluator eval(etc);
  eval.reset(bad);
  EXPECT_DOUBLE_EQ(eval.makespan(), 200.0);
  Rng rng(23);
  LocalSearchConfig config{LocalSearchKind::kVns, 40};
  const auto stats = local_search(config, kWeights, eval, rng);
  EXPECT_GT(stats.improvements, 0);
  EXPECT_DOUBLE_EQ(eval.makespan(), 2.0);  // the optimum for this instance
  eval.check_consistency();
}

TEST(Vns, PreCancelledTokenCostsNothing) {
  const EtcMatrix etc = test_instance(32, 4);
  Rng rng(24);
  ScheduleEvaluator eval(etc);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  eval.reset(start);
  CancellationSource source;
  source.request_cancel();
  const LocalSearchConfig config{LocalSearchKind::kVns, 20};
  const auto stats = local_search(config, kWeights, eval, rng, source.token());
  EXPECT_EQ(stats.iterations_run, 0);
  EXPECT_EQ(stats.previews, 0);
  EXPECT_EQ(eval.schedule(), start);
}

TEST(Vns, DeterministicInSeed) {
  const EtcMatrix etc = test_instance();
  Rng seed_rng(25);
  const Schedule start =
      Schedule::random(etc.num_jobs(), etc.num_machines(), seed_rng);
  auto run = [&] {
    ScheduleEvaluator eval(etc);
    eval.reset(start);
    Rng rng(26);
    const LocalSearchConfig config{LocalSearchKind::kVns, 15};
    local_search(config, kWeights, eval, rng);
    return eval.schedule();
  };
  EXPECT_EQ(run(), run());
}


// ---------------------------------------------------------------------------
// Work-count pins: fixed-seed walks must keep their exact iteration,
// improvement and preview counts (one preview per scored candidate) and
// land on the same schedules. A scan rewrite that drifts the counts, or
// that changes which candidate wins a tie, fails here rather than only
// as a shifted cMA result downstream (bench/ablation_local_search, the
// golden pins).
// ---------------------------------------------------------------------------

/// FNV-1a over the genes: a stable fingerprint of the walk's end point.
std::uint64_t gene_hash(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const MachineId g : s.genes()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(g));
    h *= 1099511628211ULL;
  }
  return h;
}

struct WalkPin {
  int iterations_run;
  int improvements;
  std::int64_t previews;
  std::uint64_t hash;  // gene hashes of every walk's end point, folded
};

/// Eight walks from fixed random starts, ready times nonzero, stats summed.
WalkPin pinned_walks(const LocalSearchConfig& config) {
  EtcMatrix etc = test_instance(96, 8);
  Rng ready_rng(30);
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    etc.set_ready_time(m, ready_rng.uniform(0.0, 40.0));
  }
  Rng rng(31);
  ScheduleEvaluator eval(etc);
  WalkPin pin{0, 0, 0, 0};
  for (int walk = 0; walk < 8; ++walk) {
    eval.reset(Schedule::random(etc.num_jobs(), etc.num_machines(), rng));
    const auto stats = local_search(config, kWeights, eval, rng);
    pin.iterations_run += stats.iterations_run;
    pin.improvements += stats.improvements;
    pin.previews += stats.previews;
    pin.hash = pin.hash * 31 + gene_hash(eval.schedule());
  }
  return pin;
}

void expect_pin(const LocalSearchConfig& config, const WalkPin& expected) {
  const WalkPin got = pinned_walks(config);
  EXPECT_EQ(got.iterations_run, expected.iterations_run);
  EXPECT_EQ(got.improvements, expected.improvements);
  EXPECT_EQ(got.previews, expected.previews);
  EXPECT_EQ(got.hash, expected.hash);
}

TEST(LocalSearchPins, LmctsRandomFocusScan) {
  LocalSearchConfig config{LocalSearchKind::kLmcts, 40};
  expect_pin(config, {320, 271, 26211, 11376063054788830374ULL});
  config.objective = LsObjective::kMakespan;
  expect_pin(config, {320, 279, 26264, 5995574089159894780ULL});
}

TEST(LocalSearchPins, LmctsAllCriticalJobsScan) {
  LocalSearchConfig config{LocalSearchKind::kLmcts, 40};
  config.scan = LmctsScan::kCriticalAllJobs;
  expect_pin(config, {318, 317, 340416, 17383176170700440523ULL});
}

TEST(LocalSearchPins, VnsLadder) {
  const LocalSearchConfig config{LocalSearchKind::kVns, 40};
  expect_pin(config, {320, 253, 7301, 7669176607265020078ULL});
}

}  // namespace
}  // namespace gridsched
