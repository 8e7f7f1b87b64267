#include "heuristics/constructive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "etc/instance.h"

namespace gridsched {
namespace {

double makespan_of(const Schedule& s, const EtcMatrix& etc) {
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  return eval.makespan();
}

double flowtime_of(const Schedule& s, const EtcMatrix& etc) {
  ScheduleEvaluator eval(etc);
  eval.reset(s);
  return eval.flowtime();
}

// --- Hand-verifiable micro-instances. --------------------------------------

TEST(MinMin, PicksGloballySmallestCompletionFirst) {
  //          m0   m1
  // job 0    10    9
  // job 1     4    6
  EtcMatrix etc(2, 2, {10, 9, 4, 6});
  const Schedule s = min_min(etc);
  // First commit: job1 on m0 (completion 4). Then job0: m0 would finish at
  // 14, m1 at 9 -> m1.
  EXPECT_EQ(s[1], 0);
  EXPECT_EQ(s[0], 1);
}

TEST(MinMin, BudgetHonoringFormMatchesPlainMinMinWhileTokenIsQuiet) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;  // never fired, no deadline
  EXPECT_EQ(min_min(etc, source.token()), min_min(etc));
  EXPECT_EQ(min_min(etc, CancellationToken{}), min_min(etc));
}

TEST(MinMin, CancelledBuildStillReturnsACompleteSchedule) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled: zero Min-Min rounds run, the whole schedule is the MCT
  // completion pass — complete, and exactly what plain MCT produces from
  // empty loads (same id order, same earliest-completion rule).
  const Schedule cancelled = min_min(etc, source.token());
  ASSERT_TRUE(cancelled.complete(etc.num_machines()));
  EXPECT_EQ(cancelled, mct(etc));
}

TEST(Heuristics, BudgetHonoringFormsMatchPlainWhileTokenIsQuiet) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;  // never fired, no deadline
  for (HeuristicKind kind : all_heuristics()) {
    Rng plain_rng(21);
    Rng live_rng(21);
    Rng invalid_rng(21);
    const Schedule plain = construct_schedule(kind, etc, plain_rng);
    EXPECT_EQ(construct_schedule(kind, etc, live_rng, source.token()), plain)
        << heuristic_name(kind);
    EXPECT_EQ(construct_schedule(kind, etc, invalid_rng, CancellationToken{}),
              plain)
        << heuristic_name(kind);
  }
}

TEST(Heuristics, CancelledBuildsStillReturnCompleteSchedules) {
  InstanceSpec spec;
  spec.num_jobs = 200;  // past the one-pass poll stride
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  for (HeuristicKind kind : all_heuristics()) {
    Rng rng(22);
    const Schedule s = construct_schedule(kind, etc, rng, source.token());
    EXPECT_TRUE(s.complete(etc.num_machines())) << heuristic_name(kind);
  }
}

TEST(Heuristics, CancelledBatchHeuristicsFallBackToTheMctTail) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled: zero commit rounds run, so the whole schedule is the
  // MCT completion pass — exactly plain MCT from empty loads.
  EXPECT_EQ(max_min(etc, source.token()), mct(etc));
  EXPECT_EQ(sufferage(etc, source.token()), mct(etc));
}

TEST(Heuristics, CancelledOnePassHeuristicsFallBackToRoundRobin) {
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 6;
  spec.seed = 9;
  const EtcMatrix etc = generate_instance(spec);
  CancellationSource source;
  source.request_cancel();
  // Pre-cancelled one-pass heuristics poll before the first assignment and
  // dump everything round-robin: job j on machine j mod m.
  for (const Schedule& s :
       {mct(etc, source.token()), met(etc, source.token()),
        olb(etc, source.token())}) {
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      EXPECT_EQ(s[j], j % etc.num_machines());
    }
  }
}

TEST(MaxMin, PlacesLongJobFirst) {
  //          m0   m1
  // job 0    10    9
  // job 1     4    6
  EtcMatrix etc(2, 2, {10, 9, 4, 6});
  const Schedule s = max_min(etc);
  // Best completions: job0 -> 9 (m1), job1 -> 4 (m0). Max-min commits job0
  // to m1 first, then job1 (m0: 4 vs m1: 15) to m0.
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 0);
}

TEST(Mct, AccountsForAccumulatedLoad) {
  //          m0   m1
  // job 0     5    6
  // job 1     5    6
  EtcMatrix etc(2, 2, {5, 6, 5, 6});
  const Schedule s = mct(etc);
  EXPECT_EQ(s[0], 0);  // m0 finishes at 5 < 6
  EXPECT_EQ(s[1], 1);  // m0 would now finish at 10 > 6
}

TEST(Met, IgnoresLoadEntirely) {
  EtcMatrix etc(3, 2, {5, 6, 5, 6, 5, 6});
  const Schedule s = met(etc);
  for (JobId j = 0; j < 3; ++j) EXPECT_EQ(s[j], 0);  // always min ETC
}

TEST(Olb, BalancesWithoutLookingAtEtc) {
  EtcMatrix etc(3, 2, {1, 100, 1, 100, 1, 100});
  const Schedule s = olb(etc);
  // j0 -> m0 (both free, lowest id). j1 -> m1 (m0 busy until 1... m1 free at
  // 0). j2 -> m0 (free at 1 < m1's 100).
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 1);
  EXPECT_EQ(s[2], 0);
}

TEST(Sufferage, PrioritizesTheJobWithMostToLose) {
  //          m0   m1
  // job 0     1   10    (sufferage 9)
  // job 1     2   2.5   (sufferage 0.5)
  // Both prefer m0; job0 suffers more and wins it. Job1 then completes
  // earlier on the idle m1 (2.5) than behind job0 on m0 (3).
  EtcMatrix etc(2, 2, {1, 10, 2, 2.5});
  const Schedule s = sufferage(etc);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 1);
}

TEST(LjfrSjfr, InitialPhaseGivesLongestJobsToFastestMachines) {
  // 3 machines, 3 jobs: degenerate to pure phase 1.
  //            m0   m1   m2       mean
  // job 0       2    4    6        4     (shortest)
  // job 1       4    8   12        8
  // job 2       6   12   18       12     (longest)
  // machine speed order by column mean: m0 (4) < m1 (8) < m2 (12).
  EtcMatrix etc(3, 3, {2, 4, 6, 4, 8, 12, 6, 12, 18});
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_EQ(s[2], 0);  // longest job -> fastest machine
  EXPECT_EQ(s[1], 1);
  EXPECT_EQ(s[0], 2);
}

TEST(LjfrSjfr, AlternatesShortLongAfterInitialPhase) {
  // 1 machine, 3 jobs: phase 1 assigns the longest; then SJFR (shortest)
  // then LJFR. All on machine 0 regardless; just verify completeness.
  EtcMatrix etc(3, 1, {1, 2, 3});
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_TRUE(s.complete(1));
}

// --- Suite-wide properties on every benchmark class. ------------------------

std::string param_name(const ::testing::TestParamInfo<InstanceSpec>& info) {
  std::string name = info.param.name();
  std::replace(name.begin(), name.end(), '.', '_');
  return name;
}

class HeuristicSuiteTest : public ::testing::TestWithParam<InstanceSpec> {
 protected:
  static EtcMatrix instance() {
    InstanceSpec spec = HeuristicSuiteTest::GetParam();
    spec.num_jobs = 128;
    spec.num_machines = 8;
    return generate_instance(spec);
  }
};

INSTANTIATE_TEST_SUITE_P(AllTwelveClasses, HeuristicSuiteTest,
                         ::testing::ValuesIn(braun_benchmark_suite()),
                         param_name);

TEST_P(HeuristicSuiteTest, EveryHeuristicProducesACompleteSchedule) {
  const EtcMatrix etc = instance();
  Rng rng(1);
  for (HeuristicKind kind : all_heuristics()) {
    const Schedule s = construct_schedule(kind, etc, rng);
    EXPECT_EQ(s.num_jobs(), etc.num_jobs()) << heuristic_name(kind);
    EXPECT_TRUE(s.complete(etc.num_machines())) << heuristic_name(kind);
  }
}

TEST_P(HeuristicSuiteTest, MinMinBeatsRandomOnMakespan) {
  const EtcMatrix etc = instance();
  Rng rng(2);
  const double random_mk =
      makespan_of(Schedule::random(etc.num_jobs(), etc.num_machines(), rng),
                  etc);
  EXPECT_LT(makespan_of(min_min(etc), etc), random_mk);
}

TEST_P(HeuristicSuiteTest, MctBeatsOlbOrTies) {
  // MCT sees the ETC values OLB ignores; it should never be meaningfully
  // worse on makespan.
  const EtcMatrix etc = instance();
  EXPECT_LE(makespan_of(mct(etc), etc),
            makespan_of(olb(etc), etc) * 1.001);
}

TEST_P(HeuristicSuiteTest, LjfrSjfrIsDeterministic) {
  const EtcMatrix etc = instance();
  EXPECT_EQ(ljfr_sjfr(etc), ljfr_sjfr(etc));
}

TEST_P(HeuristicSuiteTest, LjfrSjfrReasonableOnBothObjectives) {
  // The seed heuristic targets both objectives; it must beat random
  // assignment on flowtime (its SJFR half) and makespan (its LJFR half).
  const EtcMatrix etc = instance();
  Rng rng(3);
  const Schedule random_s =
      Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
  const Schedule s = ljfr_sjfr(etc);
  EXPECT_LT(flowtime_of(s, etc), flowtime_of(random_s, etc));
  EXPECT_LT(makespan_of(s, etc), makespan_of(random_s, etc));
}

TEST_P(HeuristicSuiteTest, HeuristicsRespectReadyTimes) {
  EtcMatrix etc = instance();
  // Make machine 0 effectively unavailable; load-aware heuristics must
  // avoid it almost entirely.
  etc.set_ready_time(0, 1e12);
  for (HeuristicKind kind :
       {HeuristicKind::kMinMin, HeuristicKind::kMct, HeuristicKind::kOlb}) {
    Rng rng(4);
    const Schedule s = construct_schedule(kind, etc, rng);
    int on_blocked = 0;
    for (JobId j = 0; j < etc.num_jobs(); ++j) {
      on_blocked += (s[j] == 0) ? 1 : 0;
    }
    EXPECT_EQ(on_blocked, 0) << heuristic_name(kind);
  }
}

TEST(Heuristics, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (HeuristicKind kind : all_heuristics()) {
    names.emplace_back(heuristic_name(kind));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Heuristics, RandomUsesRngDeterministically) {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  Rng a(10);
  Rng b(10);
  EXPECT_EQ(construct_schedule(HeuristicKind::kRandom, etc, a),
            construct_schedule(HeuristicKind::kRandom, etc, b));
}


// --- Min-Min against a naive oracle. ----------------------------------------

/// The textbook O(n^2 m) Min-Min, kept deliberately naive as an oracle:
/// every round rescans every unassigned job over every machine (strict <,
/// so ties go to the lowest machine id), commits the first strictly
/// smallest completion in `unassigned` order, and swap-removes the pick
/// (which is what fixes that order for later tie-breaks).
Schedule naive_min_min(const EtcMatrix& etc) {
  Schedule schedule(etc.num_jobs());
  std::vector<double> completion(etc.ready_times().begin(),
                                 etc.ready_times().end());
  std::vector<JobId> unassigned(static_cast<std::size_t>(etc.num_jobs()));
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    unassigned[static_cast<std::size_t>(j)] = j;
  }
  while (!unassigned.empty()) {
    std::size_t pick_idx = 0;
    double pick_score = std::numeric_limits<double>::infinity();
    MachineId pick_machine = 0;
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      const JobId j = unassigned[i];
      MachineId best_m = 0;
      double best_c = completion[0] + etc(j, 0);
      for (MachineId m = 1; m < etc.num_machines(); ++m) {
        const double c = completion[static_cast<std::size_t>(m)] + etc(j, m);
        if (c < best_c) {
          best_c = c;
          best_m = m;
        }
      }
      if (best_c < pick_score) {
        pick_score = best_c;
        pick_idx = i;
        pick_machine = best_m;
      }
    }
    const JobId job = unassigned[pick_idx];
    schedule[job] = pick_machine;
    completion[static_cast<std::size_t>(pick_machine)] +=
        etc(job, pick_machine);
    unassigned[pick_idx] = unassigned.back();
    unassigned.pop_back();
  }
  return schedule;
}

TEST_P(HeuristicSuiteTest, MinMinEqualsTheNaiveOracle) {
  const EtcMatrix etc = instance();
  EXPECT_EQ(min_min(etc), naive_min_min(etc));
}

/// Small-integer ETCs (optionally with zeros) and integer ready times:
/// equal completion times, and so tie-breaks, on nearly every round.
EtcMatrix tie_heavy_instance(int jobs, int machines, int lo, int hi,
                             std::uint64_t seed, bool ready) {
  EtcMatrix etc(jobs, machines);
  Rng rng(seed);
  for (JobId j = 0; j < jobs; ++j) {
    for (MachineId m = 0; m < machines; ++m) {
      etc.set(j, m, static_cast<double>(rng.uniform_int(lo, hi)));
    }
  }
  if (ready) {
    for (MachineId m = 0; m < machines; ++m) {
      etc.set_ready_time(m, static_cast<double>(rng.uniform_int(0, 6)));
    }
  }
  return etc;
}

TEST(MinMin, EqualsTheNaiveOracleOnTieHeavyInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix etc = tie_heavy_instance(90, 7, 1, 3, seed, false);
    EXPECT_EQ(min_min(etc), naive_min_min(etc)) << seed;
  }
}

TEST(MinMin, EqualsTheNaiveOracleWithReadyTimes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix etc = tie_heavy_instance(90, 7, 1, 4, seed, true);
    EXPECT_EQ(min_min(etc), naive_min_min(etc)) << seed;
  }
  InstanceSpec spec;
  spec.num_jobs = 150;
  spec.num_machines = 12;
  EtcMatrix etc = generate_instance(spec);
  Rng rng(40);
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    etc.set_ready_time(m, rng.uniform(0.0, 500.0));
  }
  EXPECT_EQ(min_min(etc), naive_min_min(etc));
}

TEST(MinMin, EqualsTheNaiveOracleWithZeroEtcEntries) {
  // A zero ETC leaves the picked machine's load unchanged, so the pick
  // ties every cached candidate on that machine with its old value.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const EtcMatrix etc = tie_heavy_instance(90, 7, 0, 2, seed, seed % 2 == 0);
    EXPECT_EQ(min_min(etc), naive_min_min(etc)) << seed;
  }
  const EtcMatrix all_zero(40, 5);
  EXPECT_EQ(min_min(all_zero), naive_min_min(all_zero));
}

}  // namespace
}  // namespace gridsched
