#include "cma/cma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

EtcMatrix small_instance(Consistency consistency = Consistency::kConsistent) {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
  spec.consistency = consistency;
  return generate_instance(spec);
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Every individual's published objectives and fitness are bitwise what a
/// from-scratch evaluation of its schedule gives.
void expect_evaluated(const std::vector<Individual>& population,
                      const EtcMatrix& etc, const FitnessWeights& weights) {
  for (std::size_t i = 0; i < population.size(); ++i) {
    const Individual& individual = population[i];
    const Individual fresh = make_individual(individual.schedule, etc, weights);
    EXPECT_TRUE(same_bits(individual.objectives.makespan,
                          fresh.objectives.makespan))
        << "cell " << i;
    EXPECT_TRUE(same_bits(individual.objectives.flowtime,
                          fresh.objectives.flowtime))
        << "cell " << i;
    EXPECT_TRUE(same_bits(individual.fitness, fresh.fitness)) << "cell " << i;
  }
}

/// Evaluation-bounded config so tests are timing-independent.
CmaConfig fast_config(std::int64_t evaluations = 2'000) {
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = evaluations};
  config.seed = 12345;
  return config;
}

TEST(Cma, ProducesCompleteScheduleWithConsistentObjectives) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config()).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  const Individual check =
      make_individual(result.best.schedule, etc, FitnessWeights{});
  EXPECT_DOUBLE_EQ(check.fitness, result.best.fitness);
  EXPECT_DOUBLE_EQ(check.objectives.makespan, result.best.objectives.makespan);
  EXPECT_DOUBLE_EQ(check.objectives.flowtime, result.best.objectives.flowtime);
}

TEST(Cma, ImprovesOnTheLjfrSjfrSeed) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result = CellularMemeticAlgorithm(fast_config(4'000)).run(etc);
  EXPECT_LT(result.best.fitness, seed.fitness);
}

TEST(Cma, BeatsPureRandomSearchAtEqualEvaluations) {
  const EtcMatrix etc = small_instance(Consistency::kInconsistent);
  const std::int64_t budget = 3'000;
  const auto result =
      CellularMemeticAlgorithm(fast_config(budget)).run(etc);

  Rng rng(777);
  double best_random = std::numeric_limits<double>::infinity();
  for (std::int64_t i = 0; i < budget; ++i) {
    const auto ind = make_individual(
        Schedule::random(etc.num_jobs(), etc.num_machines(), rng), etc,
        FitnessWeights{});
    best_random = std::min(best_random, ind.fitness);
  }
  EXPECT_LT(result.best.fitness, best_random);
}

TEST(Cma, DeterministicForFixedSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = CellularMemeticAlgorithm(fast_config()).run(etc);
  const auto b = CellularMemeticAlgorithm(fast_config()).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(Cma, DifferentSeedsExploreDifferently) {
  const EtcMatrix etc = small_instance();
  CmaConfig c1 = fast_config();
  CmaConfig c2 = fast_config();
  c2.seed = 54321;
  const auto a = CellularMemeticAlgorithm(c1).run(etc);
  const auto b = CellularMemeticAlgorithm(c2).run(etc);
  EXPECT_NE(a.best.schedule, b.best.schedule);
}

TEST(Cma, RespectsEvaluationBudget) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config(500)).run(etc);
  // The engine checks the budget between offspring, so overshoot is at
  // most one offspring.
  EXPECT_GE(result.evaluations, 500);
  EXPECT_LE(result.evaluations, 502);
}

TEST(Cma, RespectsIterationBudget) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_iterations = 3};
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_EQ(result.iterations, 3);
  // 25 initial + 3 * (25 recombinations + 12 mutations).
  EXPECT_EQ(result.evaluations, 25 + 3 * 37);
}

TEST(Cma, RespectsWallClockBudget) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_time_ms = 50.0};
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_LT(result.elapsed_ms, 500.0);  // generous CI slack
}

TEST(Cma, ProgressTraceIsMonotoneNonIncreasing) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(3'000);
  config.record_progress = true;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  ASSERT_FALSE(result.progress.empty());
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_LE(result.progress[i].best_fitness,
              result.progress[i - 1].best_fitness + 1e-9);
    EXPECT_GE(result.progress[i].time_ms,
              result.progress[i - 1].time_ms - 1e-9);
  }
  EXPECT_DOUBLE_EQ(result.progress.back().best_fitness, result.best.fitness);
}

TEST(Cma, ProgressOffByDefaultKeepsTraceEmpty) {
  const EtcMatrix etc = small_instance();
  const auto result = CellularMemeticAlgorithm(fast_config(600)).run(etc);
  EXPECT_TRUE(result.progress.empty());
}

TEST(Cma, AllNeighborhoodsRun) {
  const EtcMatrix etc = small_instance();
  for (NeighborhoodKind kind :
       {NeighborhoodKind::kPanmictic, NeighborhoodKind::kL5,
        NeighborhoodKind::kL9, NeighborhoodKind::kC9,
        NeighborhoodKind::kC13}) {
    CmaConfig config = fast_config(800);
    config.neighborhood = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << neighborhood_name(kind);
  }
}

TEST(Cma, AllSweepOrdersRun) {
  const EtcMatrix etc = small_instance();
  for (SweepKind kind : {SweepKind::kFixedLineSweep,
                         SweepKind::kFixedRandomSweep,
                         SweepKind::kNewRandomSweep}) {
    CmaConfig config = fast_config(800);
    config.recombination_order = kind;
    config.mutation_order = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << sweep_name(kind);
  }
}

TEST(Cma, AllLocalSearchMethodsRun) {
  const EtcMatrix etc = small_instance();
  for (LocalSearchKind kind :
       {LocalSearchKind::kNone, LocalSearchKind::kLocalMove,
        LocalSearchKind::kSteepestLocalMove, LocalSearchKind::kLmcts}) {
    CmaConfig config = fast_config(800);
    config.local_search.kind = kind;
    const auto result = CellularMemeticAlgorithm(config).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()))
        << local_search_name(kind);
  }
}

TEST(Cma, RandomInitAlsoWorks) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(1'000);
  config.init = InitKind::kRandom;
  const auto result = CellularMemeticAlgorithm(config).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
}

TEST(Cma, InitialPopulationSeedsWithLjfrSjfr) {
  const EtcMatrix etc = small_instance();
  const CellularMemeticAlgorithm cma(fast_config());
  Rng rng(1);
  const auto population = cma.initialize_population(etc, rng);
  ASSERT_EQ(population.size(), 25u);
  EXPECT_EQ(population[0].schedule, ljfr_sjfr(etc));
  // The rest are perturbed copies, not duplicates of the seed.
  int identical = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    identical += (population[i].schedule == population[0].schedule) ? 1 : 0;
  }
  EXPECT_EQ(identical, 0);
}

TEST(Cma, AddOnlyIfBetterKeepsPopulationFromWorsening) {
  // With replacement gated on improvement, the best individual can only
  // improve; sanity-check by comparing against the seed's fitness at a few
  // budget checkpoints.
  const EtcMatrix etc = small_instance();
  double previous = std::numeric_limits<double>::infinity();
  for (std::int64_t budget : {200, 800, 2'400}) {
    const auto result =
        CellularMemeticAlgorithm(fast_config(budget)).run(etc);
    EXPECT_LE(result.best.fitness, previous + 1e-9);
    previous = result.best.fitness;
  }
}

TEST(Cma, InvalidConfigsThrow) {
  CmaConfig no_stop;
  no_stop.stop = StopCondition{};
  EXPECT_THROW(CellularMemeticAlgorithm{no_stop}, std::invalid_argument);

  CmaConfig one_parent = fast_config();
  one_parent.parents_per_recombination = 1;
  EXPECT_THROW(CellularMemeticAlgorithm{one_parent}, std::invalid_argument);

  CmaConfig empty_pop = fast_config();
  empty_pop.pop_height = 0;
  EXPECT_THROW(CellularMemeticAlgorithm{empty_pop}, std::invalid_argument);
}

TEST(Cma, TinyInstancesDoNotCrash) {
  InstanceSpec spec;
  spec.num_jobs = 2;
  spec.num_machines = 2;
  const EtcMatrix etc = generate_instance(spec);
  const auto result = CellularMemeticAlgorithm(fast_config(300)).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(2));
}

TEST(Cma, ObserverSeesEveryIteration) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config();
  config.stop = StopCondition{.max_iterations = 6};
  int calls = 0;
  config.observer = [&](std::int64_t iteration,
                        std::span<const Individual> population) {
    ++calls;
    EXPECT_EQ(iteration, calls);
    EXPECT_EQ(population.size(), 25u);
    for (const auto& individual : population) {
      EXPECT_TRUE(individual.schedule.complete(etc.num_machines()));
    }
  };
  (void)CellularMemeticAlgorithm(config).run(etc);
  EXPECT_EQ(calls, 6);
}

TEST(Cma, ReadyTimesAreRespected) {
  // Batch-mode deployment: machines carry backlogs. The cMA must produce
  // schedules whose objectives account for them (makespan can never fall
  // below the largest backlog).
  EtcMatrix etc = small_instance();
  etc.set_ready_time(0, 1e9);
  const auto result = CellularMemeticAlgorithm(fast_config(800)).run(etc);
  EXPECT_GE(result.best.objectives.makespan, 1e9);
  // And the optimizer should learn to avoid the blocked machine almost
  // entirely (any job there only raises completion beyond the backlog).
  int on_blocked = 0;
  for (JobId j = 0; j < etc.num_jobs(); ++j) {
    on_blocked += (result.best.schedule[j] == 0) ? 1 : 0;
  }
  EXPECT_LT(on_blocked, etc.num_jobs() / 4);
}

TEST(Cma, WorksOnEveryBenchmarkClass) {
  for (const InstanceSpec& base : braun_benchmark_suite()) {
    InstanceSpec spec = base;
    spec.num_jobs = 48;
    spec.num_machines = 6;
    const EtcMatrix etc = generate_instance(spec);
    const auto result = CellularMemeticAlgorithm(fast_config(600)).run(etc);
    EXPECT_TRUE(result.best.schedule.complete(6)) << base.name();
    const Individual seed =
        make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
    EXPECT_LE(result.best.fitness, seed.fitness) << base.name();
  }
}

TEST(Cma, StopDuringMeshInitLeavesEveryCellEvaluated) {
  // A budget below the mesh size stops mesh initialization part-way; the
  // kept population must still be fully evaluated, bitwise as a fresh
  // evaluation would publish it, with the unreached cells holding exactly
  // the schedules the warm start or initialize_population put there.
  const EtcMatrix etc = small_instance();
  Rng warm_rng(91);
  std::vector<Schedule> warm;
  for (int i = 0; i < 8; ++i) {
    warm.push_back(Schedule::random(etc.num_jobs(), etc.num_machines(),
                                    warm_rng));
  }
  for (const std::size_t warm_count : {std::size_t{0}, std::size_t{3},
                                       std::size_t{8}}) {
    CmaConfig config = fast_config(10);
    config.keep_final_population = true;
    const std::span<const Schedule> warm_cells(warm.data(), warm_count);
    const auto result = CellularMemeticAlgorithm(config).run(etc, warm_cells);
    ASSERT_EQ(result.population.size(), 25u);
    EXPECT_EQ(result.evaluations, 10);
    expect_evaluated(result.population, etc, config.weights);
    expect_evaluated({result.best}, etc, config.weights);

    // Warm cells count as evaluations, so 10 - warm_count cells were
    // improved; every later cell is as the mesh build left it.
    const std::size_t reached = 10 - warm_count;
    Rng rng(config.seed);
    const auto initial =
        CellularMemeticAlgorithm(config).initialize_population(etc, rng);
    for (std::size_t cell = reached; cell < 25; ++cell) {
      const Schedule& expected = cell >= 1 && cell <= warm_count
                                     ? warm[cell - 1]
                                     : initial[cell].schedule;
      EXPECT_EQ(result.population[cell].schedule, expected) << cell;
    }
  }
}

TEST(Cma, WarmStartRejectsAGeneOutsideTheFleet) {
  // Schedule::complete() admits Schedule::kRejected, but no evaluator can
  // score it: the warm start must refuse such a gene up front, with its
  // own error, as it does every other gene outside [0, m).
  const EtcMatrix etc = small_instance();
  Rng rng(93);
  for (const MachineId bad : {Schedule::kRejected, MachineId{-1},
                              MachineId{etc.num_machines()}}) {
    Schedule warm = Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
    warm[3] = bad;
    const std::vector<Schedule> warm_cells{warm};
    try {
      (void)CellularMemeticAlgorithm(fast_config()).run(etc, warm_cells);
      ADD_FAILURE() << "gene " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "warm-start schedule does not fit the instance"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cma, InitialPopulationIsEvaluated) {
  const EtcMatrix etc = small_instance();
  for (const InitKind init : {InitKind::kLjfrSjfr, InitKind::kRandom}) {
    CmaConfig config = fast_config();
    config.init = init;
    Rng rng(2);
    expect_evaluated(
        CellularMemeticAlgorithm(config).initialize_population(etc, rng), etc,
        config.weights);
  }
}

}  // namespace
}  // namespace gridsched
