#include "cma/sync_cma.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cma/cma.h"
#include "etc/instance.h"
#include "heuristics/constructive.h"

namespace gridsched {
namespace {

EtcMatrix small_instance() {
  InstanceSpec spec;
  spec.num_jobs = 64;
  spec.num_machines = 8;
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

CmaConfig fast_config(std::int64_t iterations = 12) {
  CmaConfig config;
  config.stop = StopCondition{.max_iterations = iterations};
  config.seed = 777;
  return config;
}

TEST(SyncCma, ProducesCompleteScheduleWithConsistentObjectives) {
  const EtcMatrix etc = small_instance();
  const auto result = SynchronousCellularMa(fast_config()).run(etc);
  EXPECT_TRUE(result.best.schedule.complete(etc.num_machines()));
  const Individual check =
      make_individual(result.best.schedule, etc, FitnessWeights{});
  EXPECT_DOUBLE_EQ(check.fitness, result.best.fitness);
}

TEST(SyncCma, ImprovesOnTheSeed) {
  const EtcMatrix etc = small_instance();
  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  const auto result = SynchronousCellularMa(fast_config(40)).run(etc);
  EXPECT_LT(result.best.fitness, seed.fitness);
}

TEST(SyncCma, DeterministicForFixedSeed) {
  const EtcMatrix etc = small_instance();
  const auto a = SynchronousCellularMa(fast_config()).run(etc);
  const auto b = SynchronousCellularMa(fast_config()).run(etc);
  EXPECT_EQ(a.best.schedule, b.best.schedule);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(SyncCma, BitwiseIdenticalAcrossThreadCounts) {
  // The signature property of the synchronous engine: per-cell RNG streams
  // make the parallel schedule irrelevant to the result.
  const EtcMatrix etc = small_instance();
  const auto sequential = SynchronousCellularMa(fast_config(), 0).run(etc);
  const auto two_threads = SynchronousCellularMa(fast_config(), 2).run(etc);
  const auto eight_threads = SynchronousCellularMa(fast_config(), 8).run(etc);
  EXPECT_EQ(sequential.best.schedule, two_threads.best.schedule);
  EXPECT_EQ(sequential.best.schedule, eight_threads.best.schedule);
  EXPECT_DOUBLE_EQ(sequential.best.fitness, eight_threads.best.fitness);
  EXPECT_EQ(sequential.evaluations, eight_threads.evaluations);
}

TEST(SyncCma, EvaluationCountIsOneGenerationPerIteration) {
  const EtcMatrix etc = small_instance();
  const auto result = SynchronousCellularMa(fast_config(5)).run(etc);
  // 25 init + 5 generations x 25 cells.
  EXPECT_EQ(result.evaluations, 25 + 5 * 25);
  EXPECT_EQ(result.iterations, 5);
}

TEST(SyncCma, BestFitnessNeverWorsensAcrossGenerations) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(30);
  config.record_progress = true;
  const auto result = SynchronousCellularMa(config).run(etc);
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_LE(result.progress[i].best_fitness,
              result.progress[i - 1].best_fitness + 1e-9);
  }
}

TEST(SyncCma, ObserverSeesEveryGeneration) {
  const EtcMatrix etc = small_instance();
  CmaConfig config = fast_config(7);
  int calls = 0;
  config.observer = [&](std::int64_t iteration,
                        std::span<const Individual> population) {
    ++calls;
    EXPECT_EQ(population.size(), 25u);
    EXPECT_EQ(iteration, calls);
  };
  (void)SynchronousCellularMa(config).run(etc);
  EXPECT_EQ(calls, 7);
}

TEST(SyncCma, InvalidConfigsThrow) {
  CmaConfig no_stop;
  no_stop.stop = StopCondition{};
  EXPECT_THROW(SynchronousCellularMa{no_stop}, std::invalid_argument);
  EXPECT_THROW(SynchronousCellularMa(fast_config(), -1),
               std::invalid_argument);
}

TEST(SyncCma, ComparableQualityToAsyncAtEqualEvaluations) {
  // Not a strict dominance claim — just that the synchronous variant is a
  // working optimizer in the same league, not a broken port.
  const EtcMatrix etc = small_instance();
  CmaConfig sync_config = fast_config(40);  // 25 + 1000 evals
  const auto sync_result = SynchronousCellularMa(sync_config).run(etc);

  CmaConfig async_config;
  async_config.stop = StopCondition{.max_evaluations = 1'025};
  async_config.seed = 777;
  const auto async_result = CellularMemeticAlgorithm(async_config).run(etc);

  const Individual seed =
      make_individual(ljfr_sjfr(etc), etc, FitnessWeights{});
  EXPECT_LT(sync_result.best.fitness, seed.fitness);
  EXPECT_LT(sync_result.best.fitness, 2.0 * async_result.best.fitness);
}

TEST(SyncCma, StopDuringMeshInitLeavesEveryCellEvaluated) {
  // Same contract as the asynchronous engine: a budget below the mesh size
  // stops initialization part-way, and the kept population is still fully
  // and exactly evaluated.
  const EtcMatrix etc = small_instance();
  Rng warm_rng(92);
  std::vector<Schedule> warm;
  for (int i = 0; i < 8; ++i) {
    warm.push_back(Schedule::random(etc.num_jobs(), etc.num_machines(),
                                    warm_rng));
  }
  for (const std::size_t warm_count : {std::size_t{0}, std::size_t{3},
                                       std::size_t{8}}) {
    CmaConfig config = fast_config();
    config.stop = StopCondition{.max_evaluations = 10};
    config.keep_final_population = true;
    const std::span<const Schedule> warm_cells(warm.data(), warm_count);
    const auto result = SynchronousCellularMa(config).run(etc, warm_cells);
    ASSERT_EQ(result.population.size(), 25u);
    EXPECT_EQ(result.evaluations, 10);
    expect_evaluated(result.population, etc, config.weights);
    expect_evaluated({result.best}, etc, config.weights);
    Rng rng(config.seed);
    const auto initial =
        CellularMemeticAlgorithm(config).initialize_population(etc, rng);
    for (std::size_t cell = 10 - warm_count; cell < 25; ++cell) {
      const Schedule& expected = cell >= 1 && cell <= warm_count
                                     ? warm[cell - 1]
                                     : initial[cell].schedule;
      EXPECT_EQ(result.population[cell].schedule, expected) << cell;
    }
  }
}

TEST(SyncCma, WarmStartRejectsAGeneOutsideTheFleet) {
  // Schedule::complete() admits Schedule::kRejected, but no evaluator can
  // score it: the warm start must refuse such a gene up front, with its
  // own error, as it does every other gene outside [0, m).
  const EtcMatrix etc = small_instance();
  Rng rng(94);
  for (const MachineId bad : {Schedule::kRejected, MachineId{-1},
                              MachineId{etc.num_machines()}}) {
    Schedule warm = Schedule::random(etc.num_jobs(), etc.num_machines(), rng);
    warm[3] = bad;
    const std::vector<Schedule> warm_cells{warm};
    try {
      (void)SynchronousCellularMa(fast_config()).run(etc, warm_cells);
      ADD_FAILURE() << "gene " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "warm-start schedule does not fit the instance"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace gridsched
