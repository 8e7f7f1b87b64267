#include "ga/struggle_ga.h"

#include <numeric>
#include <stdexcept>

namespace gridsched {

StruggleGa::StruggleGa(StruggleGaConfig config) : config_(std::move(config)) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("StruggleGa: population must hold >= 2");
  }
  if (!config_.stop.any_enabled()) {
    throw std::invalid_argument("StruggleGa: no stop condition enabled");
  }
}

EvolutionResult StruggleGa::run(const EtcMatrix& etc) const {
  Rng rng(config_.seed);
  EvolutionTracker tracker(config_.stop, config_.record_progress);

  std::vector<Individual> population =
      seed_population(config_.population_size, config_.seeding, etc,
                      config_.weights, rng, config_.stop.cancel);
  tracker.count_evaluations(config_.population_size);
  for (const auto& individual : population) tracker.offer(individual);

  std::vector<int> all_indices(population.size());
  std::iota(all_indices.begin(), all_indices.end(), 0);

  ScheduleEvaluator evaluator(etc);
  MutationScratch mutation_scratch;
  Individual child;  // reused across steps; copy-assigns recycle capacity
  while (!tracker.should_stop()) {
    for (int step = 0; step < config_.steps_per_iteration; ++step) {
      const int pa =
          select_one(config_.selection, all_indices, population, rng);
      child = population[static_cast<std::size_t>(pa)];
      if (rng.chance(config_.crossover_rate)) {
        const int pb =
            select_one(config_.selection, all_indices, population, rng);
        crossover_into(
            child.schedule, config_.crossover,
            population[static_cast<std::size_t>(pa)].schedule,
            population[static_cast<std::size_t>(pb)].schedule, rng);
      }
      // One shared evaluator re-targeted per child: the gene-diff reset
      // replaces both the per-mutation full rebuild and the from-scratch
      // evaluator make_individual() would construct. Same RNG draws,
      // same (canonical) objective values.
      const bool do_mutate = rng.chance(config_.mutation_rate);
      evaluator.reset_to(child.schedule);
      if (do_mutate) {
        mutate(config_.mutation, evaluator, rng, &mutation_scratch);
      }
      assign_from_evaluator(child, evaluator, config_.weights);
      tracker.count_evaluations();

      // The struggle: compete with the most similar resident, not the worst.
      const std::size_t rival = most_similar_index(population, child.schedule);
      if (child.fitness < population[rival].fitness) {
        population[rival] = child;  // copy: `child` keeps its buffers
        tracker.offer(population[rival]);
      }
      if (tracker.should_stop()) break;
    }
    tracker.end_iteration();
  }
  return tracker.finish();
}

}  // namespace gridsched
