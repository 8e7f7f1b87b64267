#include "core/individual.h"

namespace gridsched {

Individual make_individual(Schedule schedule, const EtcMatrix& etc,
                           const FitnessWeights& weights) {
  Individual individual;
  individual.schedule = std::move(schedule);
  ScheduleEvaluator evaluator(etc);
  evaluate_individual(individual, evaluator, weights);
  return individual;
}

void evaluate_individual(Individual& individual, ScheduleEvaluator& evaluator,
                         const FitnessWeights& weights) {
  evaluator.reset_to(individual.schedule);
  individual.objectives = evaluator.objectives();
  individual.fitness =
      individual.objectives.fitness(weights, evaluator.num_machines());
}

Individual individual_from_evaluator(const ScheduleEvaluator& evaluator,
                                     const FitnessWeights& weights) {
  Individual individual;
  individual.schedule = evaluator.schedule();
  individual.objectives = evaluator.objectives();
  individual.fitness = individual.objectives.fitness(
      weights, evaluator.num_machines());
  return individual;
}

void assign_from_evaluator(Individual& out, ScheduleEvaluator& evaluator,
                           const FitnessWeights& weights) {
  evaluator.canonicalize();
  out.schedule = evaluator.schedule();
  out.objectives = evaluator.objectives();
  out.fitness = out.objectives.fitness(weights, evaluator.num_machines());
}

}  // namespace gridsched
