// An evaluated solution: the unit every evolutionary algorithm in the
// library (cMA, Braun GA, steady-state GA, Struggle GA) manipulates.
#pragma once

#include <limits>

#include "core/evaluator.h"
#include "core/fitness.h"
#include "core/schedule.h"

namespace gridsched {

struct Individual {
  Schedule schedule;
  Objectives objectives;
  double fitness = std::numeric_limits<double>::infinity();

  /// Minimization: lower fitness is better.
  [[nodiscard]] bool better_than(const Individual& other) const noexcept {
    return fitness < other.fitness;
  }
};

/// Fully evaluates `schedule` against `etc` on a fresh evaluator and
/// packages it. A full rebuild plus the evaluator's allocation — for
/// one-off callers; an engine evaluating many schedules goes through its
/// own evaluator with evaluate_individual instead.
[[nodiscard]] Individual make_individual(Schedule schedule,
                                         const EtcMatrix& etc,
                                         const FitnessWeights& weights);

/// Re-evaluates an individual in place through `evaluator`, which is left
/// holding its schedule: re-targeted via reset_to, so only the genes that
/// differ from the evaluator's current schedule are replayed. The result
/// is bitwise equal to make_individual(individual.schedule, ...).
void evaluate_individual(Individual& individual, ScheduleEvaluator& evaluator,
                         const FitnessWeights& weights);

/// Copies the evaluator's current state (schedule + objectives) into an
/// Individual without re-evaluating.
[[nodiscard]] Individual individual_from_evaluator(
    const ScheduleEvaluator& evaluator, const FitnessWeights& weights);

/// In-place variant for the offspring pipeline: canonicalizes the
/// evaluator (so the published objectives are bitwise identical to a
/// from-scratch evaluation) and overwrites `out`, reusing its schedule
/// capacity — allocation-free at steady state.
void assign_from_evaluator(Individual& out, ScheduleEvaluator& evaluator,
                           const FitnessWeights& weights);

}  // namespace gridsched
