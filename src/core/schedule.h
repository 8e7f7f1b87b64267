// Solution representation: the paper's direct encoding.
//
// A schedule is a vector of size num_jobs whose j-th entry is the machine
// the job is assigned to. This is the chromosome every evolutionary operator
// in the library works on.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "etc/etc_matrix.h"

namespace gridsched {

class Schedule {
 public:
  /// Gene value for a job rejected by admission control (src/qos/
  /// admission.h): deliberately not scheduled, as opposed to -1 =
  /// not scheduled *yet*. complete() accepts it; schedulers never emit
  /// it — only the service's ingress does.
  static constexpr MachineId kRejected = -2;

  Schedule() = default;

  /// Creates a schedule of `num_jobs` genes, all set to `fill` (default -1 =
  /// unassigned; a complete schedule has every gene in [0, num_machines)).
  explicit Schedule(int num_jobs, MachineId fill = -1);

  [[nodiscard]] int num_jobs() const noexcept {
    return static_cast<int>(assign_.size());
  }

  [[nodiscard]] MachineId operator[](JobId job) const noexcept {
    return assign_[static_cast<std::size_t>(job)];
  }
  MachineId& operator[](JobId job) noexcept {
    return assign_[static_cast<std::size_t>(job)];
  }

  [[nodiscard]] std::span<const MachineId> genes() const noexcept {
    return assign_;
  }

  /// True when every job is assigned to a machine in [0, num_machines)
  /// or explicitly rejected (kRejected). -1/unassigned genes make a
  /// schedule incomplete.
  [[nodiscard]] bool complete(int num_machines) const noexcept;

  /// True when every job is assigned to a machine in [0, num_machines):
  /// complete() without the kRejected genes, i.e. a schedule an
  /// evaluator can score.
  [[nodiscard]] bool assigned(int num_machines) const noexcept;

  /// Number of genes in which two schedules differ (used by the Struggle
  /// GA's similarity-based replacement). Schedules must be the same size.
  [[nodiscard]] int hamming_distance(const Schedule& other) const noexcept;

  /// Uniformly random complete schedule.
  [[nodiscard]] static Schedule random(int num_jobs, int num_machines,
                                       Rng& rng);

  /// Re-assigns each gene with probability `rate` to a uniform machine.
  /// This is the paper's "large perturbation" population seeding step.
  void perturb(double rate, int num_machines, Rng& rng);

  friend bool operator==(const Schedule&, const Schedule&) = default;

 private:
  std::vector<MachineId> assign_;
};

}  // namespace gridsched
