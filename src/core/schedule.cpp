#include "core/schedule.h"

namespace gridsched {

Schedule::Schedule(int num_jobs, MachineId fill)
    : assign_(static_cast<std::size_t>(num_jobs), fill) {}

bool Schedule::complete(int num_machines) const noexcept {
  for (MachineId m : assign_) {
    if ((m < 0 || m >= num_machines) && m != kRejected) return false;
  }
  return !assign_.empty();
}

bool Schedule::assigned(int num_machines) const noexcept {
  for (MachineId m : assign_) {
    if (m < 0 || m >= num_machines) return false;
  }
  return !assign_.empty();
}

int Schedule::hamming_distance(const Schedule& other) const noexcept {
  int distance = 0;
  const std::size_t n = assign_.size();
  for (std::size_t j = 0; j < n; ++j) {
    distance += (assign_[j] != other.assign_[j]) ? 1 : 0;
  }
  return distance;
}

Schedule Schedule::random(int num_jobs, int num_machines, Rng& rng) {
  Schedule s(num_jobs);
  for (JobId j = 0; j < num_jobs; ++j) {
    s[j] = rng.uniform_int(0, num_machines - 1);
  }
  return s;
}

void Schedule::perturb(double rate, int num_machines, Rng& rng) {
  for (MachineId& gene : assign_) {
    if (rng.chance(rate)) gene = rng.uniform_int(0, num_machines - 1);
  }
}

}  // namespace gridsched
