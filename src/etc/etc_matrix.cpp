#include "etc/etc_matrix.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace gridsched {

EtcMatrix::EtcMatrix(int num_jobs, int num_machines)
    : num_jobs_(num_jobs), num_machines_(num_machines) {
  // Validate before sizing the vectors: a negative dimension cast to
  // size_t would otherwise surface as an obscure std::length_error.
  if (num_jobs <= 0 || num_machines <= 0) {
    throw std::invalid_argument("EtcMatrix: dimensions must be positive");
  }
  values_.resize(static_cast<std::size_t>(num_jobs) *
                 static_cast<std::size_t>(num_machines));
  values_cm_.resize(values_.size());
  ready_times_.assign(static_cast<std::size_t>(num_machines), 0.0);
}

EtcMatrix::EtcMatrix(int num_jobs, int num_machines, std::vector<double> values)
    : EtcMatrix(num_jobs, num_machines) {
  if (values.size() != values_.size()) {
    throw std::invalid_argument("EtcMatrix: value count does not match shape");
  }
  values_ = std::move(values);
  rebuild_mirror();
}

void EtcMatrix::rebuild_mirror() {
  for (JobId j = 0; j < num_jobs_; ++j) {
    const std::size_t row_base = static_cast<std::size_t>(j) *
                                 static_cast<std::size_t>(num_machines_);
    for (MachineId m = 0; m < num_machines_; ++m) {
      values_cm_[static_cast<std::size_t>(m) *
                     static_cast<std::size_t>(num_jobs_) +
                 static_cast<std::size_t>(j)] = values_[row_base +
                                                        static_cast<std::size_t>(m)];
    }
  }
}

EtcMatrix::SortedColumn EtcMatrix::sorted_column(MachineId machine) const {
  assert(machine >= 0 && machine < num_machines_);
  if (!order_.built.load(std::memory_order_acquire)) build_column_order();
  const std::size_t n = static_cast<std::size_t>(num_jobs_);
  const std::size_t base = static_cast<std::size_t>(machine) * n;
  return {{order_.etc.data() + base, n},
          {order_.jobs.data() + base, n},
          {order_.rank.data() + base, n}};
}

void EtcMatrix::build_column_order() const {
  const std::lock_guard<std::mutex> lock(order_.mutex);
  if (order_.built.load(std::memory_order_relaxed)) return;
  const std::size_t n = static_cast<std::size_t>(num_jobs_);
  order_.etc.resize(values_cm_.size());
  order_.jobs.resize(values_cm_.size());
  order_.rank.resize(values_cm_.size());
  for (std::size_t base = 0; base < values_cm_.size(); base += n) {
    const double* column = values_cm_.data() + base;
    const auto jobs = order_.jobs.begin() + static_cast<std::ptrdiff_t>(base);
    std::iota(jobs, jobs + static_cast<std::ptrdiff_t>(n), 0);
    std::sort(jobs, jobs + static_cast<std::ptrdiff_t>(n),
              [column](JobId a, JobId b) {
                const double ea = column[static_cast<std::size_t>(a)];
                const double eb = column[static_cast<std::size_t>(b)];
                return ea != eb ? ea < eb : a < b;
              });
    for (std::size_t i = 0; i < n; ++i) {
      const auto job = static_cast<std::size_t>(order_.jobs[base + i]);
      order_.etc[base + i] = column[job];
      order_.rank[base + job] = static_cast<int>(i);
    }
  }
  order_.built.store(true, std::memory_order_release);
}

double EtcMatrix::mean_row(JobId job) const noexcept {
  const auto r = row(job);
  return std::accumulate(r.begin(), r.end(), 0.0) /
         static_cast<double>(r.size());
}

double EtcMatrix::min_row(JobId job) const noexcept {
  const auto r = row(job);
  return *std::min_element(r.begin(), r.end());
}

double EtcMatrix::total() const noexcept {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

}  // namespace gridsched
