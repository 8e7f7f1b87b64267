// The Expected Time to Compute (ETC) problem model of Braun et al. (2001).
//
// An instance of the batch scheduling problem is an ETC matrix: for every
// (job, machine) pair, the wall-clock time the job is expected to take on
// that machine, plus a per-machine ready time (when the machine finishes the
// work it already has). This is the only input the schedulers see.
#pragma once

#include <atomic>
#include <cassert>
#include <mutex>
#include <span>
#include <vector>

namespace gridsched {

using JobId = int;
using MachineId = int;

/// Dense ETC matrix with per-machine ready times. Stored twice: row-major
/// (job-major, the layout every per-job scan reads) and a machine-major
/// mirror (one contiguous column per machine), so per-machine reductions —
/// LJFR-SJFR's column means, load heat-maps, machine-axis statistics —
/// run over contiguous memory the compiler can vectorize instead of a
/// stride-m gather. Writes go through set(), which keeps both layouts
/// coherent; all reads are const, so a built matrix can be shared across
/// threads (the portfolio races do exactly that).
class EtcMatrix {
 public:
  EtcMatrix() = default;

  /// Creates a jobs x machines matrix initialized to zero, ready times zero.
  EtcMatrix(int num_jobs, int num_machines);

  /// Creates a matrix from row-major values (size must be jobs * machines).
  EtcMatrix(int num_jobs, int num_machines, std::vector<double> values);

  [[nodiscard]] int num_jobs() const noexcept { return num_jobs_; }
  [[nodiscard]] int num_machines() const noexcept { return num_machines_; }

  [[nodiscard]] double operator()(JobId job, MachineId machine) const noexcept {
    assert(job >= 0 && job < num_jobs_);
    assert(machine >= 0 && machine < num_machines_);
    return values_[static_cast<std::size_t>(job) *
                       static_cast<std::size_t>(num_machines_) +
                   static_cast<std::size_t>(machine)];
  }

  /// Writes one entry, updating both the row-major storage and the
  /// machine-major mirror (the reason there is no mutable operator()), and
  /// drops the sorted column order so the next sorted_column() rebuilds it.
  void set(JobId job, MachineId machine, double value) noexcept {
    assert(job >= 0 && job < num_jobs_);
    assert(machine >= 0 && machine < num_machines_);
    order_.invalidate();
    values_[static_cast<std::size_t>(job) *
                static_cast<std::size_t>(num_machines_) +
            static_cast<std::size_t>(machine)] = value;
    values_cm_[static_cast<std::size_t>(machine) *
                   static_cast<std::size_t>(num_jobs_) +
               static_cast<std::size_t>(job)] = value;
  }

  /// The ETC row of one job across all machines.
  [[nodiscard]] std::span<const double> row(JobId job) const noexcept {
    assert(job >= 0 && job < num_jobs_);
    return {values_.data() + static_cast<std::size_t>(job) *
                                 static_cast<std::size_t>(num_machines_),
            static_cast<std::size_t>(num_machines_)};
  }

  /// The ETC column of one machine across all jobs, contiguous (from the
  /// machine-major mirror).
  [[nodiscard]] std::span<const double> machine_row(
      MachineId machine) const noexcept {
    assert(machine >= 0 && machine < num_machines_);
    return {values_cm_.data() + static_cast<std::size_t>(machine) *
                                    static_cast<std::size_t>(num_jobs_),
            static_cast<std::size_t>(num_jobs_)};
  }

  /// One machine's column in ascending (etc, job) order: jobs[i] is the
  /// job with the i-th smallest ETC on the machine (equal ETCs by job id),
  /// etc[i] that ETC, and rank[j] job j's position i.
  struct SortedColumn {
    std::span<const double> etc;
    std::span<const JobId> jobs;
    std::span<const int> rank;
  };
  /// The first call sorts every column, O(m n log n) once per matrix;
  /// later calls are O(1) and read the shared result, so evaluators bound
  /// to one matrix pay the sort once between them. Safe to call from
  /// several threads at once. set() invalidates the order, and a copied
  /// or assigned matrix starts without one. ETC values must not be NaN.
  [[nodiscard]] SortedColumn sorted_column(MachineId machine) const;

  /// Ready time of `machine` (time at which it becomes free for this batch).
  [[nodiscard]] double ready_time(MachineId machine) const noexcept {
    return ready_times_[static_cast<std::size_t>(machine)];
  }

  void set_ready_time(MachineId machine, double t) noexcept {
    ready_times_[static_cast<std::size_t>(machine)] = t;
  }

  [[nodiscard]] std::span<const double> ready_times() const noexcept {
    return ready_times_;
  }

  /// Mean ETC of a job across machines. Used as the "workload" proxy for
  /// heuristics that order jobs by size (ETC-only instances carry no
  /// separate workload column); see DESIGN.md section 3.
  [[nodiscard]] double mean_row(JobId job) const noexcept;

  /// Smallest ETC of a job across machines.
  [[nodiscard]] double min_row(JobId job) const noexcept;

  /// Sum of all entries (useful for magnitude sanity checks in tests).
  [[nodiscard]] double total() const noexcept;

  [[nodiscard]] std::span<const double> raw() const noexcept { return values_; }

 private:
  /// Rebuilds the machine-major mirror from the row-major storage.
  void rebuild_mirror();

  // The lazily built column order behind sorted_column(). Copying yields
  // an unbuilt order rather than sharing or copying the source's, so a
  // copy mutated by set() can never read the original's order, nor the
  // original the copy's.
  struct ColumnOrder {
    ColumnOrder() = default;
    ColumnOrder(const ColumnOrder&) noexcept {}
    ColumnOrder& operator=(const ColumnOrder&) noexcept {
      invalidate();
      return *this;
    }
    void invalidate() noexcept {
      built.store(false, std::memory_order_relaxed);
    }

    std::mutex mutex;              // serializes the (re)build
    std::atomic<bool> built{false};  // release-published by the build
    std::vector<double> etc;       // machine-major, each column ascending
    std::vector<JobId> jobs;       // the job of each etc entry
    std::vector<int> rank;         // machine-major: each job's position
  };
  /// Sorts every column into order_ unless another thread already has.
  void build_column_order() const;

  int num_jobs_ = 0;
  int num_machines_ = 0;
  std::vector<double> values_;     // row-major: values_[job * m + machine]
  std::vector<double> values_cm_;  // machine-major: values_cm_[machine*n + job]
  std::vector<double> ready_times_;
  mutable ColumnOrder order_;
};

}  // namespace gridsched
