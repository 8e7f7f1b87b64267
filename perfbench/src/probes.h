// Layer probes: decorators over the library's public entry points. Each
// one forwards to the wrapped object unchanged and books the wall time
// spent inside it; in traced runs it also records a span into the same
// TraceRecorder the service writes, so benchmark-side and library-side
// spans share one timeline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "bounds/lower_bound.h"
#include "obs/trace_recorder.h"
#include "portfolio/member.h"
#include "sim/batch_scheduler.h"
#include "workload/workload_source.h"

namespace perfbench {

/// Wraps a streaming source: books next_chunk() time and jobs pulled.
class TimedSource final : public gridsched::StreamingWorkloadSource {
 public:
  TimedSource(std::unique_ptr<gridsched::StreamingWorkloadSource> inner,
              gridsched::obs::TraceRecorder* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  bool next_chunk(double until,
                  std::vector<gridsched::TraceJob>& out) override;
  [[nodiscard]] gridsched::StreamQos qos() const noexcept override {
    return inner_->qos();
  }

  double total_ms = 0.0;
  std::int64_t jobs = 0;

 private:
  std::unique_ptr<gridsched::StreamingWorkloadSource> inner_;
  gridsched::obs::TraceRecorder* trace_;
};

/// Wraps a batch scheduler: books each schedule_batch() wall time, and
/// checks and scores every committed plan against the closed-form
/// makespan floor of the batch's accepted rows (outside the timed call).
class TimedScheduler final : public gridsched::BatchScheduler {
 public:
  TimedScheduler(gridsched::BatchScheduler& inner,
                 gridsched::obs::TraceRecorder* trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] gridsched::Schedule schedule_batch(
      const gridsched::EtcMatrix& etc) override;
  [[nodiscard]] gridsched::Schedule schedule_batch(
      const gridsched::EtcMatrix& etc,
      const gridsched::BatchContext& context) override;

  std::vector<double> call_ms;     // one sample per call
  double score_ms = 0.0;           // time spent scoring plans (bench side)
  int plans_below_floor = 0;       // correctness: must stay 0
  int incomplete_plans = 0;        // correctness: must stay 0
  double gap_pct_sum = 0.0;        // makespan gap over the floor, summed
  int gap_batches = 0;

 private:
  template <typename Call>
  gridsched::Schedule timed(const gridsched::EtcMatrix& etc, Call&& call);
  void score(const gridsched::EtcMatrix& etc,
             const gridsched::Schedule& plan);

  gridsched::BatchScheduler& inner_;
  gridsched::obs::TraceRecorder* trace_;
};

/// Per-member books of the decorated portfolio members.
struct MemberBook {
  int runs = 0;
  double solve_ms = 0.0;
  double wait_ms = 0.0;  // race start -> solve start (pool queueing)
  std::int64_t evaluations = 0;
};

/// Wraps a portfolio member: books solve time, evaluations and how long
/// the member queued for a pool thread after its race started.
class TimedMember final : public gridsched::PortfolioMember {
 public:
  TimedMember(std::unique_ptr<gridsched::PortfolioMember> inner,
              MemberBook& book, const Clock::time_point& race_start)
      : inner_(std::move(inner)), book_(book), race_start_(race_start) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool negligible_cost() const noexcept override {
    return inner_->negligible_cost();
  }
  [[nodiscard]] gridsched::MemberResult solve(
      const gridsched::EtcMatrix& etc, const gridsched::StopCondition& stop,
      std::span<const gridsched::Schedule> warm,
      std::uint64_t seed) override;

 private:
  std::unique_ptr<gridsched::PortfolioMember> inner_;
  MemberBook& book_;
  const Clock::time_point& race_start_;
};

/// Books of the decorated LP bound.
struct BoundBook {
  int calls = 0;
  double total_ms = 0.0;
  std::int64_t pivots = 0;
  int not_optimal = 0;
};

/// bounds::makespan_bound, timed and booked.
[[nodiscard]] gridsched::bounds::MakespanBoundResult timed_makespan_bound(
    const gridsched::EtcMatrix& etc, BoundBook& book);

/// Folds a TraceRecorder's log into self times. A top-level span is one
/// named `top_name`; its self time is its duration minus the union of the
/// spans of `child_cats` (on any thread) inside it. A shard_race's self
/// time is its duration minus the member spans nested in it on its own
/// thread. Leaves (members, drain_steal, resize_scan, admission,
/// next_chunk) are their whole duration. Returns false when the log does
/// not parse or its spans do not balance.
bool fold_trace(gridsched::obs::TraceRecorder& trace,
                const std::string& top_name,
                const std::vector<std::string>& child_cats, SelfTimes& out);

}  // namespace perfbench
