#include "probes.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <sys/resource.h>

#include "core/bounds.h"
#include "obs/json.h"

namespace perfbench {

using gridsched::obs::TraceSpan;

double process_cpu_ms() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool TimedSource::next_chunk(double until,
                             std::vector<gridsched::TraceJob>& out) {
  const TraceSpan span(trace_, "next_chunk", "workload");
  const std::size_t before = out.size();
  const auto start = Clock::now();
  const bool more = inner_->next_chunk(until, out);
  total_ms += ms_between(start, Clock::now());
  jobs += static_cast<std::int64_t>(out.size() - before);
  return more;
}

gridsched::Schedule TimedScheduler::schedule_batch(
    const gridsched::EtcMatrix& etc) {
  return timed(etc, [&] { return inner_.schedule_batch(etc); });
}

gridsched::Schedule TimedScheduler::schedule_batch(
    const gridsched::EtcMatrix& etc, const gridsched::BatchContext& context) {
  return timed(etc, [&] { return inner_.schedule_batch(etc, context); });
}

template <typename Call>
gridsched::Schedule TimedScheduler::timed(const gridsched::EtcMatrix& etc,
                                          Call&& call) {
  gridsched::Schedule plan;
  {
    const TraceSpan span(trace_, "schedule_batch", "bench");
    const auto start = Clock::now();
    plan = call();
    call_ms.push_back(ms_between(start, Clock::now()));
  }
  const auto scoring = Clock::now();
  score(etc, plan);
  score_ms += ms_between(scoring, Clock::now());
  return plan;
}

void TimedScheduler::score(const gridsched::EtcMatrix& etc,
                           const gridsched::Schedule& plan) {
  if (plan.num_jobs() != etc.num_jobs() ||
      !plan.complete(etc.num_machines())) {
    ++incomplete_plans;
    return;
  }
  // The floor is taken over the accepted rows only, so a batch with
  // rejected rows is scored on the jobs its plan actually places.
  const int machines = etc.num_machines();
  if (machines == 0) return;
  std::vector<double> load(etc.ready_times().begin(), etc.ready_times().end());
  std::vector<double> accepted;
  accepted.reserve(etc.raw().size());
  for (int j = 0; j < etc.num_jobs(); ++j) {
    const gridsched::MachineId m = plan[j];
    if (m == gridsched::Schedule::kRejected) continue;
    load[static_cast<std::size_t>(m)] += etc(j, m);
    const auto row = etc.row(j);
    accepted.insert(accepted.end(), row.begin(), row.end());
  }
  const int rows = static_cast<int>(accepted.size()) / machines;
  gridsched::EtcMatrix placed(rows, machines, std::move(accepted));
  for (int m = 0; m < machines; ++m) {
    placed.set_ready_time(m, etc.ready_time(m));
  }
  const double makespan = *std::max_element(load.begin(), load.end());
  const double floor = gridsched::makespan_lower_bound(placed);
  if (!(floor > 0)) return;
  if (makespan < floor * (1.0 - 1e-9)) ++plans_below_floor;
  gap_pct_sum += 100.0 * (makespan - floor) / floor;
  ++gap_batches;
}

gridsched::MemberResult TimedMember::solve(
    const gridsched::EtcMatrix& etc, const gridsched::StopCondition& stop,
    std::span<const gridsched::Schedule> warm, std::uint64_t seed) {
  const auto start = Clock::now();
  gridsched::MemberResult result = inner_->solve(etc, stop, warm, seed);
  const auto end = Clock::now();
  // Each member owns its book and runs once per race; the race joins every
  // member before schedule_batch returns, so the benchmark's later reads
  // of the books are ordered after these writes.
  ++book_.runs;
  book_.solve_ms += ms_between(start, end);
  book_.wait_ms += ms_between(race_start_, start);
  book_.evaluations += result.evaluations;
  return result;
}

gridsched::bounds::MakespanBoundResult timed_makespan_bound(
    const gridsched::EtcMatrix& etc, BoundBook& book) {
  const auto start = Clock::now();
  gridsched::bounds::MakespanBoundResult result =
      gridsched::bounds::makespan_bound(etc);
  book.total_ms += ms_between(start, Clock::now());
  ++book.calls;
  book.pivots += result.lp_pivots;
  if (result.lp_status != gridsched::bounds::LpBoundStatus::kOptimal) {
    ++book.not_optimal;
  }
  return result;
}

namespace {

struct Span {
  std::string name;
  std::string cat;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int parent = -1;  // enclosing span on the same thread
  double nested_member_us = 0.0;
};

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<std::int64_t, std::int64_t>>& parts,
               std::int64_t lo, std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  double total = 0.0;
  std::int64_t reach = lo;
  for (auto [b, e] : parts) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e > b) {
      total += static_cast<double>(e - b);
      reach = e;
    }
  }
  return total;
}

}  // namespace

bool fold_trace(gridsched::obs::TraceRecorder& trace,
                const std::string& top_name,
                const std::vector<std::string>& child_cats, SelfTimes& out) {
  trace.flush();
  std::ostringstream rendered;
  trace.write(rendered);
  const auto doc = gridsched::obs::JsonValue::parse(rendered.str());
  if (!doc) return false;
  const gridsched::obs::JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return false;

  std::vector<Span> spans;
  std::map<int, std::vector<int>> open;  // tid -> stack of span indices
  for (const gridsched::obs::JsonValue& event : events->as_array()) {
    const auto* ph = event.find("ph");
    const auto* name = event.find("name");
    const auto* ts = event.find("ts");
    const auto* tid = event.find("tid");
    if (!ph || !name || !ts || !tid) return false;
    std::vector<int>& stack = open[static_cast<int>(tid->as_number())];
    const auto time = static_cast<std::int64_t>(ts->as_number());
    if (ph->as_string() == "B") {
      const auto* cat = event.find("cat");
      Span span;
      span.name = name->as_string();
      span.cat = cat != nullptr ? cat->as_string() : "";
      span.begin = time;
      span.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(std::move(span));
    } else if (ph->as_string() == "E") {
      if (stack.empty() || spans[static_cast<std::size_t>(stack.back())]
                                   .name != name->as_string()) {
        return false;
      }
      spans[static_cast<std::size_t>(stack.back())].end = time;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : open) {
    if (!stack.empty()) return false;
  }

  const auto& members = member_names();
  out = SelfTimes{};
  std::vector<std::size_t> tops;
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double us = static_cast<double>(span.end - span.begin);
    if (span.name == top_name) tops.push_back(i);
    if (std::find(child_cats.begin(), child_cats.end(), span.cat) !=
        child_cats.end()) {
      children.emplace_back(span.begin, span.end);
    }
    if (span.cat == "member") {
      const auto it = std::find(members.begin(), members.end(), span.name);
      if (it != members.end()) {
        out.member_ms[static_cast<std::size_t>(it - members.begin())] += us;
      }
      if (span.parent >= 0) {
        spans[static_cast<std::size_t>(span.parent)].nested_member_us += us;
      }
    } else if (span.name == "drain_steal") {
      out.drain_steal_ms += us;
    } else if (span.name == "resize_scan") {
      out.resize_scan_ms += us;
    } else if (span.name == "admission") {
      out.admission_ms += us;
    } else if (span.name == "next_chunk") {
      out.next_chunk_ms += us;
    }
  }
  for (const Span& span : spans) {
    if (span.name == "shard_race") {
      out.shard_race_ms +=
          static_cast<double>(span.end - span.begin) - span.nested_member_us;
    }
  }
  // Top-level spans never overlap (the simulator waits for each plan), so
  // sweeping them in begin order against the sorted children is exact.
  std::sort(children.begin(), children.end());
  std::size_t first = 0;
  for (const std::size_t index : tops) {
    const Span& top = spans[index];
    while (first < children.size() && children[first].second <= top.begin) {
      ++first;
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> inside;
    for (std::size_t c = first;
         c < children.size() && children[c].first < top.end; ++c) {
      inside.push_back(children[c]);
    }
    out.activation_ms += static_cast<double>(top.end - top.begin) -
                         covered(inside, top.begin, top.end);
  }

  const double per = 1e3 * static_cast<double>(tops.size());
  const auto scale = [per](double& us) { us = per > 0 ? us / per : 0.0; };
  scale(out.activation_ms);
  scale(out.shard_race_ms);
  scale(out.drain_steal_ms);
  scale(out.resize_scan_ms);
  scale(out.admission_ms);
  scale(out.next_chunk_ms);
  for (double& ms : out.member_ms) scale(ms);
  return true;
}

}  // namespace perfbench
