// Ablation beyond the paper: the design decisions DESIGN.md section 4
// documents for LMCTS — the pair-scan strategy (critical machine / full /
// sampled), the improvement objective (fitness vs makespan), and the
// iteration budget.
//
// `--evals N` stops every run after N evaluations, so rows compare at
// equal search work, but the expensive scans (full, critical-all-jobs,
// sampled) can spend the `--time-ms` cap (default 5000 ms) first. Pass a
// generous `--time-ms` as a backstop, e.g. `--evals 3000 --time-ms
// 600000`; a row whose mean evaluations fall short of N is marked
// "time-capped" in the table and depends on host speed.
#include "bench_common.h"

namespace gridsched::bench {
namespace {

int run(const BenchArgs& args) {
  print_header("Ablation: LMCTS scan strategy, LS objective, LS iterations",
               args);
  const EtcMatrix etc = tuning_instance(args);

  struct Variant {
    std::string name;
    std::function<void(CmaConfig&)> tweak;
    bool separator_after = false;
  };
  std::vector<Variant> variants{
      {"scan=critical-random-job (default)", [](CmaConfig&) {}, false},
      {"scan=critical-all-jobs",
       [](CmaConfig& c) { c.local_search.scan = LmctsScan::kCriticalAllJobs; },
       false},
      {"scan=full",
       [](CmaConfig& c) { c.local_search.scan = LmctsScan::kFull; }, false},
      {"scan=sampled(512)",
       [](CmaConfig& c) { c.local_search.scan = LmctsScan::kSampled; }, true},
      {"objective=fitness (default)", [](CmaConfig&) {}, false},
      {"objective=makespan",
       [](CmaConfig& c) { c.local_search.objective = LsObjective::kMakespan; },
       true},
      {"kind=VNS (move/LMCTS/chain ladder)",
       [](CmaConfig& c) { c.local_search.kind = LocalSearchKind::kVns; },
       true},
  };
  for (int iters : {1, 5, 15}) {
    variants.push_back({"ls_iterations=" + std::to_string(iters),
                        [iters](CmaConfig& c) {
                          c.local_search.iterations = iters;
                        },
                        false});
  }

  std::vector<SeededRun> jobs;
  for (const auto& variant : variants) {
    jobs.push_back([&, &tweak = variant.tweak](std::uint64_t seed) {
      CmaConfig config = paper_cma_config(args);
      config.seed = seed;
      tweak(config);
      return CellularMemeticAlgorithm(config).run(etc);
    });
  }
  const auto results = run_matrix(jobs, args.runs, args.seed,
                                  shared_pool(args));

  TablePrinter table({"variant", "makespan (mean)", "makespan (best)",
                      "evals/run (mean)"});
  bool any_time_capped = false;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& result = results[i];
    double evals = 0.0;
    for (const auto& run : result.runs) {
      evals += static_cast<double>(run.evaluations);
    }
    evals /= static_cast<double>(result.runs.size());
    const bool time_capped =
        args.evals > 0 && evals < static_cast<double>(args.evals);
    any_time_capped = any_time_capped || time_capped;
    table.add_row({variants[i].name, TablePrinter::num(result.makespan.mean),
                   TablePrinter::num(result.makespan.min),
                   TablePrinter::num(evals, 0) +
                       (time_capped ? " (time-capped)" : "")});
    if (variants[i].separator_after) table.add_separator();
  }
  table.print(std::cout);
  if (any_time_capped) {
    std::cout << "\ntime-capped: the " << args.time_ms
              << " ms cap stopped these rows before --evals " << args.evals
              << "; raise --time-ms to compare them at equal work\n";
  }
  std::cout << "\nreading guide: 'full' spends its budget on one very "
               "expensive scan per step; 'critical' (the default) gets most "
               "of the benefit at a fraction of the previews; the makespan "
               "objective ignores flowtime and may trade it away\n";
  return 0;
}

}  // namespace
}  // namespace gridsched::bench

int main(int argc, char** argv) {
  const auto args = gridsched::bench::parse_args(
      argc, argv, "Ablation: local-search design decisions");
  if (!args) return 0;
  return gridsched::bench::run(*args);
}
