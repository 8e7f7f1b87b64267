#include "sim/grid_simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "etc/instance.h"

namespace gridsched {
namespace {

SimConfig fast_sim() {
  SimConfig config;
  config.horizon = 400.0;
  config.arrival_rate = 0.5;
  config.scheduler_period = 40.0;
  config.num_machines = 6;
  config.seed = 42;
  return config;
}

TEST(GridSimulator, AllJobsCompleteWithDrain) {
  GridSimulator sim(fast_sim());
  HeuristicBatchScheduler scheduler(HeuristicKind::kMct);
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.jobs_arrived, 0);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  for (const auto& record : sim.job_records()) {
    EXPECT_GE(record.start, record.arrival);
    EXPECT_GT(record.finish, record.start);
    EXPECT_GE(record.machine, 0);
    EXPECT_EQ(record.attempts, 1);
  }
}

TEST(GridSimulator, DeterministicForSameSeedAndScheduler) {
  GridSimulator sim_a(fast_sim());
  GridSimulator sim_b(fast_sim());
  HeuristicBatchScheduler sched_a(HeuristicKind::kMinMin);
  HeuristicBatchScheduler sched_b(HeuristicKind::kMinMin);
  const SimMetrics a = sim_a.run(sched_a);
  const SimMetrics b = sim_b.run(sched_b);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_DOUBLE_EQ(a.mean_flowtime, b.mean_flowtime);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(GridSimulator, JobsNeverStartBeforeTheirActivation) {
  SimConfig config = fast_sim();
  GridSimulator sim(config);
  HeuristicBatchScheduler scheduler(HeuristicKind::kOlb);
  (void)sim.run(scheduler);
  for (const auto& record : sim.job_records()) {
    // A job arriving in period k is scheduled at the earliest at the next
    // activation boundary.
    const double activation =
        std::ceil(record.arrival / config.scheduler_period) *
        config.scheduler_period;
    EXPECT_GE(record.start, activation - 1e-9);
  }
}

TEST(GridSimulator, BatchesRespectPeriodBoundaries) {
  GridSimulator sim(fast_sim());
  HeuristicBatchScheduler scheduler(HeuristicKind::kMct);
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.activations, 0);
  EXPECT_GT(metrics.mean_batch_size, 0.0);
  // Mean batch size ~ arrival_rate * period.
  EXPECT_NEAR(metrics.mean_batch_size, 0.5 * 40.0, 15.0);
}

TEST(GridSimulator, SlowdownIsAtLeastOne) {
  GridSimulator sim(fast_sim());
  HeuristicBatchScheduler scheduler(HeuristicKind::kMct);
  const SimMetrics metrics = sim.run(scheduler);
  // A job can never finish faster than its ideal dedicated-best-machine
  // run, and batching adds waits, so the mean is strictly above 1.
  EXPECT_GT(metrics.mean_slowdown, 1.0);
}

TEST(GridSimulator, BetterSchedulerGivesLowerSlowdown) {
  SimConfig config = fast_sim();
  config.consistency_noise = 0.6;
  config.arrival_rate = 1.0;
  GridSimulator sim_mct(config);
  HeuristicBatchScheduler mct_sched(HeuristicKind::kMct);
  const double mct_slowdown = sim_mct.run(mct_sched).mean_slowdown;
  GridSimulator sim_olb(config);
  HeuristicBatchScheduler olb_sched(HeuristicKind::kOlb);
  const double olb_slowdown = sim_olb.run(olb_sched).mean_slowdown;
  EXPECT_LT(mct_slowdown, olb_slowdown);
}

TEST(GridSimulator, UtilizationIsAFraction) {
  GridSimulator sim(fast_sim());
  HeuristicBatchScheduler scheduler(HeuristicKind::kMct);
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST(GridSimulator, LoadAwareSchedulerBeatsBlindOne) {
  // An inconsistent grid punishes OLB (ignores ETC); MCT must deliver
  // lower mean flowtime.
  SimConfig config = fast_sim();
  config.consistency_noise = 0.6;
  config.arrival_rate = 1.0;

  GridSimulator sim_mct(config);
  HeuristicBatchScheduler mct_sched(HeuristicKind::kMct);
  const double mct_flow = sim_mct.run(mct_sched).mean_flowtime;

  GridSimulator sim_olb(config);
  HeuristicBatchScheduler olb_sched(HeuristicKind::kOlb);
  const double olb_flow = sim_olb.run(olb_sched).mean_flowtime;

  EXPECT_LT(mct_flow, olb_flow);
}

TEST(GridSimulator, CmaBatchSchedulerRunsEndToEnd) {
  SimConfig config = fast_sim();
  config.horizon = 150.0;
  GridSimulator sim(config);
  CmaConfig cma_config;
  cma_config.stop = StopCondition{.max_evaluations = 300};
  CmaBatchScheduler scheduler(cma_config, /*budget_ms=*/15.0);
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  EXPECT_GT(metrics.scheduler_cpu_ms, 0.0);
}

TEST(GridSimulator, MachineChurnRequeuesAndStillCompletes) {
  SimConfig config = fast_sim();
  config.machine_mtbf = 120.0;
  config.machine_mttr = 30.0;
  config.seed = 7;
  GridSimulator sim(config);
  HeuristicBatchScheduler scheduler(HeuristicKind::kMct);
  const SimMetrics metrics = sim.run(scheduler);
  EXPECT_EQ(metrics.jobs_completed, metrics.jobs_arrived);
  // With MTBF ~ 3 periods over a 10-period horizon and 6 machines, some
  // failures are overwhelmingly likely.
  EXPECT_GT(metrics.jobs_requeued, 0);
  int retried = 0;
  for (const auto& record : sim.job_records()) {
    retried += (record.attempts > 1) ? 1 : 0;
  }
  EXPECT_GT(retried, 0);
}

TEST(GridSimulator, ChurnConfigValidation) {
  SimConfig config = fast_sim();
  config.machine_mtbf = 100.0;  // mttr left 0
  EXPECT_THROW(GridSimulator{config}, std::invalid_argument);
}

TEST(GridSimulator, BadConfigsThrow) {
  SimConfig no_machines = fast_sim();
  no_machines.num_machines = 0;
  EXPECT_THROW(GridSimulator{no_machines}, std::invalid_argument);
  SimConfig no_rate = fast_sim();
  no_rate.arrival_rate = 0.0;
  EXPECT_THROW(GridSimulator{no_rate}, std::invalid_argument);
}

TEST(BatchSchedulers, NamesAreMeaningful) {
  HeuristicBatchScheduler h(HeuristicKind::kMinMin);
  EXPECT_EQ(h.name(), "Min-Min");
  CmaConfig cma_config;
  cma_config.stop = StopCondition{.max_evaluations = 10};
  CmaBatchScheduler c(cma_config, 5.0);
  EXPECT_EQ(c.name(), "cMA");
  StruggleGaConfig sg_config;
  StruggleGaBatchScheduler s(sg_config, 5.0);
  EXPECT_EQ(s.name(), "StruggleGA");
}

TEST(GridSimulator, CmaFallbackNeverLosesToMinMinOnABatch) {
  // The ensemble rule inside CmaBatchScheduler: its batch fitness is at
  // most Min-Min's, whatever the budget.
  InstanceSpec spec;
  spec.num_jobs = 40;
  spec.num_machines = 8;
  const EtcMatrix etc = generate_instance(spec);
  CmaConfig config;
  config.stop = StopCondition{.max_evaluations = 50};  // starved on purpose
  CmaBatchScheduler scheduler(config, 1.0);
  const Schedule plan = scheduler.schedule_batch(etc);
  const Individual planned = make_individual(plan, etc, FitnessWeights{});
  const Individual minmin =
      make_individual(min_min(etc), etc, FitnessWeights{});
  EXPECT_LE(planned.fitness, minmin.fitness + 1e-9);
}

TEST(BatchSchedulers, SingleJobBatchShortcut) {
  EtcMatrix etc(1, 3, {30, 10, 20});
  CmaConfig cma_config;
  cma_config.stop = StopCondition{.max_evaluations = 10};
  CmaBatchScheduler scheduler(cma_config, 5.0);
  const Schedule s = scheduler.schedule_batch(etc);
  EXPECT_EQ(s[0], 1);  // MCT: minimum completion time machine
}

}  // namespace
}  // namespace gridsched
