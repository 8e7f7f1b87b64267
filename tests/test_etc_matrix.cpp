#include "etc/etc_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace gridsched {
namespace {

TEST(EtcMatrix, ConstructsZeroed) {
  EtcMatrix etc(3, 2);
  EXPECT_EQ(etc.num_jobs(), 3);
  EXPECT_EQ(etc.num_machines(), 2);
  for (JobId j = 0; j < 3; ++j) {
    for (MachineId m = 0; m < 2; ++m) EXPECT_EQ(etc(j, m), 0.0);
  }
  for (MachineId m = 0; m < 2; ++m) EXPECT_EQ(etc.ready_time(m), 0.0);
}

TEST(EtcMatrix, RejectsBadShape) {
  EXPECT_THROW(EtcMatrix(0, 3), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(3, 0), std::invalid_argument);
  EXPECT_THROW(EtcMatrix(-1, 2), std::invalid_argument);
}

TEST(EtcMatrix, FromValuesRowMajor) {
  EtcMatrix etc(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(etc(0, 0), 1.0);
  EXPECT_EQ(etc(0, 2), 3.0);
  EXPECT_EQ(etc(1, 0), 4.0);
  EXPECT_EQ(etc(1, 2), 6.0);
}

TEST(EtcMatrix, FromValuesRejectsWrongCount) {
  EXPECT_THROW(EtcMatrix(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(EtcMatrix, WriteThroughAccessor) {
  EtcMatrix etc(2, 2);
  etc.set(1, 0, 42.5);
  EXPECT_EQ(etc(1, 0), 42.5);
  EXPECT_EQ(etc(0, 0), 0.0);
}

TEST(EtcMatrix, RowSpanViewsCorrectSlice) {
  EtcMatrix etc(2, 3, {1, 2, 3, 4, 5, 6});
  const auto r1 = etc.row(1);
  ASSERT_EQ(r1.size(), 3u);
  EXPECT_EQ(r1[0], 4.0);
  EXPECT_EQ(r1[2], 6.0);
}

TEST(EtcMatrix, ReadyTimes) {
  EtcMatrix etc(2, 2);
  etc.set_ready_time(1, 7.25);
  EXPECT_EQ(etc.ready_time(0), 0.0);
  EXPECT_EQ(etc.ready_time(1), 7.25);
  EXPECT_EQ(etc.ready_times()[1], 7.25);
}

TEST(EtcMatrix, MeanAndMinRow) {
  EtcMatrix etc(2, 4, {2, 4, 6, 8, 5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(etc.mean_row(0), 5.0);
  EXPECT_DOUBLE_EQ(etc.min_row(0), 2.0);
  EXPECT_DOUBLE_EQ(etc.mean_row(1), 5.0);
  EXPECT_DOUBLE_EQ(etc.min_row(1), 5.0);
}

TEST(EtcMatrix, TotalSumsAllEntries) {
  EtcMatrix etc(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(etc.total(), 10.0);
}

TEST(EtcMatrix, MachineRowIsTheMatrixColumn) {
  EtcMatrix etc(3, 2, {1, 2, 3, 4, 5, 6});
  for (MachineId m = 0; m < 2; ++m) {
    const auto column = etc.machine_row(m);
    ASSERT_EQ(column.size(), 3u);
    for (JobId j = 0; j < 3; ++j) EXPECT_EQ(column[j], etc(j, m));
  }
}

TEST(EtcMatrix, SetKeepsMachineMajorMirrorCoherent) {
  // set() must write through to both layouts; a stale mirror would
  // silently skew every column reduction (LJFR-SJFR means, heat-maps).
  EtcMatrix etc(4, 3);
  etc.set(0, 2, 1.5);
  etc.set(3, 0, 2.5);
  etc.set(2, 1, 3.5);
  etc.set(2, 1, 4.5);  // overwrite
  for (MachineId m = 0; m < 3; ++m) {
    const auto column = etc.machine_row(m);
    for (JobId j = 0; j < 4; ++j) {
      EXPECT_EQ(column[j], etc(j, m)) << "job " << j << " machine " << m;
    }
  }
  EXPECT_EQ(etc(2, 1), 4.5);
}

// --- The lazily built (etc, job) column order behind sorted_column(). ---

/// ETCs from {1..3} x 0.5, so equal values within a column are common.
EtcMatrix tie_heavy_matrix(int jobs, int machines, std::uint64_t seed) {
  EtcMatrix etc(jobs, machines);
  Rng rng(seed);
  for (JobId j = 0; j < jobs; ++j) {
    for (MachineId m = 0; m < machines; ++m) {
      etc.set(j, m, 0.5 * static_cast<double>(rng.uniform_int(1, 3)));
    }
  }
  return etc;
}

/// Asserts every column of `etc`'s order is its jobs sorted by (etc, job),
/// each paired with its own ETC.
void expect_column_order(const EtcMatrix& etc) {
  for (MachineId m = 0; m < etc.num_machines(); ++m) {
    const EtcMatrix::SortedColumn column = etc.sorted_column(m);
    ASSERT_EQ(column.jobs.size(), static_cast<std::size_t>(etc.num_jobs()));
    ASSERT_EQ(column.etc.size(), column.jobs.size());
    std::vector<JobId> expected(column.jobs.size());
    for (JobId j = 0; j < etc.num_jobs(); ++j) expected[j] = j;
    std::sort(expected.begin(), expected.end(), [&](JobId a, JobId b) {
      return etc(a, m) != etc(b, m) ? etc(a, m) < etc(b, m) : a < b;
    });
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           column.jobs.begin()))
        << "machine " << m;
    for (std::size_t i = 0; i < column.jobs.size(); ++i) {
      ASSERT_EQ(column.etc[i], etc(column.jobs[i], m)) << "machine " << m;
    }
  }
}

TEST(EtcMatrix, SortedColumnOrdersByEtcThenJob) {
  const EtcMatrix etc = tie_heavy_matrix(40, 5, 3);
  expect_column_order(etc);
  // Ties really occur, and equal ETCs come out by ascending job id.
  const EtcMatrix::SortedColumn column = etc.sorted_column(0);
  int ties = 0;
  for (std::size_t i = 1; i < column.jobs.size(); ++i) {
    if (column.etc[i] == column.etc[i - 1]) {
      ++ties;
      EXPECT_LT(column.jobs[i - 1], column.jobs[i]);
    }
  }
  EXPECT_GT(ties, 0);
}

TEST(EtcMatrix, SetAfterFirstUseRebuildsTheOrder) {
  EtcMatrix etc = tie_heavy_matrix(30, 4, 4);
  expect_column_order(etc);
  // Reverse one column and nudge an entry of another; the next read must
  // reflect both.
  for (JobId j = 0; j < 30; ++j) etc.set(j, 2, 100.0 - j);
  etc.set(7, 1, -1.0);
  expect_column_order(etc);
  EXPECT_EQ(etc.sorted_column(2).jobs.front(), 29);
  EXPECT_EQ(etc.sorted_column(1).jobs.front(), 7);
}

TEST(EtcMatrix, CopiesNeverShareAnOrder) {
  // Copy before and after the source's order is built, by construction
  // and by assignment; mutating either side must leave the other's order
  // describing its own values.
  for (const bool built_before_copy : {false, true}) {
    EtcMatrix original = tie_heavy_matrix(25, 3, 5);
    if (built_before_copy) (void)original.sorted_column(0);
    EtcMatrix copy(original);
    EtcMatrix assigned(2, 2);
    (void)assigned.sorted_column(0);
    assigned = original;
    expect_column_order(copy);
    expect_column_order(assigned);
    for (JobId j = 0; j < 25; ++j) copy.set(j, 0, 50.0 - j);
    for (JobId j = 0; j < 25; ++j) assigned.set(j, 1, 60.0 - j);
    original.set(0, 2, 99.0);
    expect_column_order(original);
    expect_column_order(copy);
    expect_column_order(assigned);
    EXPECT_EQ(copy.sorted_column(0).jobs.front(), 24);
    EXPECT_EQ(assigned.sorted_column(1).jobs.front(), 24);
    EXPECT_EQ(original.sorted_column(2).jobs.back(), 0);
  }
}

TEST(EtcMatrix, ConcurrentFirstUseBuildsOneOrder) {
  // Four readers race to the first sorted_column() call; all must see one
  // build — the same storage and the same order.
  const EtcMatrix etc = tie_heavy_matrix(200, 6, 6);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<JobId>> orders(kThreads);
  std::vector<const JobId*> storage(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&etc, &orders, &storage, t] {
      for (MachineId m = 0; m < etc.num_machines(); ++m) {
        const auto jobs = etc.sorted_column(m).jobs;
        orders[t].insert(orders[t].end(), jobs.begin(), jobs.end());
      }
      storage[t] = etc.sorted_column(0).jobs.data();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(orders[t], orders[0]) << "thread " << t;
    EXPECT_EQ(storage[t], storage[0]) << "thread " << t;
  }
  expect_column_order(etc);
}

}  // namespace
}  // namespace gridsched
