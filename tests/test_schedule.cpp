#include "core/schedule.h"

#include <gtest/gtest.h>

namespace gridsched {
namespace {

TEST(Schedule, DefaultFillIsUnassigned) {
  Schedule s(4);
  EXPECT_EQ(s.num_jobs(), 4);
  for (JobId j = 0; j < 4; ++j) EXPECT_EQ(s[j], -1);
  EXPECT_FALSE(s.complete(8));
}

TEST(Schedule, CompleteRequiresAllGenesInRange) {
  Schedule s(3, 0);
  EXPECT_TRUE(s.complete(1));
  s[1] = 2;
  EXPECT_FALSE(s.complete(2));
  EXPECT_TRUE(s.complete(3));
}

TEST(Schedule, EmptyScheduleIsNotComplete) {
  Schedule s;
  EXPECT_FALSE(s.complete(4));
  EXPECT_FALSE(s.assigned(4));
}

TEST(Schedule, AssignedExcludesRejectedGenes) {
  // complete() admits admission control's kRejected; assigned() — what an
  // evaluator can score — does not.
  Schedule s(3, 1);
  EXPECT_TRUE(s.assigned(2));
  EXPECT_FALSE(s.assigned(1));
  s[2] = Schedule::kRejected;
  EXPECT_TRUE(s.complete(2));
  EXPECT_FALSE(s.assigned(2));
}

TEST(Schedule, HammingDistance) {
  Schedule a(5, 0);
  Schedule b(5, 0);
  EXPECT_EQ(a.hamming_distance(b), 0);
  b[0] = 1;
  b[4] = 3;
  EXPECT_EQ(a.hamming_distance(b), 2);
  EXPECT_EQ(b.hamming_distance(a), 2);
}

TEST(Schedule, EqualityComparesGenes) {
  Schedule a(3, 1);
  Schedule b(3, 1);
  EXPECT_EQ(a, b);
  b[2] = 0;
  EXPECT_NE(a, b);
}

TEST(Schedule, RandomIsCompleteAndSpread) {
  Rng rng(5);
  const Schedule s = Schedule::random(1000, 7, rng);
  EXPECT_TRUE(s.complete(7));
  // All 7 machines should be used with ~143 jobs each.
  std::vector<int> counts(7, 0);
  for (JobId j = 0; j < 1000; ++j) ++counts[static_cast<std::size_t>(s[j])];
  for (int c : counts) EXPECT_GT(c, 80);
}

TEST(Schedule, RandomDeterministicInSeed) {
  Rng a(9);
  Rng b(9);
  EXPECT_EQ(Schedule::random(64, 4, a), Schedule::random(64, 4, b));
}

TEST(Schedule, PerturbZeroRateIsIdentity) {
  Rng rng(3);
  Schedule s = Schedule::random(50, 5, rng);
  Schedule copy = s;
  s.perturb(0.0, 5, rng);
  EXPECT_EQ(s, copy);
}

TEST(Schedule, PerturbFullRateRandomizesKeepingValidity) {
  Rng rng(3);
  Schedule s = Schedule::random(200, 5, rng);
  Schedule copy = s;
  s.perturb(1.0, 5, rng);
  EXPECT_TRUE(s.complete(5));
  // With 5 machines ~20% of re-rolled genes coincide by chance.
  EXPECT_GT(s.hamming_distance(copy), 100);
}

TEST(Schedule, PerturbHalfRateChangesRoughlyHalf) {
  Rng rng(11);
  Schedule s = Schedule::random(1000, 16, rng);
  Schedule copy = s;
  s.perturb(0.5, 16, rng);
  const int d = s.hamming_distance(copy);
  // Expected changed fraction = 0.5 * 15/16 ~ 0.47.
  EXPECT_GT(d, 380);
  EXPECT_LT(d, 560);
}

TEST(Schedule, GenesSpanMatchesOperator) {
  Schedule s(3, 2);
  s[1] = 0;
  const auto genes = s.genes();
  ASSERT_EQ(genes.size(), 3u);
  EXPECT_EQ(genes[0], 2);
  EXPECT_EQ(genes[1], 0);
  EXPECT_EQ(genes[2], 2);
}

}  // namespace
}  // namespace gridsched
