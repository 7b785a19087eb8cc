// Unit tests of the benchmark's own arithmetic (perfbench/metrics.hpp).
// Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <vector>

#include "metrics.hpp"

namespace {

using perfbench::JobOutcome;

std::vector<double> oneTo(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
  return samples;
}

TEST(TailRule, P99NeedsAThousandSamplesForTenBeyond) {
  EXPECT_EQ(perfbench::nearestRank(1000, 0.99), 990u);
  EXPECT_EQ(perfbench::samplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(perfbench::tailSupported(1000, 0.99));
  EXPECT_EQ(perfbench::samplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(perfbench::tailSupported(999, 0.99));
  EXPECT_TRUE(perfbench::tailSupported(100, 0.90));
  EXPECT_FALSE(perfbench::tailSupported(99, 0.90));
  EXPECT_FALSE(perfbench::tailSupported(0, 0.5));
}

TEST(TailRule, NearestRank) {
  EXPECT_EQ(perfbench::nearestRank(10, 0.5), 5u);
  EXPECT_EQ(perfbench::nearestRank(10, 1.0), 10u);
  EXPECT_EQ(perfbench::nearestRank(3, 0.01), 1u);  // never below rank 1
  EXPECT_EQ(perfbench::nearestRank(0, 0.5), 0u);
}

TEST(TailRule, ReportsTheHighestSupportedPercentile) {
  const auto full = perfbench::supportedTail(oneTo(2000), 0.99);
  EXPECT_EQ(full.value, 1980.0);
  EXPECT_DOUBLE_EQ(full.quantile, 0.99);
  const auto short_run = perfbench::supportedTail(oneTo(80), 0.99);
  EXPECT_EQ(short_run.value, 70.0);  // ten samples (71..80) beyond it
  EXPECT_DOUBLE_EQ(short_run.quantile, 70.0 / 80.0);
  const auto tiny = perfbench::supportedTail(oneTo(7), 0.99);
  EXPECT_EQ(tiny.value, 7.0);
  EXPECT_DOUBLE_EQ(tiny.quantile, 1.0);
  EXPECT_EQ(perfbench::supportedTail({7.0, 3.0, 5.0, 9.0, 1.0, 2.0, 8.0, 4.0,
                                      6.0, 10.0, 11.0, 12.0},
                                     0.99)
                .value,
            2.0);  // unsorted input: rank 2 of 12
  EXPECT_EQ(perfbench::supportedTail({}, 0.99).value, 0.0);
}

TEST(TailRule, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(FailedShare, RefusedFailedAndMismatchedJobsAllCount) {
  perfbench::JobTally tally;
  tally.add(perfbench::classifyJob(0, "done", true));
  tally.add(perfbench::classifyJob(0, "done", true));
  tally.add(perfbench::classifyJob(-32000, "", false));     // busy: refused
  tally.add(perfbench::classifyJob(-32602, "", false));     // bad params
  tally.add(perfbench::classifyJob(0, "failed", false));    // job failed
  tally.add(perfbench::classifyJob(0, "cancelled", false));
  tally.add(perfbench::classifyJob(0, "done", false));      // wrong stats
  EXPECT_EQ(tally.attempted, 7u);
  EXPECT_EQ(tally.refused, 1u);
  EXPECT_EQ(tally.failed, 3u);
  EXPECT_EQ(tally.mismatched, 1u);
  EXPECT_EQ(tally.failures(), 5u);
  EXPECT_DOUBLE_EQ(tally.failedShare(), 5.0 / 7.0);
}

TEST(FailedShare, ClassifiesEachOutcome) {
  EXPECT_EQ(perfbench::classifyJob(0, "done", true), JobOutcome::kDone);
  EXPECT_EQ(perfbench::classifyJob(perfbench::kBusyErrorCode, "done", true),
            JobOutcome::kRefused);
  EXPECT_EQ(perfbench::classifyJob(-32603, "done", true), JobOutcome::kFailed);
  EXPECT_EQ(perfbench::classifyJob(0, "done", false), JobOutcome::kMismatched);
  EXPECT_EQ(perfbench::JobTally{}.failedShare(), 0.0);
}

TEST(SpanSelfTime, SubtractsDirectChildrenOnce) {
  perfbench::SpanLog log;
  const auto root = log.add({"trial", 1, 0, 100, -1, 0});
  const auto a = log.add({"a", 1, 10, 40, root, 0});
  log.add({"b", 1, 30, 60, root, 0});         // overlaps a: union 10..60
  log.add({"a.child", 1, 15, 25, a, 0});      // grandchild: only a's
  const auto self = log.selfTimes();
  EXPECT_EQ(self[0], 100 - 50);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
}

TEST(SpanSelfTime, ClipsChildrenToTheParent) {
  perfbench::SpanLog log;
  const auto root = log.add({"engine", 1, 100, 200, -1, 0});
  log.add({"meet_time", 1, 150, 260, root, 0});  // reaches past the end
  log.add({"early", 1, 50, 110, root, 0});       // starts before
  const auto self = log.selfTimes();
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(SpanSelfTime, AppendRebasesParentsAndTotalsByName) {
  perfbench::SpanLog task;
  const auto trial = task.add({"sim.trial", 7, 0, 10, -1, 5});
  task.add({"core.engine", 7, 2, 6, trial, 3});
  perfbench::SpanLog log;
  const auto batch = log.add({"sim.batch", 0, 0, 20, -1, 1});
  log.append(task, batch);
  log.append(task, batch);
  EXPECT_EQ(log.spans()[2].parent, 1);
  EXPECT_EQ(log.spans()[4].parent, 3);
  const auto totals = perfbench::totalsByName(log);
  EXPECT_EQ(totals.at("sim.trial").spans, 2u);
  EXPECT_EQ(totals.at("sim.trial").count, 10u);
  EXPECT_DOUBLE_EQ(totals.at("sim.trial").self_seconds, 12e-9);
  EXPECT_DOUBLE_EQ(totals.at("sim.batch").self_seconds, 10e-9);
  EXPECT_DOUBLE_EQ(totals.at("core.engine").seconds, 8e-9);
}

}  // namespace
