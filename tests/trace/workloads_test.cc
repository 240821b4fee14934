#include "trace/workloads.h"

#include <unordered_map>

#include <gtest/gtest.h>

namespace flex::trace {
namespace {

class WorkloadSweep : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadSweep, MatchesDeclaredReadFraction) {
  const WorkloadParams params = workload_params(GetParam());
  const auto trace = generate(params, 1);
  const TraceSummary s = summarize(trace);
  EXPECT_EQ(s.requests, params.requests);
  EXPECT_NEAR(s.read_fraction(), params.read_fraction, 0.01) << params.name;
}

TEST_P(WorkloadSweep, StaysWithinFootprint) {
  const WorkloadParams params = workload_params(GetParam());
  const auto trace = generate(params, 2);
  for (const auto& req : trace) {
    EXPECT_LE(req.lpn + req.pages, params.footprint_pages);
    EXPECT_GE(req.pages, 1u);
    EXPECT_LE(req.pages, params.max_request_pages);
  }
}

TEST_P(WorkloadSweep, ArrivalsAreMonotone) {
  const WorkloadParams params = workload_params(GetParam());
  const auto trace = generate(params, 3);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
}

TEST_P(WorkloadSweep, Deterministic) {
  const WorkloadParams params = workload_params(GetParam());
  EXPECT_EQ(generate(params, 7), generate(params, 7));
  EXPECT_NE(generate(params, 7), generate(params, 8));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSweep,
                         ::testing::ValuesIn(kAllWorkloads));

TEST(WorkloadsTest, NamesMatchPaper) {
  EXPECT_EQ(workload_name(Workload::kFin2), "fin-2");
  EXPECT_EQ(workload_name(Workload::kWeb1), "web-1");
  EXPECT_EQ(workload_name(Workload::kPrj2), "prj-2");
  EXPECT_EQ(workload_name(Workload::kWin2), "win-2");
}

TEST(WorkloadsTest, ReadsAreSkewed) {
  const WorkloadParams params = workload_params(Workload::kFin2);
  const auto trace = generate(params, 4);
  std::unordered_map<std::uint64_t, int> read_counts;
  std::uint64_t reads = 0;
  for (const auto& req : trace) {
    if (!req.is_write) {
      ++read_counts[req.lpn];
      ++reads;
    }
  }
  // Hot set: pages covering the top of the popularity distribution should
  // absorb a large share of reads. Count reads landing on the 1% most-read
  // pages.
  std::vector<int> counts;
  counts.reserve(read_counts.size());
  for (const auto& [lpn, count] : read_counts) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t hot_reads = 0;
  const std::size_t hot_pages = std::max<std::size_t>(counts.size() / 100, 1);
  for (std::size_t i = 0; i < hot_pages; ++i) {
    hot_reads += static_cast<std::uint64_t>(counts[i]);
  }
  EXPECT_GT(static_cast<double>(hot_reads) / reads, 0.2);
}

TEST(WorkloadsDeathTest, GenerateRejectsRequestsBeyondSixteenBitPages) {
  WorkloadParams params = workload_params(Workload::kWeb1);
  params.requests = 100;
  params.max_request_pages = kMaxRequestPages;
  EXPECT_EQ(generate(params, 7).size(), 100u);
  params.max_request_pages = kMaxRequestPages + 1;
  EXPECT_DEATH((void)generate(params, 7), "precondition");
}

TEST(WorkloadsTest, WebIsReadHeavierThanPrj) {
  const auto web = summarize(generate(workload_params(Workload::kWeb1), 5));
  const auto prj = summarize(generate(workload_params(Workload::kPrj1), 5));
  EXPECT_GT(web.read_fraction(), prj.read_fraction());
}

TEST(WorkloadsTest, SequentialRunsExist) {
  const auto params = workload_params(Workload::kPrj1);
  const auto trace = generate(params, 6);
  int sequential = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].lpn == trace[i - 1].lpn + trace[i - 1].pages) ++sequential;
  }
  EXPECT_GT(sequential, static_cast<int>(trace.size() / 50));
}

}  // namespace
}  // namespace flex::trace
