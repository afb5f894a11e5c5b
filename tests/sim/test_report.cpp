#include "sim/report.hpp"

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"

namespace bwshare::sim {
namespace {

SimResult sample_result() {
  AppTrace trace(3);
  trace.push(0, Event::compute(0.1));
  trace.push(0, Event::send(1, 20e6));
  trace.push(1, Event::recv(0, 20e6));
  trace.push(2, Event::send(1, 20e6));
  trace.push(1, Event::recv(2, 20e6));
  trace.push_barrier_all();
  const auto cluster = topo::ClusterSpec::uniform(
      "t", 3, 2, topo::gigabit_ethernet_calibration());
  const Placement placement({0, 1, 2});
  const flowsim::FluidRateProvider provider(cluster.network());
  return run_simulation(trace, cluster, placement, provider);
}

TEST(Report, TaskTableListsEveryTask) {
  const auto result = sample_result();
  const std::string table = render_task_table(result);
  EXPECT_NE(table.find("task"), std::string::npos);
  EXPECT_NE(table.find("send-blk"), std::string::npos);
  // Three task rows (0, 1, 2).
  EXPECT_NE(table.find("\n"), std::string::npos);
  int lines = 0;
  for (char c : table)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 2 + 3);  // header + underline + 3 rows
}

TEST(Report, SummaryMentionsKeyQuantities) {
  const auto result = sample_result();
  const std::string summary = render_summary(result);
  EXPECT_NE(summary.find("makespan"), std::string::npos);
  EXPECT_NE(summary.find("2 communications"), std::string::npos);
  EXPECT_NE(summary.find("average penalty"), std::string::npos);
}

TEST(Report, SummaryCountsAbortsAndBackgroundFlowsOnlyWhenPresent) {
  auto result = sample_result();
  const std::string plain = render_summary(result);
  EXPECT_EQ(plain.find("aborted"), std::string::npos);
  EXPECT_EQ(plain.find("background"), std::string::npos);

  result.aborted_comms = 2;
  result.background_comms = 3;
  result.background_skipped = 1;
  const std::string churned = render_summary(result);
  EXPECT_EQ(churned.rfind(plain, 0), 0u);  // the counts are appended
  EXPECT_NE(churned.find(", 2 aborted by failures"), std::string::npos);
  EXPECT_NE(churned.find(", 3 background flows (1 skipped)"),
            std::string::npos);

  // Flows that were all skipped still show up.
  result.aborted_comms = 0;
  result.background_comms = 0;
  result.background_skipped = 4;
  const std::string skipped = render_summary(result);
  EXPECT_EQ(skipped.find("aborted"), std::string::npos);
  EXPECT_NE(skipped.find(", 0 background flows (4 skipped)"),
            std::string::npos);
}

TEST(Report, AveragePenaltyOfEmptyResultIsOne) {
  SimResult empty;
  EXPECT_DOUBLE_EQ(empty.average_penalty(), 1.0);
}

}  // namespace
}  // namespace bwshare::sim
