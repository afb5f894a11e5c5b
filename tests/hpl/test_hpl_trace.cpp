#include "hpl/hpl_trace.hpp"

#include <gtest/gtest.h>

#include "hpl/lu.hpp"
#include "util/error.hpp"

namespace bwshare::hpl {
namespace {

HplParams small_params() {
  HplParams p;
  p.n = 960;
  p.nb = 120;
  p.tasks = 4;
  p.flops_per_second = 3.2e9;
  return p;
}

TEST(HplTrace, ValidatesAndHasRingStructure) {
  const auto params = small_params();
  const auto trace = make_hpl_trace(params);
  EXPECT_EQ(trace.num_tasks(), 4);
  // Every send goes to rank+1 (mod P): the paper's §VI-D scheme.
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t)
    for (const auto& e : trace.program(t))
      if (e.kind == sim::EventKind::kSend) {
        EXPECT_EQ(e.peer, (t + 1) % params.tasks);
      }
}

TEST(HplTrace, PanelCountAndSizes) {
  const auto params = small_params();
  EXPECT_EQ(num_panels(params), 8);  // 960 / 120
  // First panel carries the full column height; sizes shrink by NB rows.
  EXPECT_DOUBLE_EQ(panel_bytes(params, 0), 960.0 * 120 * 8);
  EXPECT_DOUBLE_EQ(panel_bytes(params, 1), 840.0 * 120 * 8);
  EXPECT_DOUBLE_EQ(panel_bytes(params, 7), 120.0 * 120 * 8);
}

TEST(HplTrace, RingCarriesEveryPanelToEveryTask) {
  const auto params = small_params();
  const auto trace = make_hpl_trace(params);
  // Each panel triggers P-1 messages; total sends = panels * (P-1).
  int sends = 0;
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t)
    for (const auto& e : trace.program(t))
      if (e.kind == sim::EventKind::kSend) ++sends;
  EXPECT_EQ(sends, num_panels(params) * (params.tasks - 1));
  // The engine pre-sizes a replay's records with this running count.
  EXPECT_EQ(trace.total_sends(), static_cast<size_t>(sends));
}

TEST(HplTrace, ComputeTimeMatchesFlopModel) {
  const auto params = small_params();
  const auto trace = make_hpl_trace(params);
  double compute_total = trace.total_compute_seconds();
  // Panel + update flops summed over iterations, then scaled: updates are
  // counted once per task (each task updates 1/P of the trailing matrix).
  double expected = 0.0;
  for (int k = 0; k < num_panels(params); ++k) {
    const double m = params.n - k * params.nb;
    const double nb = std::min(params.nb, params.n - k * params.nb);
    expected += panel_flops(m, nb);
    expected +=
        params.tasks * update_flops(m - nb, (m - nb) / params.tasks, nb);
  }
  EXPECT_NEAR(compute_total, expected / params.flops_per_second, 1e-9);
}

TEST(HplTrace, MaxPanelsTruncates) {
  auto params = small_params();
  params.max_panels = 3;
  EXPECT_EQ(num_panels(params), 3);
  const auto trace = make_hpl_trace(params);
  int sends = 0;
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t)
    for (const auto& e : trace.program(t))
      if (e.kind == sim::EventKind::kSend) ++sends;
  EXPECT_EQ(sends, 3 * (params.tasks - 1));
}

TEST(HplTrace, BarrierPerIteration) {
  auto params = small_params();
  params.barrier_per_iteration = true;
  const auto trace = make_hpl_trace(params);
  int barriers = 0;
  for (const auto& e : trace.program(0))
    if (e.kind == sim::EventKind::kBarrier) ++barriers;
  EXPECT_EQ(barriers, num_panels(params));
}

TEST(HplTrace, Paper20500Configuration) {
  HplParams params;
  params.n = 20500;
  params.nb = 120;
  params.tasks = 16;
  EXPECT_EQ(num_panels(params), 171);  // ceil(20500/120)
  // First panel ~ 19.7 MB: the large-message regime the models target.
  EXPECT_NEAR(panel_bytes(params, 0), 20500.0 * 120 * 8, 1.0);
  params.max_panels = 4;
  const auto trace = make_hpl_trace(params);
  EXPECT_EQ(trace.num_tasks(), 16);
}

TEST(HplTrace, Validation) {
  HplParams bad;
  bad.tasks = 1;
  EXPECT_THROW(make_hpl_trace(bad), Error);
  bad = HplParams{};
  bad.nb = 0;
  EXPECT_THROW(make_hpl_trace(bad), Error);
}

}  // namespace
}  // namespace bwshare::hpl
