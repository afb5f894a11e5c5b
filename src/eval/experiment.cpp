#include "eval/experiment.hpp"

#include "eval/metrics.hpp"
#include "flowsim/fluid_network.hpp"
#include "mpi/measurement.hpp"
#include "sim/rate_model.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace bwshare::eval {

SchemeComparison compare_scheme(const graph::CommGraph& scheme,
                                const topo::ClusterSpec& cluster,
                                const models::PenaltyModel& model) {
  SchemeComparison out;

  const flowsim::FluidRateProvider measured_provider(cluster.network());
  out.measured = mpi::measure_times(scheme, cluster, measured_provider);

  // Wrap the model in a non-owning shared_ptr: the provider only lives for
  // this call.
  const std::shared_ptr<const models::PenaltyModel> alias(
      std::shared_ptr<const models::PenaltyModel>{}, &model);
  const sim::ModelRateProvider predicted_provider(alias, cluster.network());
  out.predicted = mpi::measure_times(scheme, cluster, predicted_provider);

  out.erel = relative_errors(out.predicted, out.measured);
  out.eabs = mean_absolute_error(out.predicted, out.measured);
  return out;
}

ApplicationComparisonDetailed compare_application_detailed(
    const sim::AppTrace& trace, const topo::ClusterSpec& cluster,
    sim::SchedulingPolicy policy, const models::PenaltyModel& model,
    uint64_t seed, const sim::Scenario& scenario,
    const ReplayConfig& config) {
  ApplicationComparisonDetailed out;
  ApplicationComparison& summary = out.summary;
  summary.placement =
      sim::make_placement(policy, cluster, trace.num_tasks(), seed);

  // Both replays default to the engine's defaults: incremental
  // component-scoped refresh and the event-core finish-time heap
  // (docs/PERFORMANCE.md) — sweep grids over large clusters would otherwise
  // spend nearly all their time in full per-event re-solves and
  // next-completion scans.
  const flowsim::FluidRateProvider measured_provider(cluster.network());
  auto measured = std::make_shared<sim::SimResult>(
      sim::run_simulation(trace, cluster, summary.placement,
                          measured_provider, scenario, config.measured));

  const std::shared_ptr<const models::PenaltyModel> alias(
      std::shared_ptr<const models::PenaltyModel>{}, &model);
  const sim::ModelRateProvider predicted_provider(alias, cluster.network());
  auto predicted = std::make_shared<sim::SimResult>(
      sim::run_simulation(trace, cluster, summary.placement,
                          predicted_provider, scenario, config.predicted));

  summary.measured_makespan = measured->makespan;
  summary.predicted_makespan = predicted->makespan;

  summary.tasks.resize(static_cast<size_t>(trace.num_tasks()));
  stats::Accumulator acc;
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t) {
    auto& tc = summary.tasks[static_cast<size_t>(t)];
    tc.sum_measured = measured->task_comm_time(t);
    tc.sum_predicted = predicted->task_comm_time(t);
    if (tc.sum_measured > 0.0) {
      tc.eabs = task_absolute_error(tc.sum_predicted, tc.sum_measured);
      acc.add(tc.eabs);
    }
  }
  summary.mean_eabs = acc.mean();
  out.measured = std::move(measured);
  out.predicted = std::move(predicted);
  return out;
}

}  // namespace bwshare::eval
