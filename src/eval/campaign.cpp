#include "eval/campaign.hpp"

#include <utility>

#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare::eval {

std::string to_string(Objective objective) {
  switch (objective) {
    case Objective::kMeasuredSeconds: return "measured";
    case Objective::kPredictedSeconds: return "predicted";
    case Objective::kEabsPct: return "eabs";
  }
  return "?";
}

Objective objective_from_string(const std::string& name) {
  if (name == "measured") return Objective::kMeasuredSeconds;
  if (name == "predicted") return Objective::kPredictedSeconds;
  if (name == "eabs") return Objective::kEabsPct;
  BWS_THROW("unknown campaign objective '" + name +
            "' (expected measured, predicted or eabs)");
}

void CampaignSpec::validate(bool require_workloads) const {
  if (require_workloads) {
    grid.validate();
  } else {
    grid.validate_axes();
  }
  stop.validate();
  BWS_CHECK(batch >= 1,
            strformat("campaign: batch must be >= 1, got %d", batch));
}

uint64_t campaign_replicate_seed(uint64_t campaign_seed, size_t arm_index,
                                 int replicate) {
  // A salted counter stream per arm: three chained splitmix64 steps over
  // (seed, arm, replicate). Pure function of its inputs — replicate 7 of
  // arm 2 gets the same seed whether it runs in round 1 or round 4, on 1
  // thread or 64 — and arms never collide, so eliminating one arm can
  // never shift another arm's draws.
  uint64_t state = campaign_seed;
  uint64_t mixed = splitmix64(state);
  state = mixed ^ (static_cast<uint64_t>(arm_index) + 0x9e3779b97f4a7c15ULL);
  mixed = splitmix64(state);
  state = mixed ^ (static_cast<uint64_t>(replicate) + 0xbf58476d1ce4e5b9ULL);
  return splitmix64(state);
}

std::string CampaignArm::status() const {
  if (error) return "error";
  if (winner) return "winner";
  if (eliminated) return "eliminated";
  return "survivor";
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  spec_.validate(/*require_workloads=*/true);
  for (const auto& entry : spec_.grid.schemes) {
    workloads_.push_back(resolve_scheme_workload(entry));
  }
  for (const auto& entry : spec_.grid.traces) {
    workloads_.push_back(resolve_trace_workload(entry));
  }
  expand_arms();
}

Campaign::Campaign(CampaignSpec spec, std::vector<ResolvedWorkload> workloads)
    : spec_(std::move(spec)), workloads_(std::move(workloads)) {
  BWS_CHECK(spec_.grid.schemes.empty() && spec_.grid.traces.empty(),
            "campaign: grid workload entries and pre-resolved workloads are "
            "mutually exclusive");
  BWS_CHECK(!workloads_.empty(),
            "campaign: at least one pre-resolved workload is required");
  spec_.validate(/*require_workloads=*/false);
  expand_arms();
}

void Campaign::expand_arms() {
  // Arm order mirrors Sweep's documented job order with the seed axis
  // removed: workloads (schemes first, then traces) x networks x models x
  // shapes [x policies x churn_rates x background_loads, trace arms only].
  const auto expand = [this](bool traces) {
    for (size_t w = 0; w < workloads_.size(); ++w) {
      if (workloads_[w].is_trace() != traces) continue;
      for (const auto tech : spec_.grid.networks) {
        for (const auto& model : spec_.grid.models) {
          for (const auto& shape : spec_.grid.shapes) {
            if (!traces) {
              arms_.push_back({w, tech, model, shape,
                               sim::SchedulingPolicy::kRoundRobinNode, 0.0,
                               0.0});
              continue;
            }
            for (const auto policy : spec_.grid.policies) {
              for (const double churn : spec_.grid.churn_rates) {
                for (const double background : spec_.grid.background_loads) {
                  arms_.push_back(
                      {w, tech, model, shape, policy, churn, background});
                }
              }
            }
          }
        }
      }
    }
  };
  expand(false);
  expand(true);
}

size_t Campaign::exhaustive_replicates() const {
  return arms_.size() * static_cast<size_t>(spec_.stop.max_replicates);
}

namespace {

double objective_value(Objective objective, const SweepCell& cell) {
  switch (objective) {
    case Objective::kMeasuredSeconds: return cell.measured_s;
    case Objective::kPredictedSeconds: return cell.predicted_s;
    case Objective::kEabsPct: return cell.eabs_pct;
  }
  return 0.0;
}

}  // namespace

CampaignResult Campaign::run(int threads) const {
  stats::SequentialTest test(spec_.stop, arms_.size());

  CampaignResult result;
  result.arms.resize(arms_.size());
  result.exhaustive_replicates = exhaustive_replicates();
  result.objective = to_string(spec_.objective);

  // Per-arm bookkeeping outside the decision core: executed replicate
  // counts (error replays included) and the first error message.
  std::vector<int> executed(arms_.size(), 0);
  std::vector<bool> identity_filled(arms_.size(), false);

  struct RoundJob {
    size_t arm = 0;
    int replicate = 0;
  };
  std::vector<RoundJob> jobs;
  std::vector<SweepCell> cells;

  stats::SequentialStatus status = stats::SequentialStatus::kContinue;
  while (status == stats::SequentialStatus::kContinue) {
    // Plan the round serially: `batch` fresh replicates per surviving arm,
    // clipped to the per-arm budget. Replicate indices continue each arm's
    // own counter, so the seed stream never depends on round boundaries.
    jobs.clear();
    for (size_t a = 0; a < arms_.size(); ++a) {
      if (!test.arm(a).surviving()) continue;
      const int take = std::min(
          spec_.batch, spec_.stop.max_replicates - executed[a]);
      for (int r = 0; r < take; ++r) {
        jobs.push_back({a, executed[a] + r});
      }
    }

    if (!jobs.empty()) {
      cells.assign(jobs.size(), SweepCell{});
      const auto run_job = [this, &jobs, &cells](int index) {
        const RoundJob& rj = jobs[static_cast<size_t>(index)];
        const Arm& arm = arms_[rj.arm];
        CellJob cj;
        cj.workload = &workloads_[arm.workload];
        cj.tech = arm.tech;
        cj.model = arm.model;
        cj.shape = arm.shape;
        cj.policy = arm.policy;
        cj.churn = arm.churn;
        cj.background = arm.background;
        cj.seed = campaign_replicate_seed(spec_.seed, rj.arm, rj.replicate);
        cells[static_cast<size_t>(index)] = run_cell(cj);
      };
      util::parallel_for(threads, static_cast<int>(jobs.size()), run_job);

      // Ingest serially in job (= arm, replicate) order: sample order, arm
      // identities and error verdicts are thread-count independent.
      for (size_t k = 0; k < jobs.size(); ++k) {
        const size_t a = jobs[k].arm;
        const SweepCell& cell = cells[k];
        ++executed[a];
        ++result.total_replicates;
        if (!identity_filled[a]) {
          identity_filled[a] = true;
          CampaignArm& out = result.arms[a];
          out.kind = cell.kind;
          out.workload = cell.workload;
          out.network = cell.network;
          out.policy = cell.policy;
          out.churn_rate = cell.churn_rate;
          out.background_load = cell.background_load;
          // An errored replicate may die before resolving its model or
          // materializing the cluster — fall back to the axis values.
          out.model = cell.model.empty() ? arms_[a].model : cell.model;
          out.nodes = cell.nodes > 0 ? cell.nodes : arms_[a].shape.nodes;
          out.cores = cell.cores > 0 ? cell.cores : arms_[a].shape.cores;
        }
        if (!test.arm(a).surviving()) continue;  // errored earlier this round
        if (cell.ok) {
          test.add_sample(a, objective_value(spec_.objective, cell));
        } else {
          result.arms[a].error_msg = cell.error;
          test.mark_error(a);
        }
      }
    }

    status = test.finish_round();
  }

  result.rounds = test.rounds();
  result.stopped_by = stats::to_string(status);
  result.winner = test.leader();

  for (size_t a = 0; a < arms_.size(); ++a) {
    const auto& arm_state = test.arm(a);
    CampaignArm& out = result.arms[a];
    out.replicates = executed[a];
    out.eliminated = arm_state.eliminated;
    out.error = arm_state.error;
    out.out_round = arm_state.out_round;
    out.winner = static_cast<int>(a) == result.winner;
    if (arm_state.has_ci) {
      out.mean = arm_state.ci.point;
      out.ci_low = arm_state.ci.low;
      out.ci_high = arm_state.ci.high;
    }
  }
  return result;
}

double CampaignResult::savings_factor() const {
  if (total_replicates == 0) return 0.0;
  return static_cast<double>(exhaustive_replicates) /
         static_cast<double>(total_replicates);
}

namespace {

TextTable arms_table(const std::vector<CampaignArm>& arms) {
  TextTable csv({"arm", "kind", "workload", "network", "model", "nodes",
                 "cores", "policy", "churn_rate", "background_load",
                 "replicates", "mean", "ci_low", "ci_high", "out_round",
                 "status", "error"});
  for (size_t i = 0; i < arms.size(); ++i) {
    const auto& arm = arms[i];
    csv.add_row({strformat("%zu", i), arm.kind, arm.workload, arm.network,
                 arm.model, strformat("%d", arm.nodes),
                 strformat("%d", arm.cores), arm.policy,
                 util::format_fixed(arm.churn_rate, 3),
                 util::format_fixed(arm.background_load, 3),
                 strformat("%d", arm.replicates),
                 util::format_fixed(arm.mean, 6),
                 util::format_fixed(arm.ci_low, 6),
                 util::format_fixed(arm.ci_high, 6),
                 strformat("%d", arm.out_round), arm.status(),
                 arm.error_msg});
  }
  return csv;
}

}  // namespace

std::string CampaignResult::to_csv() const {
  return arms_table(arms).to_csv();
}

std::string CampaignResult::to_json() const {
  std::string summary = "{";
  summary += "\"objective\": \"" + util::json_escape(objective) + "\"";
  summary += ", \"stopped_by\": \"" + util::json_escape(stopped_by) + "\"";
  summary += strformat(", \"rounds\": %d", rounds);
  summary += strformat(", \"total_replicates\": %zu", total_replicates);
  summary += strformat(", \"exhaustive_replicates\": %zu",
                       exhaustive_replicates);
  summary += ", \"savings_factor\": " + util::format_fixed(savings_factor(), 3);
  summary += strformat(", \"winner\": %d", winner);
  summary += "}";
  return "{\n\"summary\": " + summary +
         ",\n\"arms\": " + util::rows_to_json(arms_table(arms)) + "\n}\n";
}

}  // namespace bwshare::eval
