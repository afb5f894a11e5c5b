// Adaptive Monte-Carlo campaigns: sequential sampling with early stopping
// over eval::Sweep's cell executor — the paper's "which interconnect /
// topology / schedule wins for this workload?" question answered from as
// few replays as statistical confidence allows, instead of running every
// grid cell to completion on a fixed seed list.
//
// A Campaign expands the non-seed axes of a SweepSpec into candidate
// *arms* (one arm per cell of eval::expand_cells, the expansion Sweep
// uses), then draws seeded replicates
// per arm in rounds, each round one util::parallel_for. After every round
// each arm's objective samples go through stats::bootstrap_ci and the
// configured stats::StoppingRule decides whether to keep sampling,
// eliminate hopeless arms (kCutoff), or stop (see stats/sequential.hpp for
// rule semantics).
//
// Determinism contract (same as Sweep, enforced by
// tests/eval/test_campaign.cpp): replicate r of arm a runs with a seed
// drawn from a per-arm salted counter stream — a pure function of
// (campaign seed, arm index, r) — and every decision is taken serially in
// arm order from slot-written results, so the report (CSV and JSON
// included) is byte-identical at any thread count and any round
// interleaving.
//
// An arm whose replicate fails is recorded status=error and leaves the
// pool immediately; it never aborts the campaign (the PR 2 sweep-error
// contract, lifted to arms).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/sweep.hpp"
#include "stats/sequential.hpp"

namespace bwshare::eval {

/// What a replicate contributes as the arm's objective sample. Campaigns
/// always minimize.
enum class Objective {
  kMeasuredSeconds,   // substrate makespan / summed comm time — "which
                      // candidate is fastest?" (the advisor question)
  kPredictedSeconds,  // model-predicted makespan
  kEabsPct,           // model error — "which model fits best?"
};

[[nodiscard]] std::string to_string(Objective objective);
/// Accepts "measured", "predicted", "eabs"; throws bwshare::Error.
[[nodiscard]] Objective objective_from_string(const std::string& name);

struct CampaignSpec {
  /// Arm axes: workloads x networks x models x shapes [x policies x
  /// churn_rates x background_loads, trace arms only] — exactly Sweep's
  /// grid minus the seed axis, which replicate streams replace
  /// (grid.seeds is ignored).
  SweepSpec grid;
  /// Stopping rule, tolerance/confidence, min/max replicates per arm and
  /// bootstrap parameters (stats/sequential.hpp).
  stats::SequentialConfig stop;
  /// Replicates drawn per surviving arm per round.
  int batch = 8;
  /// Campaign seed: the root of every per-arm replicate seed stream.
  uint64_t seed = 42;
  Objective objective = Objective::kMeasuredSeconds;

  /// Checks the grid's axes, the stopping rule and the batch; throws
  /// bwshare::Error. Workload presence is checked where the workloads come
  /// from: resolve_workloads for grid entries, the Campaign constructor for
  /// pre-resolved ones.
  void validate() const;
};

/// The replicate seed stream: replicate `replicate` of arm `arm_index`
/// under campaign seed `campaign_seed`. Exposed so tests can pin the
/// contract; the stream is salted per arm, so arms never share seeds and
/// adding an arm never shifts another arm's draws.
[[nodiscard]] uint64_t campaign_replicate_seed(uint64_t campaign_seed,
                                               size_t arm_index,
                                               int replicate);

/// One candidate arm of the finished campaign.
struct CampaignArm {
  // Identity: the arm's point on every axis (mirrors SweepCell).
  std::string kind;      // "scheme" | "trace"
  std::string workload;
  std::string network;
  std::string model;
  int nodes = 0;
  int cores = 0;
  std::string policy;    // "-" for scheme arms
  double churn_rate = 0.0;
  double background_load = 0.0;
  // Outcome.
  int replicates = 0;         // replays actually executed for this arm
  double mean = 0.0;          // point estimate of the objective
  double ci_low = 0.0;
  double ci_high = 0.0;
  /// Round (1-based) the arm left the pool (kCutoff elimination or error);
  /// -1 if it stayed in play to the end.
  int out_round = -1;
  bool eliminated = false;
  bool error = false;
  std::string error_msg;
  bool winner = false;

  [[nodiscard]] std::string status() const;  // winner|survivor|eliminated|error
};

struct CampaignResult {
  std::vector<CampaignArm> arms;   // in arm-expansion order
  int rounds = 0;
  /// Replays executed (error replicates included).
  size_t total_replicates = 0;
  /// What the fixed grid would have cost: arms x max_replicates.
  size_t exhaustive_replicates = 0;
  int winner = -1;                 // arm index; -1 if every arm errored
  std::string stopped_by;          // stats::to_string(SequentialStatus)
  std::string objective;           // to_string(spec.objective)

  /// exhaustive_replicates / total_replicates (0 if nothing ran).
  [[nodiscard]] double savings_factor() const;
  /// One row per arm (schema in docs/EXPERIMENTS.md "Campaigns").
  /// Byte-identical for a given spec regardless of thread count.
  [[nodiscard]] std::string to_csv() const;
  /// {"summary": {...}, "arms": [...]} carrying the same values.
  [[nodiscard]] std::string to_json() const;
};

class Campaign {
 public:
  /// Resolve arms from spec.grid.schemes/traces (Sweep's workload
  /// grammar). Throws bwshare::Error on validation or resolution failure.
  explicit Campaign(CampaignSpec spec);

  /// Arms from pre-resolved workloads (e.g. in-memory traces recorded
  /// through MiniMPI — the network_advisor path); spec.grid.schemes and
  /// .traces must be empty. Scheme workloads cross the scheme axes, trace
  /// workloads the trace axes, exactly as if they had been grid entries.
  Campaign(CampaignSpec spec, std::vector<ResolvedWorkload> workloads);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  /// One arm per cell of expand_cells(spec.grid, workloads).
  [[nodiscard]] size_t num_arms() const;
  /// The fixed-grid cost the sequential loop is competing against.
  [[nodiscard]] size_t exhaustive_replicates() const;

  /// Run each round on `threads` threads, the calling thread included
  /// (0 = hardware threads; util::parallel_for throws bwshare::Error
  /// outside [0, util::kMaxThreads]). Arm errors are recorded per arm,
  /// never thrown.
  [[nodiscard]] CampaignResult run(int threads = 1) const;

 private:
  CampaignSpec spec_;
  std::vector<ResolvedWorkload> workloads_;
};

}  // namespace bwshare::eval
