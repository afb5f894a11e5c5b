// Sequential best-arm identification over bootstrapped confidence
// intervals — the decision core behind eval::Campaign's adaptive
// Monte-Carlo loops (docs/EXPERIMENTS.md "Campaigns").
//
// The caller owns sampling: it feeds replicate values for a set of
// candidate arms (lower is better — makespans, error percentages) in
// rounds, and after each round asks finish_round() whether the configured
// stopping rule has fired. Three rules, after MAGPIE's simmer/BAI loop:
//
//   * kCiWidth  — precision: stop once every surviving arm's bootstrap CI
//     half-width is below `tolerance` relative to its point estimate. No
//     arm is eliminated; the answer is "every candidate, measured tightly".
//   * kBestArm  — identification: stop once the leader's CI separates from
//     every surviving rival's (leader.high < rival.low for all rivals). No
//     elimination either: all arms keep sampling until full separation, so
//     the final report carries a comparable interval per arm.
//   * kCutoff   — elimination: each round, drop every arm whose CI lower
//     bound exceeds the incumbent leader's CI upper bound (it can no
//     longer win at this confidence), and stop when one survivor remains.
//     Eliminated arms stop costing replicates — the MAGPIE
//     threshold-cutoff idiom, and the rule that saves the most work.
//
// Every rule also terminates when each surviving arm reaches
// `max_replicates` (status kExhausted); the leader is still reported.
// All decisions are made from the sample values alone, in arm-index order,
// with bootstrap resampling seeded per arm — so a campaign's verdict is a
// pure function of its samples, independent of thread count or timing.
//
// Confidence semantics: `confidence` is the level of each per-arm bootstrap
// interval, i.e. decisions are made at per-comparison confidence, not
// family-wise (no multiplicity correction across arms or rounds).
// tests/stats/test_sequential.cpp measures the resulting campaign-level
// accuracy empirically on planted-winner arms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/bootstrap.hpp"

namespace bwshare::stats {

enum class StoppingRule { kCiWidth, kBestArm, kCutoff };

[[nodiscard]] std::string to_string(StoppingRule rule);
/// Accepts "ci-width", "best-arm", "cutoff"; throws bwshare::Error.
[[nodiscard]] StoppingRule stopping_rule_from_string(const std::string& name);

struct SequentialConfig {
  StoppingRule rule = StoppingRule::kBestArm;
  /// kCiWidth: relative half-width target, (high-low)/2 <= tolerance*|point|
  /// (absolute width when the point estimate is 0). Must be > 0.
  double tolerance = 0.05;
  /// Two-sided level of every per-arm bootstrap interval, in (0,1).
  double confidence = 0.95;
  /// No elimination or stop decision is taken before every surviving arm
  /// has at least this many replicates.
  int min_replicates = 8;
  /// Hard per-arm budget; reaching it on all survivors stops the campaign.
  int max_replicates = 256;
  /// Bootstrap resamples per interval.
  size_t resamples = 400;
  /// Base seed for the bootstrap resampling streams (salted per arm).
  uint64_t ci_seed = 42;

  /// Throws bwshare::Error on any out-of-range field.
  void validate() const;
};

/// Why the campaign stopped (kContinue = it has not).
enum class SequentialStatus {
  kContinue,
  kCiWidth,     // every surviving CI under tolerance
  kBestArm,     // leader separated from every surviving rival
  kCutoff,      // eliminations left a single survivor
  kExhausted,   // every survivor reached max_replicates (or none survive)
};

[[nodiscard]] std::string to_string(SequentialStatus status);

struct SequentialArm {
  std::vector<double> samples;
  Interval ci{};          // meaningful once has_ci
  bool has_ci = false;
  bool eliminated = false;  // dropped by the kCutoff rule
  bool error = false;       // the caller's executor failed this arm
  /// Round (1-based) the arm was eliminated or errored; -1 while in play.
  int out_round = -1;

  [[nodiscard]] bool surviving() const { return !eliminated && !error; }
};

/// Lower-is-better sequential test over `num_arms` candidates.
class SequentialTest {
 public:
  /// Validates the config; throws bwshare::Error (also on num_arms == 0).
  SequentialTest(SequentialConfig config, size_t num_arms);

  /// Record one replicate value for an arm. Ignored (by contract the
  /// caller should not sample them) only in the sense that callers must
  /// not add samples to eliminated/errored arms — that throws.
  void add_sample(size_t arm, double value);

  /// Mark an arm failed (executor error). It leaves the pool immediately:
  /// no further samples, excluded from every decision.
  void mark_error(size_t arm);

  /// Close the current round: recompute the bootstrap CI of every
  /// surviving arm (in arm order, deterministically seeded), apply the
  /// kCutoff eliminations, and evaluate the stopping rule. Rounds are
  /// 1-based; decisions are deferred until every surviving arm has
  /// min_replicates samples.
  [[nodiscard]] SequentialStatus finish_round();

  [[nodiscard]] const SequentialConfig& config() const { return config_; }
  [[nodiscard]] size_t num_arms() const { return arms_.size(); }
  [[nodiscard]] const SequentialArm& arm(size_t i) const;
  [[nodiscard]] size_t num_surviving() const;
  /// Rounds closed so far (== finish_round() calls).
  [[nodiscard]] int rounds() const { return rounds_; }
  /// Surviving arm with the lowest point estimate (ties: lowest index);
  /// falls back to sample mean before the first CI. -1 if none survive.
  [[nodiscard]] int leader() const;

 private:
  void refresh_intervals();

  SequentialConfig config_;
  std::vector<SequentialArm> arms_;
  int rounds_ = 0;
};

}  // namespace bwshare::stats
