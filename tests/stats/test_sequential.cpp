// Statistical-validity suite for the sequential best-arm layer: rule
// semantics (unit), planted-winner accuracy (does the campaign loop find
// the arm we made best?), and empirical coverage of the bootstrap CIs the
// decisions rest on, against analytic distributions.
#include "stats/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "stats/bootstrap.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::stats {
namespace {

// Feed `batch` normal samples per surviving arm per round until the test
// stops or `max_rounds` elapse. Returns the final status.
SequentialStatus run_rounds(SequentialTest& test,
                            const std::vector<double>& means, double sigma,
                            int batch, Rng& rng, int max_rounds = 100) {
  for (int round = 0; round < max_rounds; ++round) {
    for (size_t a = 0; a < means.size(); ++a) {
      if (!test.arm(a).surviving()) continue;
      for (int i = 0; i < batch; ++i) {
        test.add_sample(a, means[a] + sigma * rng.normal());
      }
    }
    const auto status = test.finish_round();
    if (status != SequentialStatus::kContinue) return status;
  }
  return SequentialStatus::kContinue;
}

// Replicates recorded across all arms (error arms included).
size_t total_samples(const SequentialTest& test) {
  size_t n = 0;
  for (size_t i = 0; i < test.num_arms(); ++i) n += test.arm(i).samples.size();
  return n;
}

SequentialConfig small_config(StoppingRule rule) {
  SequentialConfig config;
  config.rule = rule;
  config.min_replicates = 8;
  config.max_replicates = 64;
  config.resamples = 200;
  config.ci_seed = 7;
  return config;
}

TEST(Sequential, StringRoundTrips) {
  for (const auto rule : {StoppingRule::kCiWidth, StoppingRule::kBestArm,
                          StoppingRule::kCutoff}) {
    EXPECT_EQ(stopping_rule_from_string(to_string(rule)), rule);
  }
  EXPECT_THROW((void)stopping_rule_from_string("bandit"), Error);
  EXPECT_EQ(to_string(SequentialStatus::kContinue), "continue");
  EXPECT_EQ(to_string(SequentialStatus::kCiWidth), "ci-width");
  EXPECT_EQ(to_string(SequentialStatus::kBestArm), "best-arm");
  EXPECT_EQ(to_string(SequentialStatus::kCutoff), "cutoff");
  EXPECT_EQ(to_string(SequentialStatus::kExhausted), "max-replicates");
}

TEST(Sequential, ConfigValidation) {
  SequentialConfig config;
  config.tolerance = 0.0;
  EXPECT_THROW(config.validate(), Error);
  config = SequentialConfig{};
  config.confidence = 1.0;
  EXPECT_THROW(config.validate(), Error);
  config = SequentialConfig{};
  config.min_replicates = 0;
  EXPECT_THROW(config.validate(), Error);
  config = SequentialConfig{};
  config.max_replicates = config.min_replicates - 1;
  EXPECT_THROW(config.validate(), Error);
  config = SequentialConfig{};
  config.resamples = 0;
  EXPECT_THROW(config.validate(), Error);
  EXPECT_THROW(SequentialTest(SequentialConfig{}, 0), Error);
}

TEST(Sequential, MinReplicatesGatesEveryVerdict) {
  // Two arms a mile apart: without the warm-up guard round 1 would already
  // separate (and, under cutoff, eliminate). With batch < min_replicates
  // the first round must abstain.
  auto config = small_config(StoppingRule::kCutoff);
  config.min_replicates = 8;
  SequentialTest test(config, 2);
  Rng rng(1);
  for (size_t a = 0; a < 2; ++a) {
    for (int i = 0; i < 4; ++i) {
      test.add_sample(a, (a == 0 ? 1.0 : 100.0) + 0.01 * rng.normal());
    }
  }
  EXPECT_EQ(test.finish_round(), SequentialStatus::kContinue);
  EXPECT_EQ(test.num_surviving(), 2u);
  EXPECT_FALSE(test.arm(1).eliminated);
}

TEST(Sequential, BestArmStopsOnSeparationWithoutEliminating) {
  SequentialTest test(small_config(StoppingRule::kBestArm), 3);
  Rng rng(11);
  const auto status = run_rounds(test, {1.0, 2.0, 3.0}, 0.05, 8, rng);
  EXPECT_EQ(status, SequentialStatus::kBestArm);
  EXPECT_EQ(test.leader(), 0);
  // Identification, not elimination: every arm still carries a final CI.
  EXPECT_EQ(test.num_surviving(), 3u);
  for (size_t a = 0; a < 3; ++a) {
    EXPECT_TRUE(test.arm(a).has_ci);
    EXPECT_EQ(test.arm(a).out_round, -1);
  }
  // Separation is literal: leader's upper bound below every rival's lower.
  const double lead_high = test.arm(0).ci.high;
  EXPECT_LT(lead_high, test.arm(1).ci.low);
  EXPECT_LT(lead_high, test.arm(2).ci.low);
}

TEST(Sequential, BestArmExhaustsOnIndistinguishableArms) {
  // Identical distributions never separate; the budget is the only out.
  SequentialTest test(small_config(StoppingRule::kBestArm), 2);
  Rng rng(3);
  const auto status = run_rounds(test, {5.0, 5.0}, 1.0, 8, rng);
  EXPECT_EQ(status, SequentialStatus::kExhausted);
  for (size_t a = 0; a < 2; ++a) {
    EXPECT_EQ(test.arm(a).samples.size(), 64u);
  }
  EXPECT_GE(test.leader(), 0);  // a leader is still reported
}

TEST(Sequential, CutoffEliminatesHopelessArmAndStops) {
  SequentialTest test(small_config(StoppingRule::kCutoff), 2);
  Rng rng(17);
  const auto status = run_rounds(test, {1.0, 5.0}, 0.1, 8, rng);
  EXPECT_EQ(status, SequentialStatus::kCutoff);
  EXPECT_EQ(test.leader(), 0);
  EXPECT_EQ(test.num_surviving(), 1u);
  EXPECT_TRUE(test.arm(1).eliminated);
  EXPECT_FALSE(test.arm(1).error);
  EXPECT_EQ(test.arm(1).out_round, 1);  // dead on the first decision round
  // The whole point of cutoff: the loser stopped costing replicates.
  EXPECT_EQ(test.arm(1).samples.size(), 8u);
}

TEST(Sequential, CutoffSparesOverlappingRival) {
  // Arm 1 overlaps the leader, arm 2 does not: only arm 2 may be cut.
  SequentialTest test(small_config(StoppingRule::kCutoff), 3);
  Rng rng(23);
  for (size_t a = 0; a < 3; ++a) {
    const double mean = a == 2 ? 10.0 : 1.0;
    for (int i = 0; i < 8; ++i) test.add_sample(a, mean + 0.2 * rng.normal());
  }
  const auto status = test.finish_round();
  EXPECT_EQ(status, SequentialStatus::kContinue);  // two survivors remain
  EXPECT_FALSE(test.arm(0).eliminated);
  EXPECT_FALSE(test.arm(1).eliminated);
  EXPECT_TRUE(test.arm(2).eliminated);
}

TEST(Sequential, CiWidthStopsOnceAllIntervalsAreTight) {
  auto config = small_config(StoppingRule::kCiWidth);
  config.tolerance = 0.05;
  config.max_replicates = 512;
  SequentialTest test(config, 2);
  Rng rng(29);
  const auto status = run_rounds(test, {10.0, 10.5}, 0.5, 8, rng);
  EXPECT_EQ(status, SequentialStatus::kCiWidth);
  EXPECT_EQ(test.num_surviving(), 2u);  // precision rule never eliminates
  for (size_t a = 0; a < 2; ++a) {
    const auto& arm = test.arm(a);
    const double half = (arm.ci.high - arm.ci.low) / 2.0;
    EXPECT_LE(half, config.tolerance * std::fabs(arm.ci.point));
  }
}

TEST(Sequential, ErroredArmLeavesThePoolImmediately) {
  SequentialTest test(small_config(StoppingRule::kBestArm), 3);
  Rng rng(31);
  test.mark_error(2);
  test.mark_error(2);  // idempotent
  EXPECT_TRUE(test.arm(2).error);
  EXPECT_EQ(test.arm(2).out_round, 1);  // failed during round 1's sampling
  EXPECT_EQ(test.num_surviving(), 2u);
  EXPECT_THROW(test.add_sample(2, 1.0), Error);
  // The two healthy arms still separate and finish normally.
  const auto status = run_rounds(test, {1.0, 2.0, 0.0}, 0.05, 8, rng);
  EXPECT_EQ(status, SequentialStatus::kBestArm);
  EXPECT_EQ(test.leader(), 0);
}

TEST(Sequential, AllArmsErroredReportsExhaustedAndNoLeader) {
  SequentialTest test(small_config(StoppingRule::kCutoff), 2);
  test.mark_error(0);
  test.mark_error(1);
  EXPECT_EQ(test.finish_round(), SequentialStatus::kExhausted);
  EXPECT_EQ(test.leader(), -1);
  EXPECT_EQ(total_samples(test), 0u);
}

TEST(Sequential, LeaderTiesKeepTheLowestIndex) {
  SequentialTest test(small_config(StoppingRule::kBestArm), 3);
  for (size_t a = 0; a < 3; ++a) {
    for (int i = 0; i < 8; ++i) test.add_sample(a, 2.0);
  }
  (void)test.finish_round();
  EXPECT_EQ(test.leader(), 0);
}

TEST(Sequential, LeaderFallsBackToTheSampleMeanBeforeTheFirstRound) {
  SequentialTest test(small_config(StoppingRule::kBestArm), 3);
  EXPECT_EQ(test.leader(), -1);  // no samples anywhere yet
  test.add_sample(0, 3.0);
  test.add_sample(0, 3.0);
  test.add_sample(1, 1.0);
  test.add_sample(1, 2.0);
  // No intervals yet: arm 1's mean of 1.5 leads, arm 2 (no samples) is
  // skipped.
  EXPECT_FALSE(test.arm(1).has_ci);
  EXPECT_EQ(test.leader(), 1);
  test.add_sample(2, 1.0);
  EXPECT_EQ(test.leader(), 2);
}

TEST(Sequential, CiWidthOnAZeroEstimateIsAbsolute) {
  // A relative target can never be met around a point estimate of 0, so
  // there the half-width is held to the tolerance itself.
  auto config = small_config(StoppingRule::kCiWidth);
  config.tolerance = 0.05;
  SequentialTest flat(config, 1);
  for (int i = 0; i < 8; ++i) flat.add_sample(0, 0.0);
  EXPECT_EQ(flat.finish_round(), SequentialStatus::kCiWidth);
  EXPECT_EQ(flat.arm(0).ci.point, 0.0);

  // The same zero mean from the samples 1 and -1: the interval is far
  // wider than 0.05, so the campaign goes on.
  config.min_replicates = 2;
  SequentialTest spread(config, 1);
  spread.add_sample(0, 1.0);
  spread.add_sample(0, -1.0);
  EXPECT_EQ(spread.finish_round(), SequentialStatus::kContinue);
  const auto& ci = spread.arm(0).ci;
  EXPECT_EQ(ci.point, 0.0);
  EXPECT_GT((ci.high - ci.low) / 2.0, config.tolerance);
}

TEST(Sequential, DecisionsAreAPureFunctionOfTheSamples) {
  // Two tests fed the same sample stream must agree bit-for-bit: CIs,
  // eliminations, rounds. This is the property the campaign's thread-count
  // determinism reduces to.
  const auto run_one = [] {
    SequentialTest test(small_config(StoppingRule::kCutoff), 3);
    Rng rng(101);
    (void)run_rounds(test, {1.0, 1.05, 4.0}, 0.3, 8, rng);
    return test;
  };
  const auto a = run_one();
  const auto b = run_one();
  ASSERT_EQ(a.rounds(), b.rounds());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.arm(i).eliminated, b.arm(i).eliminated);
    EXPECT_EQ(a.arm(i).out_round, b.arm(i).out_round);
    EXPECT_EQ(a.arm(i).ci.low, b.arm(i).ci.low);
    EXPECT_EQ(a.arm(i).ci.high, b.arm(i).ci.high);
    EXPECT_EQ(a.arm(i).ci.point, b.arm(i).ci.point);
  }
}

TEST(Sequential, PlantedWinnerIsIdentifiedReliably) {
  // Statistical validity of the whole loop: plant a best arm among decoys
  // and measure how often the sequential test crowns it across many
  // independent campaigns. At 95% per-comparison confidence and a 2-sigma
  // gap the accuracy should be high; 90% is a loose floor that still
  // catches inverted comparisons, seed reuse, or broken elimination.
  const std::vector<double> means{1.0, 1.2, 1.25, 1.4};
  const double sigma = 0.1;
  const int trials = 40;
  int correct = 0;
  for (int t = 0; t < trials; ++t) {
    auto config = small_config(StoppingRule::kBestArm);
    config.ci_seed = 1000 + static_cast<uint64_t>(t);
    SequentialTest test(config, means.size());
    Rng rng(static_cast<uint64_t>(9000 + t));
    (void)run_rounds(test, means, sigma, 8, rng);
    if (test.leader() == 0) ++correct;
  }
  EXPECT_GE(correct, trials * 9 / 10)
      << "planted winner found in only " << correct << "/" << trials
      << " campaigns";
}

TEST(Sequential, CutoffFindsPlantedWinnerWithFewerSamples) {
  // Same planted field under the elimination rule: the verdict must stay
  // accurate while the sample bill drops below the exhaustive budget.
  const std::vector<double> means{1.0, 1.3, 1.6, 2.2};
  const int trials = 25;
  int correct = 0;
  size_t total = 0;
  const size_t exhaustive_per_trial = means.size() * 64;  // max_replicates
  for (int t = 0; t < trials; ++t) {
    SequentialTest test(small_config(StoppingRule::kCutoff), means.size());
    Rng rng(static_cast<uint64_t>(500 + t));
    (void)run_rounds(test, means, 0.1, 8, rng);
    if (test.leader() == 0) ++correct;
    total += total_samples(test);
  }
  EXPECT_GE(correct, trials * 9 / 10);
  EXPECT_LT(total, exhaustive_per_trial * trials / 3)
      << "cutoff saved less than 3x over the exhaustive budget";
}

// ---------------------------------------------------------------------------
// Empirical coverage of the bootstrap CIs every decision above rests on:
// draw from a distribution with a known mean, build a 95% interval, and
// count how often it covers the truth. The percentile bootstrap is not
// exact at n=30, so the acceptance band is deliberately wide — it catches
// gross miscalibration (half-width bugs, wrong percentiles, seed reuse),
// not the last coverage percent.

double coverage(int trials, int n, uint64_t seed,
                const std::function<double(Rng&)>& draw, double truth) {
  int covered = 0;
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    std::vector<double> xs;
    xs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) xs.push_back(draw(rng));
    const auto ci =
        bootstrap_mean_ci(xs, 200, 0.95, seed + static_cast<uint64_t>(t));
    if (ci.low <= truth && truth <= ci.high) ++covered;
  }
  return static_cast<double>(covered) / trials;
}

TEST(SequentialCoverage, BootstrapMeanCiCoversNormalTruth) {
  const double c = coverage(
      300, 30, 424242,
      [](Rng& rng) { return 5.0 + 2.0 * rng.normal(); }, 5.0);
  EXPECT_GE(c, 0.88) << "95% interval covered only " << c;
  EXPECT_LE(c, 0.995) << "95% interval covers implausibly often: " << c;
}

TEST(SequentialCoverage, BootstrapMeanCiCoversExponentialTruth) {
  // Skewed distribution (mean 2): percentile bootstrap undercovers a
  // little at this n, hence the lower floor.
  const double c = coverage(
      300, 30, 777777,
      [](Rng& rng) { return rng.exponential(0.5); }, 2.0);
  EXPECT_GE(c, 0.85) << "95% interval covered only " << c;
  EXPECT_LE(c, 0.995);
}

TEST(SequentialCoverage, NarrowerAtHigherNAndWiderAtHigherLevel) {
  // Two analytic sanity directions: interval width shrinks roughly like
  // 1/sqrt(n), and a 99% interval contains the 90% one.
  Rng rng(55);
  std::vector<double> big;
  for (int i = 0; i < 400; ++i) big.push_back(rng.normal());
  const std::vector<double> small(big.begin(), big.begin() + 25);
  const auto wide = bootstrap_mean_ci(small, 300, 0.95, 9);
  const auto tight = bootstrap_mean_ci(big, 300, 0.95, 9);
  EXPECT_LT(tight.high - tight.low, wide.high - wide.low);
  const auto lvl90 = bootstrap_mean_ci(big, 300, 0.90, 9);
  const auto lvl99 = bootstrap_mean_ci(big, 300, 0.99, 9);
  EXPECT_LE(lvl99.low, lvl90.low);
  EXPECT_GE(lvl99.high, lvl90.high);
}

}  // namespace
}  // namespace bwshare::stats
