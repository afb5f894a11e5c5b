#include "stats/sequential.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare::stats {

namespace {

// Deterministic per-arm salt for the bootstrap streams: two chained
// splitmix64 steps disperse (base, salt) so neighbouring arms get
// uncorrelated resampling sequences.
uint64_t mix_seed(uint64_t base, uint64_t salt) {
  uint64_t state = base;
  const uint64_t whitened = splitmix64(state);
  state = whitened ^ (salt + 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

}  // namespace

std::string to_string(StoppingRule rule) {
  switch (rule) {
    case StoppingRule::kCiWidth: return "ci-width";
    case StoppingRule::kBestArm: return "best-arm";
    case StoppingRule::kCutoff: return "cutoff";
  }
  return "?";
}

StoppingRule stopping_rule_from_string(const std::string& name) {
  if (name == "ci-width") return StoppingRule::kCiWidth;
  if (name == "best-arm") return StoppingRule::kBestArm;
  if (name == "cutoff") return StoppingRule::kCutoff;
  BWS_THROW("unknown stopping rule '" + name +
            "' (expected ci-width, best-arm or cutoff)");
}

std::string to_string(SequentialStatus status) {
  switch (status) {
    case SequentialStatus::kContinue: return "continue";
    case SequentialStatus::kCiWidth: return "ci-width";
    case SequentialStatus::kBestArm: return "best-arm";
    case SequentialStatus::kCutoff: return "cutoff";
    case SequentialStatus::kExhausted: return "max-replicates";
  }
  return "?";
}

void SequentialConfig::validate() const {
  BWS_CHECK(std::isfinite(tolerance) && tolerance > 0.0,
            strformat("sequential: tolerance must be finite and > 0, got %g",
                      tolerance));
  BWS_CHECK(confidence > 0.0 && confidence < 1.0,
            strformat("sequential: confidence must be in (0,1), got %g",
                      confidence));
  BWS_CHECK(min_replicates >= 1,
            strformat("sequential: min_replicates must be >= 1, got %d",
                      min_replicates));
  BWS_CHECK(max_replicates >= min_replicates,
            strformat("sequential: max_replicates (%d) must be >= "
                      "min_replicates (%d)",
                      max_replicates, min_replicates));
  BWS_CHECK(resamples >= 1, "sequential: resamples must be >= 1");
}

SequentialTest::SequentialTest(SequentialConfig config, size_t num_arms)
    : config_(config) {
  config_.validate();
  BWS_CHECK(num_arms >= 1, "sequential: at least one arm is required");
  arms_.resize(num_arms);
}

void SequentialTest::add_sample(size_t arm, double value) {
  BWS_CHECK(arm < arms_.size(),
            strformat("sequential: arm %zu out of range (%zu arms)", arm,
                      arms_.size()));
  BWS_CHECK(arms_[arm].surviving(),
            strformat("sequential: arm %zu is out of play (eliminated or "
                      "errored) and must not be sampled",
                      arm));
  arms_[arm].samples.push_back(value);
}

void SequentialTest::mark_error(size_t arm) {
  BWS_CHECK(arm < arms_.size(),
            strformat("sequential: arm %zu out of range (%zu arms)", arm,
                      arms_.size()));
  if (arms_[arm].error) return;  // idempotent: one error verdict per arm
  arms_[arm].error = true;
  arms_[arm].eliminated = false;
  arms_[arm].out_round = rounds_ + 1;  // the round currently being sampled
}

const SequentialArm& SequentialTest::arm(size_t i) const {
  BWS_CHECK(i < arms_.size(),
            strformat("sequential: arm %zu out of range (%zu arms)", i,
                      arms_.size()));
  return arms_[i];
}

size_t SequentialTest::num_surviving() const {
  size_t n = 0;
  for (const auto& a : arms_) n += a.surviving() ? 1 : 0;
  return n;
}

int SequentialTest::leader() const {
  int best = -1;
  double best_value = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < arms_.size(); ++i) {
    const auto& a = arms_[i];
    if (!a.surviving() || a.samples.empty()) continue;
    double value = 0.0;
    if (a.has_ci) {
      value = a.ci.point;
    } else {
      for (const double x : a.samples) value += x;
      value /= static_cast<double>(a.samples.size());
    }
    if (value < best_value) {  // strict: ties keep the lowest arm index
      best_value = value;
      best = static_cast<int>(i);
    }
  }
  return best;
}

void SequentialTest::refresh_intervals() {
  for (size_t i = 0; i < arms_.size(); ++i) {
    auto& a = arms_[i];
    if (!a.surviving() || a.samples.empty()) continue;
    // The per-arm seed is stable across rounds, so a CI depends only on
    // (samples, config) — never on how many rounds it took to gather them.
    a.ci = bootstrap_mean_ci(a.samples, config_.resamples, config_.confidence,
                             mix_seed(config_.ci_seed, i));
    a.has_ci = true;
  }
}

SequentialStatus SequentialTest::finish_round() {
  ++rounds_;
  refresh_intervals();

  if (num_surviving() == 0) return SequentialStatus::kExhausted;

  // No verdict of any kind before min_replicates: early CIs on a handful of
  // replicates are too noisy to eliminate on (the MAGPIE loop has the same
  // warm-up guard).
  for (const auto& a : arms_) {
    if (a.surviving() &&
        a.samples.size() < static_cast<size_t>(config_.min_replicates)) {
      return SequentialStatus::kContinue;
    }
  }

  if (config_.rule == StoppingRule::kCutoff) {
    // Threshold cutoff: any arm whose best case (CI lower bound) is worse
    // than the incumbent's worst case (CI upper bound) cannot win at this
    // confidence — drop it now and stop paying for its replicates.
    const int incumbent = leader();
    if (incumbent >= 0) {
      const double threshold = arms_[static_cast<size_t>(incumbent)].ci.high;
      for (size_t i = 0; i < arms_.size(); ++i) {
        auto& a = arms_[i];
        if (static_cast<int>(i) == incumbent || !a.surviving()) continue;
        if (a.ci.low > threshold) {
          a.eliminated = true;
          a.out_round = rounds_;
        }
      }
    }
    if (num_surviving() <= 1) return SequentialStatus::kCutoff;
  }

  if (config_.rule == StoppingRule::kBestArm) {
    const int lead = leader();
    if (lead >= 0) {
      const double lead_high = arms_[static_cast<size_t>(lead)].ci.high;
      bool separated = true;
      for (size_t i = 0; i < arms_.size(); ++i) {
        if (static_cast<int>(i) == lead || !arms_[i].surviving()) continue;
        if (!(lead_high < arms_[i].ci.low)) {
          separated = false;
          break;
        }
      }
      if (separated) return SequentialStatus::kBestArm;
    }
  }

  if (config_.rule == StoppingRule::kCiWidth) {
    bool all_tight = true;
    for (const auto& a : arms_) {
      if (!a.surviving()) continue;
      const double half = (a.ci.high - a.ci.low) / 2.0;
      const double scale = std::fabs(a.ci.point);
      // Relative to the point estimate; absolute when the estimate is 0
      // (a relative target on zero would never be met).
      const bool tight =
          scale > 0.0 ? half <= config_.tolerance * scale
                      : half <= config_.tolerance;
      if (!tight) {
        all_tight = false;
        break;
      }
    }
    if (all_tight) return SequentialStatus::kCiWidth;
  }

  bool all_exhausted = true;
  for (const auto& a : arms_) {
    if (a.surviving() &&
        a.samples.size() < static_cast<size_t>(config_.max_replicates)) {
      all_exhausted = false;
      break;
    }
  }
  if (all_exhausted) return SequentialStatus::kExhausted;

  return SequentialStatus::kContinue;
}

}  // namespace bwshare::stats
