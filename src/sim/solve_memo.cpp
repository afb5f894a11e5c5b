#include "sim/solve_memo.hpp"

namespace bwshare::sim {

bool SolveMemo::lookup(uint64_t key, std::vector<double>& rates,
                       bool& from_frozen) {
  if (frozen_ != nullptr && frozen_->lookup(key, rates)) {
    ++frozen_hits_;
    from_frozen = true;
    return true;
  }
  const auto it = staged_.find(key);
  if (it != staged_.end()) {
    rates = it->second;
    ++staged_hits_;
    from_frozen = false;
    return true;
  }
  ++misses_;
  return false;
}

void SolveMemo::stage(uint64_t key, const std::vector<double>& rates) {
  staged_.emplace(key, rates);
}

}  // namespace bwshare::sim
