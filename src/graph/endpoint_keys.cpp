#include "graph/endpoint_keys.hpp"

#include <algorithm>

namespace bwshare::graph {

std::span<const EndpointKey> sorted_endpoint_keys(const CommGraph& graph,
                                                  util::Arena& arena) {
  const auto& comms = graph.comms();
  auto keys = arena.make_span_uninit<EndpointKey>(2 * comms.size());
  size_t nk = 0;
  for (size_t i = 0; i < comms.size(); ++i) {
    const std::uint64_t tag = static_cast<std::uint64_t>(i) << 1;
    const auto& c = comms[i];
    keys[nk++] = {static_cast<std::uint64_t>(c.src) << 32 | tag};
    if (c.src != c.dst)
      keys[nk++] = {static_cast<std::uint64_t>(c.dst) << 32 | tag | 1u};
  }
  std::sort(keys.begin(), keys.begin() + static_cast<long>(nk));
  return keys.first(nk);
}

}  // namespace bwshare::graph
