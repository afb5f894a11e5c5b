// Inline scheme text for a generated graph, as a serve client re-spells it:
// the fingerprint and cache-path suites send it as a query's scheme_text.
#pragma once

#include <charconv>
#include <string>

#include "graph/comm_graph.hpp"

namespace bwshare::graph {

/// Scheme DSL text for `g`: its node count, then one "comm k<i>" line per
/// comm with the size at 17 significant digits, so the parser reads back
/// exactly the doubles of `g`.
inline std::string scheme_text_17_digits(const CommGraph& g) {
  std::string text = "nodes " + std::to_string(g.num_nodes()) + "\n";
  char size[32];
  for (CommId i = 0; i < g.size(); ++i) {
    const Comm& c = g.comm(i);
    const auto end = std::to_chars(size, size + sizeof(size), c.bytes,
                                   std::chars_format::general, 17)
                         .ptr;
    text += "comm k" + std::to_string(i) + " " + std::to_string(c.src) +
            " -> " + std::to_string(c.dst) + " size ";
    text.append(size, end);
    text += '\n';
  }
  return text;
}

}  // namespace bwshare::graph
