#include "graph/schemes.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph::schemes {

CommGraph fig2_scheme(int k, double bytes) {
  BWS_CHECK(k >= 1 && k <= 6, "fig 2 scheme index must be in [1,6]");
  CommGraph g;
  g.add("a", 0, 1, bytes);
  if (k >= 2) g.add("b", 0, 2, bytes);
  if (k >= 3) g.add("c", 0, 3, bytes);
  if (k >= 4) g.add("d", 4, 1, bytes);
  if (k >= 5) g.add("e", 5, 0, bytes);
  if (k >= 6) g.add("f", 6, 3, bytes);
  return g;
}

CommGraph fig4_scheme(double bytes) {
  CommGraph g;
  g.add("a", 0, 1, bytes);
  g.add("b", 0, 2, bytes);
  g.add("c", 0, 3, bytes);
  g.add("d", 1, 2, bytes);
  g.add("e", 1, 3, bytes);
  g.add("f", 4, 3, bytes);
  return g;
}

CommGraph fig5_scheme(double bytes) {
  CommGraph g;
  g.add("a", 0, 1, bytes);
  g.add("b", 0, 2, bytes);
  g.add("c", 0, 3, bytes);
  g.add("d", 4, 1, bytes);
  g.add("e", 2, 1, bytes);
  g.add("f", 2, 5, bytes);
  return g;
}

CommGraph mk1_tree(double bytes) {
  CommGraph g;
  g.add("a", 0, 1, bytes);
  g.add("b", 0, 2, bytes);
  g.add("c", 3, 0, bytes);
  g.add("d", 4, 2, bytes);
  g.add("e", 1, 5, bytes);
  g.add("f", 6, 3, bytes);
  g.add("g", 3, 7, bytes);
  return g;
}

CommGraph mk2_complete(double bytes) {
  CommGraph g;
  g.add("a", 0, 1, bytes);
  g.add("b", 0, 2, bytes);
  g.add("c", 0, 3, bytes);
  g.add("d", 0, 4, bytes);
  g.add("e", 2, 1, bytes);
  g.add("f", 1, 4, bytes);
  g.add("g", 1, 3, bytes);
  g.add("h", 4, 3, bytes);
  g.add("i", 3, 2, bytes);
  g.add("j", 4, 2, bytes);
  return g;
}

CommGraph outgoing_fan(int fan, double bytes) {
  BWS_CHECK(fan >= 1, "fan must be >= 1");
  CommGraph g;
  for (int i = 1; i <= fan; ++i)
    g.add(strformat("c%d", i), 0, i, bytes);
  return g;
}

CommGraph incoming_fan(int fan, double bytes) {
  BWS_CHECK(fan >= 1, "fan must be >= 1");
  CommGraph g;
  for (int i = 1; i <= fan; ++i)
    g.add(strformat("c%d", i), i, 0, bytes);
  return g;
}

}  // namespace bwshare::graph::schemes
