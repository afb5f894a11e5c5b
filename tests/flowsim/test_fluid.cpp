// Unit tests for the weighted max-min allocator.
#include "flowsim/fluid.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "topo/network.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::flowsim {
namespace {

TEST(MaxMin, SingleFlowTakesItsCap) {
  AllocationProblem p;
  p.num_flows = 1;
  p.caps = {10.0};
  p.resources = {{100.0, {0}}};
  EXPECT_EQ(max_min_rates(p), std::vector<double>{10.0});
}

TEST(MaxMin, FairSplitOnSharedLink) {
  AllocationProblem p;
  p.num_flows = 3;
  p.caps = {100.0, 100.0, 100.0};
  p.resources = {{90.0, {0, 1, 2}}};
  const auto r = max_min_rates(p);
  for (double v : r) EXPECT_DOUBLE_EQ(v, 30.0);
}

TEST(MaxMin, CapLimitedFlowLeavesHeadroom) {
  // Flow 0 capped at 10; the other two split the remaining 80.
  AllocationProblem p;
  p.num_flows = 3;
  p.caps = {10.0, 100.0, 100.0};
  p.resources = {{90.0, {0, 1, 2}}};
  const auto r = max_min_rates(p);
  EXPECT_DOUBLE_EQ(r[0], 10.0);
  EXPECT_DOUBLE_EQ(r[1], 40.0);
  EXPECT_DOUBLE_EQ(r[2], 40.0);
}

TEST(MaxMin, MultiBottleneck) {
  // Classic parking-lot: flow 0 crosses both links; flows 1,2 one each.
  AllocationProblem p;
  p.num_flows = 3;
  p.caps = {100.0, 100.0, 100.0};
  p.resources = {{60.0, {0, 1}}, {60.0, {0, 2}}};
  const auto r = max_min_rates(p);
  EXPECT_DOUBLE_EQ(r[0], 30.0);
  EXPECT_DOUBLE_EQ(r[1], 30.0);
  EXPECT_DOUBLE_EQ(r[2], 30.0);
}

TEST(MaxMin, UnevenBottlenecks) {
  // Flow 0 shares link A (30) with flow 1 and link B (100) with flow 2.
  // A binds first: flows 0,1 get 15. Flow 2 then grows to 85.
  AllocationProblem p;
  p.num_flows = 3;
  p.caps = {1000.0, 1000.0, 1000.0};
  p.resources = {{30.0, {0, 1}}, {100.0, {0, 2}}};
  const auto r = max_min_rates(p);
  EXPECT_DOUBLE_EQ(r[0], 15.0);
  EXPECT_DOUBLE_EQ(r[1], 15.0);
  EXPECT_DOUBLE_EQ(r[2], 85.0);
}

TEST(MaxMin, WeightsSkewTheSplit) {
  AllocationProblem p;
  p.num_flows = 2;
  p.weights = {1.0, 3.0};
  p.caps = {100.0, 100.0};
  p.resources = {{80.0, {0, 1}}};
  const auto r = max_min_rates(p);
  EXPECT_DOUBLE_EQ(r[0], 20.0);
  EXPECT_DOUBLE_EQ(r[1], 60.0);
}

TEST(MaxMin, EmptyProblem) {
  AllocationProblem p;
  EXPECT_TRUE(max_min_rates(p).empty());
}

TEST(MaxMin, UnconstrainedFlowIsAnError) {
  AllocationProblem p;
  p.num_flows = 1;  // no cap, no resource
  EXPECT_THROW(max_min_rates(p), Error);
}

TEST(MaxMin, Validation) {
  AllocationProblem p;
  p.num_flows = 1;
  p.caps = {1.0};
  p.resources = {{-1.0, {0}}};
  EXPECT_THROW(max_min_rates(p), Error);
  p.resources = {{1.0, {5}}};
  EXPECT_THROW(max_min_rates(p), Error);
  p.resources.clear();
  p.weights = {0.0};
  EXPECT_THROW(max_min_rates(p), Error);
}

TEST(MaxMin, AllocationIsFeasibleAndMaximal) {
  // Property: no resource over capacity; every flow pinned by something.
  AllocationProblem p;
  p.num_flows = 5;
  p.caps = {50.0, 50.0, 50.0, 50.0, 50.0};
  p.resources = {{70.0, {0, 1, 2}}, {60.0, {2, 3}}, {40.0, {3, 4}}};
  const auto r = max_min_rates(p);
  // Feasibility.
  for (const auto& res : p.resources) {
    double load = 0.0;
    for (int f : res.members) load += r[static_cast<size_t>(f)];
    EXPECT_LE(load, res.capacity * (1.0 + 1e-9));
  }
  // Maximality: each flow is at its cap or on a saturated resource.
  for (int f = 0; f < p.num_flows; ++f) {
    bool pinned = r[static_cast<size_t>(f)] >= 50.0 * (1.0 - 1e-9);
    for (const auto& res : p.resources) {
      double load = 0.0;
      bool member = false;
      for (int m : res.members) {
        load += r[static_cast<size_t>(m)];
        member = member || m == f;
      }
      if (member && load >= res.capacity * (1.0 - 1e-9)) pinned = true;
    }
    EXPECT_TRUE(pinned) << "flow " << f << " could still grow";
  }
}

// --- an independent reference for the solver ------------------------------

// The solver caches each resource's (frozen load, active weight) between
// rounds and walks live lists instead of every flow and resource, claiming
// results equal bit for bit to a full rescan. The reference below is that
// full rescan, transcribed from the solver as it was before the caching:
// every round rescans every member of every unsaturated resource, in both
// passes. It shares no code with max_min_rates_into. `fallbacks` counts the
// rounds in which nothing froze, so the suites can show the degenerate path
// was reached.
std::vector<double> full_rescan_rates(const AllocationProblem& problem,
                                      int* fallbacks = nullptr) {
  const int n = problem.num_flows;
  BWS_CHECK(n >= 0, "num_flows must be non-negative");
  BWS_CHECK(problem.weights.empty() ||
                problem.weights.size() == static_cast<size_t>(n),
            "weights must be empty or one per flow");
  BWS_CHECK(problem.caps.empty() ||
                problem.caps.size() == static_cast<size_t>(n),
            "caps must be empty or one per flow");
  std::vector<double> weights = problem.weights;
  if (weights.empty()) weights.assign(static_cast<size_t>(n), 1.0);
  for (double w : weights) BWS_CHECK(w > 0.0, "flow weights must be positive");
  for (const auto& r : problem.resources) {
    BWS_CHECK(r.capacity >= 0.0, "resource capacity must be non-negative");
    for (FlowIndex f : r.members)
      BWS_CHECK(f >= 0 && f < n, "resource member out of range");
  }

  std::vector<double> rates(static_cast<size_t>(n), 0.0);
  std::vector<char> frozen(static_cast<size_t>(n), 0);
  std::vector<char> saturated(problem.resources.size(), 0);
  double t = 0.0;
  int remaining = n;
  while (remaining > 0) {
    double best_t = std::numeric_limits<double>::infinity();
    if (!problem.caps.empty()) {
      for (FlowIndex f = 0; f < n; ++f) {
        if (frozen[static_cast<size_t>(f)]) continue;
        const double cap = problem.caps[static_cast<size_t>(f)];
        if (cap > 0.0)
          best_t = std::min(best_t, cap / weights[static_cast<size_t>(f)]);
      }
    }
    for (size_t ri = 0; ri < problem.resources.size(); ++ri) {
      if (saturated[ri]) continue;
      const auto& r = problem.resources[ri];
      double frozen_load = 0.0;
      double active_weight = 0.0;
      for (FlowIndex f : r.members) {
        if (frozen[static_cast<size_t>(f)])
          frozen_load += rates[static_cast<size_t>(f)];
        else
          active_weight += weights[static_cast<size_t>(f)];
      }
      if (active_weight <= 0.0) continue;
      const double t_c = (r.capacity - frozen_load) / active_weight;
      best_t = std::min(best_t, std::max(t_c, t));
    }
    BWS_CHECK(best_t < std::numeric_limits<double>::infinity(),
              "unconstrained flow: every flow needs a cap or a resource");
    t = best_t;

    bool froze_any = false;
    if (!problem.caps.empty()) {
      for (FlowIndex f = 0; f < n; ++f) {
        if (frozen[static_cast<size_t>(f)]) continue;
        const double cap = problem.caps[static_cast<size_t>(f)];
        if (cap > 0.0 &&
            weights[static_cast<size_t>(f)] * t >= cap * (1.0 - 1e-12)) {
          rates[static_cast<size_t>(f)] = cap;
          frozen[static_cast<size_t>(f)] = true;
          --remaining;
          froze_any = true;
        }
      }
    }
    for (size_t ri = 0; ri < problem.resources.size(); ++ri) {
      if (saturated[ri]) continue;
      const auto& r = problem.resources[ri];
      double frozen_load = 0.0;
      double active_weight = 0.0;
      for (FlowIndex f : r.members) {
        if (frozen[static_cast<size_t>(f)])
          frozen_load += rates[static_cast<size_t>(f)];
        else
          active_weight += weights[static_cast<size_t>(f)];
      }
      if (active_weight <= 0.0) {
        saturated[ri] = true;
        continue;
      }
      if (frozen_load + active_weight * t >= r.capacity * (1.0 - 1e-12)) {
        for (FlowIndex f : r.members) {
          if (frozen[static_cast<size_t>(f)]) continue;
          rates[static_cast<size_t>(f)] = weights[static_cast<size_t>(f)] * t;
          frozen[static_cast<size_t>(f)] = true;
          --remaining;
          froze_any = true;
        }
        saturated[ri] = true;
      }
    }
    if (!froze_any) {
      if (fallbacks != nullptr) ++*fallbacks;
      for (FlowIndex f = 0; f < n; ++f) {
        if (frozen[static_cast<size_t>(f)]) continue;
        rates[static_cast<size_t>(f)] = weights[static_cast<size_t>(f)] * t;
        frozen[static_cast<size_t>(f)] = true;
        --remaining;
      }
    }
  }
  return rates;
}

// Solves `p` with max_min_rates_into on a warm arena and with the reference,
// and requires equal bit patterns (so -0.0 vs 0.0 would fail too) — or that
// both throw. Returns false when the reference threw.
bool expect_matches_reference(const AllocationProblem& p, util::Arena& arena,
                              const std::string& where,
                              int* fallbacks = nullptr) {
  std::vector<double> expected;
  bool ref_threw = false;
  try {
    expected = full_rescan_rates(p, fallbacks);
  } catch (const Error&) {
    ref_threw = true;
  }
  std::vector<ResourceView> res_views;
  for (const Resource& res : p.resources)
    res_views.push_back({res.capacity, res.members});
  AllocationProblemView view;
  view.num_flows = p.num_flows;
  view.weights = p.weights;
  view.caps = p.caps;
  view.resources = res_views;
  std::vector<double> actual(static_cast<size_t>(std::max(p.num_flows, 0)),
                             -1.0);
  bool threw = false;
  try {
    util::Arena::Frame frame(arena);
    max_min_rates_into(view, arena, actual);
  } catch (const Error&) {
    threw = true;
  }
  EXPECT_EQ(threw, ref_threw) << where;
  if (threw || ref_threw) return false;
  for (size_t f = 0; f < actual.size(); ++f) {
    if (std::bit_cast<uint64_t>(actual[f]) !=
        std::bit_cast<uint64_t>(expected[f])) {
      ADD_FAILURE() << where << " flow " << f << ": " << actual[f] << " vs "
                    << expected[f];
      return true;
    }
  }
  return true;
}

// A random problem with up to `max_flows` flows. Weights are absent, small
// integers or continuous; caps are absent, or per flow unset (0 or
// negative) or set; resources have random or windowed member lists, now and
// then with a repeated member. With `degenerate`, capacities and caps are
// drawn from zero, subnormal and tiny values too. Flows left with neither a
// positive cap nor a resource are then given one, except in ~1 problem of 16,
// which is left to throw.
AllocationProblem random_problem(Rng& rng, int max_flows, bool degenerate) {
  AllocationProblem p;
  const int n =
      1 + static_cast<int>(rng.below(static_cast<uint64_t>(max_flows)));
  p.num_flows = n;
  const auto tiny = [&rng] {
    switch (rng.below(4)) {
      case 0: return 0.0;
      case 1: return 5e-324 * static_cast<double>(1 + rng.below(40));
      case 2: return 1e-310 * rng.uniform(0.5, 2.0);
      default: return 1e-300 * rng.uniform(0.5, 2.0);
    }
  };
  switch (rng.below(3)) {
    case 0: break;  // no weights
    case 1:
      for (int f = 0; f < n; ++f)
        p.weights.push_back(1.0 + static_cast<double>(rng.below(4)));
      break;
    default:
      for (int f = 0; f < n; ++f) p.weights.push_back(rng.uniform(0.1, 10.0));
  }
  if (rng.below(4) != 0) {
    const uint64_t unset_in_8 = rng.below(9);
    for (int f = 0; f < n; ++f) {
      if (rng.below(8) < unset_in_8)
        p.caps.push_back(rng.below(2) == 0 ? 0.0 : -1.0);
      else if (degenerate && rng.below(3) == 0)
        p.caps.push_back(tiny());
      else
        p.caps.push_back(rng.below(2) == 0
                             ? 10.0 + static_cast<double>(rng.below(1000))
                             : rng.uniform(1.0, 1000.0));
    }
  }
  const int num_res =
      static_cast<int>(rng.below(static_cast<uint64_t>(n / 2 + 6)));
  for (int r = 0; r < num_res; ++r) {
    Resource res;
    if (degenerate && rng.below(3) == 0)
      res.capacity = tiny();
    else
      res.capacity = rng.below(2) == 0
                         ? 50.0 + static_cast<double>(rng.below(500))
                         : rng.uniform(1.0, 5000.0);
    if (rng.below(2) == 0) {
      const double density = rng.below(2) == 0 ? 0.5 : 4.0 / n;
      for (int f = 0; f < n; ++f)
        if (rng.uniform() < density) res.members.push_back(f);
    } else {
      const int lo = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
      const int len = 1 + static_cast<int>(rng.below(8));
      for (int f = lo; f < std::min(n, lo + len); ++f) res.members.push_back(f);
    }
    if (!res.members.empty() && rng.below(16) == 0)
      res.members.push_back(res.members.front());
    p.resources.push_back(res);
  }
  if (rng.below(16) != 0) {
    std::vector<char> covered(static_cast<size_t>(n), 0);
    for (const auto& r : p.resources)
      for (const FlowIndex f : r.members) covered[static_cast<size_t>(f)] = 1;
    Resource rest{rng.uniform(1.0, 5000.0), {}};
    for (int f = 0; f < n; ++f) {
      const bool capped =
          !p.caps.empty() && p.caps[static_cast<size_t>(f)] > 0.0;
      if (!capped && !covered[static_cast<size_t>(f)])
        rest.members.push_back(f);
    }
    if (!rest.members.empty()) p.resources.push_back(rest);
  }
  return p;
}

TEST(MaxMinReference, RandomProblemsMatchBitwise) {
  util::Arena arena;
  Rng rng(20261017);
  int solved = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const int max_flows = iter % 10 == 0 ? 200 : 24;
    const auto p = random_problem(rng, max_flows, false);
    if (expect_matches_reference(p, arena, "random " + std::to_string(iter)))
      ++solved;
    if (HasFailure()) return;
  }
  // The corpus must mostly solve: throws are only the rare uncovered case.
  EXPECT_GT(solved, 5000);
}

TEST(MaxMinReference, DegenerateCapacitiesMatchBitwise) {
  // Zero, subnormal and tiny capacities and caps: the tightness test can
  // fail for the constraint that set t, which sends the round through the
  // nothing-froze fallback. The corpus must reach it.
  util::Arena arena;
  Rng rng(4242);
  int fallbacks = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const auto p = random_problem(rng, iter % 10 == 0 ? 120 : 16, true);
    expect_matches_reference(p, arena, "degenerate " + std::to_string(iter),
                             &fallbacks);
    if (HasFailure()) return;
  }
  EXPECT_GT(fallbacks, 100);
}

// A generated scheme folded onto nodes / fold hosts: arcs whose endpoints
// fold together become intra-node copies (shm resources), and the survivors
// crowd fewer hosts, so duplex-saturated buses and RX weights appear.
graph::CommGraph folded_scheme(graph::SchemeFamily family, int nodes,
                               int fold, uint64_t seed) {
  graph::GeneratorSpec spec;
  spec.family = family;
  spec.nodes = nodes;
  spec.spread = 1.0;
  const auto base = graph::generate_scheme(spec, seed);
  const int hosts = std::max(2, nodes / fold);
  graph::CommGraph g;
  for (const auto& c : base.comms())
    g.add(c.src % hosts, c.dst % hosts, c.bytes);
  return g;
}

TEST(MaxMinReference, GeneratedSchemeProblemsMatchBitwise) {
  // build_problem() output — the problems the replays actually solve — for
  // every generator family at up to ~200 flows, under all three
  // calibrations, unfolded and folded onto a half and a quarter of the hosts.
  using graph::SchemeFamily;
  util::Arena arena;
  int problems = 0;
  int weighted = 0;
  int with_shm = 0;
  for (const auto& cal : {topo::gigabit_ethernet_calibration(),
                          topo::myrinet2000_calibration(),
                          topo::infiniband_calibration()}) {
    const FluidRateProvider provider(cal);
    for (const auto family :
         {SchemeFamily::kRing, SchemeFamily::kHotspot,
          SchemeFamily::kUniformRandom, SchemeFamily::kAllToAll}) {
      const int top = family == SchemeFamily::kAllToAll       ? 8
                      : family == SchemeFamily::kUniformRandom ? 100
                                                               : 200;
      uint64_t seed = 1;
      for (int nodes = 2; nodes <= top; nodes += std::max(1, top / 24)) {
        for (const int fold : {1, 2, 4}) {
          const auto g = folded_scheme(family, nodes, fold, seed++);
          const auto p = provider.build_problem(g);
          const std::string where = to_string(family) + " nodes " +
                                    std::to_string(nodes) + " fold " +
                                    std::to_string(fold);
          EXPECT_TRUE(expect_matches_reference(p, arena, where)) << where;
          if (HasFailure()) return;
          ++problems;
          weighted += std::any_of(p.weights.begin(), p.weights.end(),
                                  [](double w) { return w != 1.0; });
          for (graph::CommId i = 0; i < g.size(); ++i)
            if (g.is_intra_node(i)) {
              ++with_shm;
              break;
            }
        }
      }
    }
  }
  EXPECT_GT(problems, 700);
  // Folding must reach duplex-saturated hosts and intra-node copies.
  EXPECT_GT(weighted, 300);
  EXPECT_GT(with_shm, 150);
}

/// build_problem(g) on 32 hosts plus the trunk links of a two-level tree
/// above them: 4-host edge switches, two core switches, and per (edge,
/// core) pair one up-link and one down-link of 1x link capacity. A
/// cross-edge flow takes its source edge's up-link and its destination
/// edge's down-link through core (src_edge * 31 + dst_edge * 17) % 2. The
/// trunks follow the host buses, all up-links before all down-links, each
/// in (edge, core) order with its members in comm order.
AllocationProblem trunk_problem(const FluidRateProvider& provider,
                                const graph::CommGraph& g) {
  constexpr int kRadix = 4;
  constexpr int kEdges = 8;
  constexpr int kCores = 2;
  AllocationProblem p = provider.build_problem(g);
  std::vector<std::vector<FlowIndex>> trunks(2 * kEdges * kCores);
  for (graph::CommId i = 0; i < g.size(); ++i) {
    if (g.is_intra_node(i)) continue;
    const int src_edge = g.comm(i).src / kRadix;
    const int dst_edge = g.comm(i).dst / kRadix;
    if (src_edge == dst_edge) continue;
    const int core = (src_edge * 31 + dst_edge * 17) % kCores;
    trunks[static_cast<size_t>(src_edge * kCores + core)].push_back(i);
    trunks[static_cast<size_t>((kEdges + dst_edge) * kCores + core)]
        .push_back(i);
  }
  for (auto& members : trunks)
    if (!members.empty())
      p.resources.push_back(
          Resource{provider.calibration().link_bandwidth, std::move(members)});
  return p;
}

TEST(MaxMinReference, TrunkLinkProblemsMatchBitwise) {
  // Trunk links become resources after the host buses, so flows span up to
  // five resources and share trunks with flows on other hosts.
  const FluidRateProvider provider(topo::gigabit_ethernet_calibration());
  util::Arena arena;
  Rng rng(77);
  size_t most_resources = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const int comms =
        1 + static_cast<int>(rng.below(iter % 10 == 0 ? 200 : 40));
    graph::CommGraph g;
    for (int i = 0; i < comms; ++i) {
      const int src = static_cast<int>(rng.below(32));
      const int dst = rng.below(16) == 0 ? src
                                         : static_cast<int>(rng.below(32));
      g.add(src, dst, 1e6);
    }
    const auto p = trunk_problem(provider, g);
    most_resources = std::max(most_resources, p.resources.size());
    EXPECT_TRUE(expect_matches_reference(p, arena,
                                         "trunk " + std::to_string(iter)));
    if (HasFailure()) return;
  }
  EXPECT_GT(most_resources, 64u);  // host buses plus trunk links
}

TEST(MaxMinReference, MalformedProblemsThrowAlike) {
  util::Arena arena;
  const auto both_throw = [&arena](const AllocationProblem& p,
                                   const std::string& where) {
    EXPECT_FALSE(expect_matches_reference(p, arena, where)) << where;
  };
  AllocationProblem p;
  p.num_flows = 2;
  p.caps = {1.0, 0.0};  // flow 1 uncapped and uncovered
  p.resources = {{5.0, {0}}};
  both_throw(p, "uncovered flow");
  p.resources = {{-1.0, {0, 1}}};
  both_throw(p, "negative capacity");
  p.resources = {{1.0, {0, 2}}};
  both_throw(p, "member out of range");
  p.resources = {{1.0, {0, -1}}};
  both_throw(p, "negative member");
  p.resources = {{1.0, {0, 1}}};
  p.weights = {1.0, 0.0};
  both_throw(p, "zero weight");
  p.weights = {1.0};
  both_throw(p, "short weights");
  p.weights.clear();
  p.caps = {1.0};
  both_throw(p, "short caps");
  p.caps.clear();
  p.resources.clear();
  both_throw(p, "no constraint at all");
}

TEST(MaxMin, IntoValidatesLikeTheVectorApi) {
  util::Arena arena;
  std::vector<double> out(1);
  {
    // Negative capacity.
    const std::vector<ResourceView> res = {{-1.0, {}}};
    AllocationProblemView v;
    v.num_flows = 1;
    v.resources = res;
    EXPECT_THROW(max_min_rates_into(v, arena, out), Error);
  }
  {
    // Uncovered, uncapped flow.
    AllocationProblemView v;
    v.num_flows = 1;
    EXPECT_THROW(max_min_rates_into(v, arena, out), Error);
  }
}

}  // namespace
}  // namespace bwshare::flowsim
