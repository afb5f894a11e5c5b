#include "flowsim/fluid.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::flowsim {

void max_min_rates_into(const AllocationProblemView& problem,
                        util::Arena& scratch, std::span<double> out) {
  const int n = problem.num_flows;
  BWS_CHECK(n >= 0, "num_flows must be non-negative");
  BWS_CHECK(problem.weights.empty() ||
                problem.weights.size() == static_cast<size_t>(n),
            "weights must be empty or one per flow");
  BWS_CHECK(problem.caps.empty() ||
                problem.caps.size() == static_cast<size_t>(n),
            "caps must be empty or one per flow");
  BWS_CHECK(out.size() == static_cast<size_t>(n),
            "output span must have one slot per flow");

  util::Arena::Frame frame(scratch);
  const size_t nf = static_cast<size_t>(n);
  const size_t nr = problem.resources.size();
  size_t n_mem = 0;
  for (const auto& r : problem.resources) n_mem += r.members.size();
  // All int scratch in one block: the flow -> resource incidence (CSR
  // offsets and entries) and the two live lists below.
  std::span<int> ints =
      scratch.make_span_uninit<int>(nf + 1 + n_mem + nr + nf);
  std::span<int> inc_off = ints.first(nf + 1);
  std::span<int> inc = ints.subspan(nf + 1, n_mem);
  std::span<int> live = ints.subspan(nf + 1 + n_mem, nr);
  std::span<int> capped = ints.subspan(nf + 1 + n_mem + nr, nf);
  std::fill(inc_off.begin(), inc_off.end(), 0);
  std::span<double> weights = scratch.make_span_uninit<double>(2 * nf);
  std::span<double> cap_t = weights.subspan(nf);
  weights = weights.first(nf);
  if (problem.weights.empty())
    std::fill(weights.begin(), weights.end(), 1.0);
  else
    std::copy(problem.weights.begin(), problem.weights.end(), weights.begin());
  for (double w : weights) BWS_CHECK(w > 0.0, "flow weights must be positive");

  // Validate, and list the resources that can bind, in ascending order. A
  // resource is left out when it cannot change the result (see fluid.hpp):
  // one without members, or one whose single member is capped at or below
  // its capacity — that member reaches its cap first, and the caps are
  // folded and frozen before the resources in each pass. inc_off counts the
  // listed resources per member.
  size_t n_live = 0;
  for (size_t ri = 0; ri < nr; ++ri) {
    const auto& r = problem.resources[ri];
    BWS_CHECK(r.capacity >= 0.0, "resource capacity must be non-negative");
    for (FlowIndex f : r.members)
      BWS_CHECK(f >= 0 && f < n,
                strformat("resource member %d out of range [0,%d)", f, n));
    if (r.members.empty()) continue;
    if (r.members.size() == 1 && !problem.caps.empty()) {
      const double cap = problem.caps[static_cast<size_t>(r.members[0])];
      if (cap > 0.0 && cap <= r.capacity) continue;
    }
    live[n_live++] = static_cast<int>(ri);
    for (FlowIndex f : r.members) ++inc_off[static_cast<size_t>(f)];
  }

  std::span<double> rates = out;
  std::fill(rates.begin(), rates.end(), 0.0);
  if (n == 0) return;

  // Flow -> listed-resource incidence, so a freezing flow can mark exactly
  // the resources whose cached sums it invalidates. inc_off holds per-flow
  // counts; an inclusive prefix sum turns them into range ends, and a
  // backward fill walks each end down to its range start.
  for (size_t f = 1; f < nf; ++f) inc_off[f] += inc_off[f - 1];
  inc_off[nf] = inc_off[nf - 1];
  for (size_t k = n_live; k-- > 0;)
    for (FlowIndex f : problem.resources[static_cast<size_t>(live[k])].members)
      inc[static_cast<size_t>(--inc_off[static_cast<size_t>(f)])] = live[k];

  // Cached per-resource sums; `stale` is set whenever a member freezes and
  // cleared by refresh(), which reruns the member-order loop.
  struct Sums {
    double frozen_load;
    double active_weight;
    double t_c;  // (capacity - frozen_load) / active_weight, if active
    bool stale;
  };
  std::span<Sums> sums = scratch.make_span_uninit<Sums>(nr);
  for (size_t k = 0; k < n_live; ++k)
    sums[static_cast<size_t>(live[k])].stale = true;
  std::span<char> frozen = scratch.make_span<char>(nf);
  const auto refresh = [&](size_t ri) -> const Sums& {
    Sums& s = sums[ri];
    if (!s.stale) return s;
    const auto& r = problem.resources[ri];
    double frozen_load = 0.0;
    double active_weight = 0.0;
    for (FlowIndex f : r.members) {
      if (frozen[static_cast<size_t>(f)])
        frozen_load += rates[static_cast<size_t>(f)];
      else
        active_weight += weights[static_cast<size_t>(f)];
    }
    s.frozen_load = frozen_load;
    s.active_weight = active_weight;
    if (active_weight > 0.0) s.t_c = (r.capacity - frozen_load) / active_weight;
    s.stale = false;
    return s;
  };
  int remaining = n;
  const auto freeze = [&](FlowIndex f, double rate) {
    rates[static_cast<size_t>(f)] = rate;
    frozen[static_cast<size_t>(f)] = true;
    --remaining;
    for (int k = inc_off[static_cast<size_t>(f)];
         k < inc_off[static_cast<size_t>(f) + 1]; ++k)
      sums[static_cast<size_t>(inc[static_cast<size_t>(k)])].stale = true;
  };

  // The capped flows, in ascending order, with their cap times cap_f / w_f.
  // This list and the resource list are live lists: compacted in place as
  // flows freeze and resources saturate, so every pass visits what a scan
  // of all flows or all resources would act on, in the same order.
  size_t n_capped = 0;
  for (size_t f = 0; f < problem.caps.size(); ++f) {
    const double cap = problem.caps[f];
    if (!(cap > 0.0)) continue;
    capped[n_capped++] = static_cast<int>(f);
    cap_t[f] = cap / weights[f];
  }

  // Progressive filling: unfrozen flow f has rate w_f * t. In each round,
  // find the constraint that saturates at the smallest t.
  double t = 0.0;
  while (remaining > 0) {
    double best_t = std::numeric_limits<double>::infinity();
    // Per-flow caps: flow f saturates its own cap at t = cap_f / w_f.
    size_t kept = 0;
    for (size_t k = 0; k < n_capped; ++k) {
      const int f = capped[k];
      if (frozen[static_cast<size_t>(f)]) continue;
      capped[kept++] = f;
      best_t = std::min(best_t, cap_t[static_cast<size_t>(f)]);
    }
    n_capped = kept;
    for (size_t k = 0; k < n_live; ++k) {
      const Sums& s = refresh(static_cast<size_t>(live[k]));
      if (s.active_weight <= 0.0) continue;  // nothing left to constrain
      best_t = std::min(best_t, std::max(s.t_c, t));
    }
    BWS_CHECK(best_t < std::numeric_limits<double>::infinity(),
              "unconstrained flow: every flow needs a cap or a resource");
    t = best_t;

    // Freeze every flow pinned by a constraint that is tight at t.
    bool froze_any = false;
    kept = 0;
    for (size_t k = 0; k < n_capped; ++k) {
      const int f = capped[k];
      const double cap = problem.caps[static_cast<size_t>(f)];
      if (weights[static_cast<size_t>(f)] * t >= cap * (1.0 - 1e-12)) {
        freeze(f, cap);
        froze_any = true;
      } else {
        capped[kept++] = f;
      }
    }
    n_capped = kept;
    kept = 0;
    for (size_t k = 0; k < n_live; ++k) {
      const size_t ri = static_cast<size_t>(live[k]);
      const Sums& s = refresh(ri);
      if (s.active_weight <= 0.0) continue;  // saturated: drop it
      const auto& r = problem.resources[ri];
      if (s.frozen_load + s.active_weight * t >= r.capacity * (1.0 - 1e-12)) {
        for (FlowIndex f : r.members) {
          if (frozen[static_cast<size_t>(f)]) continue;
          freeze(f, weights[static_cast<size_t>(f)] * t);
          froze_any = true;
        }
        continue;  // saturated: drop it
      }
      live[kept++] = static_cast<int>(ri);
    }
    n_live = kept;
    // Numerical safety: if nothing froze (degenerate capacities), freeze the
    // flows at the current rate to guarantee termination.
    if (!froze_any) {
      for (FlowIndex f = 0; f < n; ++f) {
        if (frozen[static_cast<size_t>(f)]) continue;
        rates[static_cast<size_t>(f)] = weights[static_cast<size_t>(f)] * t;
        frozen[static_cast<size_t>(f)] = true;
        --remaining;
      }
    }
  }
}

std::vector<double> max_min_rates(const AllocationProblem& problem) {
  std::vector<ResourceView> resources;
  resources.reserve(problem.resources.size());
  for (const auto& r : problem.resources)
    resources.push_back({r.capacity, r.members});
  AllocationProblemView view;
  view.num_flows = problem.num_flows;
  view.weights = problem.weights;
  view.caps = problem.caps;
  view.resources = resources;
  std::vector<double> rates(
      static_cast<size_t>(std::max(problem.num_flows, 0)), 0.0);
  max_min_rates_into(view, util::Arena::thread_local_instance(), rates);
  return rates;
}

}  // namespace bwshare::flowsim
