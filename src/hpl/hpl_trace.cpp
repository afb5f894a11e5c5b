#include "hpl/hpl_trace.hpp"

#include <algorithm>

#include "hpl/lu.hpp"
#include "util/error.hpp"

namespace bwshare::hpl {

int num_panels(const HplParams& params) {
  const int panels = (params.n + params.nb - 1) / params.nb;
  return params.max_panels > 0 ? std::min(panels, params.max_panels) : panels;
}

double panel_bytes(const HplParams& params, int k) {
  const double rows = std::max(0, params.n - k * params.nb);
  const double cols = std::min(params.nb, params.n - k * params.nb);
  return rows * cols * 8.0;
}

sim::AppTrace make_hpl_trace(const HplParams& params) {
  BWS_CHECK(params.n >= 1, "problem size must be positive");
  BWS_CHECK(params.nb >= 1, "block size must be positive");
  BWS_CHECK(params.tasks >= 2, "HPL trace needs at least two tasks");

  const int p = params.tasks;
  sim::AppTrace trace(p);

  const int panels = num_panels(params);
  // Depth-1 lookahead (HPL's default): the next panel's owner updates its
  // panel columns first, factorizes and *starts broadcasting the next panel
  // while the current broadcast is still travelling the ring*. This is what
  // makes communications overlap — and therefore conflict — on co-located
  // placements. Each task's receive of panel k+1 is posted as an Irecv
  // during iteration k (after it forwarded panel k) and completed with a
  // WaitAll where the blocking receive would have been — so the next
  // broadcast travels while the trailing updates run, exactly HPL's
  // comm/compute overlap. `irecv_posted[t]` tracks that protocol state.
  std::vector<bool> irecv_posted(static_cast<size_t>(p), false);

  auto receive_panel = [&](int task, int prev, double bytes) {
    if (irecv_posted[static_cast<size_t>(task)]) {
      trace.push(task, sim::Event::wait_all());
      irecv_posted[static_cast<size_t>(task)] = false;
    } else {
      trace.push(task, sim::Event::recv(prev, bytes));
    }
  };

  for (int k = 0; k < panels; ++k) {
    const int owner = k % p;
    const int next_owner = (k + 1) % p;
    const double m = std::max(0, params.n - k * params.nb);
    const double nb = std::min(params.nb, params.n - k * params.nb);
    const double bytes = panel_bytes(params, k);
    const double t_panel = panel_flops(m, nb) / kFlopsPerSecond;

    // Trailing matrix after this panel.
    const double trailing_cols = std::max(0.0, m - nb);
    const double per_task_cols = trailing_cols / p;
    const double t_update =
        update_flops(m - nb, per_task_cols, nb) / kFlopsPerSecond;

    // Post the lookahead Irecv for panel k+1 on everyone but its owner.
    auto post_lookahead_irecv = [&](int task) {
      if (k + 1 >= panels) return;
      if (task == next_owner) return;
      trace.push(task, sim::Event::irecv((task + p - 1) % p,
                                         panel_bytes(params, k + 1)));
      irecv_posted[static_cast<size_t>(task)] = true;
    };

    // Panel owner: factorize and start the ring. Every panel k < panels
    // has at least one row and column left, so `bytes` is at least 8.
    trace.push(owner, sim::Event::compute(t_panel));
    trace.push(owner, sim::Event::send((owner + 1) % p, bytes));
    post_lookahead_irecv(owner);
    if (t_update > 0.0) trace.push(owner, sim::Event::compute(t_update));

    // Ring forwarding: task j receives from its predecessor and forwards,
    // except the last task in the ring, which only receives.
    for (int hop = 1; hop < p; ++hop) {
      const int task = (owner + hop) % p;
      const int prev = (owner + hop - 1) % p;
      receive_panel(task, prev, bytes);
      if (hop != p - 1)
        trace.push(task, sim::Event::send((task + 1) % p, bytes));
      post_lookahead_irecv(task);
      if (t_update > 0.0) trace.push(task, sim::Event::compute(t_update));
    }
  }

  trace.validate();
  return trace;
}

}  // namespace bwshare::hpl
