#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

int Scenario::num_jobs() const {
  if (job_of.empty()) return 1;
  return 1 + *std::max_element(job_of.begin(), job_of.end());
}

void Scenario::validate(int num_tasks, int num_nodes) const {
  for (const auto& ev : churn) {
    BWS_CHECK(std::isfinite(ev.time) && ev.time >= 0.0,
              strformat("scenario: churn event time must be finite and >= 0, "
                        "got %g",
                        ev.time));
    BWS_CHECK(ev.node >= 0 && ev.node < num_nodes,
              strformat("scenario: churn event node %d outside cluster of %d",
                        ev.node, num_nodes));
  }
  for (const auto& f : background) {
    BWS_CHECK(std::isfinite(f.time) && f.time >= 0.0,
              strformat("scenario: background flow time must be finite and "
                        ">= 0, got %g",
                        f.time));
    BWS_CHECK(f.src >= 0 && f.src < num_nodes && f.dst >= 0 &&
                  f.dst < num_nodes,
              strformat("scenario: background flow %d->%d outside cluster "
                        "of %d",
                        f.src, f.dst, num_nodes));
    BWS_CHECK(f.src != f.dst, "scenario: background flow src == dst");
    BWS_CHECK(f.bytes > 0.0,
              strformat("scenario: background flow bytes must be > 0, got %g",
                        f.bytes));
  }
  if (job_of.empty()) return;
  BWS_CHECK(static_cast<int>(job_of.size()) == num_tasks,
            strformat("scenario: job_of covers %zu tasks but the trace "
                      "has %d",
                      job_of.size(), num_tasks));
  const int jobs = num_jobs();
  std::vector<int> count(static_cast<size_t>(jobs), 0);
  for (const int j : job_of) {
    BWS_CHECK(j >= 0, strformat("scenario: negative job id %d", j));
    ++count[static_cast<size_t>(j)];
  }
  for (int j = 0; j < jobs; ++j) {
    BWS_CHECK(count[static_cast<size_t>(j)] > 0,
              strformat("scenario: job ids must be dense, job %d has no "
                        "tasks",
                        j));
  }
}

}  // namespace bwshare::sim
