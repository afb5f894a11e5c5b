// Human-readable summaries of simulation results — the §VI-A simulator's
// outputs: per-task durations, total time, conflict kinds, average penalty
// and communication sizes.
#pragma once

#include <string>

#include "sim/engine.hpp"
#include "sim/multijob.hpp"

namespace bwshare::sim {

/// Per-task table: finish, compute, send-blocked, recv-blocked, barrier.
[[nodiscard]] std::string render_task_table(const SimResult& result);

/// One-paragraph summary (makespan, average penalty, bytes moved; aborted /
/// background counts appear only when the scenario produced any).
[[nodiscard]] std::string render_summary(const SimResult& result);

/// Per-job co-scheduling table: tasks, alone/shared makespan, interference.
[[nodiscard]] std::string render_multi_job_table(const MultiJobResult& result);

}  // namespace bwshare::sim
