#include "sim/report.hpp"

#include <sstream>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace bwshare::sim {

std::string render_task_table(const SimResult& result) {
  TextTable t({"task", "finish", "compute", "send-blk", "recv-blk",
               "barrier", "sends", "recvs"});
  for (size_t i = 0; i < result.tasks.size(); ++i) {
    const auto& s = result.tasks[i];
    t.add_row({strformat("%zu", i), human_seconds(s.finish_time),
               human_seconds(s.compute_seconds),
               human_seconds(s.send_blocked_seconds),
               human_seconds(s.recv_blocked_seconds),
               human_seconds(s.barrier_wait_seconds),
               strformat("%d", s.sends), strformat("%d", s.recvs)});
  }
  return t.render();
}

std::string render_summary(const SimResult& result) {
  double bytes = 0.0;
  for (const auto& c : result.comms) bytes += c.bytes;
  std::ostringstream os;
  os << "makespan " << human_seconds(result.makespan) << ", "
     << result.comms.size() << " communications moving " << human_bytes(bytes)
     << ", average penalty " << strformat("%.3f", result.average_penalty());
  if (result.aborted_comms > 0)
    os << ", " << result.aborted_comms << " aborted by failures";
  if (result.background_comms > 0 || result.background_skipped > 0)
    os << ", " << result.background_comms << " background flows ("
       << result.background_skipped << " skipped)";
  return os.str();
}

std::string render_multi_job_table(const MultiJobResult& result) {
  TextTable t({"job", "tasks", "alone", "shared", "interference"});
  for (const auto& j : result.jobs) {
    t.add_row({j.name, strformat("%d", j.num_tasks),
               human_seconds(j.makespan_alone),
               human_seconds(j.makespan_shared),
               strformat("%+.1f%%", j.interference_pct)});
  }
  return t.render();
}

}  // namespace bwshare::sim
