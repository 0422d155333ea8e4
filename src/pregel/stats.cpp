#include "pregel/stats.h"

#include <sstream>

namespace deltav::pregel {

void RunStats::record(const SuperstepStats& ss) {
  supersteps.push_back(ss);
  totals.messages_sent += ss.messages_sent;
  totals.messages_delivered += ss.messages_delivered;
  totals.messages_dropped += ss.messages_dropped;
  totals.bytes_sent += ss.bytes_sent;
  totals.bytes_delivered += ss.bytes_delivered;
  totals.cross_machine_bytes += ss.cross_machine_bytes;
  totals.active_vertices += ss.active_vertices;
  totals.vertices_halted += ss.vertices_halted;
  totals.vertices_woken += ss.vertices_woken;
  totals.compute_seconds += ss.compute_seconds;
  totals.exchange_seconds += ss.exchange_seconds;
  totals.sim_comm_seconds += ss.sim_comm_seconds;
  ++steps;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "supersteps=" << num_supersteps()
     << " msgs=" << total_messages_sent()
     << " delivered=" << total_messages_delivered()
     << " bytes=" << total_bytes_sent()
     << " cross-machine-bytes=" << total_cross_machine_bytes()
     << " compute=" << total_compute_seconds() << "s"
     << " wall=" << total_wall_seconds() << "s"
     << " sim=" << total_sim_seconds() << "s";
  return os.str();
}

}  // namespace deltav::pregel
