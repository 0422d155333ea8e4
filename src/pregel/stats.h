// Per-superstep and whole-run statistics collected by the engine.
//
// These counters are the primary measurement surface for the paper's
// evaluation: Figure 4's message counts come straight from
// RunStats::total_messages_sent(), and the simulated cluster times come
// from the per-superstep cross-machine byte counts fed through
// net::ClusterModel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace deltav::pregel {

struct SuperstepStats {
  std::uint64_t messages_sent = 0;       // emitted by compute()
  std::uint64_t messages_delivered = 0;  // after sender-side combining
  std::uint64_t messages_dropped = 0;    // addressed to deleted vertices
  std::uint64_t bytes_sent = 0;          // wire bytes, pre-combine
  std::uint64_t bytes_delivered = 0;     // wire bytes, post-combine
  std::uint64_t cross_machine_bytes = 0; // delivered bytes crossing machines
  std::uint64_t active_vertices = 0;     // vertices whose compute() ran
  std::uint64_t vertices_halted = 0;     // vote_to_halt transitions (§6.6)
  std::uint64_t vertices_woken = 0;      // message-driven reactivations
  double compute_seconds = 0;            // wall time of the compute phase
  double exchange_seconds = 0;           // wall time of the exchange phase
  double sim_comm_seconds = 0;           // ClusterModel estimate
};

struct RunStats {
  /// One record per superstep since the engine was constructed, or since
  /// it was last restored: a checkpoint carries the totals below, not
  /// this log.
  std::vector<SuperstepStats> supersteps;
  /// Field-wise sums over every superstep since construction, restores
  /// included, and their count. Each total adds the same values in the
  /// same order as a pass over the whole log would, so wall-time totals
  /// are bit-identical to such a pass too.
  SuperstepStats totals;
  std::size_t steps = 0;

  /// Appends one superstep to the log and to the totals.
  void record(const SuperstepStats& ss);

  std::size_t num_supersteps() const { return steps; }

  std::uint64_t total_messages_sent() const { return totals.messages_sent; }
  std::uint64_t total_messages_delivered() const {
    return totals.messages_delivered;
  }
  std::uint64_t total_messages_dropped() const {
    return totals.messages_dropped;
  }
  std::uint64_t total_bytes_sent() const { return totals.bytes_sent; }
  std::uint64_t total_cross_machine_bytes() const {
    return totals.cross_machine_bytes;
  }
  std::uint64_t total_vertices_halted() const {
    return totals.vertices_halted;
  }
  std::uint64_t total_vertices_woken() const { return totals.vertices_woken; }
  double total_compute_seconds() const { return totals.compute_seconds; }
  double total_exchange_seconds() const { return totals.exchange_seconds; }
  double total_sim_comm_seconds() const { return totals.sim_comm_seconds; }
  /// Simulated cluster run time: local compute + modeled network.
  double total_sim_seconds() const {
    return total_compute_seconds() + total_sim_comm_seconds();
  }
  double total_wall_seconds() const {
    return total_compute_seconds() + total_exchange_seconds();
  }

  std::string summary() const;
};

}  // namespace deltav::pregel
