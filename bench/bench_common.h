// Shared harness for the paper-reproduction benches.
//
// Every bench binary prints column-aligned tables (common/table.h) with one
// row per (graph, algorithm, system) so EXPERIMENTS.md can be filled by
// copy-paste. "System" is one of the paper's three: ΔV (full pipeline),
// ΔV* (no incrementalization), and Pregel+ (the hand-written baseline).
//
// Reported metrics:
//   wall(s)  — measured wall-clock of compute+exchange on this machine;
//   sim(s)   — simulated 8×m4.xlarge/750Mbps cluster time (net::ClusterModel)
//              = local compute + modeled cross-machine communication;
//   msgs     — messages sent by compute() (pre-combining);
//   folds    — Δ-contributions the atomic fold path folded straight into
//              receiver accumulators instead of sending (0 for Pregel+);
//   MB       — logical wire bytes of those messages.
//
// Message, fold and byte counts are exact and hardware-independent;
// msgs + folds is the paper's Figure-4-right/Figure-5 quantity. Times
// reproduce the *shape* (who wins, roughly by how much), not the absolute
// EC2 numbers.
#pragma once

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/table.h"
#include "common/timer.h"
#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/programs/programs.h"
#include "dv/runtime/runner.h"
#include "graph/datasets.h"
#include "net/cluster_model.h"
#include "pregel/engine.h"

namespace deltav::bench {

struct Metrics {
  double wall_seconds = 0;
  double sim_seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t folds = 0;
  std::uint64_t bytes = 0;
  std::size_t supersteps = 0;
  std::size_t state_bytes = 0;

  /// Every contribution a vertex made, sent as a message or folded in
  /// place — what the paper counts as a message.
  std::uint64_t contributions() const { return messages + folds; }
};

inline Metrics from_stats(const pregel::RunStats& stats,
                          double wall_seconds) {
  Metrics m;
  m.wall_seconds = wall_seconds;
  m.sim_seconds = stats.total_sim_seconds();
  m.messages = stats.total_messages_sent();
  m.bytes = stats.total_bytes_sent();
  m.supersteps = stats.num_supersteps();
  return m;
}

/// Engine options mirroring the paper's deployment (8 machines × 2
/// workers); `workers` caps the real thread count for this host.
inline pregel::EngineOptions paper_engine(int workers = 4) {
  pregel::EngineOptions o;
  o.num_workers = workers;
  o.cluster.machines = 8;
  o.cluster.workers_per_machine = 2;
  o.cluster.bandwidth_bytes_per_sec = 750e6 / 8.0;
  return o;
}

/// Runs a compiled ΔV program on the given execution tier, returning
/// metrics. Both tiers produce identical message/byte counts (the
/// differential fuzzer enforces bit-equality); only the timings differ.
inline Metrics run_dv(const dv::CompiledProgram& cp,
                      const graph::CsrGraph& g,
                      std::map<std::string, dv::Value> params, int workers,
                      dv::ExecTier tier = dv::ExecTier::kVm,
                      obs::Collector* collector = nullptr) {
  dv::DvRunOptions o;
  o.engine = paper_engine(workers);
  o.params = std::move(params);
  o.tier = tier;
  o.collector = collector;  // per-bench local meter; no global install
  Timer t;
  const auto result = dv::run_program(cp, g, o);
  // A bench row must measure the tier it claims: a silent native→vm
  // fallback would publish VM numbers under the native label.
  DV_CHECK_MSG(result.tier_used == tier,
               "bench run fell back from tier '"
                   << dv::exec_tier_name(tier) << "' to '"
                   << dv::exec_tier_name(result.tier_used)
                   << "': " << result.native_fallback);
  Metrics m = from_stats(result.stats, t.elapsed_seconds());
  m.folds = result.atomic_folds;
  m.state_bytes = cp.state_bytes();
  return m;
}

/// Parses a --tiers flag value: comma-joined "vm" / "tree" / "native".
inline std::vector<dv::ExecTier> parse_tiers(const std::string& flag) {
  std::vector<dv::ExecTier> tiers;
  std::size_t pos = 0;
  while (pos <= flag.size()) {
    const std::size_t comma = flag.find(',', pos);
    const std::size_t end = comma == std::string::npos ? flag.size() : comma;
    tiers.push_back(dv::parse_exec_tier(flag.substr(pos, end - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  DV_CHECK_MSG(!tiers.empty(), "--tiers must name at least one tier");
  return tiers;
}

/// Repeats a measurement `reps` times, keeping the minimum wall-clock —
/// the noise-robust statistic for a deterministic workload, where every
/// deviation from the true cost is additive interference. Simulated time
/// and message/byte counts are deterministic and must be identical across
/// runs; this is verified.
template <typename Fn>
Metrics averaged(int reps, Fn&& fn) {
  Metrics acc = fn();
  for (int i = 1; i < reps; ++i) {
    const Metrics m = fn();
    DV_CHECK_MSG(m.messages == acc.messages && m.folds == acc.folds &&
                     m.bytes == acc.bytes,
                 "nondeterministic message counts across repetitions");
    acc.wall_seconds = std::min(acc.wall_seconds, m.wall_seconds);
    acc.sim_seconds = std::min(acc.sim_seconds, m.sim_seconds);
  }
  return acc;
}

inline void add_row(Table& table, const std::string& graph,
                    const std::string& algo, const std::string& system,
                    const Metrics& m, const std::string& tier = "vm") {
  table.row()
      .cell(graph)
      .cell(algo)
      .cell(system)
      .cell(tier)
      .cell(m.wall_seconds, 3)
      .cell(m.sim_seconds, 3)
      .cell(static_cast<unsigned long long>(m.messages))
      .cell(static_cast<unsigned long long>(m.folds))
      .cell(static_cast<double>(m.bytes) / 1e6, 2)
      .cell(static_cast<unsigned long long>(m.supersteps));
}

inline Table make_metrics_table() {
  return Table({"graph", "algorithm", "system", "tier", "wall(s)", "sim(s)",
                "msgs", "folds", "MB", "supersteps"});
}

/// Machine-readable benchmark output (`--json <path>`): one object per
/// measured row, written once at exit. The schema is the CI perf-tracking
/// contract — BENCH_fig4.json in the repo root is the committed baseline —
/// so fields are only ever added, never renamed.
class JsonReport {
 public:
  void set_path(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  /// `fold` labels which Δ-send fold path the row ran ("atomic" or
  /// "buffered"); empty omits the field (rows where the axis is
  /// meaningless, e.g. snapshot save/restore).
  void add(const std::string& graph, const std::string& algo,
           const std::string& system, const std::string& tier,
           const Metrics& m, const std::string& fold = "") {
    if (enabled()) rows_.push_back(Row{graph, algo, system, tier, fold, m});
  }

  /// Attaches the bench's observability series: counters as a top-level
  /// "metrics" object, histograms (e.g. dv.native_compile_seconds) as a
  /// "histograms" object of {count, sum, min, max}. Both aggregate every
  /// measured run (including repetitions) of the bench invocation —
  /// deterministic counters scale linearly with reps.
  void set_metrics(const obs::MetricsRegistry::Snapshot& snap) {
    obs_counters_ = snap.counters;
    obs_histograms_ = snap.histograms;
  }

  void write(const std::string& bench_name) const {
    if (!enabled()) return;
    std::ofstream out(path_);
    DV_CHECK_MSG(out.good(), "cannot open --json path '" << path_ << "'");
    out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      const Metrics& m = r.metrics;
      out << (i ? ",\n" : "\n")
          << "    {\"graph\": \"" << r.graph << "\", \"algorithm\": \""
          << r.algo << "\", \"system\": \"" << r.system
          << "\", \"tier\": \"" << r.tier << "\", \"wall_seconds\": "
          << std::setprecision(6) << m.wall_seconds
          << ", \"sim_seconds\": " << m.sim_seconds
          << ", \"messages\": " << m.messages << ", \"folds\": " << m.folds
          << ", \"bytes\": " << m.bytes
          << ", \"supersteps\": " << m.supersteps
          << ", \"state_bytes\": " << m.state_bytes;
      if (!r.fold.empty()) out << ", \"fold_path\": \"" << r.fold << "\"";
      out << "}";
    }
    out << "\n  ]";
    if (!obs_counters_.empty()) {
      out << ",\n  \"metrics\": {";
      bool first = true;
      for (const auto& [name, value] : obs_counters_) {
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": " << value;
        first = false;
      }
      out << "\n  }";
    }
    if (!obs_histograms_.empty()) {
      out << ",\n  \"histograms\": {";
      bool first = true;
      for (const auto& [name, h] : obs_histograms_) {
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
            << ", \"min\": " << h.min << ", \"max\": " << h.max << "}";
        first = false;
      }
      out << "\n  }";
    }
    out << "\n}\n";
    DV_CHECK_MSG(out.good(), "failed writing --json path '" << path_ << "'");
    std::cout << "\nwrote " << rows_.size() << " rows to " << path_ << "\n";
  }

 private:
  struct Row {
    std::string graph, algo, system, tier, fold;
    Metrics metrics;
  };
  std::string path_;
  std::vector<Row> rows_;
  std::map<std::string, std::uint64_t> obs_counters_;
  std::map<std::string, obs::MetricsRegistry::HistogramStats> obs_histograms_;
};

/// Prints the standard bench banner.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "== " << title << " ==\n"
            << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace deltav::bench
