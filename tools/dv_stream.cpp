// Streaming-epoch driver: keep a ΔV program converged across a stream of
// graph mutations, reporting per-epoch warm/cold costs.
//
//   dv_stream --program=cc --undirected --graph=edges.txt
//             --mutations=stream.txt
//   dv_stream --file=my.dv --graph=edges.txt --param=source=0
//             --mutations=stream.txt --tier=tree
//
//   # checkpoint during long convergences, resume the stream later:
//   dv_stream --program=cc --undirected --graph=edges.txt
//             --mutations=head.txt --checkpoint_every=16
//             --checkpoint=ckpt.snap --save=done.snap
//   dv_stream --program=cc --restore=done.snap --mutations=tail.txt
//
// The graph is a plain edge list (graph/edge_list_io.h); the mutation
// stream is the dv/streaming/mutation_io.h format: `+ u v [w]`, `- u v`,
// `addv n`, `delv v`, batches separated by `commit` or blank lines. Each
// batch becomes one epoch; the table shows whether the runtime resumed
// warm (Δ-patched accumulators, frontier-only wake-up) or fell back to a
// cold rebuild, and what either cost.
//
// --restore rebuilds the session from a snapshot (the graph comes from
// the snapshot, so --graph is not needed) and applies --mutations as the
// remaining stream; a snapshot taken mid-convergence resumes the
// interrupted run first. A damaged snapshot fails with the detected
// reason — restore never silently decodes a torn file. --json writes one
// row per epoch in the bench_stream JSON schema.

#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/check.h"
#include "common/table.h"
#include "common/timer.h"
#include "dv/compiler.h"
#include "dv/obs/report.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/streaming/mutation_io.h"
#include "dv/streaming/stream_session.h"
#include "graph/edge_list_io.h"

namespace {

using namespace deltav;

const char* builtin_source(const std::string& name) {
  if (name == "pagerank") return dv::programs::kPageRank;
  if (name == "pagerank-ug") return dv::programs::kPageRankUndirected;
  if (name == "sssp") return dv::programs::kSssp;
  if (name == "sssp_retract") return dv::programs::kSsspRetract;
  if (name == "cc") return dv::programs::kConnectedComponents;
  if (name == "hits") return dv::programs::kHits;
  if (name == "reachability") return dv::programs::kReachability;
  if (name == "maxgossip") return dv::programs::kMaxGossip;
  if (name == "bfs") return dv::programs::kBfs;
  if (name == "kcore") return dv::programs::kKCore;
  if (name == "mis") return dv::programs::kMis;
  if (name == "pointerjump") return dv::programs::kPointerJump;
  DV_FAIL("unknown built-in program '"
          << name
          << "' (try pagerank, pagerank-ug, sssp, sssp_retract, cc, hits, "
             "reachability, maxgossip, bfs, kcore, mis, pointerjump)");
}

std::map<std::string, dv::Value> parse_params(const std::string& spec) {
  std::map<std::string, dv::Value> params;
  std::istringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    DV_CHECK_MSG(eq != std::string::npos,
                 "--params expects name=value, got '" << item << "'");
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (value.find('.') != std::string::npos) {
      params[name] = dv::Value::of_float(std::stod(value));
    } else {
      params[name] = dv::Value::of_int(std::stoll(value));
    }
  }
  return params;
}

std::string batch_summary(const graph::MutationBatch& b) {
  std::size_t ins = 0, del = 0;
  for (const auto& e : b.edges) (e.insert ? ins : del)++;
  std::ostringstream os;
  os << "+" << ins << " -" << del;
  if (b.add_vertices > 0) os << " addv " << b.add_vertices;
  if (!b.detach_vertices.empty()) os << " delv " << b.detach_vertices.size();
  return os.str();
}

/// bench_stream's JSON schema (bench/bench_common.h JsonReport): the same
/// row keys, so CI tooling can consume either file; `epoch` is an added
/// field (the schema contract allows additions, never renames).
class EpochJson {
 public:
  void set_path(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  void add(std::size_t epoch, const std::string& graph,
           const std::string& algo, const std::string& system,
           const std::string& tier, double wall_seconds,
           std::uint64_t messages, std::size_t supersteps,
           std::size_t state_bytes, bool warm, const std::string& blocker,
           const std::string& fold, std::size_t minmax_memo_k) {
    if (enabled())
      rows_.push_back(Row{epoch, graph, algo, system, tier, wall_seconds,
                          messages, supersteps, state_bytes, warm, blocker,
                          fold, minmax_memo_k});
  }

  void write() const {
    if (!enabled()) return;
    std::ofstream out(path_);
    DV_CHECK_MSG(out.good(), "cannot open --json path '" << path_ << "'");
    out << "{\n  \"bench\": \"dv_stream\",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out << (i ? ",\n" : "\n")
          << "    {\"graph\": \"" << r.graph << "\", \"algorithm\": \""
          << r.algo << "\", \"system\": \"" << r.system
          << "\", \"tier\": \"" << r.tier << "\", \"wall_seconds\": "
          << std::setprecision(6) << r.wall_seconds
          << ", \"sim_seconds\": 0, \"messages\": " << r.messages
          << ", \"bytes\": 0, \"supersteps\": " << r.supersteps
          << ", \"state_bytes\": " << r.state_bytes
          << ", \"epoch\": " << r.epoch
          << ", \"warm\": " << (r.warm ? "true" : "false")
          << ", \"blocker\": \"" << r.blocker
          << "\", \"fold_path\": \"" << r.fold
          << "\", \"minmax_memo_k\": " << r.minmax_memo_k << "}";
    }
    out << "\n  ]\n}\n";
    DV_CHECK_MSG(out.good(), "failed writing --json path '" << path_ << "'");
    std::cout << "wrote " << rows_.size() << " rows to " << path_ << "\n";
  }

 private:
  struct Row {
    std::size_t epoch;
    std::string graph, algo, system, tier;
    double wall_seconds;
    std::uint64_t messages;
    std::size_t supersteps;
    std::size_t state_bytes;
    bool warm;
    std::string blocker;  // cold-fallback reason; "" when warm
    std::string fold;     // "atomic" | "buffered": which Δ-send fold path
                          // this epoch actually ran
    std::size_t minmax_memo_k;  // retraction-memo capacity the session ran
                                // with (0 = memos disabled)
  };
  std::string path_;
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const std::string program =
        args.get_string("program", "", "built-in program name");
    const std::string file =
        args.get_string("file", "", "path to a ΔV source file");
    const std::string graph_path =
        args.get_string("graph", "", "edge-list file (src dst [weight])");
    const std::string mutations_path = args.get_string(
        "mutations", "", "mutation-stream file (mutation_io format)");
    const bool undirected =
        args.get_bool("undirected", false, "treat the edge list as undirected");
    const bool weighted =
        args.get_bool("weighted", false, "read edge weights");
    const std::string params_spec = args.get_string(
        "params", "", "program parameters, e.g. source=0,steps=30");
    const std::string tier_flag = args.get_string(
        "tier", "vm", "execution tier: vm | tree | native");
    const double epsilon = args.get_double(
        "epsilon", 0.0,
        "ε-slop for §6.3 change checks (0 = exact change detection)");
    const std::string fold_flag = args.get_string(
        "fold_path", "auto",
        "Δ-send fold path: auto (atomic where proven commutative) or "
        "buffered");
    const bool atomic_float = args.get_bool(
        "atomic_float", false,
        "admit float + aggregations to the atomic fold path (ε-close, "
        "not bit-exact: concurrent fetch order re-associates the sum)");
    const int workers =
        static_cast<int>(args.get_int("workers", 4, "engine worker threads"));
    const bool force_cold = args.get_bool(
        "force_cold", false, "rebuild from scratch every epoch (baseline)");
    const double compact_threshold = args.get_double(
        "compact_threshold", 0.25,
        "fold the overlay into the base CSR above this overlay fraction");
    const auto minmax_memo_k = static_cast<std::size_t>(args.get_int(
        "minmax_memo_k", 8,
        "per-vertex k-best retraction memo capacity for min/max "
        "aggregation sites (DESIGN.md §11); 0 disables the memos and "
        "restores the legacy cold-fallback on extremum deletions"));
    const auto checkpoint_every = static_cast<std::size_t>(args.get_int(
        "checkpoint_every", 0,
        "checkpoint every K supersteps during convergence (0 = off)"));
    const std::string checkpoint_path = args.get_string(
        "checkpoint", "", "checkpoint snapshot path (atomic tmp+rename)");
    const std::string restore_path = args.get_string(
        "restore", "",
        "resume from a snapshot instead of --graph; --mutations is the "
        "remaining stream");
    const std::string save_path = args.get_string(
        "save", "", "write a final session snapshot here on exit");
    EpochJson json;
    json.set_path(args.get_string(
        "json", "", "write per-epoch JSON rows here (bench_stream schema)"));
    obs::ReportOptions obs_opts;
    obs_opts.metrics_path = args.get_string(
        "metrics", "", "write a metrics JSON document here on exit");
    obs_opts.trace_path = args.get_string(
        "trace", "", "write a span trace here (chrome://tracing / Perfetto)");
    obs_opts.trace_format = args.get_string(
        "trace_format", "chrome", "trace file format: chrome or jsonl");
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();

    // Inert (no collector, null fast paths everywhere) unless --metrics
    // or --trace was passed; installs the collector globally so the
    // session's engine/runner/VM pick it up without explicit plumbing.
    obs::ObsSession obs(obs_opts);
    const auto obs_snapshot = [&] {
      return obs.enabled() ? obs.collector()->metrics.snapshot()
                           : obs::MetricsRegistry::Snapshot{};
    };
    const auto obs_epoch = [&](std::size_t epoch, bool warm,
                               const std::string& blocker,
                               const obs::MetricsRegistry::Snapshot& before) {
      if (!obs.enabled()) return;
      obs::EpochMetrics em;
      em.epoch = epoch;
      em.warm = warm;
      em.blocker = blocker;
      em.counters = obs::counter_diff(before, obs_snapshot());
      obs.add_epoch(std::move(em));
    };

    DV_CHECK_MSG(program.empty() != file.empty(),
                 "pass exactly one of --program or --file");
    DV_CHECK_MSG(!restore_path.empty() || !graph_path.empty(),
                 "pass --graph, --restore, or both (--graph is the cold "
                 "fallback when the snapshot is rejected)");
    DV_CHECK_MSG(!mutations_path.empty(),
                 "pass --mutations=<mutation stream>");
    DV_CHECK_MSG(checkpoint_every == 0 || !checkpoint_path.empty(),
                 "--checkpoint_every needs --checkpoint=<path>");

    std::string source;
    std::string algo;
    if (!program.empty()) {
      source = builtin_source(program);
      algo = program;
    } else {
      std::ifstream in(file);
      DV_CHECK_MSG(in.good(), "cannot open ΔV source '" << file << "'");
      std::ostringstream buf;
      buf << in.rdbuf();
      source = buf.str();
      algo = file;
    }

    const auto batches =
        dv::streaming::read_mutation_stream_file(mutations_path);
    DV_CHECK_MSG(!batches.empty(),
                 "mutation stream '" << mutations_path << "' is empty");

    dv::CompileOptions copts;
    copts.epsilon = epsilon;
    const dv::CompiledProgram cp = dv::compile(source, copts);
    dv::streaming::SessionOptions so;
    so.run.engine.num_workers = workers;
    so.run.tier = dv::parse_exec_tier(tier_flag);
    so.run.params = parse_params(params_spec);
    so.run.fold_path = dv::parse_fold_path(fold_flag);
    so.run.atomic_float = atomic_float;
    so.compact_threshold = compact_threshold;
    so.minmax_memo_k = minmax_memo_k;
    so.force_cold = force_cold;
    so.checkpoint_every = checkpoint_every;
    so.checkpoint_path = checkpoint_path;
    const std::string tier_name = dv::exec_tier_name(so.run.tier);

    std::unique_ptr<dv::streaming::DvStreamSession> session;
    if (!restore_path.empty()) {
      try {
        session =
            dv::streaming::DvStreamSession::restore(cp, restore_path, so);
      } catch (const dv::persist::SnapshotError& e) {
        // A torn or mismatched snapshot is detected, never decoded; with
        // --graph we rebuild cold instead of aborting.
        std::cerr << "restore of '" << restore_path
                  << "' rejected: " << e.what() << "\n";
        if (graph_path.empty()) return 2;
        std::cerr << "falling back to a cold rebuild from --graph\n";
      }
    }
    if (session) {
      std::cout << "restored '" << restore_path << "': epoch "
                << session->epoch() << ", "
                << session->graph().num_vertices() << " vertices, "
                << session->graph().num_arcs() << " arcs"
                << (session->converged() ? "" : " (mid-convergence)")
                << "\n";
      if (!session->converged()) {
        const auto before = obs_snapshot();
        Timer t0;
        const dv::DvRunResult r = session->converge();
        std::cout << "resumed convergence: " << r.supersteps
                  << " total supersteps, " << t0.elapsed_seconds() << " s\n";
        obs_epoch(session->epoch(), false, "resumed interrupted convergence",
                  before);
      }
    } else {
      graph::EdgeListOptions gopts;
      gopts.directed = !undirected;
      gopts.weighted = weighted;
      graph::CsrGraph base = graph::read_edge_list_file(graph_path, gopts);
      std::cout << "graph: " << base.num_vertices() << " vertices, "
                << base.num_logical_edges() << " edges ("
                << (undirected ? "undirected" : "directed") << ")\n";
      session =
          dv::streaming::make_stream_session(cp, std::move(base), so);
      const auto before = obs_snapshot();
      Timer t0;
      const dv::DvRunResult first = session->converge();
      std::cout << "epoch 0 (cold converge): " << first.supersteps
                << " supersteps, " << first.stats.total_messages_sent()
                << " messages, " << t0.elapsed_seconds() << " s\n";
      json.add(0, "edge-list", algo, "cold", tier_name, t0.elapsed_seconds(),
               first.stats.total_messages_sent(), first.supersteps,
               cp.state_bytes(), false, "initial convergence",
               session->atomic_path() ? "atomic" : "buffered",
               minmax_memo_k);
      obs_epoch(0, false, "initial convergence", before);
    }
    std::cout << "\n";

    Table t({"epoch", "batch", "mode", "fold", "supersteps", "msgs",
             "woken", "deltas", "wall(s)", "note"});
    std::size_t warm_count = 0;
    for (const graph::MutationBatch& b : batches) {
      const auto before = obs_snapshot();
      Timer t1;
      const dv::streaming::SessionEpoch ep = session->apply(b);
      const double wall = t1.elapsed_seconds();
      warm_count += ep.warm ? 1 : 0;
      // Warm epochs print "-" (not blank) in the note column so every row
      // has a visible reason cell and column alignment is greppable.
      std::string note = ep.warm ? "-" : ep.blocker;
      if (ep.compacted) note += "; compacted";
      const char* fold = ep.stats.atomic_path ? "atomic" : "buffered";
      t.row()
          .cell(static_cast<unsigned long long>(ep.epoch))
          .cell(batch_summary(b))
          .cell(ep.warm ? "warm" : "cold")
          .cell(fold)
          .cell(static_cast<unsigned long long>(ep.stats.supersteps))
          .cell(static_cast<unsigned long long>(ep.stats.messages))
          .cell(static_cast<unsigned long long>(ep.stats.woken))
          .cell(static_cast<unsigned long long>(ep.stats.deltas_applied))
          .cell(wall, 4)
          .cell(note);
      const std::string blocker = ep.blocker ? ep.blocker : "";
      json.add(ep.epoch, "edge-list", algo, ep.warm ? "warm" : "cold",
               tier_name, wall, ep.stats.messages, ep.stats.supersteps,
               cp.state_bytes(), ep.warm, blocker, fold, minmax_memo_k);
      obs_epoch(ep.epoch, ep.warm, blocker, before);
    }
    t.print(std::cout);
    std::cout << "\n" << warm_count << "/" << batches.size()
              << " epochs resumed warm; final graph "
              << session->graph().num_vertices() << " vertices, "
              << session->graph().num_arcs() << " arcs\n";
    if (!save_path.empty()) {
      session->save(save_path);
      std::cout << "saved session snapshot to " << save_path << "\n";
    }
    json.write();
    if (obs.enabled()) {
      obs.flush();
      if (!obs_opts.metrics_path.empty())
        std::cout << "wrote metrics to " << obs_opts.metrics_path << "\n";
      if (!obs_opts.trace_path.empty())
        std::cout << "wrote trace to " << obs_opts.trace_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dv_stream: " << e.what() << "\n";
    return 2;
  }
}
