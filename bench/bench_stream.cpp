// Streaming epochs: warm incremental re-execution vs cold re-runs.
//
// Drives two until-quiescence programs through a mutation stream of
// small insert-only batches on an R-MAT graph:
//
//   pagerank-eps — a damped PageRank-style contraction compiled with an
//                  ε-slop so it quiesces (until { stable }); graphSize
//                  pins |V|, so the stream mutates edges only;
//   cc           — the paper's connected-components min-label relaxation;
//   sssp-del     — the pure (unguarded) SSSP form (programs::kSsspRetract)
//                  on a forward-window DAG, driven by a deletion-heavy
//                  stream that removes in-edges in the upper half of the
//                  chain. The min site is a Class B retraction-memo
//                  candidate (DESIGN.md §11), so with the default
//                  minmax_memo_k every deletion epoch stays warm: the
//                  k-best memo retracts the lost extremum in O(k) and the
//                  repair wave only walks the downstream cone. A
//                  warm-memo-off row (minmax_memo_k = 0) prices the legacy
//                  behavior, where every deletion-bearing batch falls back
//                  to a cold rebuild; memo-on must beat it and the cold
//                  baseline on summed supersteps (exit-enforced at the
//                  default scale).
//   bfs          — unweighted distances from vertex 0 (programs::kBfs).
//                  Insertions only ever shorten paths, so the guarded min
//                  relax is monotone under this stream and every epoch
//                  resumes warm: the frontier woken by an inserted edge is
//                  the endpoints whose distance can improve, not the graph.
//                  bfs runs on a grid instead of the R-MAT graph: BFS
//                  depth is the whole cost model, and an R-MAT ball is
//                  ~6 hops deep — cold re-execution would be so cheap
//                  that neither the warm-resume nor the restore claim
//                  would measure anything. A 2^⌈s/2⌉ × 2^⌊s/2⌋ grid has
//                  the same |V| with Θ(√|V|) diameter, and its stream
//                  inserts window-local edges (local_insert_stream) so
//                  the end-of-stream graph stays deep.
//
// For each program the same stream is applied to a warm session
// (DvRunner::apply_epoch patches accumulators and wakes only the mutation
// frontier) and to a force_cold session (every batch rebuilds and re-runs
// from scratch — the §9 "recompute on change" strawman). The headline
// quantity is supersteps summed over all epochs: warm must converge in
// fewer, and --tiers=vm,tree must agree on the count (warm parity is part
// of the fuzz contract; here it is visible in the table).
//
// A warm-buffered/warm-atomic pair prices the lock-free fold path
// (DESIGN.md "Fold paths"): the same warm stream forced through the
// buffered message pipeline vs atomic CAS/fetch-add folds with the
// frontier bitmap replacing the exchange scan. cc's integer min
// qualifies for the atomic path outright; pagerank-eps's float + rides
// the ε-tolerant atomic_float opt-in. The atomic path must deliver ≥2×
// epochs/sec on at least one workload at the default scale (exit code
// enforced).
//
// A second block prices persistence (src/dv/persist/): serializing the
// end-of-stream session (snapshot-save), rebuilding a converged session
// from those bytes (snapshot-restore), and the alternative a crashed
// deployment would face — reconverging cold on the final graph
// (cold-reconverge). The state_bytes column carries the snapshot size
// for the save/restore rows. Restoring must be cheaper than
// reconverging (exit code enforced, like the warm-beats-cold check).
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include <iterator>
#include <set>

#include "bench_common.h"
#include "common/rng.h"
#include "dv/programs/programs.h"
#include "dv/streaming/stream_session.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace {

using namespace deltav;

constexpr const char* kPageRankEps = R"(
init { local rank : float = 1.0 };
iter i {
  let s : float = + [ u.rank | u <- #in ] in
  rank = 0.15 + 0.85 * (s / graphSize)
} until { stable }
)";

struct StreamWorkload {
  std::string name;
  dv::CompiledProgram cp;
  graph::CsrGraph graph;
  std::vector<graph::MutationBatch> stream;
  std::map<std::string, dv::Value> params;
  std::string tag;  // graph column in the table/JSON (topology differs)
};

std::vector<graph::MutationBatch> insert_only_stream(std::uint64_t seed,
                                                     std::size_t n,
                                                     std::int64_t batches,
                                                     std::int64_t edits) {
  Rng rng(seed);
  std::vector<graph::MutationBatch> out;
  for (std::int64_t b = 0; b < batches; ++b) {
    graph::MutationBatch mb;
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto v = static_cast<graph::VertexId>(rng.next_below(n));
      if (u == v) continue;
      mb.insert_edge(u, v);
    }
    if (!mb.empty()) out.push_back(std::move(mb));
  }
  return out;
}

/// Insert-only stream whose endpoints are at most `window` ids apart.
/// Uniform random pairs are long-range shortcuts; a few dozen of them
/// collapse a grid's Θ(√|V|) diameter to R-MAT-ball depth and the BFS
/// workload stops measuring anything. Window-local edges still wake a
/// real warm frontier (row-major neighbors a couple of rows away) but
/// leave the end-of-stream graph deep.
std::vector<graph::MutationBatch> local_insert_stream(std::uint64_t seed,
                                                      std::size_t n,
                                                      std::size_t window,
                                                      std::int64_t batches,
                                                      std::int64_t edits) {
  Rng rng(seed);
  std::vector<graph::MutationBatch> out;
  for (std::int64_t b = 0; b < batches; ++b) {
    graph::MutationBatch mb;
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const std::size_t v = static_cast<std::size_t>(u) + 1 +
                            rng.next_below(window);
      if (v >= n) continue;  // no wrap-around: that IS a long-range edge
      mb.insert_edge(u, static_cast<graph::VertexId>(v));
    }
    if (!mb.empty()) out.push_back(std::move(mb));
  }
  return out;
}

/// Forward-window DAG: a weighted spine u → u+1 plus extra edges
/// u → u+1..u+window, all strictly positive. Hop depth is Θ(|V|/window),
/// so a cold SSSP re-run pays the whole chain every batch while a warm
/// deletion epoch pays only the cone downstream of the cut.
graph::CsrGraph forward_dag(std::size_t n, std::size_t degree,
                            std::size_t window, std::uint64_t seed) {
  Rng rng(seed);
  graph::GraphBuilder b(n, /*directed=*/true);
  b.keep_weights(true);
  b.deduplicate();
  for (std::size_t u = 0; u + 1 < n; ++u)
    b.add_edge(static_cast<graph::VertexId>(u),
               static_cast<graph::VertexId>(u + 1),
               0.5 + rng.next_double());
  const std::size_t extra = degree > 1 ? n * (degree - 1) : 0;
  for (std::size_t e = 0; e < extra; ++e) {
    const std::size_t u = rng.next_below(n > 1 ? n - 1 : 1);
    const std::size_t v = u + 1 + rng.next_below(window);
    if (v >= n) continue;
    b.add_edge(static_cast<graph::VertexId>(u),
               static_cast<graph::VertexId>(v),
               0.5 + rng.next_double() * 2.0);
  }
  return b.build();
}

/// Deletion-heavy stream for the forward DAG: ~70% of edits remove a
/// random present in-edge of a vertex in the upper half of the chain
/// (keeping the repair cone far from the source), the rest insert
/// window-local forward edges with strictly positive weights — so the
/// graph stays a DAG and the Class B memo's positivity guard holds.
std::vector<graph::MutationBatch> deletion_stream(const graph::CsrGraph& g,
                                                  std::size_t window,
                                                  std::uint64_t seed,
                                                  std::int64_t batches,
                                                  std::int64_t edits) {
  Rng rng(seed);
  const std::size_t n = g.num_vertices();
  std::vector<std::set<graph::VertexId>> in_of(n);
  for (std::size_t v = 0; v < n; ++v)
    for (const graph::VertexId u :
         g.in_neighbors(static_cast<graph::VertexId>(v)))
      in_of[v].insert(u);
  std::vector<graph::MutationBatch> out;
  for (std::int64_t b = 0; b < batches; ++b) {
    graph::MutationBatch mb;
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto dst = static_cast<graph::VertexId>(
          n / 2 + rng.next_below(n - n / 2));
      if (rng.next_bool(0.7) && !in_of[dst].empty()) {
        auto it = in_of[dst].begin();
        std::advance(it, static_cast<long>(
                             rng.next_below(in_of[dst].size())));
        mb.remove_edge(*it, dst);
        in_of[dst].erase(it);
      } else {
        const std::size_t lo = dst > window ? dst - window : 0;
        if (lo >= dst) continue;
        const auto src = static_cast<graph::VertexId>(
            lo + rng.next_below(dst - lo));
        mb.insert_edge(src, dst, 0.5 + rng.next_double() * 2.0);
        in_of[dst].insert(src);
      }
    }
    if (!mb.empty()) out.push_back(std::move(mb));
  }
  return out;
}

/// Converges a session, applies the whole stream, and reports the summed
/// epoch cost (supersteps/messages across every apply(); wall-clock of
/// the apply loop only — epoch 0 is identical for warm and cold).
bench::Metrics run_stream(const StreamWorkload& w, dv::ExecTier tier,
                          int workers, bool force_cold,
                          dv::FoldPath fold = dv::FoldPath::kAuto,
                          bool atomic_float = false,
                          std::size_t* warm_epochs = nullptr,
                          obs::Collector* collector = nullptr,
                          std::string* fold_label = nullptr,
                          std::size_t memo_k = 8) {
  dv::streaming::SessionOptions so;
  so.minmax_memo_k = memo_k;
  so.run.engine = bench::paper_engine(workers);
  so.run.params = w.params;
  so.run.tier = tier;
  so.run.collector = collector;
  so.run.fold_path = fold;
  so.run.atomic_float = atomic_float;
  so.force_cold = force_cold;
  const auto s = dv::streaming::make_stream_session(w.cp, w.graph, so);
  if (fold_label) *fold_label = s->atomic_path() ? "atomic" : "buffered";
  s->converge();
  bench::Metrics m;
  if (warm_epochs) *warm_epochs = 0;
  Timer t;
  for (const graph::MutationBatch& b : w.stream) {
    const dv::streaming::SessionEpoch ep = s->apply(b);
    m.supersteps += ep.stats.supersteps;
    m.messages += ep.stats.messages;
    m.folds += ep.stats.atomic_folds;
    if (warm_epochs && ep.warm) ++*warm_epochs;
  }
  m.wall_seconds = t.elapsed_seconds();
  m.state_bytes = w.cp.state_bytes();
  return m;
}

/// Drives a warm session to the end of the stream — the state a
/// deployment would want to survive a restart with.
std::unique_ptr<dv::streaming::DvStreamSession> end_of_stream_session(
    const StreamWorkload& w, dv::ExecTier tier, int workers) {
  dv::streaming::SessionOptions so;
  so.run.engine = bench::paper_engine(workers);
  so.run.params = w.params;
  so.run.tier = tier;
  auto s = dv::streaming::make_stream_session(w.cp, w.graph, so);
  s->converge();
  for (const graph::MutationBatch& b : w.stream) s->apply(b);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const auto scale =
        args.get_int("scale", 10, "R-MAT vertices = 2^scale");
    const auto degree =
        args.get_int("degree", 4, "R-MAT edges per vertex");
    const int workers =
        static_cast<int>(args.get_int("workers", 4, "engine worker threads"));
    const int reps = static_cast<int>(
        args.get_int("reps", 3, "repetitions (min wall-clock kept)"));
    const auto batches =
        args.get_int("batches", 8, "mutation batches per stream");
    const auto edits =
        args.get_int("edits", 4, "edge insertions per batch");
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", 42, "graph and stream seed"));
    const std::string tiers_flag = args.get_string(
        "tiers", "vm", "execution tiers to run: vm, tree, or vm,tree");
    bench::JsonReport json;
    json.set_path(args.get_string("json", "", "write JSON rows here"));
    // Local meter fed by the warm-session runs only (the force_cold and
    // persistence passes stay unmetered so warm-path counters — memo
    // hits, Δ-messages, suppressed sends — are not diluted).
    obs::Collector collector;
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();

    bench::banner("streaming epochs: warm vs cold re-execution",
                  "§9 dynamic graphs (DESIGN.md \"streaming epochs\")");

    const auto n = static_cast<std::size_t>(1) << scale;
    const auto m = n * static_cast<std::size_t>(degree);
    const std::string graph_tag =
        "rmat-2^" + std::to_string(scale) + "x" + std::to_string(degree);

    std::vector<StreamWorkload> workloads;
    {
      dv::CompileOptions co;
      co.epsilon = 1e-10;
      graph::RmatOptions ro;
      workloads.push_back({"pagerank-eps", dv::compile(kPageRankEps, co),
                           graph::rmat(n, m, seed, ro),
                           insert_only_stream(seed + 1, n, batches, edits),
                           {},
                           graph_tag});
    }
    {
      graph::RmatOptions ro;
      ro.directed = false;
      workloads.push_back(
          {"cc", dv::compile(dv::programs::kConnectedComponents, {}),
           graph::rmat(n, m, seed, ro),
           insert_only_stream(seed + 2, n, batches, edits), {}, graph_tag});
    }
    {
      // Same |V| as the R-MAT workloads, Θ(√|V|) diameter (see the header
      // comment): source 0 sits in a corner, so cold BFS pays ~rows+cols
      // supersteps while a warm epoch pays only the shortcut frontier.
      const std::size_t rows = static_cast<std::size_t>(1)
                               << ((scale + 1) / 2);
      const std::size_t cols = static_cast<std::size_t>(1) << (scale / 2);
      workloads.push_back({"bfs", dv::compile(dv::programs::kBfs, {}),
                           graph::grid(rows, cols),
                           local_insert_stream(seed + 3, n, /*window=*/
                                               3 * cols, batches, edits),
                           {{"source", dv::Value::of_int(0)}},
                           "grid-" + std::to_string(rows) + "x" +
                               std::to_string(cols)});
    }
    {
      // Deletion-heavy SSSP over a forward-window DAG (header comment):
      // the retraction-memo showcase. Same |V| as the R-MAT workloads,
      // Θ(|V|/window) hop depth.
      const std::size_t window = 8;
      const graph::CsrGraph dag = forward_dag(n, degree, window, seed + 4);
      auto stream =
          deletion_stream(dag, window, seed + 5, batches, edits);
      workloads.push_back({"sssp-del",
                           dv::compile(dv::programs::kSsspRetract, {}),
                           dag, std::move(stream),
                           {{"source", dv::Value::of_int(0)}},
                           "fdag-2^" + std::to_string(scale) + "w" +
                               std::to_string(window)});
    }

    Table t({"graph", "algorithm", "system", "tier", "fold", "wall(s)",
             "msgs", "supersteps", "warm epochs"});
    bool warm_wins = true;
    bool restore_wins = true;
    bool memo_wins = true;
    double best_atomic_speedup = 0;
    for (const StreamWorkload& w : workloads) {
      for (const dv::ExecTier tier : bench::parse_tiers(tiers_flag)) {
        std::size_t warm_epochs = 0;
        std::string warm_fold;
        const bench::Metrics warm = bench::averaged(reps, [&] {
          return run_stream(w, tier, workers, /*force_cold=*/false,
                            dv::FoldPath::kAuto, /*atomic_float=*/false,
                            &warm_epochs, &collector, &warm_fold);
        });
        const bench::Metrics cold = bench::averaged(reps, [&] {
          return run_stream(w, tier, workers, /*force_cold=*/true);
        });
        for (const auto& [system, met, we] :
             {std::tuple{"warm", &warm, warm_epochs},
              std::tuple{"cold", &cold, std::size_t{0}}}) {
          t.row()
              .cell(w.tag)
              .cell(w.name)
              .cell(system)
              .cell(dv::exec_tier_name(tier))
              .cell(warm_fold)
              .cell(met->wall_seconds, 4)
              .cell(static_cast<unsigned long long>(met->messages))
              .cell(static_cast<unsigned long long>(met->supersteps))
              .cell(static_cast<unsigned long long>(we));
          json.add(w.tag, w.name, system, dv::exec_tier_name(tier),
                   *met, warm_fold);
        }
        warm_wins = warm_wins && warm.supersteps < cold.supersteps &&
                    warm_epochs == w.stream.size();

        // Retraction-memo pricing (sssp-del only): the same stream with
        // minmax_memo_k = 0, where every deletion-bearing batch trips the
        // legacy min/max blocker and rebuilds cold inside apply(). The
        // memo-on "warm" row above must beat this on summed supersteps
        // (exit-enforced at the default scale with the other claims).
        if (w.name == "sssp-del") {
          std::size_t nomemo_warm = 0;
          const bench::Metrics warm_nomemo = bench::averaged(reps, [&] {
            return run_stream(w, tier, workers, /*force_cold=*/false,
                              dv::FoldPath::kAuto, /*atomic_float=*/false,
                              &nomemo_warm, nullptr, nullptr,
                              /*memo_k=*/0);
          });
          t.row()
              .cell(w.tag)
              .cell(w.name)
              .cell("warm-memo-off")
              .cell(dv::exec_tier_name(tier))
              .cell(warm_fold)
              .cell(warm_nomemo.wall_seconds, 4)
              .cell(static_cast<unsigned long long>(warm_nomemo.messages))
              .cell(
                  static_cast<unsigned long long>(warm_nomemo.supersteps))
              .cell(static_cast<unsigned long long>(nomemo_warm));
          json.add(w.tag, w.name, "warm-memo-off",
                   dv::exec_tier_name(tier), warm_nomemo, warm_fold);
          memo_wins =
              memo_wins && warm.supersteps < warm_nomemo.supersteps;
        }

        // Fold-path pair: the same warm stream forced through the
        // buffered message pipeline vs the lock-free atomic path. CC's
        // integer min qualifies outright; pagerank-eps's float + needs
        // the ε-tolerant atomic_float opt-in. Epochs/sec is the headline:
        // the atomic path must be ≥2× on at least one workload at the
        // default scale (exit-enforced below).
        const bool opt_in = w.name == "pagerank-eps";
        const bench::Metrics warm_buf = bench::averaged(reps, [&] {
          return run_stream(w, tier, workers, /*force_cold=*/false,
                            dv::FoldPath::kBuffered);
        });
        const bench::Metrics warm_atomic = bench::averaged(reps, [&] {
          return run_stream(w, tier, workers, /*force_cold=*/false,
                            dv::FoldPath::kAuto, opt_in);
        });
        for (const auto& [system, fold, met] :
             {std::tuple{"warm-buffered", "buffered", &warm_buf},
              std::tuple{"warm-atomic", "atomic", &warm_atomic}}) {
          t.row()
              .cell(w.tag)
              .cell(w.name)
              .cell(system)
              .cell(dv::exec_tier_name(tier))
              .cell(fold)
              .cell(met->wall_seconds, 4)
              .cell(static_cast<unsigned long long>(met->messages))
              .cell(static_cast<unsigned long long>(met->supersteps))
              .cell(static_cast<unsigned long long>(w.stream.size()));
          json.add(w.tag, w.name, system, dv::exec_tier_name(tier),
                   *met, fold);
        }
        best_atomic_speedup =
            std::max(best_atomic_speedup,
                     warm_buf.wall_seconds / warm_atomic.wall_seconds);

        // Persistence: price a restart. snapshot-save serializes the
        // end-of-stream session, snapshot-restore rebuilds a converged
        // session from those bytes, cold-reconverge re-runs the program
        // from scratch on the same final graph. state_bytes is the
        // snapshot size on the save/restore rows.
        const auto end = end_of_stream_session(w, tier, workers);
        const std::vector<std::uint8_t> snap = end->save_bytes();
        dv::streaming::SessionOptions so;
        so.run.engine = bench::paper_engine(workers);
        so.run.params = w.params;
        so.run.tier = tier;
        const bench::Metrics save = bench::averaged(reps, [&] {
          bench::Metrics m;
          Timer ts;
          const auto bytes = end->save_bytes();
          m.wall_seconds = ts.elapsed_seconds();
          m.state_bytes = bytes.size();
          return m;
        });
        const bench::Metrics restore = bench::averaged(reps, [&] {
          bench::Metrics m;
          Timer ts;
          const auto r =
              dv::streaming::DvStreamSession::restore_bytes(w.cp, snap, so);
          m.wall_seconds = ts.elapsed_seconds();
          m.state_bytes = snap.size();
          return m;
        });
        const graph::CsrGraph end_csr = end->graph().materialize();
        const bench::Metrics coldre = bench::averaged(reps, [&] {
          bench::Metrics m;
          Timer ts;
          const auto c =
              dv::streaming::make_stream_session(w.cp, end_csr, so);
          const dv::DvRunResult r = c->converge();
          m.wall_seconds = ts.elapsed_seconds();
          m.supersteps = r.supersteps;
          m.messages = r.stats.total_messages_sent();
          m.state_bytes = w.cp.state_bytes();
          return m;
        });
        for (const auto& [system, met] :
             {std::pair{"snapshot-save", &save},
              std::pair{"snapshot-restore", &restore},
              std::pair{"cold-reconverge", &coldre}}) {
          t.row()
              .cell(w.tag)
              .cell(w.name)
              .cell(system)
              .cell(dv::exec_tier_name(tier))
              .cell("-")
              .cell(met->wall_seconds, 4)
              .cell(static_cast<unsigned long long>(met->messages))
              .cell(static_cast<unsigned long long>(met->supersteps))
              .cell(0ull);
          json.add(w.tag, w.name, system, dv::exec_tier_name(tier),
                   *met);
        }
        restore_wins =
            restore_wins && restore.wall_seconds < coldre.wall_seconds;
      }
    }
    t.print(std::cout);
    std::cout << "\nShape checks: every batch resumes warm; warm supersteps"
                 " < cold supersteps\nfor each (algorithm, tier); tiers"
                 " agree on superstep counts; snapshot-restore\nwall-clock"
                 " < cold-reconverge wall-clock; warm-atomic beats"
                 " warm-buffered\nby >=2x epochs/sec on at least one"
                 " workload (best: "
              << std::setprecision(3) << best_atomic_speedup << "x).\n";
    json.set_metrics(collector.metrics.snapshot());
    json.write("bench_stream");
    if (!warm_wins) {
      std::cerr << "bench_stream: warm epochs did not beat cold re-runs\n";
      return 1;
    }
    // Wall-clock margins below the default scale are measurement noise
    // (both sides are dominated by session construction), so the
    // restore-beats-reconvergence claim is only enforced from the
    // default scale up; the rows are still emitted at any scale.
    if (!restore_wins && scale >= 10) {
      std::cerr << "bench_stream: snapshot restore did not beat cold"
                   " reconvergence\n";
      return 1;
    }
    // Supersteps are deterministic, but at tiny scales a deletion stream
    // can degenerate (few batches carry removals), so the memo claim is
    // enforced from the default scale up like the wall-clock ones.
    if (!memo_wins && scale >= 10) {
      std::cerr << "bench_stream: retraction-memo epochs did not beat the"
                   " memo-off fallback on supersteps\n";
      return 1;
    }
    // Same noise gate as above: at tiny scales both fold paths are
    // dominated by per-superstep barrier costs, so the throughput claim
    // is enforced from the default scale up only.
    if (best_atomic_speedup < 2.0 && scale >= 10) {
      std::cerr << "bench_stream: atomic fold path did not reach 2x"
                   " epochs/sec over buffered (best "
                << best_atomic_speedup << "x)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_stream: " << e.what() << "\n";
    return 2;
  }
}
