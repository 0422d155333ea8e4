// Serving benchmark: warm multi-tenant serving vs cold re-execution.
//
// Drives a SessionHost (dv/serve) the way the dv_serve daemon does, but
// in-process: N writer threads push insert-only mutation batches through
// the admission queue while M reader threads hammer point reads against
// the published state view. The workload is the paper's connected
// components (integer min-label relaxation) on an undirected R-MAT graph
// — insert-only streams keep every epoch warm-eligible, so the contrast
// against the same host with force_cold=true isolates exactly what the
// paper's incrementalization buys a serving deployment: the cold host
// re-runs the program from scratch for every committed epoch, the warm
// host Δ-patches accumulators and wakes only the mutation frontier.
//
// Reported, per system:
//   wall(s)      — first enqueue to drained queue (flush returned);
//   epochs/sec   — committed epochs over that wall-clock. Group commit
//                  makes this ≠ batches/sec: concurrent writers coalesce
//                  into shared epochs (the coalesce column);
//   p50/p99(us)  — read latency percentiles over every reader get().
//                  Reads are served from the double-buffered view, so
//                  they must stay flat regardless of epoch cost;
//   supersteps   — summed over committed epochs.
//
// A second block prices restart recovery: the warm host checkpoints
// every epoch (checkpoint_every=1); recovery-restore rebuilds a serving
// host from the last checkpoint and waits until it is ready, and
// recovery-cold is the restart a deployment without snapshots would face
// — reconverging from scratch on the same final graph.
//
// Exit-enforced at the default scale (>= 10): warm serving beats cold
// re-execution on drain wall-clock, and checkpoint recovery beats cold
// reconvergence. BENCH_serve.json in the repo root is the committed
// baseline.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "dv/persist/snapshot.h"
#include "dv/serve/session_host.h"
#include "graph/generators.h"
#include "pregel/engine.h"

namespace {

using namespace deltav;

struct ServeMetrics {
  bench::Metrics base;
  double epochs_per_sec = 0;
  std::size_t epochs = 0;
  std::size_t batches = 0;
  double coalesce = 1;  // admitted batches per committed epoch
  std::uint64_t reads = 0;
  double p50_us = 0;
  double p99_us = 0;
};

double percentile(std::vector<double>& us, double p) {
  if (us.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(us.size() - 1));
  std::nth_element(us.begin(), us.begin() + static_cast<std::ptrdiff_t>(idx),
                   us.end());
  return us[idx];
}

std::vector<std::vector<graph::MutationBatch>> writer_streams(
    std::uint64_t seed, std::size_t n, std::int64_t writers,
    std::int64_t batches, std::int64_t edits) {
  std::vector<std::vector<graph::MutationBatch>> out;
  for (std::int64_t w = 0; w < writers; ++w) {
    Rng rng(seed + static_cast<std::uint64_t>(w));
    std::vector<graph::MutationBatch> stream;
    for (std::int64_t b = 0; b < batches; ++b) {
      graph::MutationBatch mb;
      for (std::int64_t e = 0; e < edits; ++e) {
        const auto u = static_cast<graph::VertexId>(rng.next_below(n));
        const auto v = static_cast<graph::VertexId>(rng.next_below(n));
        if (u != v) mb.insert_edge(u, v);
      }
      if (!mb.empty()) stream.push_back(std::move(mb));
    }
    out.push_back(std::move(stream));
  }
  return out;
}

dv::serve::HostOptions host_options(int workers, bool force_cold,
                                    double commit_window_ms,
                                    std::size_t queue_limit) {
  dv::serve::HostOptions o;
  o.session.run.engine = bench::paper_engine(workers);
  o.session.force_cold = force_cold;
  o.commit_window_ms = commit_window_ms;
  // A bound well below the stream length matters: with an unbounded queue
  // the writers outrun the engine and the whole run collapses into one
  // giant epoch, which measures nothing. Backpressure makes the engine
  // commit a stream of group-commit epochs, which is the serving shape.
  o.queue_limit = queue_limit;
  o.collect_metrics = false;  // unmetered timings; stats() carries counts
  return o;
}

/// One serving run: writers push their streams, readers hammer gets, the
/// run ends when every batch is applied (flush). Wall-clock covers the
/// write-to-drain interval only — initial convergence is identical for
/// warm and cold and is excluded, as in bench_stream.
ServeMetrics run_serve(
    const dv::CompiledProgram& cp, const graph::CsrGraph& graph,
    const std::vector<std::vector<graph::MutationBatch>>& streams,
    int workers, bool force_cold, double commit_window_ms,
    std::size_t queue_limit, std::int64_t readers) {
  dv::serve::SessionHost host(
      "bench", dv::compile(cp.source, cp.options), graph,
      host_options(workers, force_cold, commit_window_ms, queue_limit));
  host.wait_ready();

  std::atomic<bool> stop_readers{false};
  std::vector<std::vector<double>> read_us(
      static_cast<std::size_t>(readers));
  std::vector<std::thread> reader_threads;
  const auto n = static_cast<graph::VertexId>(host.stats().vertices);
  for (std::int64_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      auto& lat = read_us[static_cast<std::size_t>(r)];
      graph::VertexId v = static_cast<graph::VertexId>(r);
      while (!stop_readers.load(std::memory_order_relaxed)) {
        Timer t;
        (void)host.get(v % n, "comp");
        // Fractional microseconds: view reads are a mutex-guarded pointer
        // copy plus an array index, routinely under 1us.
        lat.push_back(t.elapsed_seconds() * 1e6);
        v += 7919;  // stride the reads across the id space
      }
    });
  }

  Timer wall;
  std::vector<std::thread> writer_threads;
  for (const auto& stream : streams) {
    writer_threads.emplace_back([&host, &stream] {
      for (const graph::MutationBatch& b : stream) host.enqueue(b);
    });
  }
  for (std::thread& t : writer_threads) t.join();
  host.flush();
  const double drain_seconds = wall.elapsed_seconds();

  stop_readers.store(true, std::memory_order_relaxed);
  for (std::thread& t : reader_threads) t.join();

  const dv::serve::HostStats s = host.stats();
  ServeMetrics m;
  m.base.wall_seconds = drain_seconds;
  m.base.supersteps = s.supersteps;
  m.base.messages = s.messages;
  m.base.folds = s.atomic_folds;
  m.base.state_bytes = cp.state_bytes();
  m.epochs = s.epochs_committed;
  m.batches = s.batches_admitted;
  m.epochs_per_sec =
      drain_seconds > 0 ? static_cast<double>(s.epochs_committed) /
                              drain_seconds
                        : 0;
  m.coalesce = s.epochs_committed > 0
                   ? static_cast<double>(s.batches_admitted) /
                         static_cast<double>(s.epochs_committed)
                   : 1;
  std::vector<double> all;
  for (auto& lat : read_us) all.insert(all.end(), lat.begin(), lat.end());
  m.reads = all.size();
  m.p50_us = percentile(all, 0.50);
  m.p99_us = percentile(all, 0.99);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const auto scale = args.get_int("scale", 10, "R-MAT vertices = 2^scale");
    const auto degree = args.get_int("degree", 4, "R-MAT edges per vertex");
    const int workers = static_cast<int>(
        args.get_int("workers", 4, "engine worker threads per session"));
    const auto writers =
        args.get_int("writers", 4, "concurrent writer threads");
    const auto readers =
        args.get_int("readers", 2, "concurrent reader threads");
    const auto batches =
        args.get_int("batches", 64, "mutation batches per writer");
    const auto edits =
        args.get_int("edits", 8, "edge insertions per batch");
    const double commit_window_ms = args.get_double(
        "commit_window_ms", 0,
        "group-commit window handed to the host (0 = natural batching)");
    const auto queue_limit = static_cast<std::size_t>(args.get_int(
        "queue_limit", 16,
        "admission-queue bound (backpressure shapes the epoch stream)"));
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", 42, "graph and stream seed"));
    const std::string json_path =
        args.get_string("json", "", "write JSON rows here");
    if (args.help_requested()) {
      std::cout << args.help();
      return 0;
    }
    args.check_unused();

    bench::banner("dv_serve: warm serving vs cold re-execution",
                  "§9 dynamic graphs as a service (DESIGN.md §10)");

    const auto n = static_cast<std::size_t>(1) << scale;
    const auto m = n * static_cast<std::size_t>(degree);
    const std::string graph_tag =
        "rmat-2^" + std::to_string(scale) + "x" + std::to_string(degree);
    graph::RmatOptions ro;
    ro.directed = false;
    const graph::CsrGraph graph = graph::rmat(n, m, seed, ro);
    const dv::CompiledProgram cp =
        dv::compile(dv::programs::kConnectedComponents, {});
    const auto streams = writer_streams(seed + 1, n, writers, batches, edits);

    const ServeMetrics warm = run_serve(cp, graph, streams, workers,
                                        /*force_cold=*/false,
                                        commit_window_ms, queue_limit,
                                        readers);
    const ServeMetrics cold = run_serve(cp, graph, streams, workers,
                                        /*force_cold=*/true,
                                        commit_window_ms, queue_limit,
                                        readers);

    // Restart recovery: serve the same stream on a host checkpointing
    // every epoch, kill it (abandoning nothing: the stream was flushed),
    // then price rebuilding a ready serving host from the checkpoint
    // against reconverging cold on the same final graph.
    const std::string ckpt = "bench_serve.ckpt";
    double recovery_seconds = 0;
    double cold_restart_seconds = 0;
    {
      auto opts = host_options(workers, false, commit_window_ms,
                               queue_limit);
      opts.checkpoint_every = 1;
      opts.checkpoint_path = ckpt;
      auto host = std::make_unique<dv::serve::SessionHost>(
          "bench-ckpt", dv::compile(cp.source, cp.options), graph, opts);
      host->wait_ready();
      for (const auto& stream : streams)
        for (const graph::MutationBatch& b : stream) host->enqueue(b);
      host->flush();
      host->kill();  // the in-process stand-in for a daemon crash
      host.reset();

      // Min of 3 attempts, as bench::averaged does for the other benches:
      // both restarts are milliseconds at the default scale, where a
      // single scheduler hiccup could flip the comparison.
      recovery_seconds = 1e9;
      for (int rep = 0; rep < 3; ++rep) {
        Timer tr;
        dv::serve::SessionHost restored(
            "bench-restored", dv::compile(cp.source, cp.options),
            dv::persist::read_file_bytes(ckpt),
            host_options(workers, false, commit_window_ms, queue_limit));
        restored.wait_ready();
        recovery_seconds = std::min(recovery_seconds, tr.elapsed_seconds());
      }

      // The restart without snapshots: replay the whole mutation history
      // into a fresh session, then reconverge from scratch. The replay's
      // graph bookkeeping is shared cost; the convergence is the price.
      dv::streaming::SessionOptions so;
      so.run.engine = bench::paper_engine(workers);
      auto offline = dv::streaming::make_stream_session(cp, graph, so);
      offline->converge();
      for (const auto& stream : streams)
        for (const graph::MutationBatch& b : stream) offline->apply(b);
      const graph::CsrGraph final_csr = offline->graph().materialize();
      cold_restart_seconds = 1e9;
      for (int rep = 0; rep < 3; ++rep) {
        Timer tc;
        dv::serve::SessionHost coldhost(
            "bench-coldstart", dv::compile(cp.source, cp.options), final_csr,
            host_options(workers, false, commit_window_ms, queue_limit));
        coldhost.wait_ready();
        cold_restart_seconds =
            std::min(cold_restart_seconds, tc.elapsed_seconds());
      }
      std::remove(ckpt.c_str());
    }

    Table t({"graph", "algorithm", "system", "tier", "wall(s)", "epochs/s",
             "coalesce", "p50(us)", "p99(us)", "supersteps"});
    for (const auto& [system, met] :
         {std::pair{"serve-warm", &warm}, std::pair{"serve-cold", &cold}}) {
      t.row()
          .cell(graph_tag)
          .cell("cc")
          .cell(system)
          .cell("vm")
          .cell(met->base.wall_seconds, 4)
          .cell(met->epochs_per_sec, 1)
          .cell(met->coalesce, 2)
          .cell(met->p50_us, 1)
          .cell(met->p99_us, 1)
          .cell(static_cast<unsigned long long>(met->base.supersteps));
    }
    t.row()
        .cell(graph_tag).cell("cc").cell("recovery-restore").cell("vm")
        .cell(recovery_seconds, 4).cell(0.0, 1).cell(0.0, 2).cell(0.0, 1)
        .cell(0.0, 1).cell(0ull);
    t.row()
        .cell(graph_tag).cell("cc").cell("recovery-cold").cell("vm")
        .cell(cold_restart_seconds, 4).cell(0.0, 1).cell(0.0, 2).cell(0.0, 1)
        .cell(0.0, 1).cell(0ull);
    t.print(std::cout);
    std::cout << "\nShape checks: serve-warm drains the same admitted"
                 " batches in less wall-clock\nthan serve-cold, and"
                 " checkpoint recovery is cheaper than a cold restart\n"
                 "(both exit-enforced from the default scale up).\n";

    if (!json_path.empty()) {
      // bench_common JsonReport keys plus serve-specific extras (the
      // schema contract is add-only; consumers tolerate new keys).
      std::ofstream out(json_path);
      DV_CHECK_MSG(out.good(), "cannot open --json path '" << json_path
                                                           << "'");
      out << "{\n  \"bench\": \"bench_serve\",\n  \"rows\": [";
      bool first = true;
      const auto row = [&](const std::string& system, double wall,
                           const ServeMetrics* sm) {
        out << (first ? "\n" : ",\n") << "    {\"graph\": \"" << graph_tag
            << "\", \"algorithm\": \"cc\", \"system\": \"" << system
            << "\", \"tier\": \"vm\", \"wall_seconds\": "
            << std::setprecision(6) << wall << ", \"sim_seconds\": 0"
            << ", \"messages\": " << (sm ? sm->base.messages : 0)
            << ", \"folds\": " << (sm ? sm->base.folds : 0)
            << ", \"bytes\": 0"
            << ", \"supersteps\": " << (sm ? sm->base.supersteps : 0)
            << ", \"state_bytes\": " << cp.state_bytes();
        if (sm != nullptr) {
          out << ", \"epochs\": " << sm->epochs
              << ", \"batches\": " << sm->batches
              << ", \"epochs_per_sec\": " << sm->epochs_per_sec
              << ", \"coalesce\": " << sm->coalesce
              << ", \"reads\": " << sm->reads
              << ", \"read_p50_us\": " << sm->p50_us
              << ", \"read_p99_us\": " << sm->p99_us
              << ", \"writers\": " << writers
              << ", \"readers\": " << readers;
        }
        out << "}";
        first = false;
      };
      row("serve-warm", warm.base.wall_seconds, &warm);
      row("serve-cold", cold.base.wall_seconds, &cold);
      row("recovery-restore", recovery_seconds, nullptr);
      row("recovery-cold", cold_restart_seconds, nullptr);
      out << "\n  ]\n}\n";
      DV_CHECK_MSG(out.good(),
                   "failed writing --json path '" << json_path << "'");
      std::cout << "wrote 4 rows to " << json_path << "\n";
    }

    // Noise gate as in bench_stream: below the default scale both sides
    // are dominated by fixed per-epoch costs; rows still emit.
    if (scale >= 10 && warm.base.wall_seconds >= cold.base.wall_seconds) {
      std::cerr << "bench_serve: warm serving did not beat cold"
                   " re-execution\n";
      return 1;
    }
    if (scale >= 10 && recovery_seconds >= cold_restart_seconds) {
      std::cerr << "bench_serve: checkpoint recovery did not beat a cold"
                   " restart\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_serve: " << e.what() << "\n";
    return 2;
  }
}
