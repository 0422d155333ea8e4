// dv_serve: session hosts, the registry, epoch coalescing, recovery and
// the line protocol.
//
// The load-bearing claims under test:
//   - group commit is value-neutral: any concurrent interleaving of
//     writer enqueues converges to exactly the state of applying one
//     merged batch (the stream fuzz tier's partition-invariance, made
//     load-bearing by the serving layer);
//   - reads come from the last committed epoch and never wait on the
//     epoch in flight (a paused engine cannot block a reader);
//   - backpressure, not unbounded queueing: enqueue blocks at
//     queue_limit until the engine drains;
//   - recovery: epoch-boundary checkpoints restore to a value-identical
//     serving host after kill(), which then keeps serving epochs;
//   - the protocol state machine maps every failure to a one-line ERR
//     without taking the connection or other tenants down.
//
//   - the published view is patched, not copied, and stays exactly the
//     user columns of the session state after every epoch: warm, empty,
//     growing, cold, warm-aborted and restored epochs, with readers
//     pinning buffers and reading concurrently.
//
// Tier coverage: vm and tree run here (the equivalence tests iterate
// both). The view-publication tests add the native tier where it builds;
// under TSan (the serve label's sanitizer job) generated code cannot link
// instrumented, so they skip it there.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/serve/protocol.h"
#include "dv/serve/read_view.h"
#include "dv/serve/registry.h"
#include "dv/serve/session_host.h"
#include "dv/streaming/mutation_io.h"
#include "dv/streaming/stream_session.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::serve::CreateSpec;
using dv::serve::HostOptions;
using dv::serve::HostStats;
using dv::serve::merge_batches;
using dv::serve::Registry;
using dv::serve::ServeCore;
using dv::serve::SessionHost;
using dv::streaming::BatchLineParser;
using graph::MutationBatch;
using test::compile_dv;
using test::runnable_tiers;
using test::small_engine;

HostOptions host_opts(dv::ExecTier tier = dv::ExecTier::kVm) {
  HostOptions o;
  o.session.run.engine = small_engine();
  o.session.run.tier = tier;
  return o;
}

/// 8-vertex undirected double-triangle + isolated pair: two components
/// {0,1,2,3} and {4,5}, vertices 6 and 7 isolated. cc converges to the
/// component-minimum id.
graph::CsrGraph two_components() {
  graph::GraphBuilder b(8, /*directed=*/false);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(4, 5);
  return b.build();
}

/// Cold oracle for a host: run cc from scratch over `base` + the merged
/// mutations through a plain single-threaded session.
dv::DvRunResult offline_cc(const dv::CompiledProgram& cp,
                           const graph::CsrGraph& base,
                           const std::vector<MutationBatch>& batches,
                           dv::ExecTier tier = dv::ExecTier::kVm) {
  dv::streaming::SessionOptions so;
  so.run.engine = small_engine();
  so.run.tier = tier;
  auto s = dv::streaming::make_stream_session(cp, base, so);
  s->converge();
  if (!batches.empty()) s->apply(merge_batches(batches));
  return s->result();
}

void expect_comp_matches(const SessionHost& host,
                         const dv::DvRunResult& want) {
  const auto snap = host.view();
  ASSERT_EQ(snap->result.num_vertices, want.num_vertices);
  EXPECT_EQ(snap->result.field_as_int("comp"), want.field_as_int("comp"));
}

// ------------------------------------------------------------ merging

TEST(MergeBatches, ConcatenatesInOrder) {
  MutationBatch a;
  a.insert_edge(0, 1, 2.0);
  a.add_vertices = 2;
  MutationBatch b;
  b.remove_edge(0, 1);
  b.detach_vertices.push_back(3);
  b.add_vertices = 1;
  const MutationBatch m = merge_batches({a, b});
  ASSERT_EQ(m.edges.size(), 2u);
  // Order is the correctness property: MutationBatch is last-write-wins,
  // so the delete admitted after the insert must stay after it.
  EXPECT_TRUE(m.edges[0].insert);
  EXPECT_FALSE(m.edges[1].insert);
  EXPECT_EQ(m.add_vertices, 3u);
  ASSERT_EQ(m.detach_vertices.size(), 1u);
  EXPECT_EQ(m.detach_vertices[0], 3);
}

TEST(MergeBatches, OpsCountsLineItems) {
  MutationBatch b;
  b.insert_edge(0, 1);
  b.remove_edge(1, 2);
  b.add_vertices = 4;  // one `addv 4` line item, not four
  b.detach_vertices.push_back(0);
  EXPECT_EQ(dv::serve::batch_ops(b), 4u);
}

// ----------------------------------------------------------- host core

TEST(SessionHost, ServesInitialConvergence) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  expect_comp_matches(host, offline_cc(cp, two_components(), {}));
  EXPECT_EQ(host.get(3, "comp").as_i(), 0);
  EXPECT_EQ(host.get(5, "comp").as_i(), 4);
  const HostStats s = host.stats();
  EXPECT_TRUE(s.ready);
  EXPECT_EQ(s.epochs_committed, 0u);
  EXPECT_EQ(s.vertices, 8u);
  EXPECT_EQ(s.reads, 2u);
}

TEST(SessionHost, PauseMakesCoalescingDeterministic) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  host.pause();
  std::vector<MutationBatch> batches;
  for (int k = 0; k < 5; ++k) {
    MutationBatch b;
    b.insert_edge(static_cast<graph::VertexId>(k),
                  static_cast<graph::VertexId>(k) + 3);
    batches.push_back(b);
    host.enqueue(b);
  }
  host.resume();
  host.flush();
  // All five batches were queued against a paused engine, so they commit
  // as exactly one group-commit epoch...
  const HostStats s = host.stats();
  EXPECT_EQ(s.epochs_committed, 1u);
  EXPECT_EQ(s.batches_admitted, 5u);
  EXPECT_EQ(s.max_coalesced, 5u);
  EXPECT_EQ(s.batches_coalesced, 4u);
  EXPECT_EQ(s.mutations_admitted, 5u);
  // ...whose state equals the one-batch cold oracle (chained inserts
  // merge everything into one component).
  expect_comp_matches(host, offline_cc(cp, two_components(), batches));
  EXPECT_EQ(host.get(7, "comp").as_i(), 0);
}

TEST(SessionHost, ConcurrentWritersMatchOneBatchOracle) {
  for (const auto tier : {dv::ExecTier::kVm, dv::ExecTier::kTree}) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    const auto cp = compile_dv(dv::programs::kConnectedComponents);
    const graph::CsrGraph base =
        graph::rmat(128, 256, test::effective_seed(11),
                    [] { graph::RmatOptions o; o.directed = false; return o; }());
    SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                     base, host_opts(tier));
    host.wait_ready();

    // Four writers, disjoint insert-only edge sets (insert-only keeps the
    // merged result independent of the interleaving order, so a single
    // oracle covers every admissible schedule).
    constexpr int kWriters = 4, kBatchesPerWriter = 8;
    std::vector<std::vector<MutationBatch>> streams(kWriters);
    for (int w = 0; w < kWriters; ++w) {
      Rng rng(test::effective_seed(100 + static_cast<std::uint64_t>(w)));
      for (int k = 0; k < kBatchesPerWriter; ++k) {
        MutationBatch b;
        const auto u = static_cast<graph::VertexId>(
            w * 32 + static_cast<int>(rng.next_below(32)));
        const auto v =
            static_cast<graph::VertexId>(rng.next_below(128));
        if (u != v) b.insert_edge(u, v);
        if (!b.empty()) streams[static_cast<std::size_t>(w)].push_back(b);
      }
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&host, &streams, w] {
        for (const MutationBatch& b :
             streams[static_cast<std::size_t>(w)]) {
          host.enqueue(b);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    host.flush();

    std::vector<MutationBatch> all;
    for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
    expect_comp_matches(host, offline_cc(cp, base, all, tier));
    const HostStats s = host.stats();
    EXPECT_EQ(s.batches_admitted, all.size());
    EXPECT_GE(s.epochs_committed, 1u);
    EXPECT_LE(s.epochs_committed, all.size());
  }
}

TEST(SessionHost, ReadsServeCommittedStateWhileEngineIsBusy) {
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  host.pause();
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  // The batch is admitted but cannot commit (engine paused): reads must
  // return the previous epoch instantly instead of waiting for it.
  EXPECT_EQ(host.view()->epoch, 0u);
  EXPECT_EQ(host.get(4, "comp").as_i(), 4);
  const auto top = host.topk("comp", 3);
  ASSERT_EQ(top.size(), 3u);
  // Descending by value, ties broken toward the lower id.
  EXPECT_EQ(top[0].first, 7);
  EXPECT_EQ(top[0].second, 7.0);
  EXPECT_EQ(top[1].first, 6);
  EXPECT_EQ(top[2].first, 4);
  host.resume();
  host.flush();
  EXPECT_EQ(host.view()->epoch, 1u);
  EXPECT_EQ(host.get(4, "comp").as_i(), 0);
}

TEST(SessionHost, EnqueueBlocksAtQueueLimit) {
  HostOptions o = host_opts();
  o.queue_limit = 2;
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), o);
  host.wait_ready();
  host.pause();
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  host.enqueue(b);  // queue now at limit; the engine is paused
  std::atomic<bool> admitted{false};
  std::thread writer([&] {
    host.enqueue(b);  // must block until resume() lets the engine drain
    admitted.store(true);
  });
  // Deterministic, not a race: a paused engine never drains, so the only
  // way `admitted` could flip here is backpressure failing to engage.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  host.resume();
  writer.join();
  EXPECT_TRUE(admitted.load());
  host.flush();
  EXPECT_EQ(host.stats().batches_admitted, 3u);
}

TEST(SessionHost, EngineFailureSurfacesEverywhere) {
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  MutationBatch bad;
  bad.insert_edge(0, 9999);  // beyond the id tail: apply() throws
  host.enqueue(bad);
  EXPECT_THROW(host.flush(), CheckError);
  const HostStats s = host.stats();
  EXPECT_TRUE(s.failed);
  EXPECT_FALSE(s.error.empty());
  MutationBatch ok;
  ok.insert_edge(0, 1);
  EXPECT_THROW(host.enqueue(ok), CheckError);
}

TEST(SessionHost, SnapshotBytesRestoresEquivalentHost) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  MutationBatch b;
  b.insert_edge(3, 4);
  host.enqueue(b);
  host.flush();
  std::vector<std::uint8_t> bytes = host.snapshot_bytes();
  ASSERT_FALSE(bytes.empty());
  SessionHost restored("t2",
                       compile_dv(dv::programs::kConnectedComponents),
                       std::move(bytes), host_opts());
  restored.wait_ready();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b}));
  EXPECT_EQ(restored.view()->epoch, host.view()->epoch);
}

TEST(SessionHost, RecoveryAfterKillContinuesServing) {
  const std::string ckpt = "dv_serve_test_recovery.snap";
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  MutationBatch b1, b2;
  b1.insert_edge(3, 4);
  b2.insert_edge(5, 6);
  {
    HostOptions o = host_opts();
    o.checkpoint_every = 1;
    o.checkpoint_path = ckpt;
    SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                     two_components(), o);
    host.enqueue(b1);
    host.flush();
    EXPECT_EQ(host.stats().checkpoints, 1u);
    host.kill();
    // A killed host refuses work instead of serving stale state silently.
    EXPECT_THROW(host.enqueue(b2), CheckError);
  }
  SessionHost restored("t", compile_dv(dv::programs::kConnectedComponents),
                       dv::persist::read_file_bytes(ckpt), host_opts());
  restored.wait_ready();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b1}));
  // The restored host is a full serving host, not a read-only replica:
  // it keeps committing warm epochs.
  restored.enqueue(b2);
  restored.flush();
  expect_comp_matches(restored, offline_cc(cp, two_components(), {b1, b2}));
  std::remove(ckpt.c_str());
}

// ------------------------------------------------- view publication

/// The published view must be exactly the user columns of the session's
/// full state: same user fields in declaration order, bit-equal values.
void expect_view_is_user_columns(const dv::serve::StateSnapshot& snap,
                                 const dv::DvRunResult& full,
                                 const std::string& where) {
  std::vector<std::size_t> user;
  for (std::size_t s = 0; s < full.fields.size(); ++s)
    if (full.fields[s].origin == dv::Field::Origin::kUser) user.push_back(s);
  const dv::DvRunResult& got = snap.result;
  ASSERT_EQ(got.fields.size(), user.size()) << where;
  for (std::size_t j = 0; j < user.size(); ++j)
    ASSERT_EQ(got.fields[j].name, full.fields[user[j]].name) << where;
  ASSERT_EQ(got.num_vertices, full.num_vertices) << where;
  ASSERT_EQ(got.state.size(), full.num_vertices * user.size()) << where;
  EXPECT_TRUE(got.stats.supersteps.empty()) << where;
  for (std::size_t v = 0; v < full.num_vertices; ++v) {
    for (std::size_t j = 0; j < user.size(); ++j) {
      const auto vid = static_cast<graph::VertexId>(v);
      const dv::Value& a = got.at(vid, static_cast<int>(j));
      const dv::Value& b = full.at(vid, static_cast<int>(user[j]));
      ASSERT_TRUE(a.type == b.type && a.i == b.i)
          << where << ": vertex " << v << " field " << got.fields[j].name;
    }
  }
}

/// A host and a shadow session over the same program, graph and options,
/// driven one batch per epoch. The shadow lives on the test thread, so
/// its full result() is the oracle for the host's published view.
struct ServedPair {
  ServedPair(const char* source, const graph::CsrGraph& base,
             HostOptions o)
      : cp(compile_dv(source)),
        shadow(dv::streaming::make_stream_session(cp, base, o.session)),
        host("t", compile_dv(source), base, o) {
    shadow->converge();
    host.wait_ready();
  }
  /// Restores both sides from `bytes`.
  ServedPair(const char* source, std::vector<std::uint8_t> bytes,
             HostOptions o)
      : cp(compile_dv(source)),
        shadow(dv::streaming::DvStreamSession::restore_bytes(cp, bytes,
                                                             o.session)),
        host("t", compile_dv(source), std::move(bytes), o) {
    if (!shadow->converged()) shadow->converge();
    host.wait_ready();
  }

  dv::streaming::SessionEpoch step(const MutationBatch& b) {
    host.enqueue(b);
    host.flush();
    const dv::streaming::SessionEpoch ep = shadow->apply(b);
    check("epoch " + std::to_string(ep.epoch));
    return ep;
  }

  void check(const std::string& where) {
    const auto snap = host.view();
    EXPECT_EQ(snap->epoch, shadow->epoch()) << where;
    expect_view_is_user_columns(*snap, shadow->result(), where);
  }

  dv::CompiledProgram cp;
  std::unique_ptr<dv::streaming::DvStreamSession> shadow;
  SessionHost host;
};

graph::CsrGraph undirected_rmat(std::size_t n, std::uint64_t seed) {
  graph::RmatOptions ro;
  ro.directed = false;
  return graph::rmat(n, 2 * n, seed, ro);
}

TEST(ViewPublication, PatchedViewMatchesSessionAcrossWarmEpochsAndGrowth) {
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    ServedPair p(dv::programs::kConnectedComponents, undirected_rmat(64, 5),
                 host_opts(tier));
    p.check("initial");
    for (graph::VertexId k = 0; k < 4; ++k) {
      MutationBatch b;
      b.insert_edge(k, 40 + 3 * k);
      EXPECT_TRUE(p.step(b).warm);
    }
    p.step(MutationBatch{});  // empty batch: nothing net-changes
    MutationBatch redundant;
    redundant.insert_edge(0, 40);  // already present
    p.step(redundant);
    MutationBatch grow;
    grow.add_vertices = 3;
    grow.insert_edge(64, 65);
    grow.insert_edge(65, 7);
    p.step(grow);
    for (graph::VertexId k = 0; k < 3; ++k) {
      MutationBatch b;
      b.insert_edge(66, 20 + k);
      p.step(b);
    }
    const HostStats s = p.host.stats();
    EXPECT_GT(s.view_rows_patched, 0u);
    EXPECT_EQ(s.view_builds_first, 2u);
    EXPECT_GE(s.view_builds_grown, 1u);
    EXPECT_EQ(s.view_full_builds,
              s.view_builds_first + s.view_builds_cold +
                  s.view_builds_restore + s.view_builds_grown +
                  s.view_builds_spare_held);
  }
}

/// Weighted directed DAG-ish graph for kSsspRetract: a chain plus
/// shortcuts, all weights positive.
graph::CsrGraph weighted_chain(std::size_t n) {
  graph::GraphBuilder b(n, /*directed=*/true);
  b.keep_weights(true);
  for (graph::VertexId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, 1.0);
  for (graph::VertexId v = 0; v + 3 < n; v += 2) b.add_edge(v, v + 3, 2.5);
  return b.build();
}

HostOptions sssp_opts(dv::ExecTier tier) {
  HostOptions o = host_opts(tier);
  o.session.run.params = {{"source", dv::Value::of_int(0)}};
  return o;
}

TEST(ViewPublication, PatchedViewMatchesSessionAcrossRetractions) {
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    ServedPair p(dv::programs::kSsspRetract, weighted_chain(24),
                 sssp_opts(tier));
    std::size_t warm = 0;
    for (graph::VertexId v = 0; v + 3 < 20; v += 4) {
      MutationBatch del;
      del.remove_edge(v, v + 3);  // a shortcut: distances rise
      warm += p.step(del).warm ? 1 : 0;
      MutationBatch ins;
      ins.insert_edge(v + 1, v + 5, 0.5);
      warm += p.step(ins).warm ? 1 : 0;
    }
    EXPECT_GT(warm, 0u);
    EXPECT_GT(p.host.stats().view_rows_patched, 0u);
  }
}

TEST(ViewPublication, ColdEpochsBuildTheViewInFull) {
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    HostOptions o = host_opts(tier);
    o.session.force_cold = true;
    ServedPair p(dv::programs::kConnectedComponents, undirected_rmat(64, 9),
                 o);
    for (graph::VertexId k = 0; k < 4; ++k) {
      MutationBatch b;
      b.insert_edge(k, 30 + k);
      EXPECT_FALSE(p.step(b).warm);
    }
    const HostStats s = p.host.stats();
    EXPECT_EQ(s.view_rows_patched, 0u);
    EXPECT_EQ(s.view_builds_first, 1u);
    EXPECT_EQ(s.view_builds_cold, 4u);
    EXPECT_EQ(s.view_full_builds, 5u);
  }
}

TEST(ViewPublication, WarmAbortFallsBackToAFullBuild) {
  // 0 → 1 ⇄ 2 → 3: cutting 0 → 1 leaves the 1–2 cycle unreachable, so
  // the warm repair counts to infinity, hits the cap and rebuilds cold.
  graph::GraphBuilder b(5, /*directed=*/true);
  b.keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 1, 1.0);
  b.add_edge(2, 3, 1.0);
  const graph::CsrGraph g = b.build();
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    ServedPair p(dv::programs::kSsspRetract, g, sssp_opts(tier));
    MutationBatch ins;
    ins.insert_edge(0, 4, 2.0);
    EXPECT_TRUE(p.step(ins).warm);
    MutationBatch cut;
    cut.remove_edge(0, 1);
    const dv::streaming::SessionEpoch ep = p.step(cut);
    ASSERT_FALSE(ep.warm);
    ASSERT_NE(ep.blocker, nullptr);
    EXPECT_NE(std::string(ep.blocker).find("aborted"), std::string::npos)
        << ep.blocker;
    for (const double w : {3.0, 1.5}) {
      MutationBatch more;
      more.insert_edge(4, 3, w);
      EXPECT_TRUE(p.step(more).warm);
    }
    const HostStats s = p.host.stats();
    EXPECT_EQ(s.view_builds_cold, 2u);  // the abort and the epoch after
    EXPECT_GT(s.view_rows_patched, 0u);
  }
}

TEST(ViewPublication, RestoredHostPatchesAfterTwoFullBuilds) {
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    std::vector<std::uint8_t> bytes;
    {
      ServedPair p(dv::programs::kConnectedComponents,
                   undirected_rmat(64, 11), host_opts(tier));
      for (graph::VertexId k = 0; k < 3; ++k) {
        MutationBatch b;
        b.insert_edge(k, 50 + k);
        p.step(b);
      }
      bytes = p.host.snapshot_bytes();
    }
    ServedPair r(dv::programs::kConnectedComponents, std::move(bytes),
                 host_opts(tier));
    r.check("restored");
    for (graph::VertexId k = 0; k < 3; ++k) {
      MutationBatch b;
      b.insert_edge(10 + k, 60 - k);
      r.step(b);
    }
    const HostStats s = r.host.stats();
    EXPECT_EQ(s.view_builds_restore, 2u);
    EXPECT_EQ(s.view_builds_first, 0u);
    EXPECT_GT(s.view_rows_patched, 0u);
  }
}

TEST(ViewPublication, ReaderPinningTheSpareForcesAFullBuild) {
  ServedPair p(dv::programs::kConnectedComponents, undirected_rmat(64, 13),
               host_opts());
  const auto edit = [&](graph::VertexId k) {
    MutationBatch b;
    b.insert_edge(k, 40 + k);
    p.step(b);
  };
  edit(0);
  edit(1);  // publishes 0 and 1 built in full; this one patches
  const auto pinned = p.host.view();
  const std::vector<dv::Value> pinned_state = pinned->result.state;
  const std::size_t pinned_epoch = pinned->epoch;
  edit(2);  // the pinned snapshot becomes the spare
  EXPECT_EQ(p.host.stats().view_builds_spare_held, 0u);
  edit(3);  // ...and is still held: this publish must not patch it
  EXPECT_EQ(p.host.stats().view_builds_spare_held, 1u);
  EXPECT_EQ(pinned->epoch, pinned_epoch);
  ASSERT_EQ(pinned->result.state.size(), pinned_state.size());
  for (std::size_t i = 0; i < pinned_state.size(); ++i)
    ASSERT_EQ(pinned->result.state[i].i, pinned_state[i].i) << "word " << i;
  const std::size_t patched = p.host.stats().view_rows_patched;
  edit(4);
  edit(5);  // with no pin, publishing patches again
  EXPECT_GT(p.host.stats().view_rows_patched, patched);
  EXPECT_EQ(p.host.stats().view_builds_spare_held, 1u);
}

TEST(ViewPublication, ReaderReleaseOrdersItsReadsBeforeThePatch) {
  // A reader reads a snapshot after it became the spare, then drops it.
  // The thread handshakes below are relaxed atomics, so nothing but the
  // snapshot's reference count orders the reader's reads before the
  // engine's patch of that buffer — which is what ThreadSanitizer checks.
  // Edgeless: every edit below joins a singleton to a lower label, so
  // every epoch changes a row.
  ServedPair p(dv::programs::kConnectedComponents,
               graph::GraphBuilder(64, /*directed=*/false).build(),
               host_opts());
  const auto edit = [&](graph::VertexId k) {
    MutationBatch b;
    b.insert_edge(k, 63 - k);
    p.step(b);
  };
  edit(0);
  edit(1);  // past the two first full builds
  std::atomic<int> stage{0};
  std::int64_t sum = 0;
  std::thread reader([&] {
    auto snap = p.host.view();
    stage.store(1, std::memory_order_relaxed);
    while (stage.load(std::memory_order_relaxed) != 2)
      std::this_thread::yield();
    for (const dv::Value& v : snap->result.state) sum += v.i;
    snap.reset();
    stage.store(3, std::memory_order_relaxed);
  });
  while (stage.load(std::memory_order_relaxed) != 1)
    std::this_thread::yield();
  edit(2);  // the reader's snapshot becomes the spare
  stage.store(2, std::memory_order_relaxed);
  while (stage.load(std::memory_order_relaxed) != 3)
    std::this_thread::yield();
  const std::size_t patched = p.host.stats().view_rows_patched;
  edit(3);  // patches that snapshot's buffer in place
  reader.join();
  EXPECT_GT(sum, 0);
  EXPECT_GT(p.host.stats().view_rows_patched, patched);
  EXPECT_EQ(p.host.stats().view_builds_spare_held, 0u);
}

TEST(ViewPublication, ConcurrentReadersSeeWholeEpochs) {
  const graph::CsrGraph base = undirected_rmat(64, 17);
  std::vector<MutationBatch> batches;
  for (graph::VertexId k = 0; k < 40; ++k) {
    MutationBatch b;
    b.insert_edge(k % 64, (7 * k + 13) % 64);
    batches.push_back(b);
  }
  // The user columns of every epoch, computed up front on a shadow.
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  std::vector<std::vector<std::int64_t>> want;
  {
    auto shadow =
        dv::streaming::make_stream_session(cp, base, host_opts().session);
    shadow->converge();
    want.push_back(shadow->result().field_as_int("comp"));
    for (const MutationBatch& b : batches) {
      shadow->apply(b);
      want.push_back(shadow->result().field_as_int("comp"));
    }
  }
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   base, host_opts());
  host.wait_ready();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> mismatches{0}, snapshots{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::size_t last_epoch = 0;
      graph::VertexId v = static_cast<graph::VertexId>(r);
      while (!done.load(std::memory_order_acquire)) {
        // A held snapshot is one whole epoch, however long it is held.
        const auto snap = host.view();
        if (snap->epoch < last_epoch ||
            snap->result.field_as_int("comp") != want[snap->epoch])
          mismatches.fetch_add(1);
        last_epoch = snap->epoch;
        // Point reads go through the host's own view() each time.
        const std::int64_t c = host.get(v, "comp").as_i();
        if (c < want.back()[v] || c > want.front()[v]) mismatches.fetch_add(1);
        v = (v + 7) % 64;
        snapshots.fetch_add(1);
      }
    });
  }
  std::size_t seen = 0;
  for (const MutationBatch& b : batches) {
    // Readers run between every two publishes, however the host
    // schedules the threads.
    while (snapshots.load() < seen + readers.size())
      std::this_thread::yield();
    seen = snapshots.load();
    host.enqueue(b);
    host.flush();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(snapshots.load(), batches.size() * readers.size());
  const auto last = host.view();
  EXPECT_EQ(last->epoch, batches.size());
  EXPECT_EQ(last->result.field_as_int("comp"), want.back());
}

// ------------------------------------------------------------ registry

TEST(Registry, CreateFindClose) {
  Registry reg;
  CreateSpec spec;
  spec.name = "pr";
  spec.program = "cc";
  spec.graph = "rmat:5x2";
  spec.undirected = true;
  spec.host = host_opts();
  auto host = reg.create(spec);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(reg.find("pr"), host);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(reg.create(spec), CheckError);  // name taken
  host->wait_ready();
  EXPECT_EQ(host->stats().vertices, 32u);
  EXPECT_TRUE(reg.close("pr"));
  EXPECT_EQ(reg.find("pr"), nullptr);
  EXPECT_FALSE(reg.close("pr"));
  // Our reference keeps the closed host alive and serving until dropped.
  EXPECT_EQ(host->stats().vertices, 32u);
}

TEST(Registry, UnknownProgramAndGraphSpecErrors) {
  Registry reg;
  CreateSpec spec;
  spec.name = "x";
  spec.program = "no-such-program";
  spec.graph = "rmat:4x2";
  EXPECT_THROW(reg.create(spec), CheckError);
  spec.program = "cc";
  spec.graph = "rmat:nope";
  EXPECT_THROW(reg.create(spec), CheckError);
}

TEST(Registry, RestoreFallsBackToColdBuild) {
  Registry reg;
  CreateSpec spec;
  spec.name = "x";
  spec.program = "cc";
  spec.graph = "rmat:4x2";
  spec.undirected = true;
  spec.host = host_opts();
  spec.restore_from = "dv_serve_test_damaged.snap";
  std::ofstream(spec.restore_from) << "not a snapshot";
  auto host = reg.create(spec);  // damaged restore degrades, not refuses
  host->wait_ready();
  EXPECT_EQ(host->stats().vertices, 16u);
  std::remove(spec.restore_from.c_str());
}

// ------------------------------------------------------------ protocol

/// Drives one line, expecting the response to start with `prefix`.
std::string expect_line(ServeCore& core, dv::serve::Conn& conn,
                        const std::string& line,
                        const std::string& prefix) {
  const std::string resp = core.handle_line(conn, line);
  EXPECT_EQ(resp.rfind(prefix, 0), 0u)
      << "request '" << line << "' answered '" << resp << "'";
  return resp;
}

TEST(Protocol, CreateMutateReadClose) {
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  expect_line(core, conn, "PING", "OK pong");
  // Protocol graphs come from specs; give CREATE a real edge list too.
  // Ids are contiguous on purpose: the edge-list reader densifies sparse
  // ids, which would silently renumber the vertices GET names.
  const std::string edges = "dv_serve_test_edges.txt";
  std::ofstream(edges) << "0 1\n1 2\n3 4\n";
  expect_line(core, conn,
              "CREATE cc1 cc " + edges + " undirected queue_limit=4",
              "OK created cc1");
  expect_line(core, conn, "CREATE cc1 cc " + edges, "ERR ");
  expect_line(core, conn, "MUT cc1", "");
  EXPECT_TRUE(conn.in_mut);
  // Satellite: comments and blank lines inside a MUT body are skipped.
  EXPECT_EQ(core.handle_line(conn, "# join the two components"), "");
  EXPECT_EQ(core.handle_line(conn, ""), "");
  EXPECT_EQ(core.handle_line(conn, "+ 2 3"), "");
  expect_line(core, conn, "commit", "OK queued ops=1");
  EXPECT_FALSE(conn.in_mut);
  expect_line(core, conn, "FLUSH cc1", "OK epoch=1");
  expect_line(core, conn, "GET cc1 4 comp", "OK 0");
  expect_line(core, conn, "TOPK cc1 comp 2", "OK 2 0:0 1:0");
  const std::string stats = expect_line(core, conn, "STATS", "OK {");
  EXPECT_NE(stats.find("\"sessions\""), std::string::npos);
  EXPECT_NE(stats.find("\"cc1\""), std::string::npos);
  expect_line(core, conn, "SNAPSHOT cc1 dv_serve_test_proto.snap",
              "OK bytes=");
  expect_line(core, conn, "CLOSE cc1", "OK closed cc1");
  expect_line(core, conn, "GET cc1 0 comp", "ERR ");
  std::remove(edges.c_str());
  std::remove("dv_serve_test_proto.snap");
}

TEST(Protocol, ErrorsAreOneLineAndIsolated) {
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  bool quit = false;
  expect_line(core, conn, "BOGUS", "ERR ");
  expect_line(core, conn, "GET nope 0 comp", "ERR ");
  expect_line(core, conn, "MUT nope", "ERR ");
  expect_line(core, conn, "CREATE a cc rmat:4x2 undirected", "OK created a");
  expect_line(core, conn, "MUT a", "");
  // A malformed op aborts the whole batch and resets MUT state: the next
  // line is parsed as a fresh request, and nothing was admitted.
  expect_line(core, conn, "+ 1", "ERR ");
  EXPECT_FALSE(conn.in_mut);
  expect_line(core, conn, "FLUSH a", "OK epoch=0");
  EXPECT_EQ(core.handle_line(conn, "QUIT", &quit), "OK bye");
  EXPECT_TRUE(quit);
  // One tenant's failure must not leak into another: break session a
  // with an out-of-range insert, then create and serve b normally.
  dv::serve::Conn c2;
  expect_line(core, c2, "MUT a", "");
  core.handle_line(c2, "+ 0 99999");
  expect_line(core, c2, "commit", "OK queued ops=1");
  expect_line(core, c2, "FLUSH a", "ERR ");
  expect_line(core, c2, "CREATE b cc rmat:4x2 undirected", "OK created b");
  expect_line(core, c2, "FLUSH b", "OK epoch=0");
}

TEST(Protocol, ReadsOfInternalFieldsNameTheField) {
  // The view publishes user fields only; a compiler-added field (here
  // cc's accumulator) is refused by name rather than as "no field".
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  std::string internal;
  for (const dv::Field& f : cp.program.fields)
    if (f.origin != dv::Field::Origin::kUser) {
      internal = f.name;
      break;
    }
  ASSERT_FALSE(internal.empty());
  ServeCore core(host_opts());
  dv::serve::Conn conn;
  expect_line(core, conn, "CREATE a cc rmat:4x2 undirected", "OK created a");
  for (const std::string& req :
       {"GET a 0 " + internal, "TOPK a " + internal + " 2"}) {
    const std::string resp = expect_line(core, conn, req, "ERR ");
    EXPECT_NE(resp.find("'" + internal + "'"), std::string::npos) << resp;
    EXPECT_NE(resp.find("compiler-internal"), std::string::npos) << resp;
  }
  const std::string unknown = expect_line(core, conn, "GET a 0 nope", "ERR ");
  EXPECT_NE(unknown.find("no field named 'nope'"), std::string::npos)
      << unknown;
  expect_line(core, conn, "GET a 0 comp", "OK 0");
}

// ----------------------------------------------------- mutation parsing

TEST(BatchLineParser, SkipsCommentsAndBlankLines) {
  BatchLineParser p;
  EXPECT_FALSE(p.feed("# header comment"));
  EXPECT_FALSE(p.feed(""));
  EXPECT_FALSE(p.feed("% alternate comment style"));
  EXPECT_FALSE(p.feed("+ 1 2 2.5"));
  EXPECT_FALSE(p.feed("   "));  // whitespace-only is blank
  EXPECT_FALSE(p.feed("- 3 4"));
  EXPECT_FALSE(p.feed("addv 2"));
  EXPECT_FALSE(p.feed("delv 0"));
  EXPECT_TRUE(p.feed("commit"));
  const MutationBatch b = p.take();
  ASSERT_EQ(b.edges.size(), 2u);
  EXPECT_TRUE(b.edges[0].insert);
  EXPECT_EQ(b.edges[0].weight, 2.5);
  EXPECT_EQ(b.add_vertices, 2u);
  ASSERT_EQ(b.detach_vertices.size(), 1u);
  EXPECT_EQ(p.lines_fed(), 9u);
  // take() reset the parser for the connection's next MUT.
  EXPECT_TRUE(p.batch().empty());
}

TEST(BatchLineParser, MalformedLineNamesItsNumber) {
  BatchLineParser p;
  EXPECT_FALSE(p.feed("# comment"));
  try {
    p.feed("+ 1");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(MutationStreamFile, BlankLineStillSeparatesBatches) {
  // The file format is unchanged by the protocol parser's skip rule: in
  // files a blank line ends the current batch (two here), while comments
  // are skipped in both surfaces.
  std::istringstream in("# stream\n+ 0 1\n\n+ 2 3\n+ 4 5\ncommit\n");
  const auto batches = dv::streaming::read_mutation_stream(in);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].edges.size(), 1u);
  EXPECT_EQ(batches[1].edges.size(), 2u);
}

// ------------------------------------------------------------- topk

TEST(ReadView, TopkOrdersAndClamps) {
  SessionHost host("t", compile_dv(dv::programs::kConnectedComponents),
                   two_components(), host_opts());
  host.wait_ready();
  const auto all = host.topk("comp", 100);  // k beyond n clamps to n
  ASSERT_EQ(all.size(), 8u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    const bool ordered =
        all[i - 1].second > all[i].second ||
        (all[i - 1].second == all[i].second &&
         all[i - 1].first < all[i].first);
    EXPECT_TRUE(ordered) << "rank " << i;
  }
  // Component minima: {0,1,2,3}→0, {4,5}→4, isolated 6,7 stay themselves.
  EXPECT_EQ(all[0].first, 7);
  EXPECT_EQ(all[1].first, 6);
  EXPECT_EQ(all[2].first, 4);
  EXPECT_EQ(all[3].first, 5);
}

}  // namespace
}  // namespace deltav
