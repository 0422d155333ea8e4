// Adversarial stress tests for the lock-free atomic-fold fast path
// (runtime/atomic_fold.h, DESIGN.md "Fold paths").
//
// The worst case for the atomic path is a hub vertex whose pending slot
// is hammered by every worker lane at once — concurrent fetch-adds for
// integer sums, CAS-min/CAS-max loops for the idempotent operators. These
// tests build exactly that shape (a star graph, many workers), repeat the
// contended runs 100×, and require bit-identical agreement with the
// buffered message path and with a sequential oracle every single time.
// They also pin the frontier-bitmap wake semantics: the set of vertices
// computing in each superstep must match the exchange-scan wake set of
// the buffered path exactly (observed through the per-superstep
// active_vertices sequence).
//
// Labelled `atomic_fold` so the TSan CI job replays the contention under
// ThreadSanitizer: a torn fold or a missing happens-before between the
// compute fork-join and the single-threaded drain fails there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "dv/obs/obs.h"
#include "dv/programs/programs.h"
#include "dv/streaming/stream_session.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::FoldPath;
using dv::Value;
using test::compile_dv;
using test::runnable_tiers;
using test::small_engine;

/// Integer sum gossip: every vertex replaces its value with the sum of
/// its neighbors'. On a star this alternates between all leaves folding
/// into the hub (maximum slot contention) and the hub's delta fanning
/// out to every leaf (maximum bitmap spread). Values stay well inside
/// int64 for the sizes used here.
constexpr const char* kSumGossip = R"(
param steps : int;
init {
  local x : int = vertexId
};
iter i {
  let s : int = + [ u.x | u <- #neighbors ] in
  x = s
} until { i >= steps }
)";

dv::DvRunResult run_fold(const dv::CompiledProgram& cp,
                         const graph::CsrGraph& g, FoldPath path,
                         std::map<std::string, Value> params = {},
                         int workers = 8,
                         dv::ExecTier tier = dv::ExecTier::kVm,
                         obs::Collector* collector = nullptr) {
  dv::DvRunOptions o;
  o.engine = small_engine(workers);
  o.params = std::move(params);
  o.fold_path = path;
  o.tier = tier;
  o.collector = collector;
  return dv::run_program(cp, g, o);
}

std::uint64_t counter(const obs::Collector& col, const char* name) {
  return col.metrics.snapshot().counters.at(name);
}

/// Runs `cp` on the atomic path with a collector attached and returns how
/// many of its until-loop rounds ran threaded. Inline supersteps only ever
/// happen inside the until-loop of the program's last (iterated)
/// statement, so the rest of that loop's rounds were threaded: the
/// workers really did fold into the shared slots concurrently.
std::pair<dv::DvRunResult, std::uint64_t> run_contended(
    const dv::CompiledProgram& cp, const graph::CsrGraph& g,
    obs::Collector& col, std::map<std::string, Value> params = {},
    dv::ExecTier tier = dv::ExecTier::kVm) {
  const std::uint64_t inline_before =
      counter(col, "pregel.inline_supersteps");
  auto r = run_fold(cp, g, FoldPath::kAuto, std::move(params), 8, tier,
                    &col);
  const std::uint64_t inlined =
      counter(col, "pregel.inline_supersteps") - inline_before;
  const std::uint64_t rounds = r.iterations.back();
  return {std::move(r), rounds - inlined};
}

/// Undirected R-MAT big enough that the until-loop's entry frontier (every
/// vertex) is above the runner's inline threshold, max(256, |V|/8).
graph::CsrGraph contended_rmat(std::uint64_t seed) {
  graph::RmatOptions o;
  o.directed = false;
  return graph::rmat(2048, 8192, seed, o);
}

/// Sequential oracle for kSumGossip.
std::vector<std::int64_t> sum_gossip_oracle(const graph::CsrGraph& g,
                                            int steps) {
  std::vector<std::int64_t> x(g.num_vertices());
  for (std::size_t v = 0; v < x.size(); ++v)
    x[v] = static_cast<std::int64_t>(v);
  for (int i = 0; i < steps; ++i) {
    std::vector<std::int64_t> next(x.size(), 0);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      for (graph::VertexId u : g.neighbors(v)) next[v] += x[u];
    x = std::move(next);
  }
  return x;
}

// ---------------------------------------------------------------------------
// fetch-add contention
// ---------------------------------------------------------------------------

TEST(AtomicFold, HubFetchAddContentionMatchesBufferedAndOracle) {
  // 511 leaves all folding into vertex 0's single pending slot, split
  // across 8 worker lanes. Every round wakes all 512 vertices, above the
  // inline threshold, so every round runs threaded. steps=10 keeps the
  // growth inside int64 (the largest value is about 8.9e15).
  const auto g = graph::star(511, /*directed=*/false);
  const auto cp = compile_dv(kSumGossip);
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(10)}};

  const auto oracle = sum_gossip_oracle(g, 10);
  const auto buffered = run_fold(cp, g, FoldPath::kBuffered, params);
  const auto base = buffered.field_as_int("x");
  ASSERT_EQ(base.size(), oracle.size());
  for (std::size_t v = 0; v < oracle.size(); ++v)
    ASSERT_EQ(base[v], oracle[v]) << "buffered vs oracle at vertex " << v;

  obs::Collector col(9);
  for (int rep = 0; rep < 100; ++rep) {
    const auto tier = rep % 2 == 0 ? dv::ExecTier::kVm : dv::ExecTier::kTree;
    const auto [atomic, threaded] = run_contended(cp, g, col, params, tier);
    ASSERT_EQ(threaded, 10u) << "rep " << rep << ": rounds ran inline";
    ASSERT_EQ(atomic.stats.total_messages_sent(), 0u)
        << "rep " << rep << ": atomic path sent messages";
    ASSERT_EQ(atomic.supersteps, buffered.supersteps) << "rep " << rep;
    const auto got = atomic.field_as_int("x");
    for (std::size_t v = 0; v < oracle.size(); ++v)
      ASSERT_EQ(got[v], oracle[v])
          << "rep " << rep << " (" << dv::exec_tier_name(tier)
          << "): atomic diverged at vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// CAS-min / CAS-max contention
// ---------------------------------------------------------------------------

TEST(AtomicFold, HubCasMaxContentionMatchesBuffered) {
  // Max gossip on an undirected star: superstep 1 is 511 concurrent
  // CAS-max proposals against the hub's slot, most of which lose the
  // race and must retry. The 512-vertex entry frontier is above the
  // inline threshold, so that round runs threaded.
  const auto g = graph::star(511, /*directed=*/false);
  const auto cp = compile_dv(dv::programs::kMaxGossip);

  const auto buffered = run_fold(cp, g, FoldPath::kBuffered);
  const auto base = buffered.field_as_int("big");
  for (std::size_t v = 0; v < base.size(); ++v)
    ASSERT_EQ(base[v], 511) << "vertex " << v;

  obs::Collector col(9);
  for (int rep = 0; rep < 100; ++rep) {
    const auto [atomic, threaded] = run_contended(cp, g, col);
    ASSERT_GT(threaded, 0u) << "rep " << rep << ": every round ran inline";
    ASSERT_EQ(atomic.stats.total_messages_sent(), 0u) << "rep " << rep;
    ASSERT_EQ(atomic.supersteps, buffered.supersteps) << "rep " << rep;
    const auto got = atomic.field_as_int("big");
    for (std::size_t v = 0; v < base.size(); ++v)
      ASSERT_EQ(got[v], base[v]) << "rep " << rep << " vertex " << v;
  }
}

TEST(AtomicFold, CasMinMatchesUnionFindOracle) {
  // 2048 vertices: the wide early rounds run threaded (concurrent CAS-min
  // on shared slots), the sparse tail inline.
  const auto g = contended_rmat(11);
  const auto oracle = algorithms::connected_components_oracle(g);
  const auto cp = compile_dv(dv::programs::kConnectedComponents);

  const auto buffered = run_fold(cp, g, FoldPath::kBuffered);
  obs::Collector col(9);
  for (int rep = 0; rep < 100; ++rep) {
    const auto [atomic, threaded] = run_contended(cp, g, col);
    ASSERT_GT(threaded, 0u) << "rep " << rep << ": every round ran inline";
    ASSERT_EQ(atomic.stats.total_messages_sent(), 0u) << "rep " << rep;
    const auto got = atomic.field_as_int("comp");
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t v = 0; v < oracle.size(); ++v)
      ASSERT_EQ(got[v], static_cast<std::int64_t>(oracle[v]))
          << "rep " << rep << " vertex " << v;
    ASSERT_EQ(atomic.supersteps, buffered.supersteps) << "rep " << rep;
  }
}

// ---------------------------------------------------------------------------
// observers never change the drive
// ---------------------------------------------------------------------------

/// Every SuperstepStats counter except the wall timings, per superstep.
std::vector<std::vector<std::uint64_t>> stat_counters(
    const dv::DvRunResult& r) {
  std::vector<std::vector<std::uint64_t>> out;
  for (const auto& s : r.stats.supersteps)
    out.push_back({s.messages_sent, s.messages_delivered, s.messages_dropped,
                   s.bytes_sent, s.bytes_delivered, s.cross_machine_bytes,
                   s.active_vertices, s.vertices_halted, s.vertices_woken});
  return out;
}

void expect_same_run(const dv::DvRunResult& a, const dv::DvRunResult& b,
                     const char* field) {
  EXPECT_EQ(a.supersteps, b.supersteps);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(stat_counters(a), stat_counters(b));
  EXPECT_EQ(a.field_as_int(field), b.field_as_int(field));
}

TEST(AtomicFold, ObserversDoNotChangeTheDrive) {
  // Observers must not change the program that runs: with a collector
  // and a checkpoint hook attached, the rounds are still chosen inline or
  // threaded by frontier size alone, so the run matches a bare one.
  const auto g = contended_rmat(5);
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  dv::DvRunOptions o;
  o.engine = small_engine(4);
  o.fold_path = FoldPath::kAuto;
  const auto bare = dv::run_program(cp, g, o);

  obs::Collector col(5);
  std::size_t checkpoints = 0;
  dv::DvRunOptions observed = o;
  observed.collector = &col;
  observed.checkpoint_every = 1;
  observed.checkpoint_sink = [&](std::size_t) { ++checkpoints; };
  const auto watched = dv::run_program(cp, g, observed);
  expect_same_run(watched, bare, "comp");
  EXPECT_GT(checkpoints, 0u);
  const std::uint64_t inlined = counter(col, "pregel.inline_supersteps");
  EXPECT_GT(inlined, 0u);
  EXPECT_LT(inlined, bare.iterations.back()) << "no round ran threaded";

  // A send probe forces the buffered fold path (a message probe has
  // nothing to observe on a message-free path), so it is compared
  // against a bare buffered run: the probe alone changes nothing either.
  o.fold_path = FoldPath::kBuffered;
  const auto bare_buffered = dv::run_program(cp, g, o);
  std::atomic<std::uint64_t> probed{0};
  observed.send_probe = [&](graph::VertexId, graph::VertexId,
                            const dv::DvMessage&) { ++probed; };
  const auto probed_run = dv::run_program(cp, g, observed);
  expect_same_run(probed_run, bare_buffered, "comp");
  EXPECT_EQ(probed.load(), bare_buffered.stats.total_messages_sent());
  EXPECT_EQ(probed_run.field_as_int("comp"), bare.field_as_int("comp"));
}

// ---------------------------------------------------------------------------
// frontier bitmap vs exchange scan
// ---------------------------------------------------------------------------

TEST(AtomicFold, FrontierBitmapWakesExactlyTheExchangeScanSet) {
  // The buffered path wakes receivers during the exchange scan; the
  // atomic path wakes them from the frontier bitmap in the drain. The two
  // wake sets must be identical, which the per-superstep active_vertices
  // sequence observes exactly: a vertex computes in superstep k+1 iff it
  // was active or woken in superstep k.
  const auto g = graph::rmat(256, 1024, 23,
                             [] {
                               graph::RmatOptions o;
                               o.directed = false;
                               return o;
                             }());
  const auto cp = compile_dv(dv::programs::kConnectedComponents);

  const auto buffered = run_fold(cp, g, FoldPath::kBuffered);
  const auto atomic = run_fold(cp, g, FoldPath::kAuto);

  ASSERT_EQ(atomic.supersteps, buffered.supersteps);
  ASSERT_EQ(atomic.stats.supersteps.size(), buffered.stats.supersteps.size());
  for (std::size_t s = 0; s < buffered.stats.supersteps.size(); ++s) {
    EXPECT_EQ(atomic.stats.supersteps[s].active_vertices,
              buffered.stats.supersteps[s].active_vertices)
        << "superstep " << s << ": wake sets diverged";
  }
  const auto a = atomic.field_as_int("comp");
  const auto b = buffered.field_as_int("comp");
  for (std::size_t v = 0; v < a.size(); ++v) EXPECT_EQ(a[v], b[v]);
}

// ---------------------------------------------------------------------------
// float + stays buffered unless opted in
// ---------------------------------------------------------------------------

TEST(AtomicFold, FloatSumRequiresOptIn) {
  const auto g = test::small_directed();
  const auto cp = compile_dv(dv::programs::kPageRank);
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(19)}};

  dv::DvRunOptions o;
  o.engine = small_engine(4);
  o.params = params;

  // Default: float + is not bit-exact under concurrent re-association,
  // so PageRank's site stays buffered even with fold_path = kAuto.
  o.fold_path = FoldPath::kAuto;
  dv::DvRunner buffered_runner(cp, g, o);
  const auto buffered = buffered_runner.converge();
  EXPECT_FALSE(buffered_runner.atomic_path());
  EXPECT_GT(buffered.stats.total_messages_sent(), 0u);

  // Opt-in: the site routes atomic, sends nothing, and agrees to ε.
  o.atomic_float = true;
  dv::DvRunner atomic_runner(cp, g, o);
  const auto atomic = atomic_runner.converge();
  EXPECT_TRUE(atomic_runner.atomic_path());
  EXPECT_EQ(atomic.stats.total_messages_sent(), 0u);
  test::expect_close(atomic.field_as_double("vl"),
                     buffered.field_as_double("vl"), 1e-9);
}

// ---------------------------------------------------------------------------
// streaming epochs route through the same slots
// ---------------------------------------------------------------------------

TEST(AtomicFold, StreamingEpochsFoldAtomically) {
  graph::RmatOptions ro;
  ro.directed = false;
  const auto base = graph::rmat(128, 512, 31, ro);
  const auto cp = compile_dv(dv::programs::kConnectedComponents);

  const auto run_session = [&](FoldPath path) {
    dv::streaming::SessionOptions so;
    so.run.engine = small_engine(8);
    so.run.fold_path = path;
    dv::streaming::DvStreamSession s(cp, base, so);
    s.converge();
    std::vector<dv::streaming::SessionEpoch> epochs;
    // Edge inserts between fixed pairs: each batch perturbs the min-label
    // landscape and must warm-apply (CC admits insert-only streams).
    for (int b = 0; b < 3; ++b) {
      graph::MutationBatch mb;
      mb.insert_edge(static_cast<graph::VertexId>(3 + 7 * b),
                     static_cast<graph::VertexId>(90 - 11 * b));
      mb.insert_edge(static_cast<graph::VertexId>(40 + b),
                     static_cast<graph::VertexId>(70 + 2 * b));
      epochs.push_back(s.apply(mb));
    }
    return std::make_pair(s.result(), epochs);
  };

  const auto [buf_result, buf_epochs] = run_session(FoldPath::kBuffered);
  const auto [atm_result, atm_epochs] = run_session(FoldPath::kAuto);

  ASSERT_EQ(atm_epochs.size(), buf_epochs.size());
  for (std::size_t e = 0; e < buf_epochs.size(); ++e) {
    EXPECT_TRUE(atm_epochs[e].warm) << "epoch " << e;
    EXPECT_TRUE(atm_epochs[e].stats.atomic_path) << "epoch " << e;
    EXPECT_FALSE(buf_epochs[e].stats.atomic_path) << "epoch " << e;
    EXPECT_EQ(atm_epochs[e].stats.supersteps, buf_epochs[e].stats.supersteps)
        << "epoch " << e;
    EXPECT_EQ(atm_epochs[e].stats.messages, 0u) << "epoch " << e;
  }
  // At least one epoch's Δ-patches must actually have folded atomically.
  std::uint64_t folds = 0;
  for (const auto& ep : atm_epochs) folds += ep.stats.atomic_folds;
  EXPECT_GT(folds, 0u);

  const auto a = atm_result.field_as_int("comp");
  const auto b = buf_result.field_as_int("comp");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v)
    EXPECT_EQ(a[v], b[v]) << "vertex " << v;
}

TEST(AtomicFold, OneVertexGrowthEpochsMatchAColdRunOnEveryTier) {
  // One-vertex growth batches on a CC session: the first outgrows the
  // fold table's rows and the lanes' bitmap words (128 vertices fill both
  // exactly) and joins the giant component; the next two land in the
  // spare capacity it made and form a component of their own, labelled
  // 129, so a new row left at anything but the identity shows. Each epoch
  // must stay warm on the atomic path and equal a cold run on the grown
  // graph bit for bit.
  graph::RmatOptions ro;
  ro.directed = false;
  const auto base = graph::rmat(128, 512, 7, ro);
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    dv::streaming::SessionOptions so;
    so.run.engine = small_engine(3);
    so.run.tier = tier;
    dv::streaming::DvStreamSession s(cp, base, so);
    s.converge();
    ASSERT_TRUE(s.atomic_path());
    for (graph::VertexId v = 128; v < 131; ++v) {
      SCOPED_TRACE("adds vertex " + std::to_string(v));
      graph::MutationBatch mb;
      mb.add_vertices = 1;
      if (v == 128) mb.insert_edge(v, 5);
      if (v == 130) mb.insert_edge(v, 129);
      const auto ep = s.apply(mb);
      ASSERT_TRUE(ep.warm) << (ep.blocker ? ep.blocker : "?");
      EXPECT_TRUE(ep.stats.atomic_path);
      EXPECT_EQ(ep.stats.messages, 0u);
      dv::DvRunOptions o;
      o.engine = small_engine(3);
      o.tier = tier;
      const auto cold = dv::run_program(cp, s.graph().materialize(), o);
      EXPECT_EQ(s.result().field_as_int("comp"), cold.field_as_int("comp"));
    }
    EXPECT_EQ(s.result().field_as_int("comp")[130], 129);
  }
}

TEST(AtomicFold, GrowthAppendsRowsWithoutRebuildingTheTable) {
  // Growth identity-fills only the new rows and keeps a geometric
  // capacity: growing by one past the allocation doubles it, and the
  // next one-vertex growth reuses the spare rows in place.
  dv::AtomicFoldTable table;
  table.ops = {dv::AggOp::kMin, dv::AggOp::kSum};
  table.types = {dv::Type::kInt, dv::Type::kInt};
  table.identity = {dv::atomic_fold_bits(dv::Type::kInt,
                                         Value::of_int(INT64_MAX)),
                    0};
  table.reset(100);
  table.fold(99, 0, Value::of_int(7));
  table.grow(101);
  EXPECT_EQ(table.num_vertices, 101u);
  EXPECT_GE(table.slots.size(), 200u * table.columns());
  const auto* data = table.slots.data();
  table.grow(102);
  EXPECT_EQ(table.slots.data(), data) << "one-vertex growth reallocated";
  EXPECT_EQ(table.take(99, 0).as_i(), 7) << "growth lost a pending fold";
  for (graph::VertexId v = 100; v < 102; ++v) {
    EXPECT_EQ(table.take(v, 0).as_i(), INT64_MAX);
    EXPECT_EQ(table.take(v, 1).as_i(), 0);
  }

  dv::AtomicFoldLane lane;
  lane.reset(128, 2);
  lane.grow(129, 2);
  EXPECT_GE(lane.words_per_column, 4u);
  const auto* words = lane.words.data();
  lane.grow(200, 2);
  EXPECT_EQ(lane.words.data(), words) << "growth within capacity rebuilt";
  lane.mark(199, 1);
  std::vector<std::pair<int, graph::VertexId>> got;
  dv::for_each_marked(std::span<dv::AtomicFoldLane>(&lane, 1),
                      [&](int c, graph::VertexId v) { got.push_back({c, v}); });
  EXPECT_EQ(got, (std::vector<std::pair<int, graph::VertexId>>{{1, 199}}));
}

// ---------------------------------------------------------------------------
// the dv.atomic_folds counter
// ---------------------------------------------------------------------------

TEST(AtomicFold, ObsCounterCountsFolds) {
  const auto g = graph::star(63, /*directed=*/false);
  const auto cp = compile_dv(dv::programs::kConnectedComponents);

  obs::Collector col;
  dv::DvRunOptions o;
  o.engine = small_engine(4);
  o.collector = &col;
  o.fold_path = FoldPath::kAuto;
  dv::run_program(cp, g, o);
  const auto snap = col.metrics.snapshot();
  EXPECT_GT(snap.counters.at("dv.atomic_folds"), 0u);

  obs::Collector col2;
  o.collector = &col2;
  o.fold_path = FoldPath::kBuffered;
  dv::run_program(cp, g, o);
  EXPECT_EQ(col2.metrics.snapshot().counters.at("dv.atomic_folds"), 0u);
}

TEST(AtomicFold, FoldPathFlagTakesAutoOrBuffered) {
  for (const FoldPath p : {FoldPath::kAuto, FoldPath::kBuffered})
    EXPECT_EQ(dv::parse_fold_path(dv::fold_path_name(p)), p);
  try {
    dv::parse_fold_path("atomic");
    FAIL() << "'atomic' parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("expected auto|buffered"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// every tier hands its sends to the same sink
// ---------------------------------------------------------------------------

/// A metered run: the result plus its collector's counters.
struct Metered {
  dv::DvRunResult result;
  obs::MetricsRegistry::Snapshot metrics;
};

Metered run_metered(const dv::CompiledProgram& cp, const graph::CsrGraph& g,
                    FoldPath path, dv::ExecTier tier,
                    std::map<std::string, Value> params = {}) {
  obs::Collector col(4);
  Metered m{run_fold(cp, g, path, std::move(params), 4, tier, &col), {}};
  EXPECT_EQ(m.result.tier_used, tier) << m.result.native_fallback;
  m.metrics = col.metrics.snapshot();
  return m;
}

/// Every state word's type and bit pattern (NaN payloads included).
std::vector<std::pair<dv::Type, std::int64_t>> state_bits(
    const dv::DvRunResult& r) {
  std::vector<std::pair<dv::Type, std::int64_t>> out;
  for (const Value& v : r.state) out.emplace_back(v.type, v.i);
  return out;
}

/// Float min whose send payload is NaN on vertices 0..15: x starts NaN
/// there and stays NaN (NaN - 1 is NaN, and NaN != NaN keeps the change
/// check firing), while the other vertices count down. `edge` selects a
/// per-edge payload (u.x + u.edge) over a span-invariant one (u.x), so
/// both the per-target send and the span send meet the NaN fallback.
std::string nan_min_program(bool edge) {
  return std::string(R"(
param steps : int;
init {
  local x : float = if vertexId < 16 then 0.0 / 0.0 else vertexId;
  local y : float = 0.0
};
iter i {
  let m : float = min [ u.x)") +
         (edge ? " + u.edge" : "") + R"( | u <- #in ] in
  y = m;
  x = x - 1.0
} until { i >= steps }
)";
}

/// Two directed rings with chords, one over the NaN vertices 0..15 and
/// one over 16..63, weighted 1..3. A receiver only ever hears from its
/// own block, so no min fold mixes NaN with numbers: with min's
/// order-dependent NaN handling that mix would make the result depend on
/// delivery order, on the buffered path as much as on the atomic one.
graph::CsrGraph nan_blocks() {
  graph::GraphBuilder b(64, /*directed=*/true);
  b.keep_weights();
  for (const auto& [lo, n] : {std::pair<graph::VertexId, graph::VertexId>{
                                  0, 16},
                              {16, 48}}) {
    for (graph::VertexId k = 0; k < n; ++k) {
      const graph::VertexId v = lo + k;
      b.add_edge(v, lo + (k + 1) % n, 1.0 + v % 3);
      b.add_edge(v, lo + (k + 5) % n, 2.0);
    }
  }
  return b.build();
}

TEST(AtomicFold, NanPayloadsTakeTheBufferedPathOnEveryTier) {
  const auto g = nan_blocks();
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(6)}};
  for (const bool edge : {false, true}) {
    const auto cp = compile_dv(nan_min_program(edge));
    // The oracle: every contribution buffered, counting the NaN ones.
    dv::DvRunOptions po;
    po.engine = small_engine(4);
    po.params = params;
    po.fold_path = FoldPath::kBuffered;
    std::atomic<std::uint64_t> nan_msgs{0};
    po.send_probe = [&](graph::VertexId, graph::VertexId,
                        const dv::DvMessage& m) {
      if (std::isnan(m.payload.as_f())) ++nan_msgs;
    };
    const auto probed = dv::run_program(cp, g, po);
    ASSERT_GT(nan_msgs.load(), 0u);

    for (const dv::ExecTier tier : runnable_tiers()) {
      SCOPED_TRACE(std::string(dv::exec_tier_name(tier)) +
                   (edge ? " per-edge" : " span"));
      const Metered buf = run_metered(cp, g, FoldPath::kBuffered, tier,
                                      params);
      const Metered aut = run_metered(cp, g, FoldPath::kAuto, tier, params);
      EXPECT_EQ(state_bits(aut.result), state_bits(buf.result));
      EXPECT_EQ(state_bits(buf.result), state_bits(probed));
      EXPECT_EQ(aut.result.supersteps, buf.result.supersteps);
      // Exactly the NaN contributions travel as engine messages; every
      // other contribution folds, and none is counted twice.
      EXPECT_EQ(aut.result.stats.total_messages_sent(), nan_msgs.load());
      EXPECT_EQ(aut.result.atomic_folds,
                buf.result.stats.total_messages_sent() - nan_msgs.load());
      EXPECT_EQ(aut.metrics.counter("dv.atomic_folds"),
                aut.result.atomic_folds);
      EXPECT_EQ(buf.result.atomic_folds, 0u);
      // The body's NaN sends are buffered messages, so they count as
      // Δ-messages; its folded sends do not.
      EXPECT_GT(aut.metrics.counter("dv.delta_messages"), 0u);
      EXPECT_LT(aut.metrics.counter("dv.delta_messages"),
                buf.metrics.counter("dv.delta_messages"));
      EXPECT_EQ(aut.metrics.counter("dv.sends_suppressed"),
                buf.metrics.counter("dv.sends_suppressed"));
    }
  }
}

TEST(AtomicFold, CountersAgreeAcrossTiers) {
  // A folded Δ counts in dv.atomic_folds and never in dv.delta_messages,
  // whichever tier synthesized it. CC sends a span-invariant integer
  // min; weighted min-plus SSSP sends a per-edge float payload.
  graph::RmatOptions ro;
  ro.directed = false;
  const auto cc_graph = graph::rmat(256, 1024, 41, ro);
  ro.directed = true;
  ro.weighted = true;
  const auto sssp_graph = graph::rmat(256, 1024, 43, ro);
  struct Case {
    const char* name;
    const char* src;
    const graph::CsrGraph* g;
    std::map<std::string, Value> params;
  };
  const Case cases[] = {
      {"cc", dv::programs::kConnectedComponents, &cc_graph, {}},
      {"sssp", dv::programs::kSssp, &sssp_graph,
       {{"source", Value::of_int(0)}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto cp = compile_dv(c.src);
    std::vector<Metered> runs;
    for (const dv::ExecTier tier : runnable_tiers())
      runs.push_back(run_metered(cp, *c.g, FoldPath::kAuto, tier, c.params));
    const Metered& ref = runs.front();
    EXPECT_GT(ref.result.atomic_folds, 0u);
    EXPECT_EQ(ref.result.stats.total_messages_sent(), 0u);
    EXPECT_EQ(ref.metrics.counter("dv.delta_messages"), 0u);
    for (const Metered& m : runs) {
      SCOPED_TRACE(dv::exec_tier_name(m.result.tier_used));
      for (const char* name : {"dv.delta_messages", "dv.sends_suppressed",
                               "dv.atomic_folds"})
        EXPECT_EQ(m.metrics.counter(name), ref.metrics.counter(name))
            << name;
      EXPECT_EQ(m.result.atomic_folds, ref.result.atomic_folds);
      EXPECT_EQ(m.metrics.counter("dv.atomic_folds"), m.result.atomic_folds);
      EXPECT_EQ(state_bits(m.result), state_bits(ref.result));
    }
  }
}

// ---------------------------------------------------------------------------
// the two-level frontier drain
// ---------------------------------------------------------------------------

TEST(AtomicFold, DrainAppliesEachMarkedSlotOnceInColumnVertexOrder) {
  // Three lanes fold int sums into three columns at the frontier's word
  // and summary-word edges (0, 63, 64, 4095, n-1), overlapping across
  // lanes, then the table and lanes grow and the drain runs again. Each
  // drain must visit every marked (column, vertex) once, in ascending
  // order, take exactly the folded sum, and leave no mark behind.
  const std::size_t columns = 3;
  dv::AtomicFoldTable table;
  for (std::size_t c = 0; c < columns; ++c) {
    table.ops.push_back(dv::AggOp::kSum);
    table.types.push_back(dv::Type::kInt);
    table.identity.push_back(0);
  }
  std::vector<dv::AtomicFoldLane> lanes(3);
  for (const std::size_t n : {std::size_t{4096}, std::size_t{9001}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    table.reset(n);
    for (dv::AtomicFoldLane& lane : lanes) lane.reset(n, columns);
    const std::vector<graph::VertexId> edges = {
        0, 63, 64, 4095, static_cast<graph::VertexId>(n - 1)};
    std::map<std::pair<int, graph::VertexId>, std::int64_t> want;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      for (std::size_t c = 0; c < columns; ++c) {
        for (std::size_t e = 0; e < edges.size(); ++e) {
          if ((l + c + e) % 3 == 0) continue;  // not every lane marks all
          const int col = static_cast<int>(c);
          const auto payload = static_cast<std::int64_t>(1 + l + 10 * e);
          table.fold(edges[e], col, Value::of_int(payload));
          lanes[l].mark(edges[e], col);
          lanes[l].mark(edges[e], col);  // a second mark is the same mark
          want[{col, edges[e]}] += payload;
        }
      }
    }
    std::vector<std::pair<std::pair<int, graph::VertexId>, std::int64_t>>
        got;
    dv::for_each_marked(lanes, [&](int c, graph::VertexId v) {
      got.push_back({{c, v}, table.take(v, c).as_i()});
    });
    // std::map iterates in ascending (column, vertex) order.
    EXPECT_EQ(got, (std::vector<std::pair<std::pair<int, graph::VertexId>,
                                          std::int64_t>>(want.begin(),
                                                         want.end())));
    for (const dv::AtomicFoldLane& lane : lanes) {
      for (const std::uint64_t w : lane.words) ASSERT_EQ(w, 0u);
      for (const std::uint64_t w : lane.summary) ASSERT_EQ(w, 0u);
    }
    for (const auto& [key, sum] : want)
      EXPECT_EQ(table.take(key.second, key.first).as_i(), 0)
          << "slot not reset to the identity";
    std::size_t again = 0;
    dv::for_each_marked(lanes, [&](int, graph::VertexId) { ++again; });
    EXPECT_EQ(again, 0u);
  }
}

}  // namespace
}  // namespace deltav
