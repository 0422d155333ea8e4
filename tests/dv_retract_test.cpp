// Retraction memos (src/dv/streaming/retract/, DESIGN.md §11): bounded-
// memory k-best buffers that keep deletion-bearing min/max epochs warm.
//
// Two layers are covered. The RetractMemoTable unit tests pin the cell
// invariant down to the bit level — eviction tightens the bound,
// retraction of the extremum re-ranks in O(k), signed-zero and
// equal-value ties break deterministically (bits, then sender), and
// underflow is reported rather than guessed around. The session tests
// drive real deletion streams through DvStreamSession and require the
// warm result to match a from-scratch oracle, across fold paths, across
// the tree, VM and native tiers (native where the host can build it),
// and through snapshot round-trips (including the k-mismatch refusal — a
// k-best buffer cannot be reinterpreted across capacities).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "dv/obs/obs.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/streaming/retract/retract_memo.h"
#include "dv/streaming/stream_session.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::RetractEntry;
using dv::RetractMemoTable;
using dv::streaming::DvStreamSession;
using dv::streaming::SessionEpoch;
using dv::streaming::SessionOptions;
using graph::MutationBatch;
using test::compile_dv;
using test::runnable_tiers;
using test::small_engine;

std::uint64_t fbits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One float-min column with capacity k, n vertices, site id 0 routed.
RetractMemoTable min_table(std::size_t k, std::size_t n) {
  RetractMemoTable t;
  t.k = k;
  t.route = {0};
  t.site_of = {0};
  t.ops = {dv::AggOp::kMin};
  t.types = {dv::Type::kFloat};
  t.identity = {fbits(std::numeric_limits<double>::infinity())};
  t.reset(n);
  return t;
}

double acc_of(const RetractMemoTable& t, graph::VertexId v) {
  std::uint64_t bits = 0;
  EXPECT_EQ(t.query(v, 0, &bits), RetractMemoTable::CellState::kExact);
  return std::bit_cast<double>(bits);
}

// --------------------------------------------------------- memo cell unit

TEST(RetractMemo, EvictionRetractionAndUnderflow) {
  RetractMemoTable t = min_table(/*k=*/2, /*n=*/1);
  // Three contributions into a k=2 buffer: the worst (sender 2, 3.0) is
  // evicted and becomes the bound.
  t.apply(0, 0, /*sender=*/1, fbits(1.0));
  t.apply(0, 0, /*sender=*/2, fbits(3.0));
  t.apply(0, 0, /*sender=*/3, fbits(2.0));
  EXPECT_EQ(acc_of(t, 0), 1.0);

  // Retract the extremum (identity bits = removal): O(k) re-rank.
  EXPECT_EQ(t.apply(0, 0, 1, t.identity[0]),
            RetractMemoTable::Applied::kWorsened);
  EXPECT_EQ(acc_of(t, 0), 2.0);

  // Retract the survivor too: the buffer is empty but the bound remembers
  // the evicted 3.0 might still be out there — underflow, not identity.
  t.apply(0, 0, 3, t.identity[0]);
  std::uint64_t bits = 0;
  EXPECT_EQ(t.query(0, 0, &bits), RetractMemoTable::CellState::kUnderflow);

  // The targeted refold rebuilds the cell from the live contribution
  // list; afterwards the cell is exact (and exhaustive) again.
  const RetractEntry live[] = {{2, fbits(3.0)}};
  t.rebuild(0, 0, live, 1);
  EXPECT_EQ(acc_of(t, 0), 3.0);
  t.apply(0, 0, 2, t.identity[0]);
  EXPECT_EQ(t.query(0, 0, &bits), RetractMemoTable::CellState::kExact);
  EXPECT_EQ(bits, t.identity[0]);  // exhaustive empty cell = identity
}

TEST(RetractMemo, SignedZeroTieIsDeterministic) {
  // −0.0 == +0.0 as values; the raw-bits tiebreak must still order them
  // strictly so retraction picks a unique survivor on every tier.
  RetractMemoTable t = min_table(/*k=*/2, /*n=*/1);
  t.apply(0, 0, 1, fbits(-0.0));
  t.apply(0, 0, 2, fbits(+0.0));
  EXPECT_EQ(acc_of(t, 0), 0.0);
  // Retracting either zero leaves exactly the other one, bit-exact.
  t.apply(0, 0, 1, t.identity[0]);
  std::uint64_t bits = 0;
  ASSERT_EQ(t.query(0, 0, &bits), RetractMemoTable::CellState::kExact);
  EXPECT_EQ(bits, fbits(+0.0));
  EXPECT_EQ(t.apply(0, 0, 2, t.identity[0]),
            RetractMemoTable::Applied::kWorsened);
  ASSERT_EQ(t.query(0, 0, &bits), RetractMemoTable::CellState::kExact);
  EXPECT_EQ(bits, t.identity[0]);
}

TEST(RetractMemo, EqualValuesFromDistinctSendersAreKeyed) {
  // Equal payloads from different senders are distinct entries: removing
  // one must not disturb the other, even at k=1 via the bound.
  RetractMemoTable t = min_table(/*k=*/1, /*n=*/1);
  t.apply(0, 0, /*sender=*/7, fbits(5.0));
  t.apply(0, 0, /*sender=*/9, fbits(5.0));  // evicted or bound-tightening
  EXPECT_EQ(acc_of(t, 0), 5.0);
  // Remove the buffered one; the equal-valued twin was forgotten (k=1),
  // so the cell must underflow rather than silently claim identity.
  t.apply(0, 0, 7, t.identity[0]);
  std::uint64_t bits = 0;
  const auto st = t.query(0, 0, &bits);
  if (st == RetractMemoTable::CellState::kExact) {
    // The twin was the buffered survivor (sender tiebreak kept 9).
    EXPECT_EQ(bits, fbits(5.0));
  } else {
    const RetractEntry live[] = {{9, fbits(5.0)}};
    t.rebuild(0, 0, live, 1);
    EXPECT_EQ(acc_of(t, 0), 5.0);
  }
}

TEST(RetractMemo, DuplicateRecordIsUntouched) {
  RetractMemoTable t = min_table(/*k=*/2, /*n=*/1);
  t.apply(0, 0, 1, fbits(1.5));
  EXPECT_EQ(t.apply(0, 0, 1, fbits(1.5)),
            RetractMemoTable::Applied::kUntouched);
  EXPECT_EQ(t.apply(0, 0, 2, t.identity[0]),
            RetractMemoTable::Applied::kUntouched);  // absent sender
  EXPECT_EQ(acc_of(t, 0), 1.5);
}

// ------------------------------------------------------ canonical drain order

TEST(RetractDrainOrder, GatherEqualsStableSortOfLaneMajorRecords) {
  // Random records over 1-4 lanes, with few enough (dst, col, sender)
  // values that triples repeat, and some trials with so few cells that
  // buckets outgrow the insertion sort. One RetractDrainOrder serves every
  // trial: each gather must start from a clean slate.
  std::mt19937_64 rng(29);
  dv::RetractDrainOrder order;
  std::vector<dv::RetractRecord> out;
  const auto by_cell_sender = [](const dv::RetractRecord& a,
                                 const dv::RetractRecord& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.col != b.col) return a.col < b.col;
    return a.sender < b.sender;
  };
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t lanes_n = 1 + rng() % 4;
    const std::size_t columns = 1 + rng() % 3;
    const std::size_t vertices = trial % 4 == 0 ? 2 : 1 + rng() % 5000;
    const std::size_t senders = 1 + rng() % 50;
    const std::size_t records = rng() % (trial % 4 == 0 ? 400 : 120);
    std::vector<dv::RetractLane> lanes(lanes_n);
    std::vector<dv::RetractRecord> want;
    for (std::size_t i = 0; i < records; ++i) {
      dv::RetractLane& lane = lanes[rng() % lanes_n];
      lane.record(static_cast<graph::VertexId>(rng() % vertices),
                  static_cast<std::uint32_t>(rng() % senders),
                  static_cast<int>(rng() % columns), rng());
    }
    for (const dv::RetractLane& lane : lanes)
      want.insert(want.end(), lane.records.begin(), lane.records.end());
    std::stable_sort(want.begin(), want.end(), by_cell_sender);
    order.gather(lanes, columns, vertices * columns, out);
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out[i].dst, want[i].dst) << "record " << i;
      EXPECT_EQ(out[i].col, want[i].col) << "record " << i;
      EXPECT_EQ(out[i].sender, want[i].sender) << "record " << i;
      EXPECT_EQ(out[i].bits, want[i].bits) << "record " << i;
    }
    for (const dv::RetractLane& lane : lanes) EXPECT_TRUE(lane.records.empty());
    // An empty gather leaves `out` empty, whatever it held.
    order.gather(lanes, columns, vertices * columns, out);
    EXPECT_TRUE(out.empty());
  }
}

// ------------------------------------------------------- session helpers

constexpr const char* kMinPublishFloat = R"(
init { local mass : float = 1.0 + vertexId; local m : float = infty };
iter i { m = min [ u.mass | u <- #in ] } until { i >= 1 }
)";

constexpr const char* kMinPublishInt = R"(
init { local mass : int = 1 + vertexId; local m : int = 0 };
iter i { m = min [ u.mass | u <- #in ] } until { i >= 1 }
)";

/// Fan: senders 0..4 all feed vertex 5 (masses monotone in id), plus a
/// tail edge so the graph has more than one receiver.
graph::CsrGraph fan_graph() {
  graph::GraphBuilder b(7, /*directed=*/true);
  b.keep_weights(true);
  for (graph::VertexId u = 0; u < 5; ++u) b.add_edge(u, 5, 1.0);
  b.add_edge(5, 6, 1.0);
  return b.build();
}

SessionOptions opts(std::size_t memo_k,
                    dv::ExecTier tier = dv::ExecTier::kVm) {
  SessionOptions o;
  o.run.engine = small_engine();
  o.run.tier = tier;
  o.minmax_memo_k = memo_k;
  return o;
}

dv::DvRunResult oracle(const dv::CompiledProgram& cp,
                       const DvStreamSession& s,
                       const std::map<std::string, dv::Value>& params = {}) {
  dv::DvRunOptions o;
  o.engine = small_engine();
  o.params = params;
  return dv::run_program(cp, s.graph().materialize(), o);
}

/// A memo session runs on the tier it asked for: native no longer falls
/// back to the VM when a site is memoized.
void expect_tier(const dv::DvRunResult& r, dv::ExecTier tier) {
  EXPECT_EQ(r.tier_used, tier) << "fell back: " << r.native_fallback;
  EXPECT_TRUE(r.native_fallback.empty()) << r.native_fallback;
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "vertex " << i << ": " << got[i] << " vs " << want[i];
}

// --------------------------------------------------- underflow end-to-end

TEST(RetractStream, UnderflowTriggersTargetedRefold) {
  const auto cp = compile_dv(kMinPublishFloat);
  DvStreamSession s(cp, fan_graph(), opts(/*memo_k=*/1));
  s.converge();
  ASSERT_TRUE(s.memo_path());
  EXPECT_NEAR(s.result().field_as_double("m")[5], 1.0, 1e-12);

  std::uint64_t retractions = 0, refolds = 0, underflows = 0;
  // Delete the extremum supplier three times in a row: with k=1 the
  // second deletion strips the refilled buffer again, so at least one
  // epoch must underflow and refold vertex 5's in-neighborhood.
  for (const graph::VertexId src : {0, 1, 2}) {
    MutationBatch b;
    b.remove_edge(src, 5);
    const SessionEpoch ep = s.apply(b);
    ASSERT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
    retractions += ep.stats.minmax_retractions;
    refolds += ep.stats.minmax_refolds;
    underflows += ep.stats.minmax_underflows;
  }
  EXPECT_NEAR(s.result().field_as_double("m")[5], 4.0, 1e-12);
  EXPECT_GT(retractions, 0u);
  EXPECT_GT(underflows, 0u);
  EXPECT_GT(refolds, 0u);
  // The warm state equals a from-scratch run on the mutated graph.
  test::expect_close(s.result().field_as_double("m"),
                     oracle(cp, s).field_as_double("m"), 1e-12);
}

TEST(RetractStream, MemoOffPreservesLegacyColdBehavior) {
  const auto cp = compile_dv(kMinPublishFloat);
  DvStreamSession s(cp, fan_graph(), opts(/*memo_k=*/0));
  s.converge();
  EXPECT_FALSE(s.memo_path());
  MutationBatch b;
  b.remove_edge(0, 5);
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("min/max"), std::string::npos);
  EXPECT_EQ(ep.stats.minmax_retractions, 0u);
  test::expect_close(s.result().field_as_double("m"),
                     oracle(cp, s).field_as_double("m"), 1e-12);
}

// ------------------------------------------------- memo ⊕ atomic fold path

TEST(RetractStream, MemoAgreesAcrossFoldPaths) {
  // Integer min qualifies for the lock-free fold path outright; the sink
  // records into the memo ahead of either fold path. The two
  // sessions must agree bit-for-bit on state and on warm decisions
  // through a deletion stream.
  const auto cp = compile_dv(kMinPublishInt);
  auto ao = opts(/*memo_k=*/2);
  ao.run.fold_path = dv::FoldPath::kAuto;
  auto bo = opts(/*memo_k=*/2);
  bo.run.fold_path = dv::FoldPath::kBuffered;
  DvStreamSession sa(cp, fan_graph(), ao);
  DvStreamSession sb(cp, fan_graph(), bo);
  sa.converge();
  sb.converge();
  ASSERT_TRUE(sa.atomic_path());
  ASSERT_TRUE(sa.memo_path());
  for (const graph::VertexId src : {0, 1, 2, 3}) {
    MutationBatch b;
    b.remove_edge(src, 5);
    const SessionEpoch ea = sa.apply(b);
    const SessionEpoch eb = sb.apply(b);
    ASSERT_TRUE(ea.warm) << "blocked: " << (ea.blocker ? ea.blocker : "?");
    ASSERT_EQ(ea.warm, eb.warm);
    ASSERT_EQ(ea.stats.supersteps, eb.stats.supersteps);
    const auto va = sa.result().field_as_int("m");
    const auto vb = sb.result().field_as_int("m");
    ASSERT_EQ(va, vb);
  }
  EXPECT_EQ(sa.result().field_as_int("m")[5], 5);  // mass(4) = 1 + 4
}

// ------------------------------------------- removal records, every tier

/// Weighted DAG for kSsspRetract (source 0). Every path from the source
/// to 4..9 crosses 3 → 4, so deleting that arc cuts the suffix off; 7 has
/// two in-arcs of different cost, so at k = 1 losing the cheaper one
/// underflows its memo cell.
graph::CsrGraph cut_dag() {
  graph::GraphBuilder b(10, /*directed=*/true);
  b.keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 2, 2.0);
  b.add_edge(1, 3, 1.5);
  b.add_edge(2, 3, 1.0);
  b.add_edge(3, 4, 1.0);
  b.add_edge(4, 5, 0.5);
  b.add_edge(4, 6, 2.0);
  b.add_edge(5, 7, 1.0);
  b.add_edge(6, 7, 0.25);
  b.add_edge(7, 8, 1.0);
  b.add_edge(8, 9, 1.0);
  b.add_edge(5, 9, 4.0);
  return b.build();
}

/// Cut the suffix off (4..9 go to +inf), reconnect it, drop 7's cheaper
/// in-arc, then cut the suffix off again.
std::vector<MutationBatch> cut_stream() {
  std::vector<MutationBatch> stream(4);
  stream[0].remove_edge(3, 4);
  stream[1].insert_edge(2, 4, 3.0);
  stream[2].remove_edge(5, 7);
  stream[3].remove_edge(2, 4);
  return stream;
}

/// Runs cut_stream() on `tier` and requires every epoch to stay warm and
/// to equal a cold run on the mutated graph bit for bit. When the suffix
/// is cut off, 4's body sends +inf to 5 and 6: a no-op Δ, which reaches
/// the memo only as a removal record. Dropping it would leave 5..9 at
/// their old finite distances.
void run_cut_stream(const dv::CompiledProgram& cp, dv::ExecTier tier,
                    dv::FoldPath fold, obs::Collector* col) {
  const std::map<std::string, dv::Value> params = {
      {"source", dv::Value::of_int(0)}};
  SessionOptions o = opts(/*memo_k=*/1, tier);
  o.run.params = params;
  o.run.fold_path = fold;
  o.run.collector = col;
  DvStreamSession s(cp, cut_dag(), o);
  s.converge();
  ASSERT_TRUE(s.memo_path());
  expect_tier(s.result(), tier);
  const std::vector<MutationBatch> stream = cut_stream();
  for (std::size_t e = 0; e < stream.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e + 1));
    const SessionEpoch ep = s.apply(stream[e]);
    ASSERT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
    const auto got = s.result().field_as_double("dist");
    if (e == 0 || e == 3) {
      for (graph::VertexId v = 4; v < 10; ++v)
        EXPECT_TRUE(std::isinf(got[v])) << "vertex " << v;
    }
    expect_bit_equal(got, oracle(cp, s, params).field_as_double("dist"));
  }
}

TEST(RetractStream, CutOffSuffixMatchesColdOracleOnEveryTier) {
  const auto cp = compile_dv(dv::programs::kSsspRetract);
  for (const dv::ExecTier tier : runnable_tiers()) {
    SCOPED_TRACE(dv::exec_tier_name(tier));
    run_cut_stream(cp, tier, dv::FoldPath::kAuto, nullptr);
  }
}

TEST(RetractStream, MemoCountersAgreeAcrossTiers) {
  const auto cp = compile_dv(dv::programs::kSsspRetract);
  const char* const kNames[] = {
      "dv.minmax_retractions", "dv.minmax_refolds", "dv.minmax_underflows",
      "dv.atomic_folds",       "dv.sends_suppressed", "dv.delta_messages"};
  for (const dv::FoldPath fold :
       {dv::FoldPath::kAuto, dv::FoldPath::kBuffered}) {
    SCOPED_TRACE(fold == dv::FoldPath::kAuto ? "auto" : "buffered");
    std::vector<std::uint64_t> want;
    for (const dv::ExecTier tier : runnable_tiers()) {
      SCOPED_TRACE(dv::exec_tier_name(tier));
      obs::Collector col;
      run_cut_stream(cp, tier, fold, &col);
      const auto snap = col.metrics.snapshot();
      EXPECT_EQ(snap.counter("dv.native_fallbacks"), 0u);
      std::vector<std::uint64_t> got;
      for (const char* name : kNames) got.push_back(snap.counter(name));
      if (want.empty()) want = got;
      EXPECT_EQ(got, want);
    }
    // The stream retracts, underflows and refolds. On either fold path
    // the memo is the site's only fold path: its contributions count as
    // folds, and none becomes a Δ-message.
    EXPECT_GT(want[0], 0u);
    EXPECT_GT(want[1], 0u);
    EXPECT_GT(want[2], 0u);
    EXPECT_GT(want[3], 0u);
    EXPECT_EQ(want[5], 0u);
  }
}

TEST(RetractStream, MemoSitesSendNoMessagesOnEitherFoldPath) {
  // kSsspRetract's one site is memo-routed. On both fold paths and every
  // tier its sends must stay out of the engine — in the cold converge and
  // in every epoch — and count the same lock-free folds.
  const auto cp = compile_dv(dv::programs::kSsspRetract);
  const std::map<std::string, dv::Value> params = {
      {"source", dv::Value::of_int(0)}};
  std::vector<std::uint64_t> want;
  for (const dv::FoldPath fold :
       {dv::FoldPath::kAuto, dv::FoldPath::kBuffered}) {
    for (const dv::ExecTier tier : runnable_tiers()) {
      SCOPED_TRACE(std::string(dv::fold_path_name(fold)) + "/" +
                   dv::exec_tier_name(tier));
      obs::Collector col;
      SessionOptions o = opts(/*memo_k=*/1, tier);
      o.run.params = params;
      o.run.fold_path = fold;
      o.run.collector = &col;
      DvStreamSession s(cp, cut_dag(), o);
      s.converge();
      ASSERT_TRUE(s.memo_path());
      std::vector<std::uint64_t> folds = {s.result().atomic_folds};
      for (const MutationBatch& b : cut_stream()) {
        const SessionEpoch ep = s.apply(b);
        ASSERT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
        EXPECT_EQ(ep.stats.messages, 0u);
        folds.push_back(ep.stats.atomic_folds);
      }
      EXPECT_EQ(s.result().stats.total_messages_sent(), 0u);
      const auto snap = col.metrics.snapshot();
      EXPECT_EQ(snap.counter("dv.delta_messages"), 0u);
      EXPECT_EQ(snap.counter("dv.atomic_folds"), s.result().atomic_folds);
      EXPECT_GT(s.result().atomic_folds, 0u);
      if (want.empty()) want = folds;
      EXPECT_EQ(folds, want);
    }
  }
}

TEST(RetractStream, NonBestImprovementDoesNotWakeTheReceiver) {
  // 3 hears 1.0 from the source over 0 -> 3, and later hears vertex 2's
  // improving but worse offers (11.0, then 3.0). With k = 2 the memo keeps
  // both entries, so those records change 3's memo cell but not its
  // accumulator: 3 must not run again. Body supersteps: 1, 2 and 3 all
  // run on the first; then only vertex 2, which improves from 10.0 to 2.0;
  // then nobody (that round's fold of 3.0 kept the loop going one more).
  graph::GraphBuilder b(4, /*directed=*/true);
  b.keep_weights(true);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 2, 10.0);
  b.add_edge(0, 3, 1.0);
  b.add_edge(1, 2, 1.0);
  b.add_edge(2, 3, 1.0);
  const graph::CsrGraph g = b.build();
  const auto cp = compile_dv(dv::programs::kSsspRetract);
  for (const dv::FoldPath fold :
       {dv::FoldPath::kAuto, dv::FoldPath::kBuffered}) {
    for (const dv::ExecTier tier : runnable_tiers()) {
      SCOPED_TRACE(std::string(dv::fold_path_name(fold)) + "/" +
                   dv::exec_tier_name(tier));
      dv::DvRunOptions o;
      o.engine = small_engine(1);
      o.tier = tier;
      o.fold_path = fold;
      o.minmax_memo_k = 2;
      o.params = {{"source", dv::Value::of_int(0)}};
      const dv::DvRunResult r = dv::run_program(cp, g, o);
      EXPECT_EQ(r.field_as_double("dist"),
                (std::vector<double>{0.0, 1.0, 2.0, 1.0}));
      std::vector<std::uint64_t> active;
      for (const auto& st : r.stats.supersteps)
        active.push_back(st.active_vertices);
      // The init superstep, then the body supersteps.
      EXPECT_EQ(active, (std::vector<std::uint64_t>{4, 4, 1, 0}));
    }
  }
}

// ----------------------------------------------------------- NaN payloads

TEST(RetractStream, NanPayloadPoisonsTheReceiverOnBothFoldPaths) {
  // Sender 2 (mass 3) sends NaN, the others their masses. The memo ranks
  // NaN worst, but a NaN payload still travels as a message, as the
  // atomic path's NaN fallback always sent it, so the cold result is the
  // poisoned one on both fold paths. Warm retractions then rewrite the
  // cell from the memo's extremum, NaN ranked last.
  const auto cp = compile_dv(R"(
init { local mass : float = 1.0 + vertexId; local m : float = infty };
iter i { m = min [ u.mass + 0.0 * (1.0 / (u.mass - 3.0)) | u <- #in ] }
until { i >= 1 }
)");
  for (const dv::FoldPath fold :
       {dv::FoldPath::kAuto, dv::FoldPath::kBuffered}) {
    for (const dv::ExecTier tier : runnable_tiers()) {
      SCOPED_TRACE(std::string(dv::fold_path_name(fold)) + "/" +
                   dv::exec_tier_name(tier));
      SessionOptions o = opts(/*memo_k=*/4, tier);
      o.run.fold_path = fold;
      DvStreamSession s(cp, fan_graph(), o);
      s.converge();
      ASSERT_TRUE(s.memo_path());
      EXPECT_TRUE(std::isnan(s.result().field_as_double("m")[5]));
      const std::pair<graph::VertexId, double> steps[] = {
          {0, 2.0}, {1, 4.0}, {3, 5.0}};
      for (const auto& [src, want] : steps) {
        MutationBatch b;
        b.remove_edge(src, 5);
        ASSERT_TRUE(s.apply(b).warm);
        EXPECT_EQ(s.result().field_as_double("m")[5], want);
      }
    }
  }
}

// -------------------------------------------------------------- snapshots

TEST(RetractSnapshot, RoundTripAndCrossTierRestore) {
  const auto cp = compile_dv(kMinPublishFloat);
  MutationBatch b2;
  b2.remove_edge(1, 5);
  for (const dv::ExecTier from : runnable_tiers()) {
    SCOPED_TRACE(std::string("saved on ") + dv::exec_tier_name(from));
    DvStreamSession s(cp, fan_graph(), opts(/*memo_k=*/2, from));
    s.converge();
    expect_tier(s.result(), from);
    {
      MutationBatch b;
      b.remove_edge(0, 5);  // leave real retraction state in the memo
      ASSERT_TRUE(s.apply(b).warm);
    }
    const std::vector<std::uint8_t> snap = s.save_bytes();
    const SessionEpoch e0 = s.apply(b2);
    ASSERT_TRUE(e0.warm);
    const auto want = s.result().field_as_double("m");

    // Same-tier and cross-tier restores: the next deletion must take the
    // same warm path and land bit-exact with the uninterrupted session —
    // tiers are bit-identical by contract, memo included.
    for (const dv::ExecTier to : runnable_tiers()) {
      SCOPED_TRACE(std::string("restored on ") + dv::exec_tier_name(to));
      auto r = DvStreamSession::restore_bytes(cp, snap, opts(2, to));
      expect_tier(r->result(), to);
      const SessionEpoch e1 = r->apply(b2);
      EXPECT_EQ(e0.warm, e1.warm);
      EXPECT_EQ(e0.stats.supersteps, e1.stats.supersteps);
      expect_bit_equal(r->result().field_as_double("m"), want);
    }
  }
}

TEST(RetractSnapshot, CapacityMismatchIsRefused) {
  const auto cp = compile_dv(kMinPublishFloat);
  DvStreamSession s(cp, fan_graph(), opts(/*memo_k=*/8));
  s.converge();
  const std::vector<std::uint8_t> snap = s.save_bytes();
  try {
    auto r = DvStreamSession::restore_bytes(cp, snap, opts(/*memo_k=*/4));
    FAIL() << "restore with a different minmax_memo_k must be refused";
  } catch (const dv::persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("minmax_memo_k"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace deltav
