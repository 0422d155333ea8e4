// Streaming epochs: mutation batches applied between convergences, warm
// incremental re-execution cross-checked against from-scratch runs.
//
// Each warm test drives a DvStreamSession through one or more batches and
// requires (a) the epoch actually resumed warm (ep.warm, no blocker), and
// (b) the session state is value-identical to a cold ΔV run on the
// materialized mutated graph. The operator battery covers all six
// aggregations, with the absorbing-element transitions of ×/&&/|| (§6.4.1
// three-field treatment) triggered *by a mutation* rather than by normal
// execution.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dv/persist/graph_codec.h"
#include "dv/programs/programs.h"
#include "dv/streaming/mutation_io.h"
#include "dv/streaming/stream_session.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::streaming::DvStreamSession;
using dv::streaming::SessionEpoch;
using dv::streaming::SessionOptions;
using graph::MutationBatch;
using test::compile_dv;
using test::runnable_tiers;
using test::small_engine;

SessionOptions session_opts(dv::ExecTier tier = dv::ExecTier::kVm) {
  SessionOptions o;
  o.run.engine = small_engine();
  o.run.tier = tier;
  return o;
}

/// Cold oracle: a from-scratch run of the same compiled program on the
/// session's current (mutated) topology.
dv::DvRunResult oracle(const dv::CompiledProgram& cp,
                       const DvStreamSession& s,
                       const dv::DvRunOptions& run = {}) {
  const graph::CsrGraph snap = s.graph().materialize();
  dv::DvRunOptions o = run;
  o.engine = small_engine();
  return dv::run_program(cp, snap, o);
}

/// Compares every user-visible field column (floats to tolerance —
/// warm patching reassociates float folds; ints/bools exactly).
void expect_state_matches(const dv::DvRunResult& got,
                          const dv::DvRunResult& want, double tol = 1e-9) {
  ASSERT_EQ(got.num_vertices, want.num_vertices);
  for (std::size_t fi = 0; fi < want.fields.size(); ++fi) {
    const dv::Field& f = want.fields[fi];
    if (f.origin != dv::Field::Origin::kUser) continue;
    if (f.type == dv::Type::kFloat) {
      test::expect_close(got.field_as_double(f.name),
                         want.field_as_double(f.name), tol);
    } else {
      const auto a = got.field_as_int(f.name);
      const auto b = want.field_as_int(f.name);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t v = 0; v < a.size(); ++v)
        EXPECT_EQ(a[v], b[v]) << f.name << " at vertex " << v;
    }
  }
}

/// Asserts the epoch ran warm and the session agrees with the cold oracle.
void expect_warm_and_correct(const dv::CompiledProgram& cp,
                             DvStreamSession& s, const SessionEpoch& ep,
                             double tol = 1e-9) {
  EXPECT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
  expect_state_matches(s.result(), oracle(cp, s), tol);
}

/// 6-vertex directed weighted graph: a small diamond plus a tail.
graph::CsrGraph weighted_diamond() {
  graph::GraphBuilder b(6, /*directed=*/true);
  b.keep_weights(true);
  b.add_edge(1, 3, 2.0);
  b.add_edge(2, 3, 4.0);
  b.add_edge(3, 4, 1.0);
  b.add_edge(0, 1, 1.5);
  b.add_edge(4, 5, 3.0);
  return b.build();
}

// --------------------------------------------------------------- sum (+)

constexpr const char* kSumPublish = R"(
init { local mass : float = 1.0 + vertexId; local seen : float = 0.0 };
iter i { seen = + [ u.mass | u <- #in ] } until { i >= 2 }
)";

constexpr const char* kSumWeighted = R"(
init { local mass : float = 1.0 + vertexId; local seen : float = 0.0 };
iter i { seen = + [ u.mass * u.edge | u <- #in ] } until { i >= 2 }
)";

TEST(StreamSum, EdgeInsert) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  b.insert_edge(5, 3);
  expect_warm_and_correct(cp, s, s.apply(b));
}

TEST(StreamSum, EdgeDelete) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.remove_edge(2, 3);
  const SessionEpoch ep = s.apply(b);
  expect_warm_and_correct(cp, s, ep);
  // v3's acc lost exactly v2's contribution.
  EXPECT_NEAR(s.result().field_as_double("seen")[3], 2.0, 1e-12);
}

TEST(StreamSum, WeightChangeLastWriteWins) {
  const auto cp = compile_dv(kSumWeighted);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(2, 3, 10.0);  // existing edge: weight 4 → 10 in place
  const SessionEpoch ep = s.apply(b);
  expect_warm_and_correct(cp, s, ep);
  EXPECT_NEAR(s.result().field_as_double("seen")[3],
              2.0 * 2.0 + 3.0 * 10.0, 1e-9);
}

TEST(StreamSum, VertexAddAndConnect) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.add_vertices = 2;  // ids 6, 7
  b.insert_edge(6, 3);
  b.insert_edge(3, 7);
  b.insert_edge(6, 7);
  expect_warm_and_correct(cp, s, s.apply(b));
  EXPECT_EQ(s.result().num_vertices, 8u);
  // New vertex 7 aggregates mass(3) + mass(6) = 4 + 7.
  EXPECT_NEAR(s.result().field_as_double("seen")[7], 11.0, 1e-9);
}

TEST(StreamSum, VertexDetach) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.detach_vertices.push_back(3);  // drops 1→3, 2→3, 3→4
  const SessionEpoch ep = s.apply(b);
  expect_warm_and_correct(cp, s, ep);
  EXPECT_NEAR(s.result().field_as_double("seen")[3], 0.0, 1e-12);
  EXPECT_NEAR(s.result().field_as_double("seen")[4], 0.0, 1e-12);
}

TEST(StreamSum, MultiBatchRandomizedAgainstOracle) {
  const auto cp = compile_dv(kSumPublish);
  const std::uint64_t seed = test::effective_seed(41);
  Rng rng(seed);
  graph::CsrGraph base = test::small_directed(11);
  DvStreamSession s(cp, base, session_opts());
  s.converge();
  std::size_t n = base.num_vertices();
  for (int batch = 0; batch < 8; ++batch) {
    MutationBatch b;
    for (int k = 0; k < 6; ++k) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto v = static_cast<graph::VertexId>(rng.next_below(n));
      if (rng.next_below(2))
        b.insert_edge(u, v);
      else
        b.remove_edge(u, v);
    }
    if (batch == 3) b.add_vertices = 1;
    const SessionEpoch ep = s.apply(b);
    n = s.result().num_vertices;
    EXPECT_TRUE(ep.warm) << test::seed_banner(seed);
    expect_state_matches(s.result(), oracle(cp, s));
  }
}

// ----------------------------------------------------------- product (×)

constexpr const char* kProdPublish = R"(
init {
  local mass : float = if vertexId == 0 then 0.0 else 1.0 + vertexId;
  local p : float = 1.0
};
iter i { p = * [ u.mass | u <- #in ] } until { i >= 2 }
)";

TEST(StreamProd, MutationEntersAndLeavesAbsorbingZero) {
  const auto cp = compile_dv(kProdPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  // Converged: p(3) = mass(1) × mass(2) = 2 × 3 = 6.
  ASSERT_NEAR(s.result().field_as_double("p")[3], 6.0, 1e-9);

  // Inserting 0→3 injects an absorbing 0 (nnAcc keeps 6, aggNulls = 1).
  MutationBatch enter;
  enter.insert_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(enter));
  EXPECT_EQ(s.result().field_as_double("p")[3], 0.0);

  // Removing it retracts the null: the accumulator must *recover* the
  // non-null product — impossible without the three-field treatment.
  MutationBatch leave;
  leave.remove_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(leave));
  EXPECT_NEAR(s.result().field_as_double("p")[3], 6.0, 1e-9);
}

TEST(StreamProd, NonNullRetraction) {
  const auto cp = compile_dv(kProdPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.remove_edge(1, 3);  // p(3): 6 → 3 via ratio retraction
  expect_warm_and_correct(cp, s, s.apply(b));
  EXPECT_NEAR(s.result().field_as_double("p")[3], 3.0, 1e-9);
}

// ----------------------------------------------------------- min / max

constexpr const char* kMinPublish = R"(
init { local mass : float = 1.0 + vertexId; local m : float = infty };
iter i { m = min [ u.mass | u <- #in ] } until { i >= 2 }
)";

constexpr const char* kMaxPublish = R"(
init { local mass : int = vertexId; local m : int = 0 };
iter i { m = max [ u.mass | u <- #in ] } until { i >= 2 }
)";

TEST(StreamMin, InsertOnlyRefoldsWarm) {
  const auto cp = compile_dv(kMinPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);  // mass(0) = 1 undercuts the current min 2
  expect_warm_and_correct(cp, s, s.apply(b));
  EXPECT_NEAR(s.result().field_as_double("m")[3], 1.0, 1e-12);
}

TEST(StreamMax, InsertOnlyRefoldsWarm) {
  const auto cp = compile_dv(kMaxPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(5, 3);
  expect_warm_and_correct(cp, s, s.apply(b));
  EXPECT_EQ(s.result().field_as_int("m")[3], 5);
}

TEST(StreamMin, RemovalFallsBackColdWithMemoOff) {
  // minmax_memo_k = 0 restores the legacy blocker: min cannot retract a
  // removed extremum without a retraction memo (DESIGN.md §11).
  const auto cp = compile_dv(kMinPublish);
  SessionOptions o = session_opts();
  o.minmax_memo_k = 0;
  DvStreamSession s(cp, weighted_diamond(), o);
  s.converge();
  MutationBatch b;
  b.remove_edge(1, 3);  // removes the minimal contribution
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("min/max"), std::string::npos);
  // The fallback still lands on the right answer.
  expect_state_matches(s.result(), oracle(cp, s));
  EXPECT_NEAR(s.result().field_as_double("m")[3], 3.0, 1e-12);
}

TEST(StreamMin, RemovalStaysWarmWithMemoOn) {
  // Default SessionOptions carry minmax_memo_k = 8: the k-best memo
  // retracts the lost extremum in O(k) and the epoch stays warm.
  const auto cp = compile_dv(kMinPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  EXPECT_TRUE(s.memo_path());
  MutationBatch b;
  b.remove_edge(1, 3);  // removes the minimal contribution
  expect_warm_and_correct(cp, s, s.apply(b));
  EXPECT_NEAR(s.result().field_as_double("m")[3], 3.0, 1e-12);
}

// ------------------------------------------------------------ && and ||

constexpr const char* kAndPublish = R"(
init { local flag : bool = vertexId != 0; local all : bool = true };
iter i { all = && [ u.flag | u <- #in ] } until { i >= 2 }
)";

constexpr const char* kOrPublish = R"(
init { local flag : bool = vertexId == 0; local any : bool = false };
iter i { any = || [ u.flag | u <- #in ] } until { i >= 2 }
)";

TEST(StreamAnd, MutationEntersAndLeavesAbsorbingFalse) {
  const auto cp = compile_dv(kAndPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  ASSERT_TRUE(s.result().field_as_int("all")[3] != 0);

  MutationBatch enter;  // vertex 0's false flag reaches v3
  enter.insert_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(enter));
  EXPECT_EQ(s.result().field_as_int("all")[3], 0);

  MutationBatch leave;  // retract it: all(3) must flip back to true
  leave.remove_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(leave));
  EXPECT_NE(s.result().field_as_int("all")[3], 0);
}

TEST(StreamOr, MutationEntersAndLeavesAbsorbingTrue) {
  const auto cp = compile_dv(kOrPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  ASSERT_EQ(s.result().field_as_int("any")[3], 0);

  MutationBatch enter;  // vertex 0's true flag reaches v3
  enter.insert_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(enter));
  EXPECT_NE(s.result().field_as_int("any")[3], 0);

  MutationBatch leave;
  leave.remove_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(leave));
  EXPECT_EQ(s.result().field_as_int("any")[3], 0);
}

// -------------------------------------------- relax-style programs (CC, SSSP)

TEST(StreamRelax, ConnectedComponentsInsertOnly) {
  const auto cp = compile_dv(dv::programs::kConnectedComponents);
  graph::GraphBuilder b(8, /*directed=*/false);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(4, 5);
  b.add_edge(6, 7);
  DvStreamSession s(cp, b.build(), session_opts());
  s.converge();
  ASSERT_EQ(s.result().field_as_int("comp")[5], 4);

  MutationBatch join;  // merge {4,5} into {0,1,2}; 3 stays isolated
  join.insert_edge(2, 4);
  expect_warm_and_correct(cp, s, s.apply(join));
  EXPECT_EQ(s.result().field_as_int("comp")[5], 0);
  EXPECT_EQ(s.result().field_as_int("comp")[3], 3);
  EXPECT_EQ(s.result().field_as_int("comp")[7], 6);
}

TEST(StreamRelax, SsspInsertOnlyShortcut) {
  const auto cp = compile_dv(dv::programs::kSssp);
  auto opts = session_opts();
  opts.run.params = {{"source", dv::Value::of_int(0)}};
  DvStreamSession s(cp, weighted_diamond(), opts);
  s.converge();
  // 0 →(1.5) 1 →(2) 3: dist(3) = 3.5.
  ASSERT_NEAR(s.result().field_as_double("dist")[3], 3.5, 1e-12);

  MutationBatch b;
  b.insert_edge(0, 3, 0.5);  // direct shortcut
  const SessionEpoch ep = s.apply(b);
  EXPECT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
  expect_state_matches(s.result(), oracle(cp, s, opts.run));
  EXPECT_NEAR(s.result().field_as_double("dist")[3], 0.5, 1e-12);
  EXPECT_NEAR(s.result().field_as_double("dist")[4], 1.5, 1e-12);
}

// ------------------------------------------------------------- blockers

TEST(StreamBlockers, NonIncrementalResumesCold) {
  const auto cp = compile_dv(kSumPublish, /*incremental=*/false);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("not incrementalized"),
            std::string::npos);
  expect_state_matches(s.result(), oracle(cp, s));
}

TEST(StreamBlockers, GraphSizeBlocksOnlyVertexCountChanges) {
  constexpr const char* src = R"(
init { local mass : float = graphSize; local seen : float = 0.0 };
iter i { seen = + [ u.mass | u <- #in ] } until { i >= 2 }
)";
  const auto cp = compile_dv(src);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();

  MutationBatch edges_only;
  edges_only.insert_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(edges_only));

  MutationBatch grow;
  grow.add_vertices = 1;
  grow.insert_edge(6, 3);
  const SessionEpoch ep = s.apply(grow);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("graphSize"), std::string::npos);
  expect_state_matches(s.result(), oracle(cp, s));
}

TEST(StreamBlockers, IterReadingBodyResumesCold) {
  constexpr const char* src = R"(
init { local mass : float = 1.0 + vertexId; local seen : float = 0.0 };
iter i { seen = + [ u.mass | u <- #in ] + i } until { i >= 2 }
)";
  const auto cp = compile_dv(src);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("iteration variable"),
            std::string::npos);
  expect_state_matches(s.result(), oracle(cp, s));
}

TEST(StreamBlockers, IterBoundedFeedbackResumesCold) {
  // Fixed-iteration PageRank: the send expression feeds on `rank`, which
  // the body assigns, and the until is iteration-bounded — the loop count
  // is semantic, so a warm resume (which restarts `i` at 1) would run the
  // recurrence up to 3 extra iterations past the from-scratch answer.
  constexpr const char* src = R"(
init { local rank : float = 1.0 };
iter i {
  let s : float = + [ u.rank | u <- #in ] in
  rank = 0.15 + 0.85 * (s / graphSize)
} until { i >= 3 }
)";
  const auto cp = compile_dv(src);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  ASSERT_NE(ep.blocker, nullptr);
  EXPECT_NE(std::string(ep.blocker).find("feedback"), std::string::npos);
  expect_state_matches(s.result(), oracle(cp, s));
}

TEST(StreamBlockers, IterBoundedPublishStaysWarm) {
  // The dual of the feedback case: the until reads `i`, but the sent
  // `mass` is assigned only in init, so every iteration past the first is
  // a no-op and the replayed loop count cannot matter.
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(b));
}

TEST(StreamBlockers, ForceColdOption) {
  const auto cp = compile_dv(kSumPublish);
  auto opts = session_opts();
  opts.force_cold = true;
  DvStreamSession s(cp, weighted_diamond(), opts);
  s.converge();
  MutationBatch b;
  b.insert_edge(0, 3);
  const SessionEpoch ep = s.apply(b);
  EXPECT_FALSE(ep.warm);
  expect_state_matches(s.result(), oracle(cp, s));
}

// ----------------------------------------------------- session mechanics

TEST(StreamSession, RedundantBatchIsNoop) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  s.converge();
  MutationBatch b;
  b.insert_edge(1, 3, 2.0);  // exists with this exact weight
  b.remove_edge(0, 5);       // absent
  const SessionEpoch ep = s.apply(b);
  EXPECT_TRUE(ep.warm);
  EXPECT_EQ(ep.stats.supersteps, 0u);
  EXPECT_EQ(ep.stats.woken, 0u);
  expect_state_matches(s.result(), oracle(cp, s));
}

TEST(StreamSession, CompactionPreservesState) {
  const auto cp = compile_dv(kSumPublish);
  auto opts = session_opts();
  opts.compact_threshold = 0.0;  // compact after every batch
  DvStreamSession s(cp, weighted_diamond(), opts);
  s.converge();
  MutationBatch b1;
  b1.insert_edge(0, 3);
  const SessionEpoch e1 = s.apply(b1);
  EXPECT_TRUE(e1.compacted);
  EXPECT_EQ(s.graph().overlay_vertices(), 0u);
  expect_state_matches(s.result(), oracle(cp, s));
  // A second warm batch over the compacted base keeps working.
  MutationBatch b2;
  b2.remove_edge(0, 3);
  expect_warm_and_correct(cp, s, s.apply(b2));
}

TEST(StreamSession, TiersAgreeAcrossWarmEpochs) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession vm(cp, weighted_diamond(), session_opts(dv::ExecTier::kVm));
  DvStreamSession tree(cp, weighted_diamond(),
                       session_opts(dv::ExecTier::kTree));
  vm.converge();
  tree.converge();
  for (int batch = 0; batch < 3; ++batch) {
    MutationBatch b;
    if (batch == 0) b.insert_edge(0, 3);
    if (batch == 1) b.remove_edge(2, 3);
    if (batch == 2) {
      b.add_vertices = 1;
      b.insert_edge(6, 4);
    }
    const SessionEpoch ev = vm.apply(b);
    const SessionEpoch et = tree.apply(b);
    EXPECT_TRUE(ev.warm);
    EXPECT_TRUE(et.warm);
    const auto rv = vm.result();
    const auto rt = tree.result();
    // Bit-exact across tiers: same supersteps, same full state — the
    // contract the differential fuzzer enforces, extended to epochs.
    EXPECT_EQ(ev.stats.supersteps, et.stats.supersteps);
    ASSERT_EQ(rv.state.size(), rt.state.size());
    const auto a = rv.field_as_double("seen");
    const auto c = rt.field_as_double("seen");
    for (std::size_t v = 0; v < a.size(); ++v)
      EXPECT_EQ(a[v], c[v]) << "vertex " << v;
  }
}

TEST(StreamSession, ApplyBeforeConvergeThrows) {
  const auto cp = compile_dv(kSumPublish);
  DvStreamSession s(cp, weighted_diamond(), session_opts());
  MutationBatch b;
  b.insert_edge(0, 3);
  EXPECT_THROW(s.apply(b), CheckError);
}

// ---------------------------------------------------------- mutation IO

TEST(MutationIo, RoundTrips) {
  const std::string text =
      "# stream\n"
      "+ 0 3 2.5\n"
      "- 1 3\n"
      "addv 2\n"
      "delv 4\n"
      "commit\n"
      "+ 6 7 1\n"
      "commit\n";
  std::istringstream in(text);
  const auto batches = dv::streaming::read_mutation_stream(in);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].edges.size(), 2u);
  EXPECT_TRUE(batches[0].edges[0].insert);
  EXPECT_DOUBLE_EQ(batches[0].edges[0].weight, 2.5);
  EXPECT_FALSE(batches[0].edges[1].insert);
  EXPECT_EQ(batches[0].add_vertices, 2u);
  ASSERT_EQ(batches[0].detach_vertices.size(), 1u);
  EXPECT_EQ(batches[0].detach_vertices[0], 4u);
  EXPECT_EQ(batches[1].edges.size(), 1u);

  std::ostringstream out;
  dv::streaming::write_mutation_stream(batches, out);
  std::istringstream in2(out.str());
  const auto again = dv::streaming::read_mutation_stream(in2);
  ASSERT_EQ(again.size(), batches.size());
  EXPECT_EQ(again[0].edges.size(), batches[0].edges.size());
  EXPECT_EQ(again[0].add_vertices, batches[0].add_vertices);
  EXPECT_EQ(again[1].edges.size(), batches[1].edges.size());
}

TEST(MutationIo, OmittedWeightDefaultsToOne) {
  // `ls >> w` on an exhausted stream zeroes w since C++11; the optional
  // form `+ u v` must still insert the documented default 1.0.
  std::istringstream in("+ 0 1\n+ 1 2 0.25\n");
  const auto batches = dv::streaming::read_mutation_stream(in);
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].edges.size(), 2u);
  EXPECT_DOUBLE_EQ(batches[0].edges[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(batches[0].edges[1].weight, 0.25);
}

TEST(MutationIo, BlankLineSeparatesBatches) {
  std::istringstream in("+ 0 1\n\n+ 1 2\n");
  const auto batches = dv::streaming::read_mutation_stream(in);
  ASSERT_EQ(batches.size(), 2u);
}

TEST(MutationIo, MalformedLineThrowsWithLineNumber) {
  std::istringstream in("+ 0 1\nbogus 3\n");
  try {
    dv::streaming::read_mutation_stream(in);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(MutationIo, TrailingGarbageRejectedPerOp) {
  // Every op must consume its line in full — `+ 0 1 2.0 junk` silently
  // dropping `junk` would apply a different mutation than written.
  const char* bad[] = {
      "+ 0 1 2.0 junk\n", "+ 0 1 2.0 3.0\n", "- 0 1 junk\n",
      "addv 2 junk\n",    "delv 3 junk\n",   "commit junk\n",
  };
  for (const char* text : bad) {
    std::istringstream in(std::string("+ 5 6\n") + text);
    try {
      dv::streaming::read_mutation_stream(in);
      FAIL() << "expected CheckError for: " << text;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << text << what;
      EXPECT_NE(what.find("trailing garbage"), std::string::npos)
          << text << what;
    }
  }
}

TEST(MutationIo, NonNumericWeightRejected) {
  // A half-numeric token is garbage, not a weight: `1x` must not parse
  // as 1.0 with `x` dropped.
  for (const char* text : {"+ 0 1 1x\n", "+ 0 1 x\n"}) {
    std::istringstream in(text);
    try {
      dv::streaming::read_mutation_stream(in);
      FAIL() << "expected CheckError for: " << text;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 1"), std::string::npos) << what;
      EXPECT_NE(what.find("numeric weight"), std::string::npos) << what;
    }
  }
}

// ------------------------------------------------------ overlay count
//
// DynamicGraph keeps its overlay vertex count as slots are handed out, so
// the session's per-epoch compaction check is O(1). The model: a vertex
// owns an overlay slot exactly when it is an endpoint of an ArcChange
// committed since the last compaction (the arc lands in its out-list, or
// in its in-list, or in its mirrored undirected list).

struct OverlayModel {
  std::set<graph::VertexId> owners;

  void commit(const graph::GraphDelta& d) {
    for (const graph::ArcChange& a : d.arcs) {
      owners.insert(a.src);
      owners.insert(a.dst);
    }
  }
};

/// A random batch over the current graph: inserts (self-loops, present
/// edges and weight rewrites included), deletes of present and absent
/// edges, and now and then added vertices (wired in) and a detachment.
MutationBatch random_overlay_batch(const graph::DynamicGraph& g, Rng& rng) {
  MutationBatch b;
  const std::size_t n = g.num_vertices();
  if (rng.next_bool(0.2)) b.add_vertices = 1 + rng.next_below(2);
  const std::size_t new_n = n + b.add_vertices;
  const auto any = [&](std::size_t bound) {
    return static_cast<graph::VertexId>(rng.next_below(bound));
  };
  const std::size_t ops = 1 + rng.next_below(4);
  for (std::size_t k = 0; k < ops; ++k) {
    if (rng.next_bool()) {
      b.insert_edge(any(new_n), any(new_n), rng.next_double(1.0, 4.0));
      continue;
    }
    const graph::VertexId u = any(n);
    const auto outs = g.out_neighbors(u);
    b.remove_edge(u, outs.empty() || rng.next_bool(0.25)
                         ? any(n)
                         : outs[rng.next_below(outs.size())]);
  }
  if (rng.next_bool(0.1)) b.detach_vertices.push_back(any(n));
  return b;
}

/// Encodes `g` through GraphCodec and decodes it again (the decode
/// recounts the overlay from the slot tables).
graph::DynamicGraph codec_round_trip(const graph::DynamicGraph& g) {
  dv::persist::SnapshotWriter w;
  dv::persist::GraphCodec::write(g, w);
  w.finish();
  dv::persist::SnapshotReader r(w.bytes());
  graph::DynamicGraph back = dv::persist::GraphCodec::read(r);
  r.finish();
  return back;
}

TEST(OverlayCount, MatchesModelAcrossCompactionsAndCodecRoundTrips) {
  const std::uint64_t seed = test::effective_seed(2026);
  Rng rng(seed);
  for (const bool directed : {true, false}) {
    for (const bool weighted : {true, false}) {
      graph::RmatOptions ro;
      ro.directed = directed;
      ro.weighted = weighted;
      graph::DynamicGraph g(graph::rmat(40, 120, rng.next_u64(), ro));
      OverlayModel model;
      for (int step = 0; step < 200; ++step) {
        const graph::GraphDelta d = g.plan(random_overlay_batch(g, rng));
        g.commit(d);
        model.commit(d);
        ASSERT_EQ(g.overlay_vertices(), model.owners.size())
            << "directed=" << directed << " weighted=" << weighted
            << " step " << step << " " << test::seed_banner(seed);
        if (rng.next_bool(0.1)) {
          g.compact();
          model.owners.clear();
        }
        if (rng.next_bool(0.15)) {
          g = codec_round_trip(g);
          ASSERT_EQ(g.overlay_vertices(), model.owners.size())
              << "after a codec round trip, step " << step << " "
              << test::seed_banner(seed);
        }
        EXPECT_EQ(g.overlay_fraction(),
                  static_cast<double>(model.owners.size()) /
                      static_cast<double>(g.num_vertices()));
      }
    }
  }
}

TEST(OverlayCount, SessionCompactsExactlyAtTheModelsThresholdCrossings) {
  const auto cp = compile_dv(kSumPublish);
  const std::uint64_t seed = test::effective_seed(2027);
  Rng rng(seed);
  auto opts = session_opts();
  opts.compact_threshold = 0.25;
  DvStreamSession s(cp, test::small_directed(5), opts);
  s.converge();
  OverlayModel model;
  std::size_t compactions = 0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    const MutationBatch b = random_overlay_batch(s.graph(), rng);
    const graph::GraphDelta d = s.graph().plan(b);
    model.commit(d);
    // An epoch whose batch nets out to nothing returns before the check.
    const bool crossed =
        !d.empty() && static_cast<double>(model.owners.size()) /
                              static_cast<double>(d.new_num_vertices) >
                          opts.compact_threshold;
    const SessionEpoch ep = s.apply(b);
    ASSERT_EQ(ep.compacted, crossed)
        << "epoch " << ep.epoch << " " << test::seed_banner(seed);
    if (crossed) {
      model.owners.clear();
      ++compactions;
    }
    ASSERT_EQ(s.graph().overlay_vertices(), model.owners.size())
        << "epoch " << ep.epoch << " " << test::seed_banner(seed);
  }
  EXPECT_GT(compactions, 3u);  // the stream did cross the threshold
  expect_state_matches(s.result(), oracle(cp, s));
}

// --------------------------------------------- edge-invariant sends
//
// The epoch path (Phase A/B) and the first push evaluate a send once per
// (sender, site) when it cannot read the edge weight, and once per arc
// when it can. Both shapes stream over weighted graphs here, on every
// tier, and every epoch must equal a cold run.

struct HoistStream {
  std::map<std::string, dv::Value> params;
  bool deletions = false;  // batches also remove and reweight edges
  bool grow = false;       // every fourth batch adds a wired-in vertex
  bool all_warm = true;    // every epoch must resume warm
  double tol = 1e-9;
};

/// Streams 12 random batches (weights in [1, 10)) through a session on
/// `tier` and checks every epoch against the cold oracle.
void stream_against_oracle(const dv::CompiledProgram& cp,
                           const graph::CsrGraph& base, dv::ExecTier tier,
                           const HoistStream& hs, std::uint64_t seed) {
  SCOPED_TRACE(std::string("tier ") + dv::exec_tier_name(tier) + " " +
               test::seed_banner(seed));
  Rng rng(seed);
  SessionOptions opts = session_opts(tier);
  opts.run.params = hs.params;
  DvStreamSession s(cp, base, opts);
  s.converge();
  dv::DvRunOptions run;
  run.params = hs.params;
  expect_state_matches(s.result(), oracle(cp, s, run), hs.tol);
  std::size_t warm = 0;
  const int batches = 12;
  for (int batch = 0; batch < batches; ++batch) {
    const std::size_t n = s.graph().num_vertices();
    const auto any = [&](std::size_t bound) {
      return static_cast<graph::VertexId>(rng.next_below(bound));
    };
    MutationBatch b;
    if (hs.grow && batch % 4 == 3) {
      b.add_vertices = 1;
      b.insert_edge(any(n), static_cast<graph::VertexId>(n),
                    rng.next_double(1.0, 10.0));
      b.insert_edge(static_cast<graph::VertexId>(n), any(n),
                    rng.next_double(1.0, 10.0));
    }
    for (int k = 0; k < 4; ++k) {
      const graph::VertexId u = any(n);
      const graph::VertexId v = any(n);
      // Without deletions a batch only adds arcs: rewriting a present
      // arc's weight is a retraction too.
      if (!hs.deletions && s.graph().has_arc(u, v)) continue;
      b.insert_edge(u, v, rng.next_double(1.0, 10.0));
    }
    if (hs.deletions) {
      for (int k = 0; k < 3; ++k) {
        const graph::VertexId u = any(n);
        const auto outs = s.graph().out_neighbors(u);
        if (!outs.empty())
          b.remove_edge(u, outs[rng.next_below(outs.size())]);
      }
    }
    const SessionEpoch ep = s.apply(b);
    if (ep.warm) ++warm;
    if (hs.all_warm) {
      EXPECT_TRUE(ep.warm) << "epoch " << ep.epoch << " blocked: "
                           << (ep.blocker ? ep.blocker : "?");
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_state_matches(s.result(), oracle(cp, s, run), hs.tol))
        << "epoch " << ep.epoch;
    EXPECT_EQ(s.result().tier_used, tier) << s.result().native_fallback;
  }
  EXPECT_GT(warm, 0u);
}

/// A weighted R-MAT graph, weights in [1, 10).
graph::CsrGraph weighted_rmat(bool directed, std::uint64_t seed) {
  graph::RmatOptions o;
  o.directed = directed;
  o.weighted = true;
  return graph::rmat(48, 192, test::effective_seed(seed), o);
}

/// ε-PageRank as bench_stream runs it: the ε-gated last-sent slot feeds
/// Phase A, and the send `u.rank` never reads the edge.
constexpr const char* kPageRankEps = R"(
init { local rank : float = 1.0 };
iter i {
  let s : float = + [ u.rank | u <- #in ] in
  rank = 0.15 + 0.85 * (s / graphSize)
} until { stable }
)";

TEST(StreamHoist, EdgeInvariantSendsMatchColdOracleOnEveryTier) {
  const auto cc = compile_dv(dv::programs::kConnectedComponents);
  dv::CompileOptions eps;
  eps.epsilon = 1e-10;
  const auto pr = dv::compile(kPageRankEps, eps);
  HoistStream cc_stream;
  cc_stream.grow = true;
  HoistStream pr_stream;
  pr_stream.deletions = true;
  pr_stream.tol = 1e-6;
  for (const dv::ExecTier tier : runnable_tiers()) {
    stream_against_oracle(cc, weighted_rmat(false, 31), tier, cc_stream,
                          test::effective_seed(32));
    stream_against_oracle(pr, weighted_rmat(true, 33), tier, pr_stream,
                          test::effective_seed(34));
  }
}

TEST(StreamHoist, PerEdgeSendsMatchColdOracleOnEveryTier) {
  // `u.mass * u.edge` and `u.dist + u.edge`: one evaluation per arc, in
  // the first push, in Phase A and in Phase B alike. The sum retracts what
  // Phase A captured, so it takes deletions and reweights. The guarded
  // SSSP takes insert-only batches (its min cannot retract); the
  // unguarded form takes deletions through the retraction memo.
  const auto sum = compile_dv(kSumWeighted);
  HoistStream sum_stream;
  sum_stream.deletions = true;
  sum_stream.grow = true;
  sum_stream.tol = 1e-6;
  const auto sssp = compile_dv(dv::programs::kSssp);
  const auto sssp_del = compile_dv(dv::programs::kSsspRetract);
  HoistStream ins;
  ins.params = {{"source", dv::Value::of_int(0)}};
  ins.grow = true;
  HoistStream del = ins;
  del.grow = false;
  del.deletions = true;
  del.all_warm = false;  // a severed source path may fall back cold
  for (const dv::ExecTier tier : runnable_tiers()) {
    stream_against_oracle(sum, weighted_rmat(true, 39), tier, sum_stream,
                          test::effective_seed(40));
    stream_against_oracle(sssp, weighted_rmat(true, 35), tier, ins,
                          test::effective_seed(36));
    stream_against_oracle(sssp_del, weighted_rmat(true, 37), tier, del,
                          test::effective_seed(38));
  }
}

}  // namespace
}  // namespace deltav
