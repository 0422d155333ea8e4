// Remote-read language extension (`remote(u).f`): lowering goldens, the
// typechecker's remote restrictions, the new-algorithm workloads (k-core,
// MIS, BFS) held bit-exact against their hand-written Pregel baselines and
// sequential oracles across variants and tiers, BFS streaming epochs
// staying warm under insertion, and the named native-tier fallback.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/kcore.h"
#include "algorithms/mis.h"
#include "dv/codegen/native_module.h"
#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "common/rng.h"
#include "dv/programs/programs.h"
#include "dv/runtime/runner.h"
#include "dv/streaming/stream_session.h"
#include "dv/testing/remote_gen.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav::dv {
namespace {

using test::compile_dv;
using test::small_engine;

constexpr const char* kChase = R"(
init { local parent : int = vertexId };
step {
  let m : int = min [ u.parent | u <- #in ] in
  if m < parent then parent = m
};
iter i {
  let p : int = remote(parent).parent in
  if p != parent then parent = p
} until { stable }
)";

DvRunOptions run_opts(ExecTier tier = ExecTier::kVm) {
  DvRunOptions o;
  o.engine = small_engine();
  o.tier = tier;
  return o;
}

// ------------------------------------------------------------- lowering

TEST(RemoteLowering, EmitsRequestAndReplyPhases) {
  const CompiledProgram cp = compile(kChase, CompileOptions{});
  const std::string printed = to_string(cp.program);
  // Phase 0 sends the requester's id to the wrapped target; phase 1 loops
  // over requests answering with the owner's field.
  EXPECT_NE(printed.find("phase 0 {"), std::string::npos) << printed;
  EXPECT_NE(printed.find("phase 1 {"), std::string::npos) << printed;
  EXPECT_NE(printed.find("wrap("), std::string::npos) << printed;
  EXPECT_NE(printed.find("for(m : messages#"), std::string::npos) << printed;
  // The consume body reads the reply channel, not kRemoteRead.
  EXPECT_EQ(printed.find("remote("), std::string::npos) << printed;
}

TEST(RemoteLowering, ChannelSitesCarryNoAggregationState) {
  const CompiledProgram cp = compile(kChase, CompileOptions{});
  std::size_t channels = 0;
  for (const AggSite& site : cp.program.sites) {
    if (!site.is_channel()) continue;
    ++channels;
    EXPECT_EQ(site.send_expr, nullptr);
    EXPECT_LT(site.acc_slot, 0);
  }
  // One request + one reply channel for the single remote read.
  EXPECT_EQ(channels, 2u);
}

TEST(RemoteLowering, ReferenceModeKeepsRemoteRead) {
  CompileOptions o;
  o.lower_remote = false;
  const CompiledProgram cp = compile(kChase, o);
  const std::string printed = to_string(cp.program);
  EXPECT_NE(printed.find("remote("), std::string::npos) << printed;
  EXPECT_EQ(printed.find("phase 0 {"), std::string::npos) << printed;
}

// ------------------------------------------------------------ typecheck

void expect_compile_error(const std::string& src, const std::string& needle) {
  try {
    compile(src, CompileOptions{});
    FAIL() << "expected an error containing '" << needle << "'";
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(RemoteTypecheck, RejectsUnknownField) {
  expect_compile_error(
      "init { local f : int = vertexId };"
      "iter i { f = remote(f).nosuch } until { i >= 1 }",
      "remote read of unknown field");
}

TEST(RemoteTypecheck, RejectsRemoteInUntil) {
  expect_compile_error(
      "init { local f : int = vertexId };"
      "iter i { f = f + 1 } until { remote(0).f > 0 }",
      "not allowed in until clauses");
}

TEST(RemoteTypecheck, RejectsMixingAggregationAndRemote) {
  expect_compile_error(
      "init { local f : int = vertexId };"
      "iter i { let m : int = min [ u.f | u <- #in ] in"
      "  f = m + remote(f).f } until { i >= 1 }",
      "aggregations and remote reads cannot share a");
}

// --------------------------------------------------- pointer jumping e2e

TEST(RemoteRun, PointerJumpingFindsChainRoots) {
  // Two chains: 0<-1<-2<-3<-4 and 5<-6.
  graph::GraphBuilder gb(7, /*directed=*/true);
  for (auto [a, b] : {std::pair<int, int>{0, 1}, {1, 2}, {2, 3}, {3, 4},
                      {5, 6}})
    gb.add_edge(a, b);
  const graph::CsrGraph g = gb.build();
  const std::vector<std::int64_t> want{0, 0, 0, 0, 0, 5, 5};

  for (bool inc : {true, false}) {
    const CompiledProgram cp = compile_dv(programs::kPointerJump, inc);
    for (ExecTier tier : {ExecTier::kTree, ExecTier::kVm}) {
      const DvRunResult r = run_program(cp, g, run_opts(tier));
      EXPECT_EQ(r.field_as_int("parent"), want)
          << "inc=" << inc << " tier=" << exec_tier_name(tier);
    }
    // Reference interpretation agrees.
    CompileOptions ro;
    ro.incrementalize = inc;
    ro.lower_remote = false;
    const CompiledProgram ref = compile(programs::kPointerJump, ro);
    const DvRunResult r = run_program(ref, g, run_opts(ExecTier::kTree));
    EXPECT_EQ(r.field_as_int("parent"), want) << "reference inc=" << inc;
  }
}

TEST(RemoteRun, CountsRequestsAndReplies) {
  const graph::CsrGraph g = graph::path(8, /*directed=*/true);
  const CompiledProgram cp = compile(programs::kPointerJump, CompileOptions{});
  obs::Collector collector;
  DvRunOptions o = run_opts(ExecTier::kTree);
  o.collector = &collector;
  run_program(cp, g, o);
  const auto snap = collector.metrics.snapshot();
  // Exactly one reply per request, and the phases actually ran.
  EXPECT_GT(snap.counter("dv.remote_requests"), 0u);
  EXPECT_EQ(snap.counter("dv.remote_requests"),
            snap.counter("dv.remote_replies"));
}

// --------------------------------------------------------------- k-core

std::vector<std::int64_t> to_i64(const std::vector<std::uint8_t>& v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

TEST(KCoreWorkload, MatchesOracleAcrossVariantsAndTiers) {
  for (std::uint64_t seed : {11ULL, 12ULL}) {
    const graph::CsrGraph g = test::small_undirected(seed);
    const std::int64_t k = 3;
    const auto want = to_i64(algorithms::kcore_oracle(g, k));

    algorithms::KCoreOptions popt;
    popt.k = k;
    popt.engine = small_engine();
    EXPECT_EQ(to_i64(algorithms::kcore_pregel(g, popt).alive), want);

    DvRunOptions base = run_opts();
    base.params = {{"k", Value::of_int(k)},
                   {"rounds", Value::of_int(
                                  static_cast<std::int64_t>(g.num_vertices()))}};
    for (bool inc : {true, false}) {
      const CompiledProgram cp = compile_dv(programs::kKCore, inc);
      for (ExecTier tier : {ExecTier::kTree, ExecTier::kVm}) {
        DvRunOptions o = base;
        o.tier = tier;
        const DvRunResult r = run_program(cp, g, o);
        EXPECT_EQ(r.field_as_int("alive"), want)
            << "inc=" << inc << " tier=" << exec_tier_name(tier)
            << " seed=" << seed;
      }
    }
  }
}

// ------------------------------------------------------------------ MIS

TEST(MisWorkload, MatchesOracleAcrossVariantsAndTiers) {
  for (std::uint64_t seed : {21ULL, 22ULL}) {
    const graph::CsrGraph g = test::small_undirected(seed);
    const auto want = to_i64(algorithms::mis_oracle(g));

    algorithms::MisOptions popt;
    popt.engine = small_engine();
    EXPECT_EQ(to_i64(algorithms::mis_pregel(g, popt).in_set), want);

    // The ΔV program runs on the low→high orientation; state 1 = in.
    const graph::CsrGraph oriented = algorithms::orient_low_high(g);
    for (bool inc : {true, false}) {
      const CompiledProgram cp = compile_dv(programs::kMis, inc);
      for (ExecTier tier : {ExecTier::kTree, ExecTier::kVm}) {
        const DvRunResult r = run_program(cp, oriented, run_opts(tier));
        const auto state = r.field_as_int("state");
        std::vector<std::int64_t> in_set(state.size());
        for (std::size_t v = 0; v < state.size(); ++v)
          in_set[v] = state[v] == 1 ? 1 : 0;
        EXPECT_EQ(in_set, want) << "inc=" << inc
                                << " tier=" << exec_tier_name(tier)
                                << " seed=" << seed;
        // Every vertex must be decided at the fixpoint.
        for (std::size_t v = 0; v < state.size(); ++v)
          EXPECT_NE(state[v], 0) << "undecided vertex " << v;
      }
    }
  }
}

TEST(MisWorkload, OracleIsMaximalAndIndependent) {
  const graph::CsrGraph g = test::small_undirected(23);
  const auto in_set = algorithms::mis_oracle(g);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    bool has_in_neighbor = false;
    for (graph::VertexId u : g.neighbors(static_cast<graph::VertexId>(v))) {
      if (in_set[u]) has_in_neighbor = true;
      if (in_set[v]) EXPECT_FALSE(in_set[u]) << v << " ~ " << u;
    }
    if (!in_set[v]) EXPECT_TRUE(has_in_neighbor) << "not maximal at " << v;
  }
}

// ------------------------------------------------------------------ BFS

TEST(BfsWorkload, MatchesOracleAcrossVariantsAndTiers) {
  const graph::CsrGraph g = test::small_directed(31);
  const auto want = algorithms::bfs_oracle(g, 0);

  algorithms::BfsOptions popt;
  popt.engine = small_engine();
  EXPECT_EQ(algorithms::bfs_pregel(g, popt).depth, want);

  DvRunOptions base = run_opts();
  base.params = {{"source", Value::of_int(0)}};
  for (bool inc : {true, false}) {
    const CompiledProgram cp = compile_dv(programs::kBfs, inc);
    for (ExecTier tier : {ExecTier::kTree, ExecTier::kVm}) {
      DvRunOptions o = base;
      o.tier = tier;
      const DvRunResult r = run_program(cp, g, o);
      // Depths are small integers: exact comparison is intended.
      EXPECT_EQ(r.field_as_double("dist"), want)
          << "inc=" << inc << " tier=" << exec_tier_name(tier);
    }
  }
}

TEST(BfsWorkload, StreamingInsertionStaysWarm) {
  using streaming::DvStreamSession;
  using streaming::SessionEpoch;
  using streaming::SessionOptions;

  const CompiledProgram cp = compile_dv(programs::kBfs);
  SessionOptions sopt;
  sopt.run.engine = small_engine();
  sopt.run.params = {{"source", Value::of_int(0)}};

  // A long path: inserting a shortcut edge re-levels a suffix.
  DvStreamSession s(cp, graph::path(32, /*directed=*/true), sopt);
  s.converge();

  graph::MutationBatch b;
  b.insert_edge(0, 16);
  const SessionEpoch ep = s.apply(b);
  EXPECT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");

  // Value-identical to a cold run on the mutated topology.
  DvRunOptions o;
  o.engine = small_engine();
  o.params = sopt.run.params;
  const DvRunResult cold =
      run_program(cp, s.graph().materialize(), o);
  EXPECT_EQ(s.result().field_as_double("dist"), cold.field_as_double("dist"));
  // And the shortcut actually shortened the suffix.
  EXPECT_EQ(s.result().field_as_double("dist")[31], 16.0);
}

// -------------------------------------------------------- fuzz smoke

TEST(RemoteFuzzSmoke, GeneratedCasesPassDifferentialChecks) {
  const std::uint64_t seed = test::effective_seed(0x2E305EEDULL);
  Rng rng(seed);
  for (int k = 0; k < 60; ++k) {
    Rng crng = rng.split();
    const testing::RemoteCase rc = testing::generate_remote_case(crng);
    const auto fail = testing::check_remote_case(rc);
    ASSERT_FALSE(fail.has_value())
        << test::seed_banner(seed) << " case " << k << " ["
        << fail->check << "] " << fail->detail << "\ngraph "
        << rc.graph.describe() << "\n"
        << rc.source;
  }
}

// -------------------------------------------------------- native tier

// The native tier runs remote-read programs the way the VM tier does: the
// statement bodies run as compiled chunks, the request/reply phases on the
// tree walker.
TEST(RemoteNative, RunsNativeBitExactWithTheVm) {
  if (const std::string& why = native::native_unavailable_reason();
      !why.empty())
    GTEST_SKIP() << "native tier unavailable: " << why;
  const graph::CsrGraph g =
      graph::erdos_renyi(40, 90, /*seed=*/3, /*directed=*/true);
  const CompiledProgram cp = compile(programs::kPointerJump, CompileOptions{});
  obs::Collector collector;
  DvRunOptions o = run_opts(ExecTier::kNative);
  o.collector = &collector;
  const DvRunResult nat = run_program(cp, g, o);
  EXPECT_EQ(nat.tier_used, ExecTier::kNative) << nat.native_fallback;
  EXPECT_EQ(collector.metrics.snapshot().counter("dv.native_fallbacks"), 0u);

  const DvRunResult vm = run_program(cp, g, run_opts(ExecTier::kVm));
  EXPECT_EQ(nat.supersteps, vm.supersteps);
  EXPECT_EQ(nat.stats.total_messages_sent(), vm.stats.total_messages_sent());
  ASSERT_EQ(nat.state.size(), vm.state.size());
  for (std::size_t i = 0; i < vm.state.size(); ++i) {
    EXPECT_EQ(nat.state[i].type, vm.state[i].type) << "state word " << i;
    EXPECT_EQ(nat.state[i].i, vm.state[i].i) << "state word " << i;
  }
}

}  // namespace
}  // namespace deltav::dv
