// Native execution tier: AOT build pipeline, object cache, fallback
// behavior, and bit-exact equivalence against the bytecode VM.
//
// Every test skips (GTEST_SKIP) when the host cannot run the native tier
// at all — sanitizer-instrumented build or no working C++ compiler — so
// the suite is green on hermetic CI images while still exercising the
// full pipeline wherever a toolchain exists.
//
// Cache-behavior tests steer the object cache into a per-test directory
// via DV_NATIVE_CACHE and force per-test digests via DV_NATIVE_CXXFLAGS
// (-D markers): the in-process module registry dedups by digest, so a
// digest reused from an earlier test would hand back a live module and
// mask the disk-cache path under test.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dv/codegen/native_module.h"
#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/programs/programs.h"
#include "dv/runtime/bytecode.h"
#include "dv/runtime/runner.h"
#include "dv/streaming/stream_session.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav::dv {
namespace {

namespace fs = std::filesystem;
using streaming::DvStreamSession;
using streaming::SessionEpoch;
using streaming::SessionOptions;
using test::compile_dv;
using test::small_engine;

#define SKIP_WITHOUT_NATIVE()                                         \
  do {                                                                \
    const std::string& why_ = native::native_unavailable_reason();    \
    if (!why_.empty()) GTEST_SKIP() << "native tier unavailable: " << why_; \
  } while (0)

/// Saves/restores the three native-tier env knobs around each test and
/// points DV_NATIVE_CACHE at a fresh per-test directory.
class NativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* k : kKeys) {
      const char* v = std::getenv(k);
      saved_.emplace_back(k, v ? std::string(v) : std::string());
      had_.push_back(v != nullptr);
    }
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    cache_ = fs::temp_directory_path() /
             (std::string("dv-native-test-") + info->test_suite_name() + "-" +
              info->name() + "-" + std::to_string(::getpid()));
    fs::create_directories(cache_);
    ::setenv("DV_NATIVE_CACHE", cache_.c_str(), 1);
    // Per-test digest namespace (see the file comment).
    marker_ = std::string("-DDV_NTEST_") + info->test_suite_name() + "_" +
              info->name();
    ::setenv("DV_NATIVE_CXXFLAGS", marker_.c_str(), 1);
  }

  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (had_[i])
        ::setenv(saved_[i].first, saved_[i].second.c_str(), 1);
      else
        ::unsetenv(saved_[i].first);
    }
    std::error_code ec;
    fs::remove_all(cache_, ec);
  }

  const fs::path& cache() const { return cache_; }
  const std::string& marker() const { return marker_; }

 private:
  static constexpr const char* kKeys[3] = {"DV_NATIVE_CACHE",
                                           "DV_NATIVE_CXXFLAGS",
                                           "DV_NATIVE_CXX"};
  std::vector<std::pair<const char*, std::string>> saved_;
  std::vector<bool> had_;
  fs::path cache_;
  std::string marker_;
};

native::NativeBuildReport build(const CompiledProgram& cp) {
  return native::build_native(cp, lower_program(cp));
}

DvRunResult run_tier(const CompiledProgram& cp, const graph::CsrGraph& g,
                     ExecTier tier, std::map<std::string, Value> params = {},
                     obs::Collector* collector = nullptr) {
  DvRunOptions o;
  o.engine = small_engine();
  o.tier = tier;
  o.params = std::move(params);
  o.collector = collector;
  return run_program(cp, g, o);
}

/// Requires bit-identical final state (floats compared as bit patterns —
/// the native tier's whole contract) plus identical message/byte/superstep
/// counts.
void expect_bit_identical(const DvRunResult& native, const DvRunResult& vm) {
  ASSERT_EQ(native.num_vertices, vm.num_vertices);
  ASSERT_EQ(native.fields.size(), vm.fields.size());
  EXPECT_EQ(native.supersteps, vm.supersteps);
  EXPECT_EQ(native.stats.total_messages_sent(),
            vm.stats.total_messages_sent());
  EXPECT_EQ(native.stats.total_bytes_sent(), vm.stats.total_bytes_sent());
  for (std::size_t fi = 0; fi < vm.fields.size(); ++fi) {
    const Field& f = vm.fields[fi];
    for (std::size_t v = 0; v < vm.num_vertices; ++v) {
      const Value& a = native.at(static_cast<graph::VertexId>(v),
                                 static_cast<int>(fi));
      const Value& b = vm.at(static_cast<graph::VertexId>(v),
                             static_cast<int>(fi));
      if (f.type == Type::kFloat) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.f),
                  std::bit_cast<std::uint64_t>(b.f))
            << f.name << " at vertex " << v << ": " << a.f << " vs " << b.f;
      } else if (f.type == Type::kBool) {
        EXPECT_EQ(a.b, b.b) << f.name << " at vertex " << v;
      } else {
        EXPECT_EQ(a.i, b.i) << f.name << " at vertex " << v;
      }
    }
  }
}

// ------------------------------------------------------- tier equivalence

TEST_F(NativeTest, PageRankMatchesVmBitExact) {
  SKIP_WITHOUT_NATIVE();
  const auto g = graph::erdos_renyi(60, 240, /*seed=*/7);
  const std::map<std::string, Value> params = {
      {"steps", Value::of_int(10)}};
  for (const bool incremental : {true, false}) {
    const auto cp = compile_dv(programs::kPageRank, incremental);
    const auto nat = run_tier(cp, g, ExecTier::kNative, params);
    ASSERT_EQ(nat.tier_used, ExecTier::kNative)
        << "fell back: " << nat.native_fallback;
    EXPECT_TRUE(nat.native_fallback.empty());
    expect_bit_identical(nat, run_tier(cp, g, ExecTier::kVm, params));
  }
}

TEST_F(NativeTest, SsspMatchesVmBitExact) {
  SKIP_WITHOUT_NATIVE();
  const auto g =
      graph::erdos_renyi(50, 200, /*seed=*/11, /*directed=*/true,
                         /*weighted=*/true);
  const auto cp = compile_dv(programs::kSssp);
  const std::map<std::string, Value> params = {{"source", Value::of_int(0)}};
  const auto nat = run_tier(cp, g, ExecTier::kNative, params);
  ASSERT_EQ(nat.tier_used, ExecTier::kNative)
      << "fell back: " << nat.native_fallback;
  expect_bit_identical(nat, run_tier(cp, g, ExecTier::kVm, params));
}

// HITS is the multi-statement builtin (hub and authority statements plus
// an init block) — it exercises per-statement body roots and the
// statement-cursor dispatch, not just a single body.
TEST_F(NativeTest, MultiStatementHitsMatchesVmBitExact) {
  SKIP_WITHOUT_NATIVE();
  const auto g = graph::web_crawl(80, 300, /*seed=*/3);
  const auto cp = compile_dv(programs::kHits);
  const std::map<std::string, Value> params = {{"steps", Value::of_int(4)}};
  const auto nat = run_tier(cp, g, ExecTier::kNative, params);
  ASSERT_EQ(nat.tier_used, ExecTier::kNative)
      << "fell back: " << nat.native_fallback;
  expect_bit_identical(nat, run_tier(cp, g, ExecTier::kVm, params));
}

TEST_F(NativeTest, ConnectedComponentsMatchesVmBitExact) {
  SKIP_WITHOUT_NATIVE();
  const auto g = graph::erdos_renyi(70, 120, /*seed=*/5, /*directed=*/false);
  const auto cp = compile_dv(programs::kConnectedComponents);
  const auto nat = run_tier(cp, g, ExecTier::kNative);
  ASSERT_EQ(nat.tier_used, ExecTier::kNative)
      << "fell back: " << nat.native_fallback;
  expect_bit_identical(nat, run_tier(cp, g, ExecTier::kVm));
}

/// Sets the declared type of every local declaration of field `slot`.
void redeclare(Expr& e, int slot, Type t) {
  if (e.kind == ExprKind::kLocalDecl && e.slot == slot) e.decl_type = t;
  for (const ExprPtr& k : e.kids)
    if (k) redeclare(*k, slot, t);
}

// Every opcode has a native template, and each template does what its
// vm.cpp case does: the builtins plus a few small sources together reach
// every Op, and each program's native run equals the VM's bit for bit —
// state words (type and raw 8 bytes), engine counts and every metric the
// native tier reports.
TEST_F(NativeTest, EveryOpcodeRunsNativeBitExact) {
  SKIP_WITHOUT_NATIVE();
  const std::vector<const char*> sources = {
      programs::kPageRank, programs::kPageRankUndirected, programs::kSssp,
      programs::kConnectedComponents, programs::kHits,
      programs::kReachability, programs::kMaxGossip, programs::kBfs,
      programs::kKCore, programs::kMis, programs::kPointerJump,
      // What the builtins leave out: integer min/max, integer negation,
      // subtraction and multiplication, bool (in)equality, float equality,
      // float and bool params, unfused degree and graphSize loads, and a
      // float product site.
      R"(
param source : int;
param steps : int;
param scale : float;
param on : bool;
init {
  local lo : int = min(vertexId, source);
  local hi : int = max(vertexId * 2, source - 1);
  local ratio : float = -(vertexId / (1 + |#in|)) * scale;
  local odd : bool = on != (lo == hi);
  local same : bool = odd == (hi > 3);
  local back : int = |#out| * graphSize - hi;
  local n : float = 2.75 * vertexId;
  local c : bool = vertexId > 1;
  local w : bool = vertexId > 2
};
iter i {
  let s : float = + [ u.ratio * u.edge | u <- #in ] in
  let p : float = * [ 1.0 + u.ratio * u.ratio | u <- #in ] in
  let m : int = max [ u.hi - u.back | u <- #in ] in
  ratio = min(s, p) + max(ratio, 0.0 - s) - s * p;
  hi = if m >= hi || not odd then m + lo else hi - 1;
  odd = odd != (ratio <= 0.0);
  same = ratio == s;
  back = -m
} until { i >= steps }
)"};
  // kF2I, kB2I and kB2F convert where a declared type differs from its
  // initializer's, which no typechecked source needs: re-declare three
  // locals of the last source after typecheck so the lowering must.
  const auto retype = [](CompiledProgram& cp) {
    const std::pair<const char*, Type> retyped[] = {
        {"n", Type::kInt}, {"c", Type::kInt}, {"w", Type::kFloat}};
    for (const auto& [name, t] : retyped) {
      const int slot = cp.program.find_field(name);
      cp.program.fields[static_cast<std::size_t>(slot)].type = t;
      redeclare(*cp.program.init, slot, t);
    }
  };
  // A weighted DAG (MIS's ΔV* converges on acyclic orientations only),
  // and an undirected graph for the #neighbors programs.
  const auto er = graph::erdos_renyi(24, 80, /*seed=*/13, /*directed=*/true,
                                     /*weighted=*/true);
  graph::GraphBuilder dag_builder(er.num_vertices(), /*directed=*/true);
  dag_builder.keep_weights(true);
  for (graph::VertexId v = 0; v < er.num_vertices(); ++v)
    for (std::size_t k = 0; k < er.out_neighbors(v).size(); ++k)
      if (v < er.out_neighbors(v)[k])
        dag_builder.add_edge(v, er.out_neighbors(v)[k], er.out_weights(v)[k]);
  const auto dag = dag_builder.build();
  const auto undirected =
      graph::erdos_renyi(24, 60, /*seed=*/17, /*directed=*/false,
                         /*weighted=*/true);
  const std::map<std::string, Value> params = {
      {"source", Value::of_int(3)}, {"steps", Value::of_int(4)},
      {"k", Value::of_int(2)}, {"rounds", Value::of_int(5)},
      {"scale", Value::of_float(0.75)}, {"on", Value::of_bool(true)}};

  std::vector<bool> seen(static_cast<std::size_t>(kNumOps), false);
  for (const char* src : sources) {
    for (const bool incremental : {true, false}) {
      SCOPED_TRACE(std::string(incremental ? "ΔV" : "ΔV*") + src);
      auto cp = compile_dv(src, incremental);
      if (src == sources.back()) retype(cp);
      for (const Chunk& ch : lower_program(cp).chunks)
        for (const Instr& ins : ch.code)
          seen[static_cast<std::size_t>(ins.op)] = true;
      const auto& g =
          std::string(src).find("#neighbors") != std::string::npos
              ? undirected
              : dag;
      std::map<std::string, Value> used;
      for (const Param& p : cp.program.params)
        used.emplace(p.name, params.at(p.name));
      obs::Collector nat_col, vm_col;
      const auto nat = run_tier(cp, g, ExecTier::kNative, used, &nat_col);
      ASSERT_EQ(nat.tier_used, ExecTier::kNative)
          << "fell back: " << nat.native_fallback << "\n" << src;
      const auto vm = run_tier(cp, g, ExecTier::kVm, used, &vm_col);
      expect_bit_identical(nat, vm);
      EXPECT_EQ(nat.atomic_folds, vm.atomic_folds);
      ASSERT_EQ(nat.state.size(), vm.state.size());
      for (std::size_t i = 0; i < vm.state.size(); ++i) {
        EXPECT_EQ(nat.state[i].type, vm.state[i].type) << "state word " << i;
        EXPECT_EQ(nat.state[i].i, vm.state[i].i) << "state word " << i;
      }
      // The VM's dispatch counters have no native counterpart.
      auto nat_counters = nat_col.metrics.snapshot().counters;
      auto vm_counters = vm_col.metrics.snapshot().counters;
      for (const char* vm_only : {"vm.ops_dispatched", "vm.fused_ops"}) {
        nat_counters.erase(vm_only);
        vm_counters.erase(vm_only);
      }
      EXPECT_EQ(nat_counters, vm_counters);
    }
  }
  for (int op = 0; op < kNumOps; ++op)
    EXPECT_TRUE(seen[static_cast<std::size_t>(op)])
        << "no program lowers opcode " << op << " (in Op enum order)";
}

// ------------------------------------------------------------ object cache

TEST_F(NativeTest, SecondBuildHitsCache) {
  SKIP_WITHOUT_NATIVE();
  const auto cp = compile_dv(programs::kPageRank);
  auto first = build(cp);
  ASSERT_TRUE(first.program) << first.reason;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.compile_seconds, 0.0);
  ASSERT_FALSE(first.digest.empty());
  EXPECT_TRUE(fs::exists(first.object_path));

  // Live-module path: same digest while the first program is alive.
  const auto live = build(cp);
  ASSERT_TRUE(live.program) << live.reason;
  EXPECT_TRUE(live.cache_hit);
  EXPECT_EQ(live.digest, first.digest);
  EXPECT_EQ(live.object_path, first.object_path);
  EXPECT_EQ(live.compile_seconds, 0.0);

  // Disk path: drop every live reference so the registry entry expires,
  // then rebuild — the cached .so is validated and reused, no compiler.
  first.program.reset();
  const auto disk = [&] {
    auto r = build(cp);
    return r;
  }();
  ASSERT_TRUE(disk.program) << disk.reason;
  EXPECT_TRUE(disk.cache_hit);
  EXPECT_EQ(disk.digest, first.digest);
  EXPECT_EQ(disk.compile_seconds, 0.0);
}

TEST_F(NativeTest, FlagChangeInvalidatesDigest) {
  SKIP_WITHOUT_NATIVE();
  const auto cp = compile_dv(programs::kPageRank);
  const auto a = build(cp);
  ASSERT_TRUE(a.program) << a.reason;

  const std::string changed = marker() + "_B";
  ::setenv("DV_NATIVE_CXXFLAGS", changed.c_str(), 1);
  const auto b = build(cp);
  ASSERT_TRUE(b.program) << b.reason;
  EXPECT_NE(b.digest, a.digest);
  EXPECT_FALSE(b.cache_hit);
  EXPECT_GT(b.compile_seconds, 0.0);
}

TEST_F(NativeTest, SourceChangeInvalidatesDigest) {
  SKIP_WITHOUT_NATIVE();
  const auto a = build(compile_dv(programs::kPageRank));
  const auto b = build(compile_dv(programs::kSssp));
  ASSERT_TRUE(a.program) << a.reason;
  ASSERT_TRUE(b.program) << b.reason;
  EXPECT_NE(a.digest, b.digest);
  EXPECT_FALSE(b.cache_hit);
}

TEST_F(NativeTest, CorruptCachedObjectRecompiles) {
  SKIP_WITHOUT_NATIVE();
  const auto cp = compile_dv(programs::kPageRank);
  auto first = build(cp);
  ASSERT_TRUE(first.program) << first.reason;
  const std::string so_path = first.object_path;
  first.program.reset();  // expire the registry entry

  {
    std::ofstream out(so_path, std::ios::binary | std::ios::trunc);
    out << "this is not a shared object";
  }

  const auto rebuilt = build(cp);
  ASSERT_TRUE(rebuilt.program) << rebuilt.reason;
  EXPECT_FALSE(rebuilt.cache_hit);  // load failed, recompiled
  EXPECT_GT(rebuilt.compile_seconds, 0.0);
  EXPECT_EQ(rebuilt.digest, first.digest);

  // The recompiled object actually runs and still matches the VM.
  const auto g = graph::erdos_renyi(40, 160, /*seed=*/9);
  const std::map<std::string, Value> params = {{"steps", Value::of_int(5)}};
  const auto nat = run_tier(cp, g, ExecTier::kNative, params);
  ASSERT_EQ(nat.tier_used, ExecTier::kNative)
      << "fell back: " << nat.native_fallback;
  expect_bit_identical(nat, run_tier(cp, g, ExecTier::kVm, params));
}

// ---------------------------------------------------------------- fallback

TEST_F(NativeTest, BrokenToolchainFallsBackToVmWithCounter) {
  SKIP_WITHOUT_NATIVE();
  // A corrupt cached object *and* a broken compiler: the recompile cannot
  // succeed, so the runner must land on the VM — announced, counted,
  // correct.
  const auto cp = compile_dv(programs::kPageRank);
  auto first = build(cp);
  ASSERT_TRUE(first.program) << first.reason;
  const std::string so_path = first.object_path;
  first.program.reset();
  {
    std::ofstream out(so_path, std::ios::binary | std::ios::trunc);
    out << "garbage";
  }
  ::setenv("DV_NATIVE_CXX", "/nonexistent/dv-native-cxx", 1);

  obs::Collector collector;
  const auto g = graph::erdos_renyi(30, 90, /*seed=*/4);
  const std::map<std::string, Value> params = {{"steps", Value::of_int(5)}};
  const auto got = run_tier(cp, g, ExecTier::kNative, params, &collector);
  EXPECT_EQ(got.tier_used, ExecTier::kVm);
  EXPECT_FALSE(got.native_fallback.empty());

  const auto snap = collector.metrics.snapshot();
  EXPECT_EQ(snap.counter("dv.native_fallbacks"), 1u);
  // One cause-suffixed series too (compile_failed here: DV_NATIVE_CXX is
  // authoritative, a bogus value fails the compile rather than falling
  // back to PATH discovery).
  EXPECT_EQ(snap.counter("dv.native_fallbacks.compile_failed"), 1u);

  // The fallback run is still correct.
  ::unsetenv("DV_NATIVE_CXX");
  expect_bit_identical(got, run_tier(cp, g, ExecTier::kVm, params));
}

TEST_F(NativeTest, CleanNativeRunReportsZeroFallbacks) {
  SKIP_WITHOUT_NATIVE();
  obs::Collector collector;
  const auto cp = compile_dv(programs::kPageRank);
  const auto g = graph::erdos_renyi(30, 90, /*seed=*/4);
  const auto got = run_tier(cp, g, ExecTier::kNative,
                            {{"steps", Value::of_int(5)}}, &collector);
  ASSERT_EQ(got.tier_used, ExecTier::kNative)
      << "fell back: " << got.native_fallback;
  const auto snap = collector.metrics.snapshot();
  EXPECT_EQ(snap.counter("dv.native_fallbacks"), 0u);
  const auto it = snap.histograms.find("dv.native_compile_seconds");
  if (it != snap.histograms.end()) {
    EXPECT_GE(it->second.count, 1u);
  }
}

// --------------------------------------------------------------- streaming

TEST_F(NativeTest, StreamingWarmEpochMatchesVm) {
  SKIP_WITHOUT_NATIVE();
  constexpr const char* kSum = R"(
init { local mass : float = 1.0 + vertexId; local seen : float = 0.0 };
iter i { seen = + [ u.mass | u <- #in ] } until { i >= 2 }
)";
  const auto cp = compile_dv(kSum);

  graph::GraphBuilder b(6, /*directed=*/true);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(0, 1);
  b.add_edge(4, 5);
  const auto base = b.build();

  const auto run_session = [&](ExecTier tier) {
    SessionOptions o;
    o.run.engine = small_engine();
    o.run.tier = tier;
    DvStreamSession s(cp, base, o);
    const auto cold = s.converge();
    EXPECT_EQ(cold.tier_used, tier) << "fell back: " << cold.native_fallback;
    graph::MutationBatch batch;
    batch.insert_edge(0, 3);
    batch.insert_edge(5, 3);
    const SessionEpoch ep = s.apply(batch);
    EXPECT_TRUE(ep.warm) << "blocked: " << (ep.blocker ? ep.blocker : "?");
    graph::MutationBatch batch2;
    batch2.remove_edge(2, 3);
    const SessionEpoch ep2 = s.apply(batch2);
    EXPECT_TRUE(ep2.warm) << "blocked: " << (ep2.blocker ? ep2.blocker : "?");
    return s.result();
  };

  expect_bit_identical(run_session(ExecTier::kNative),
                       run_session(ExecTier::kVm));
}

}  // namespace
}  // namespace deltav::dv
