// µ — google-benchmark micro-benchmarks for the engine and runtime hot
// paths: the combiner map, message exchange, interpreter dispatch, and
// Δ-message synthesis, and the snapshot codec. These quantify the constant factors behind the
// Figure-4 "Pregel+ is always faster than ΔV*" observation, and — via the
// */tree vs */vm pairs — the interpretation tax the bytecode tier removes.
#include <benchmark/benchmark.h>

#include "common/open_hash_map.h"
#include "common/rng.h"
#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/runtime/delta.h"
#include "dv/runtime/runner.h"
#include "dv/runtime/vm.h"
#include "dv/streaming/stream_session.h"
#include "graph/generators.h"
#include "pregel/engine.h"

namespace {

using namespace deltav;

void BM_OpenHashMapCombine(benchmark::State& state) {
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  OpenHashMap<double> map;
  Rng rng(1);
  for (auto _ : state) {
    map.clear();
    for (std::uint64_t i = 0; i < 100000; ++i)
      map[rng.next_below(keys)] += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_OpenHashMapCombine)->Arg(1024)->Arg(65536);

struct SumCombiner {
  void operator()(double& acc, double in) const { acc += in; }
};

void BM_EngineMessageRound(benchmark::State& state) {
  const std::size_t n = 1 << 14;
  const auto g = graph::rmat(n, n * 8, 3);
  pregel::EngineOptions opts;
  opts.num_workers = static_cast<int>(state.range(0));
  pregel::Engine<double, SumCombiner> engine(n, opts);
  for (auto _ : state) {
    engine.step([&](auto& ctx, graph::VertexId v, std::span<const double>) {
      for (auto u : g.out_neighbors(v)) ctx.send(u, 1.0);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_EngineMessageRound)->Arg(1)->Arg(4);

void BM_DeltaSynthesisSum(benchmark::State& state) {
  Rng rng(7);
  dv::Value old_v = dv::Value::of_float(rng.next_double());
  for (auto _ : state) {
    const dv::Value new_v = dv::Value::of_float(rng.next_double());
    benchmark::DoNotOptimize(
        dv::synthesize_delta(dv::AggOp::kSum, dv::Type::kFloat, old_v,
                             new_v));
    old_v = new_v;
  }
}
BENCHMARK(BM_DeltaSynthesisSum);

void BM_DeltaSynthesisProdWithZeros(benchmark::State& state) {
  Rng rng(9);
  dv::Value old_v = dv::Value::of_float(1.0);
  for (auto _ : state) {
    const dv::Value new_v = rng.next_bool(0.2)
                                ? dv::Value::of_float(0.0)
                                : dv::Value::of_float(rng.next_double(0.5,
                                                                      2.0));
    benchmark::DoNotOptimize(
        dv::synthesize_delta(dv::AggOp::kProd, dv::Type::kFloat, old_v,
                             new_v));
    old_v = new_v;
  }
}
BENCHMARK(BM_DeltaSynthesisProdWithZeros);

void BM_CompilePageRank(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(dv::compile(dv::programs::kPageRank, {}));
}
BENCHMARK(BM_CompilePageRank);

void BM_InterpreterPageRankSuperstep(benchmark::State& state) {
  // End-to-end per-superstep interpreter cost on a small graph, amortized:
  // run the full 30-superstep program and divide.
  const auto g = graph::rmat(4096, 32768, 11);
  const auto cp = dv::compile(dv::programs::kPageRank,
                              dv::CompileOptions{.incrementalize = false});
  dv::DvRunOptions o;
  o.engine.num_workers = 1;
  o.params = {{"steps", dv::Value::of_int(29)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dv::run_program(cp, g, o));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          30 * 4096);
}
BENCHMARK(BM_InterpreterPageRankSuperstep);

// ---- VM vs tree dispatch cost ------------------------------------------
//
// The tier benchmarks run the SAME compiled expression trees on both
// execution substrates (Arg(0) = tree interpreter, Arg(1) = bytecode VM),
// bypassing the engine so only evaluation dispatch is measured. Three
// shapes cover the runtime's hot paths: a pure PageRank-shaped arithmetic
// body, the Δ-send loop over CSR neighbor spans, and the receiver-side
// Δ-fold (Eq. 8/9).

dv::ExecTier tier_of(const benchmark::State& state) {
  return state.range(0) ? dv::ExecTier::kVm : dv::ExecTier::kTree;
}

/// Counts buffered contributions. With a table bound to `router`, routed
/// sites fold into its pending slots first, as the runner's engine sink
/// does.
class DevNullSink final : public dv::SendSink {
 public:
  std::uint64_t count = 0;
  dv::FoldRouter router;
  std::uint64_t send(graph::VertexId dst,
                     const dv::DvMessage& msg) override {
    return send_span({&dst, 1}, msg);
  }
  std::uint64_t send_span(std::span<const graph::VertexId> dsts,
                          const dv::DvMessage& msg) override {
    if (router.fold(router.column(msg.site), dsts, msg)) return 0;
    count += dsts.size();
    return dsts.size();
  }
};

/// Owns everything an EvalContext needs for standalone body evaluation:
/// per-vertex state initialized the way the runner does (identities for
/// accumulator slots, typed zeros for user fields), bound params, wire
/// sizes, and the lowered VM program.
struct TierFixture {
  explicit TierFixture(const char* src,
                       std::map<std::string, dv::Value> params = {})
      : g(graph::rmat(4096, 32768, 11)), cp(dv::compile(src, {})), vm(cp) {
    stride = cp.program.fields.size();
    std::vector<dv::Value> defaults(stride);
    for (std::size_t fi = 0; fi < stride; ++fi) {
      const dv::Field& f = cp.program.fields[fi];
      switch (f.origin) {
        case dv::Field::Origin::kAccumulator:
        case dv::Field::Origin::kNnAcc:
        case dv::Field::Origin::kLastSent: {
          const dv::AggSite& site =
              cp.program.sites[static_cast<std::size_t>(f.site)];
          defaults[fi] = dv::agg_identity(site.op, site.elem_type);
          break;
        }
        case dv::Field::Origin::kNullCount:
          defaults[fi] = dv::Value::of_int(0);
          break;
        default:
          defaults[fi] = f.type == dv::Type::kFloat ? dv::Value::of_float(0.5)
                         : f.type == dv::Type::kBool
                             ? dv::Value::of_bool(false)
                             : dv::Value::of_int(0);
          break;
      }
    }
    state0.reserve(g.num_vertices() * stride);
    for (std::size_t v = 0; v < g.num_vertices(); ++v)
      state0.insert(state0.end(), defaults.begin(), defaults.end());
    state = state0;
    for (const dv::ScratchVar& sv : cp.program.scratch)
      scratch_defaults.push_back(sv.type == dv::Type::kFloat
                                     ? dv::Value::of_float(0.0)
                                 : sv.type == dv::Type::kBool
                                     ? dv::Value::of_bool(false)
                                     : dv::Value::of_int(0));
    scratch = scratch_defaults;
    for (const dv::Param& p : cp.program.params)
      bound_params.push_back(params.at(p.name).coerce(p.type));
    const bool multi = cp.program.sites.size() > 1;
    for (const dv::AggSite& site : cp.program.sites) {
      std::size_t bytes = dv::type_wire_bytes(site.elem_type);
      if (multi) bytes += 1;
      if (cp.options.incrementalize && site.multiplicative()) bytes += 1;
      site_wire.push_back(static_cast<std::uint8_t>(bytes));
    }
  }

  dv::EvalContext ctx_for(graph::VertexId v) {
    dv::EvalContext ctx;
    ctx.prog = &cp.program;
    ctx.graph = &gv;
    ctx.fields = {state.data() + static_cast<std::size_t>(v) * stride,
                  stride};
    std::copy(scratch_defaults.begin(), scratch_defaults.end(),
              scratch.begin());
    ctx.scratch = scratch;
    ctx.params = bound_params;
    ctx.site_wire = &site_wire;
    ctx.sink = &sink;
    ctx.vertex = v;
    ctx.has_vertex = true;
    return ctx;
  }

  const dv::Expr& body() const { return *cp.program.stmts[0].body; }

  /// Evaluates the statement body for `v` on the selected tier.
  void run_body(dv::ExecTier tier, dv::EvalContext& ctx) {
    if (tier == dv::ExecTier::kVm)
      vm.eval_root(body(), ctx);
    else
      dv::eval(body(), ctx);
  }

  graph::CsrGraph g;
  graph::GraphView gv{g};
  dv::CompiledProgram cp;
  dv::Vm vm;
  std::size_t stride = 0;
  std::vector<dv::Value> state0, state;
  std::vector<dv::Value> scratch_defaults, scratch;
  std::vector<dv::Value> bound_params;
  std::vector<std::uint8_t> site_wire;
  DevNullSink sink;
};

/// The PageRank recurrence without its aggregation — pure typed arithmetic
/// (const, field, param, graphSize, degree, ÷, ×, +), so the measured gap
/// is exactly expression-dispatch overhead.
constexpr const char* kPrShapedExpr = R"(
param steps : int;
init { local vl : float = 1.0 / graphSize; local pr : float = 0.0 };
iter i {
  vl = 0.15 + 0.85 * ((vl + pr) / graphSize);
  pr = vl / |#out|
} until { i >= steps }
)";

void BM_TierPageRankExprEval(benchmark::State& state) {
  TierFixture fx(kPrShapedExpr, {{"steps", dv::Value::of_int(1)}});
  const dv::ExecTier tier = tier_of(state);
  auto ctx = fx.ctx_for(0);
  for (auto _ : state) {
    fx.run_body(tier, ctx);
    benchmark::DoNotOptimize(ctx.fields.data());
  }
  state.SetLabel(dv::exec_tier_name(tier));
}
BENCHMARK(BM_TierPageRankExprEval)->Arg(0)->Arg(1)->ArgNames({"vm"});

void BM_TierDeltaSendLoop(benchmark::State& state) {
  // Full ΔV PageRank body per vertex: Δ-fold over an empty inbox, the
  // recurrence, then the Δ-send loop over the out-neighbor span. One
  // benchmark iteration sweeps every vertex; state is restored first so
  // noop suppression never converges the sends away.
  TierFixture fx(dv::programs::kPageRank,
                 {{"steps", dv::Value::of_int(1)}});
  const dv::ExecTier tier = tier_of(state);
  for (auto _ : state) {
    state.PauseTiming();
    fx.state = fx.state0;
    state.ResumeTiming();
    for (std::size_t v = 0; v < fx.g.num_vertices(); ++v) {
      auto ctx = fx.ctx_for(static_cast<graph::VertexId>(v));
      fx.run_body(tier, ctx);
    }
    benchmark::DoNotOptimize(fx.sink.count);
  }
  state.SetLabel(dv::exec_tier_name(tier));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.g.num_arcs()));
}
BENCHMARK(BM_TierDeltaSendLoop)->Arg(0)->Arg(1)->ArgNames({"vm"});

void BM_TierDeltaFold(benchmark::State& state) {
  // Receiver side: fold a 16-message Δ-inbox into the memoized
  // accumulator (Eq. 8/9). Sends are suppressed so the fold dominates.
  TierFixture fx(dv::programs::kPageRank,
                 {{"steps", dv::Value::of_int(1)}});
  const dv::ExecTier tier = tier_of(state);
  std::vector<dv::DvMessage> inbox(16);
  for (auto& m : inbox) {
    m.payload = dv::Value::of_float(1e-3);
    m.site = 0;
    m.wire = fx.site_wire[0];
  }
  auto ctx = fx.ctx_for(0);
  ctx.msgs = inbox;
  ctx.suppress_sites = ~std::uint64_t{0};
  for (auto _ : state) {
    fx.run_body(tier, ctx);
    benchmark::DoNotOptimize(ctx.fields.data());
  }
  state.SetLabel(dv::exec_tier_name(tier));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inbox.size()));
}
BENCHMARK(BM_TierDeltaFold)->Arg(0)->Arg(1)->ArgNames({"vm"});

// ---- fold paths ---------------------------------------------------------
//
// The lock-free fold path priced at the edge level: the identical ΔV
// PageRank body swept over every vertex with buffered Δ-sends (message
// construction into a sink) vs atomic folds (CAS into the shared pending
// slot + frontier-bitmap mark, decided per send by the sink's FoldRouter
// exactly as in the runner). The per-edge difference measured here is the
// constant factor behind bench_stream's epoch-throughput comparison —
// the streaming win comes from the exchange-free superstep shape, not
// from the fold itself being cheaper per edge.

void BM_FoldPathSendLoop(benchmark::State& state) {
  TierFixture fx(dv::programs::kPageRank,
                 {{"steps", dv::Value::of_int(1)}});
  const bool atomic = state.range(0) != 0;
  dv::AtomicFoldTable table;
  dv::AtomicFoldLane lane;
  if (atomic) {
    const dv::AggSite& site = fx.cp.program.sites[0];
    table.route.assign(fx.cp.program.sites.size(), -1);
    table.route[0] = 0;
    table.ops.push_back(site.op);
    table.types.push_back(site.elem_type);
    table.identity.push_back(dv::atomic_fold_bits(
        site.elem_type, dv::agg_identity(site.op, site.elem_type)));
    table.reset(fx.g.num_vertices());
    lane.reset(fx.g.num_vertices(), table.columns());
    fx.sink.router = {&table, &lane};
  }
  for (auto _ : state) {
    state.PauseTiming();
    fx.state = fx.state0;
    state.ResumeTiming();
    for (std::size_t v = 0; v < fx.g.num_vertices(); ++v) {
      auto ctx = fx.ctx_for(static_cast<graph::VertexId>(v));
      fx.run_body(dv::ExecTier::kVm, ctx);
    }
    benchmark::DoNotOptimize(atomic ? lane.folds : fx.sink.count);
  }
  state.SetLabel(atomic ? "atomic" : "buffered");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.g.num_arcs()));
}
BENCHMARK(BM_FoldPathSendLoop)->Arg(0)->Arg(1)->ArgNames({"atomic"});

// ---- observability overhead --------------------------------------------
//
// The DESIGN.md §8 contract priced directly: the same VM dispatch loop
// with no metrics shard attached (Arg(0), the production default — every
// hook is a dead null test) vs counting into a live per-lane shard
// (Arg(1)). Arg(0) must match BM_TierPageRankExprEval/vm:1 within noise;
// Arg(1) bounds the cost a metered run pays per dispatched op.

void BM_ObsVmDispatch(benchmark::State& state) {
  TierFixture fx(kPrShapedExpr, {{"steps", dv::Value::of_int(1)}});
  obs::Collector collector(1);
  auto ctx = fx.ctx_for(0);
  ctx.obs = state.range(0) ? &collector.metrics.shard(0) : nullptr;
  for (auto _ : state) {
    fx.run_body(dv::ExecTier::kVm, ctx);
    benchmark::DoNotOptimize(ctx.fields.data());
  }
  state.SetLabel(state.range(0) ? "obs-on" : "obs-off");
}
BENCHMARK(BM_ObsVmDispatch)->Arg(0)->Arg(1)->ArgNames({"obs"});

void BM_ObsDeltaSendLoop(benchmark::State& state) {
  // Full ΔV PageRank body (fold + recurrence + Δ-send loop) with and
  // without metering — the end-to-end shape of the obs-off contract, on
  // the path where the send-loop tallies live.
  TierFixture fx(dv::programs::kPageRank,
                 {{"steps", dv::Value::of_int(1)}});
  obs::Collector collector(1);
  obs::MetricsShard* const shard =
      state.range(0) ? &collector.metrics.shard(0) : nullptr;
  for (auto _ : state) {
    state.PauseTiming();
    fx.state = fx.state0;
    state.ResumeTiming();
    for (std::size_t v = 0; v < fx.g.num_vertices(); ++v) {
      auto ctx = fx.ctx_for(static_cast<graph::VertexId>(v));
      ctx.obs = shard;
      fx.run_body(dv::ExecTier::kVm, ctx);
    }
    benchmark::DoNotOptimize(fx.sink.count);
  }
  state.SetLabel(state.range(0) ? "obs-on" : "obs-off");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.g.num_arcs()));
}
BENCHMARK(BM_ObsDeltaSendLoop)->Arg(0)->Arg(1)->ArgNames({"obs"});

void BM_HandwrittenPageRank(benchmark::State& state) {
  // The native-code equivalent of the interpreter benchmark above; the
  // ratio of the two is the ΔV*-vs-Pregel+ constant factor in Figure 4.
  const auto g = graph::rmat(4096, 32768, 11);
  const auto N = static_cast<double>(g.num_vertices());
  pregel::EngineOptions opts;
  opts.num_workers = 1;
  for (auto _ : state) {
    pregel::Engine<double, SumCombiner> engine(g.num_vertices(), opts);
    std::vector<double> pr(g.num_vertices());
    engine.run(
        [&](auto& ctx, graph::VertexId v, std::span<const double> msgs) {
          if (ctx.superstep() == 0) {
            pr[v] = 1.0 / N;
          } else {
            double sum = 0;
            for (double m : msgs) sum += m;
            pr[v] = 0.15 + 0.85 * (sum / N);
          }
          if (ctx.superstep() + 1 < 30) {
            const auto out = g.out_neighbors(v);
            if (!out.empty()) {
              const double share = pr[v] / static_cast<double>(out.size());
              for (auto u : out) ctx.send(u, share);
            }
          } else {
            ctx.vote_to_halt();
          }
        });
    benchmark::DoNotOptimize(pr.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          30 * 4096);
}
BENCHMARK(BM_HandwrittenPageRank);

// ---- snapshot codec ----------------------------------------------------
//
// The persist layer priced outside the end-to-end run: the CRC-32 every
// snapshot byte passes through once per side, and a whole save + restore
// of a converged session (encode, both CRC sides, decode, rebuild). Both
// report snapshot bytes per second.

void BM_SnapshotCrc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(n);
  Rng rng(13);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state)
    benchmark::DoNotOptimize(dv::persist::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SnapshotCrc32)->Arg(1 << 20)->Arg(16 << 20);

void BM_SnapshotRoundTrip(benchmark::State& state) {
  const auto cp = dv::compile(dv::programs::kPageRank, {});
  dv::streaming::SessionOptions o;
  o.run.engine.num_workers = 1;
  o.run.params = {{"steps", dv::Value::of_int(29)}};
  const auto s =
      dv::streaming::make_stream_session(cp, graph::rmat(4096, 32768, 11), o);
  s->converge();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::vector<std::uint8_t> snap = s->save_bytes();
    bytes = snap.size();
    benchmark::DoNotOptimize(
        dv::streaming::DvStreamSession::restore_bytes(cp, std::move(snap),
                                                      o));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotRoundTrip);

}  // namespace

BENCHMARK_MAIN();
