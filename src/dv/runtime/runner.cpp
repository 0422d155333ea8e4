#include "dv/runtime/runner.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "dv/codegen/native_module.h"
#include "dv/persist/snapshot.h"
#include "dv/runtime/delta.h"
#include "dv/runtime/vm.h"
#include "dv/streaming/retract/retract_memo.h"
#include "pregel/aggregator.h"

namespace deltav::dv {

namespace {

/// The stats totals record that ends the engine section: one
/// SuperstepStats, as nine u64 counters then three f64 timings.
constexpr std::size_t kStatsTotalsBytes = 12 * 8;

/// An exchange-free round runs inline (Engine::step(fn, true)) while its
/// live frontier is at most max(kInlineFrontierFloor, |V| /
/// kInlineFrontierShare): warm epochs waking a few dozen vertices skip
/// the fork-join, wide cold frontiers keep the threads.
constexpr std::uint64_t kInlineFrontierFloor = 256;
constexpr std::uint64_t kInlineFrontierShare = 8;

/// A site's routes, resolved once per runner: its retraction-memo column
/// and its atomic-fold column (-1: buffered).
struct SiteRoute {
  MemoColumn memo;
  int fold_col = -1;
};

/// Adapts the engine's per-vertex send API to the interpreter's SendSink,
/// optionally teeing every message into the debug probe. Every tier's
/// sends meet the memo and fold-path decisions here, from one lookup of
/// the message site's routes: the bound MemoRecorder records memo-routed
/// sites (keeping removal records back), the bound FoldRouter folds routed
/// sites into the pending slots, and everything else enters the engine.
/// The probe and the atomic path are mutually exclusive (the runner forces
/// buffered under a probe: a message probe has nothing to observe on a
/// message-free path).
class EngineSink : public SendSink {
 public:
  using Ctx = DvEngine::Context;
  using Probe = std::function<void(graph::VertexId, graph::VertexId,
                                   const DvMessage&)>;
  void bind(Ctx* ctx, const Probe* probe) {
    ctx_ = ctx;
    probe_ = probe && *probe ? probe : nullptr;
  }
  void route(const SiteRoute* routes, FoldRouter r, MemoRecorder m) {
    // Unbound when no site is memoized or folded: a buffered send then
    // costs one null test.
    routes_ = r.table || m.table ? routes : nullptr;
    router_ = r;
    recorder_ = m;
  }
  std::uint64_t send(graph::VertexId dst, const DvMessage& msg) override {
    if (routed({&dst, 1}, msg)) return 0;
    if (probe_) (*probe_)(ctx_->vertex(), dst, msg);
    ctx_->send(dst, msg);
    return 1;
  }
  std::uint64_t send_span(std::span<const graph::VertexId> dsts,
                          const DvMessage& msg) override {
    if (routed(dsts, msg)) return 0;
    if (probe_)
      for (const graph::VertexId dst : dsts) (*probe_)(ctx_->vertex(), dst, msg);
    ctx_->send_span(dsts, msg);
    return dsts.size();
  }

 private:
  /// Records and folds `msg` as its site's routes say; true when nothing
  /// is left to deliver.
  bool routed(std::span<const graph::VertexId> dsts, const DvMessage& msg) {
    if (routes_ == nullptr) return false;
    const SiteRoute& r = routes_[msg.site];
    return recorder_.record(r.memo, dsts, ctx_->vertex(), msg) ||
           router_.fold(r.fold_col, dsts, msg);
  }

  Ctx* ctx_ = nullptr;
  const Probe* probe_ = nullptr;
  const SiteRoute* routes_ = nullptr;
  FoldRouter router_;
  MemoRecorder recorder_;
};

/// Does any node of `e` contain `stable`? (Pre-analyzed by typecheck, but
/// re-derived here to keep the runner independent of analysis plumbing.)
bool uses_stable(const Expr& e) {
  if (e.kind == ExprKind::kStableRef) return true;
  for (const auto& k : e.kids)
    if (uses_stable(*k)) return true;
  return false;
}

/// Does any node of `e` have kind `k`? (warm_blocker's dependency scans.)
bool expr_contains(const Expr& e, ExprKind k) {
  if (e.kind == k) return true;
  for (const auto& kid : e.kids)
    if (kid && expr_contains(*kid, k)) return true;
  return false;
}

/// Does `e` read the enclosing statement's iteration variable?
bool expr_reads_iter(const Expr& e) {
  if (e.kind == ExprKind::kVarRef && e.var_kind == VarKind::kIter)
    return true;
  for (const auto& kid : e.kids)
    if (kid && expr_reads_iter(*kid)) return true;
  return false;
}

/// Marks the field slots `e` assigns (kAssign nodes targeting vertex
/// state, not scratch).
void mark_field_writes(const Expr& e, std::vector<std::uint8_t>& written) {
  if (e.kind == ExprKind::kAssign &&
      e.assign_target == AssignTarget::kField && e.slot >= 0 &&
      static_cast<std::size_t>(e.slot) < written.size())
    written[static_cast<std::size_t>(e.slot)] = 1;
  for (const auto& kid : e.kids)
    if (kid) mark_field_writes(*kid, written);
}

/// Does `e` read any field slot marked in `written`?
bool expr_reads_marked_field(const Expr& e,
                             const std::vector<std::uint8_t>& written) {
  if (e.kind == ExprKind::kFieldRef && e.slot >= 0 &&
      static_cast<std::size_t>(e.slot) < written.size() &&
      written[static_cast<std::size_t>(e.slot)])
    return true;
  for (const auto& kid : e.kids)
    if (kid && expr_reads_marked_field(*kid, written)) return true;
  return false;
}

}  // namespace

class DvRunner::Impl {
 public:
  Impl(const CompiledProgram& cp, graph::GraphView g, DvRunOptions options)
      : cp_(cp), prog_(cp.program), g_(g), options_(std::move(options)) {
    validate();
    const std::size_t n = g_.num_vertices();
    stride_ = prog_.fields.size();
    state_.assign(n * stride_, Value{});
    init_compiler_fields();
    bind_params();
    compute_site_wires();
    compute_site_edge_use();

    for (const AggSite& site : prog_.sites)
      has_channels_ = has_channels_ || site.is_channel();
    for (const Stmt& stmt : prog_.stmts)
      reference_remote_ =
          reference_remote_ ||
          expr_contains(*stmt.body, ExprKind::kRemoteRead);
    // The reference interpretation of remote reads (lower_remote = false)
    // snapshots full vertex state per superstep — a differential oracle,
    // not an execution strategy — and exists on the tree tier only.
    DV_CHECK_MSG(!reference_remote_ || options_.tier == ExecTier::kTree,
                 "non-lowered remote reads (the reference interpretation) "
                 "run on the tree tier only");

    pregel::EngineOptions eopts = options_.engine;
    // The combiner keys on (destination, site); distinct requests — and
    // their distinct replies — to the same vertex on the same channel
    // would merge. Channel traffic must arrive message-per-message.
    eopts.use_combiner = options_.use_combiner && !has_channels_;
    if (!eopts.collector) eopts.collector = options_.collector;
    DvCombiner combiner{&cp_.site_ops};
    engine_ = std::make_unique<DvEngine>(n, eopts, combiner);

    // Scratch slots are reset per vertex to typed zeros (dirty/assigned
    // flags start false each superstep, §6.3).
    scratch_defaults_.reserve(prog_.scratch.size());
    for (const ScratchVar& sv : prog_.scratch) {
      switch (sv.type) {
        case Type::kBool: scratch_defaults_.push_back(Value::of_bool(false)); break;
        case Type::kFloat: scratch_defaults_.push_back(Value::of_float(0.0)); break;
        default: scratch_defaults_.push_back(Value::of_int(0)); break;
      }
    }
    const int W = eopts.num_workers;
    worker_scratch_.resize(static_cast<std::size_t>(W));
    for (auto& s : worker_scratch_) s = scratch_defaults_;
    assign_agg_ = std::make_unique<pregel::OrAggregator>(W, false,
                                                         pregel::OrOp{});

    // Retraction-memo routing (streaming/retract/retract_memo.h): route
    // every memo-eligible min/max site through the k-best tournament memo
    // when the session asked for it (minmax_memo_k > 0). Single-statement
    // programs only — the memo's drain re-converges statement 0, which is
    // exactly the warm-epoch restriction warm_blocker already imposes.
    retract_table_.k = options_.minmax_memo_k;
    retract_table_.route.assign(prog_.sites.size(), -1);
    if (cp_.options.incrementalize && options_.minmax_memo_k > 0 &&
        prog_.stmts.size() == 1) {
      for (const AggSite& site : prog_.sites) {
        if (!site.memo_ok) continue;
        retract_table_.route[static_cast<std::size_t>(site.id)] =
            static_cast<int>(retract_table_.ops.size());
        retract_table_.site_of.push_back(
            static_cast<std::uint32_t>(site.id));
        retract_table_.ops.push_back(site.op);
        retract_table_.types.push_back(site.elem_type);
        retract_table_.identity.push_back(atomic_fold_bits(
            site.elem_type, agg_identity(site.op, site.elem_type)));
        record_sites_ |= std::uint64_t{1} << site.id;
        memo_edge_feedback_ =
            memo_edge_feedback_ || site.memo_edge_feedback;
      }
    }
    if (!retract_table_.empty()) {
      retract_table_.reset(n);
      memo_lanes_.resize(static_cast<std::size_t>(W));
      if (memo_edge_feedback_) {
        // Class B feedback adds u.edge per hop: the rising-repair argument
        // needs strictly positive weights, enforced at runtime against
        // this lower bound (one O(E) scan here; epochs fold in new arcs).
        min_weight_lb_ = std::numeric_limits<double>::infinity();
        for (std::size_t v = 0; v < n; ++v) {
          const auto vid = static_cast<graph::VertexId>(v);
          const auto ws = g_.out_weights(vid);
          if (ws.empty()) {
            if (!g_.out_neighbors(vid).empty())
              min_weight_lb_ = std::min(min_weight_lb_, 1.0);
            continue;
          }
          for (const double wgt : ws)
            min_weight_lb_ = std::min(min_weight_lb_, wgt);
        }
      }
    }

    // Every compiled tier runs the VM's lowering: the VM itself, or the
    // native unit emitted from the same chunks (native_emit.h), so roots
    // resolve through VmProgram::chunk_of on both. The VM is immutable and
    // holds no execution state, so one instance serves every worker. A
    // native build failure is never fatal — the runner records the named
    // reason, bumps dv.native_fallbacks, and runs the VM exactly as if
    // --tier=vm had been requested.
    if (options_.tier != ExecTier::kTree) vm_ = std::make_unique<Vm>(cp_);
    if (options_.tier == ExecTier::kNative) {
      obs::Collector* const col = obs::resolve(options_.collector);
      const native::NativeBuildReport rep =
          native::build_native(cp_, vm_->program());
      if (col && rep.compile_seconds > 0.0)
        col->metrics.observe("dv.native_compile_seconds",
                             rep.compile_seconds);
      native_ = rep.program;
      if (!native_) {
        native_fallback_ = rep.reason;
        if (col) {
          col->metrics.shard(0).add(obs::Counter::kNativeFallbacks);
          // The reason's first word keys the per-cause series
          // ("compile_failed: ..." → dv.native_fallbacks.compile_failed).
          col->metrics.add_named(
              "dv.native_fallbacks." +
              rep.reason.substr(0, rep.reason.find_first_of(": ")));
        }
      }
    }
    // Choose the compiled tier once: every chunk call runs the native
    // unit's function when it loaded, else the VM's chunk.
    if (native_)
      run_chunk_ = [](const Impl& r, int id, EvalContext& ctx) {
        return r.native_->run(id, ctx);
      };
    else if (vm_)
      run_chunk_ = [](const Impl& r, int id, EvalContext& ctx) {
        return r.vm_->run_chunk(id, ctx);
      };
    // Every root's chunk id, so no per-vertex or per-epoch path looks one
    // up in the root map.
    init_chunk_ = chunk_of(prog_.init.get());
    for (const Stmt& stmt : prog_.stmts) {
      body_chunk_.push_back(chunk_of(stmt.body.get()));
      until_chunk_.push_back(chunk_of(stmt.until.get()));
    }
    for (const AggSite& site : prog_.sites) {
      site_sent_chunk_.push_back(chunk_of(site.send_expr.get()));
      site_send_chunk_.push_back(
          site.init_send_expr ? chunk_of(site.init_send_expr.get())
                              : site_sent_chunk_.back());
    }

    // Fold-path routing (atomic_fold.h): route every site the
    // incrementalize pass proved commutative-associative through the
    // pending-slot path — unless forced buffered, or a send probe is
    // installed (a message probe has nothing to observe on a message-free
    // path, so the probe wins).
    atomic_table_.route.assign(prog_.sites.size(), -1);
    if (cp_.options.incrementalize &&
        options_.fold_path != FoldPath::kBuffered &&
        !options_.send_probe) {
      for (const AggSite& site : prog_.sites) {
        const bool eligible =
            site.atomic_ok ||
            (options_.atomic_float && site.atomic_float_ok);
        if (!eligible) continue;
        atomic_table_.route[static_cast<std::size_t>(site.id)] =
            static_cast<int>(atomic_table_.ops.size());
        atomic_table_.ops.push_back(site.op);
        atomic_table_.types.push_back(site.elem_type);
        atomic_table_.identity.push_back(atomic_fold_bits(
            site.elem_type, agg_identity(site.op, site.elem_type)));
        atomic_col_site_.push_back(site.id);
      }
    }
    if (!atomic_table_.empty()) {
      atomic_table_.reset(n);
      atomic_lanes_.resize(static_cast<std::size_t>(W));
      for (AtomicFoldLane& lane : atomic_lanes_)
        lane.reset(n, atomic_table_.columns());
    }
    for (const AggSite& site : prog_.sites)
      site_routes_.push_back(
          {recorder(0).column(site.id), router(0).column(site.id)});
  }

  DvRunResult run() {
    DV_CHECK_MSG(!converged_, "converge() may only run once");
    obs::Scope obs_scope(obs::resolve(options_.collector), "dv.converge");
    checkpointing_ = options_.checkpoint_every > 0 &&
                     static_cast<bool>(options_.checkpoint_sink);
    // The cursor (init_done_, cur_stmt_, cur_iter_, in_statement_) is all
    // zero on a fresh runner, so this loop is run()'s original control
    // flow; after restore_state it re-enters the interrupted statement at
    // the saved iteration instead.
    if (!init_done_) {
      run_init_superstep();
      init_done_ = true;
      in_statement_ = true;  // statement 0 is primed by the init push
    }
    for (std::size_t si = cur_stmt_; si < prog_.stmts.size(); ++si) {
      cur_stmt_ = si;
      if (!in_statement_) run_transition(si);
      in_statement_ = true;
      run_statement(si, cur_iter_);
      cur_iter_ = 0;
      in_statement_ = false;
    }
    checkpointing_ = false;
    converged_ = true;
    return collect_result();
  }

  bool converged() const { return converged_; }

  EpochStats apply_epoch(graph::DynamicGraph& dyn,
                         const graph::GraphDelta& delta) {
    const char* blocker =
        DvRunner::warm_blocker(cp_, delta, options_.minmax_memo_k);
    DV_CHECK_MSG(blocker == nullptr,
                 "apply_epoch on a warm-blocked delta: " << blocker);
    const char* rt_blocker = warm_runtime_blocker(delta);
    DV_CHECK_MSG(rt_blocker == nullptr,
                 "apply_epoch on a runtime-blocked delta: " << rt_blocker);
    DV_CHECK_MSG(options_.deletions.empty(),
                 "apply_epoch cannot run with scheduled vertex deletions");
    DV_CHECK_MSG(converged_, "apply_epoch before converge()");
    DV_CHECK_MSG(g_.num_vertices() == delta.old_num_vertices,
                 "delta was planned against a different graph snapshot");

    obs::Collector* const col = obs::resolve(options_.collector);
    obs::Scope obs_scope(col, "dv.epoch.apply");
    EpochStats es;
    const std::size_t old_n = delta.old_num_vertices;
    const std::size_t new_n = delta.new_num_vertices;
    const std::uint64_t sent_base = engine_->stats().total_messages_sent();
    const std::size_t steps_base = supersteps_;
    const std::uint64_t folds_base = atomic_folds_total_;
    const std::uint64_t retr_base = minmax_retractions_total_;
    const std::uint64_t refold_base = minmax_refolds_total_;
    const std::uint64_t under_base = minmax_underflows_total_;
    warm_aborted_ = false;
    if (memo_edge_feedback_) {
      // Fold the epoch's surviving/new arc weights into the positivity
      // lower bound (conservative: removals never raise it back).
      for (const graph::ArcChange& a : delta.arcs)
        if (a.has) min_weight_lb_ = std::min(min_weight_lb_, a.new_weight);
    }
    deltas_applied_ = 0;
    // Clear the previous epoch's marks through its list: O(last frontier),
    // not O(|V|). The bitmap only ever grows.
    for (const graph::VertexId v : wake_list_) wake_[v] = 0;
    wake_list_.clear();
    if (wake_.size() < new_n) wake_.resize(new_n, 0);
    for (const graph::VertexId v : delta.touched) mark_wake(v);

    // ---- Phase A (old topology): per touched sender × site, record what
    // each receiver last folded from it (last_folded). Lists are indexed
    // flat by (site, touched position) — Phase B walks delta.touched in
    // the same order — and the inner vectors keep their capacity across
    // epochs, so a warm stream of small batches makes no per-epoch heap
    // trips here.
    const std::size_t n_touched = delta.touched.size();
    epoch_olds_.resize(prog_.sites.size());
    for (auto& per_site : epoch_olds_) {
      if (per_site.size() < n_touched) per_site.resize(n_touched);
      for (std::size_t ti = 0; ti < n_touched; ++ti) per_site[ti].clear();
    }
    {
      EvalContext ctx = make_ctx(0);
      ctx.has_vertex = true;
      for (std::size_t ti = 0; ti < n_touched; ++ti) {
        const graph::VertexId v = delta.touched[ti];
        if (v >= old_n) continue;
        ctx.vertex = v;
        ctx.fields = fields_of(v);
        std::copy(scratch_defaults_.begin(), scratch_defaults_.end(),
                  ctx.scratch.begin());
        for (const AggSite& site : prog_.sites) {
          const auto [targets, weights] = push_targets(site, v);
          if (targets.empty()) continue;
          const auto site_idx = static_cast<std::size_t>(site.id);
          auto& list = epoch_olds_[site_idx][ti];
          list.reserve(targets.size());
          if (weights.empty() || !folded_per_edge_[site_idx]) {
            // Edge-invariant: one evaluation serves the whole span.
            ctx.cur_edge_weight = weights.empty() ? 1.0 : weights.back();
            const Value old = last_folded(site, ctx);
            for (const graph::VertexId t : targets) list.emplace_back(t, old);
            continue;
          }
          for (std::size_t i = 0; i < targets.size(); ++i) {
            ctx.cur_edge_weight = weights[i];
            list.emplace_back(targets[i], last_folded(site, ctx));
          }
        }
      }
    }

    // ---- Commit: every read below sees the mutated topology through g_.
    dyn.commit(delta);

    // ---- Growth: engine capacity, state rows with compiler-field
    // defaults, init block, and the §6.1 first push — delivered
    // synchronously into receiver accumulators by the ApplySink rather
    // than through the engine (the epoch has not started stepping yet).
    ApplySink apply_sink(this);
    if (new_n > old_n) {
      engine_->grow(new_n);
      if (!atomic_table_.empty()) {
        // Pending slots are empty between supersteps, so the re-init only
        // resizes; lanes follow the new bitmap width.
        atomic_table_.reset(new_n);
        for (AtomicFoldLane& lane : atomic_lanes_)
          lane.reset(new_n, atomic_table_.columns());
      }
      if (!retract_table_.empty()) retract_table_.grow(new_n);
      state_.resize(new_n * stride_);
      if (tracking_) changed_mark_.resize(new_n, 0);
      const std::vector<Value> defaults = compiler_field_defaults();
      for (std::size_t v = old_n; v < new_n; ++v)
        std::copy(defaults.begin(), defaults.end(),
                  state_.begin() + static_cast<std::ptrdiff_t>(v * stride_));
      EvalContext ctx = make_ctx(0);
      ctx.has_vertex = true;
      ctx.sink = &apply_sink;
      for (std::size_t vv = old_n; vv < new_n; ++vv) {
        const auto v = static_cast<graph::VertexId>(vv);
        ctx.vertex = v;
        apply_sink.sender = v;
        ctx.fields = fields_of(v);
        std::copy(scratch_defaults_.begin(), scratch_defaults_.end(),
                  ctx.scratch.begin());
        eval_root(init_chunk_, *prog_.init, ctx);
        push_first(ctx, v, 0);
        mark_wake(v);
        if (tracking_) note_changed(0, v);
      }
    }

    // ---- Phase B (new topology): for each surviving touched sender,
    // merge its old and new target sets and synthesize one Δ per target:
    // old→new where the arc survives, an injection (first send) for new
    // arcs, a retraction (→ identity) for removed ones. Deltas fold
    // directly into receiver slots — single-threaded, deterministic.
    {
      EvalContext ctx = make_ctx(0);
      ctx.has_vertex = true;
      for (std::size_t ti = 0; ti < n_touched; ++ti) {
        const graph::VertexId v = delta.touched[ti];
        if (v >= old_n) continue;
        ctx.vertex = v;
        ctx.fields = fields_of(v);
        std::copy(scratch_defaults_.begin(), scratch_defaults_.end(),
                  ctx.scratch.begin());
        for (const AggSite& site : prog_.sites) {
          // The sender's *current* contribution must reflect the new
          // topology (degrees!), so evaluate the original expression —
          // for bound sites send_expr is just the stale sent_k ref.
          const Expr& original =
              site.init_send_expr ? *site.init_send_expr : *site.send_expr;
          const auto [targets, weights] = push_targets(site, v);
          const auto site_idx = static_cast<std::size_t>(site.id);
          const auto& old_list = epoch_olds_[site_idx][ti];
          const Value identity = agg_identity(site.op, site.elem_type);
          // Memo-routed sites synthesize keyed records (new totals,
          // identity = removal) instead of Δ-messages; the epoch drain
          // below rewrites every dirty accumulator straight from the memo,
          // so min/max retractions need no cold restart.
          const int rcol = retract_table_.empty()
                               ? -1
                               : retract_table_.route[site_idx];
          // The sender's current value over an arc of weight `w`: computed
          // once and reused for every target (and the re-memoization below)
          // unless the send can read the edge weight.
          const bool per_edge =
              !weights.empty() && send_per_edge_[site_idx];
          Value invariant_now;
          bool have_invariant = false;
          const auto current = [&](double w) {
            if (have_invariant) return invariant_now;
            ctx.cur_edge_weight = w;
            const Value now =
                eval_root(site_send_chunk_[site_idx], original, ctx)
                    .coerce(site.elem_type);
            if (!per_edge) {
              invariant_now = now;
              have_invariant = true;
            }
            return now;
          };
          // Both lists are sorted by receiver: walk them together.
          std::size_t oi = 0, ni = 0;
          while (oi < old_list.size() || ni < targets.size()) {
            graph::VertexId dst;
            const Value* old = nullptr;  // null: a new arc
            Value now = identity;        // identity: a removed arc
            if (ni >= targets.size() ||
                (oi < old_list.size() && old_list[oi].first < targets[ni])) {
              dst = old_list[oi].first;
              old = &old_list[oi++].second;
            } else {
              dst = targets[ni];
              now = current(weights.empty() ? 1.0 : weights[ni]);
              ++ni;
              if (oi < old_list.size() && old_list[oi].first == dst)
                old = &old_list[oi++].second;
            }
            if (rcol >= 0) {
              memo_lanes_.front().record(
                  dst, static_cast<std::uint32_t>(v), rcol,
                  atomic_fold_bits(site.elem_type, now));
              continue;
            }
            const DeltaPayload d =
                old ? synthesize_delta(site.op, site.elem_type, *old, now)
                    : synthesize_first(site.op, site.elem_type, now);
            if (!d.noop)
              apply_direct(dst, delta_message(site.id, site_wire_[site_idx],
                                              d));
          }
          // Re-memoize what this sender's neighbors now believe its value
          // is, so the woken body's Δ against it is a no-op.
          if (site.bound_field >= 0 || site.last_sent_slot >= 0) {
            const Value now = current(1.0);
            if (site.bound_field >= 0)
              ctx.fields[static_cast<std::size_t>(site.bound_field)] = now;
            if (site.last_sent_slot >= 0)
              ctx.fields[static_cast<std::size_t>(site.last_sent_slot)] =
                  now;
          }
        }
      }
    }

    // Routed epoch patches are still parked in pending slots: fold them
    // into the accumulators now (wake_ was marked at fold time).
    drain_atomic(/*activate=*/false);
    // Memo-routed records likewise: apply them in canonical order and
    // rewrite every dirty cell's accumulator from the memo (the normal
    // fold path never saw these sites' epoch deltas).
    drain_retract(/*activate=*/false);

    // ---- Wake exactly the mutation frontier (touched endpoints, Δ
    // receivers, new vertices) and re-converge the statement. The wake
    // list was accumulated at mark time, so a small epoch on a large
    // graph never pays a full-vertex scan here.
    engine_->halt_all();
    for (const graph::VertexId v : wake_list_) {
      if (engine_->is_deleted(v)) continue;
      engine_->activate(v);
      ++es.woken;
    }

    // Class B feedback repairs rise monotonically; on a graph whose only
    // path to some vertex was removed they would climb without bound
    // (count-to-infinity). Cap the warm re-convergence at a budget far
    // above any healthy repair; the drive loops flag warm_aborted_ and
    // the session falls back to a cold rebuild of this epoch.
    if (!retract_table_.empty())
      epoch_cap_abs_ =
          supersteps_ + std::max<std::size_t>(256, 8 * new_n);

    if (es.woken > 0) run_statement(0);
    epoch_cap_abs_ = 0;

    es.warm_aborted = warm_aborted_;
    es.minmax_retractions = minmax_retractions_total_ - retr_base;
    es.minmax_refolds = minmax_refolds_total_ - refold_base;
    es.minmax_underflows = minmax_underflows_total_ - under_base;
    es.deltas_applied = deltas_applied_;
    es.supersteps = supersteps_ - steps_base;
    es.atomic_folds = atomic_folds_total_ - folds_base;
    es.atomic_path = !atomic_table_.empty();
    es.messages = engine_->stats().total_messages_sent() - sent_base;
    if (col) {
      auto& sh = col->metrics.shard(0);
      sh.add(obs::Counter::kDeltasApplied, es.deltas_applied);
      sh.add(obs::Counter::kFrontierWoken, es.woken);
    }
    return es;
  }

  DvRunResult snapshot_result() { return collect_result(); }

  StateWindow state_window() const {
    return {state_.data(), &prog_.fields, g_.num_vertices()};
  }

  bool take_changed(std::vector<graph::VertexId>& out) {
    DV_CHECK_MSG(converged_, "take_changed before convergence");
    out.clear();
    if (!tracking_) {
      tracking_ = true;
      changed_mark_.assign(g_.num_vertices(), 0);
      changed_lists_.resize(worker_scratch_.size());
      return false;
    }
    for (std::vector<graph::VertexId>& list : changed_lists_) {
      for (const graph::VertexId v : list) changed_mark_[v] = 0;
      out.insert(out.end(), list.begin(), list.end());
      list.clear();
    }
    return true;
  }

  bool atomic_path() const { return !atomic_table_.empty(); }

  bool memo_path() const { return !retract_table_.empty(); }

  /// Instance-level warm gate, checked after the static warm_blocker:
  /// conditions that depend on runtime state rather than program shape.
  /// Today that is only the Class B positivity guard — a min-plus
  /// feedback memo repairs by monotone rising, which a zero or negative
  /// edge weight would break.
  const char* warm_runtime_blocker(const graph::GraphDelta& delta) const {
    if (retract_table_.empty() || !memo_edge_feedback_) return nullptr;
    double lb = min_weight_lb_;
    for (const graph::ArcChange& a : delta.arcs)
      if (a.has) lb = std::min(lb, a.new_weight);
    if (lb <= 0.0)
      return "min-plus feedback memo needs strictly positive edge weights";
    return nullptr;
  }

  void save_state(persist::SnapshotWriter& w) const {
    w.begin_section(persist::kSecRunner);
    w.put_u64(stride_);
    w.put_u64(g_.num_vertices());
    w.put_u64(state_.size());
    for (const Value& v : state_) w.put_value(v);
    w.put_u64(supersteps_);
    {
      std::vector<std::uint64_t> iters(iterations_.begin(),
                                       iterations_.end());
      w.put_u64_vec(iters);
    }
    w.put_bool(converged_);
    w.put_bool(init_done_);
    w.put_bool(in_statement_);
    w.put_u64(cur_stmt_);
    w.put_u64(cur_iter_);
    w.end_section();

    const DvEngine::Checkpoint c = engine_->checkpoint();
    w.begin_section(persist::kSecEngine);
    w.put_u64(c.superstep);
    w.put_u8_vec(c.halted);
    w.put_u8_vec(c.deleted);
    w.put_u32(static_cast<std::uint32_t>(c.queues.size()));
    for (const auto& q : c.queues) w.put_u32_vec(q);
    for (const auto& pend : c.pending) {
      w.put_u64(pend.size());
      for (const auto& [dst, m] : pend) {
        w.put_u32(dst);
        w.put_value(m.payload);
        w.put_i32(m.nulls);
        w.put_i32(m.denulls);
        w.put_u8(m.site);
        w.put_u8(m.wire);
      }
    }
    // The stats totals, as one length-prefixed record (its count is the
    // superstep counter written first). The per-superstep log is not
    // saved, so the section's size does not grow with uptime.
    std::uint8_t* p = w.put_records(kStatsTotalsBytes, 1);
    const pregel::SuperstepStats& t = c.totals;
    persist::le::put_u64(p, t.messages_sent);
    persist::le::put_u64(p, t.messages_delivered);
    persist::le::put_u64(p, t.messages_dropped);
    persist::le::put_u64(p, t.bytes_sent);
    persist::le::put_u64(p, t.bytes_delivered);
    persist::le::put_u64(p, t.cross_machine_bytes);
    persist::le::put_u64(p, t.active_vertices);
    persist::le::put_u64(p, t.vertices_halted);
    persist::le::put_u64(p, t.vertices_woken);
    persist::le::put_f64(p, t.compute_seconds);
    persist::le::put_f64(p, t.exchange_seconds);
    persist::le::put_f64(p, t.sim_comm_seconds);
    w.end_section();

    // Retraction memos (always framed, even when off, so the section
    // order is fixed): k, routing, and the live cells' tagged entries.
    // Restoring under a different k cannot reinterpret the buffers — the
    // reader refuses the snapshot by name instead.
    w.begin_section(persist::kSecRetract);
    w.put_u64(static_cast<std::uint64_t>(retract_table_.k));
    w.put_bool(!retract_table_.empty());
    if (!retract_table_.empty()) {
      w.put_u32_vec(retract_table_.site_of);
      w.put_u64(retract_table_.num_vertices);
      w.put_u8_vec(retract_table_.counts);
      w.put_u64_vec(retract_table_.bounds);
      std::vector<std::uint32_t> senders;
      std::vector<std::uint64_t> bits;
      for (std::size_t cell = 0; cell < retract_table_.counts.size();
           ++cell) {
        const RetractEntry* e =
            &retract_table_.entries[cell * retract_table_.k];
        for (std::uint8_t j = 0; j < retract_table_.counts[cell]; ++j) {
          senders.push_back(e[j].sender);
          bits.push_back(e[j].bits);
        }
      }
      w.put_u32_vec(senders);
      w.put_u64_vec(bits);
    }
    w.end_section();
  }

  void restore_state(persist::SnapshotReader& r) {
    const auto bad = [](const char* what) {
      throw persist::SnapshotError(
          std::string("snapshot does not fit the restoring program: ") +
          what);
    };

    r.open(persist::kSecRunner);
    const std::size_t n = g_.num_vertices();
    if (r.get_u64() != stride_ || r.get_u64() != n)
      bad("vertex-state layout mismatch");
    if (r.get_u64() != n * stride_) bad("state array size mismatch");
    for (Value& v : state_) v = r.get_value();
    supersteps_ = static_cast<std::size_t>(r.get_u64());
    {
      const std::vector<std::uint64_t> iters = r.get_u64_vec();
      iterations_.assign(iters.begin(), iters.end());
    }
    converged_ = r.get_bool();
    init_done_ = r.get_bool();
    in_statement_ = r.get_bool();
    cur_stmt_ = static_cast<std::size_t>(r.get_u64());
    cur_iter_ = static_cast<std::size_t>(r.get_u64());
    if (cur_stmt_ >= prog_.stmts.size() && !converged_)
      bad("statement cursor out of range");
    r.close();

    r.open(persist::kSecEngine);
    DvEngine::Checkpoint c;
    c.num_vertices = n;
    c.superstep = static_cast<std::size_t>(r.get_u64());
    c.halted = r.get_u8_vec();
    c.deleted = r.get_u8_vec();
    if (c.halted.size() != n || c.deleted.size() != n)
      bad("engine flag arrays sized for a different graph");
    const std::uint32_t W = r.get_u32();
    if (W != static_cast<std::uint32_t>(options_.engine.num_workers))
      bad("engine worker count mismatch");
    c.queues.resize(W);
    for (auto& q : c.queues) q = r.get_u32_vec();
    c.pending.resize(W);
    for (auto& pend : c.pending) {
      // No up-front reserve: the count is snapshot data, and the getters
      // below throw on exhaustion long before push_back growth could.
      const std::uint64_t count = r.get_u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        const graph::VertexId dst = r.get_u32();
        DvMessage m;
        m.payload = r.get_value();
        m.nulls = r.get_i32();
        m.denulls = r.get_i32();
        m.site = r.get_u8();
        m.wire = r.get_u8();
        if (m.site >= prog_.sites.size())
          bad("pending message addressed to an unknown aggregation site");
        pend.emplace_back(dst, m);
      }
    }
    // get_records bounds the declared length by the section before the
    // record is read; any length but kStatsTotalsBytes is refused.
    const persist::SnapshotReader::Records rec = r.get_records(1);
    if (rec.count != kStatsTotalsBytes)
      throw persist::SnapshotError(
          "snapshot section 'ENGN' holds a " + std::to_string(rec.count) +
          "-byte stats totals record; this build reads " +
          std::to_string(kStatsTotalsBytes) + "-byte records");
    const std::uint8_t* p = rec.data;
    pregel::SuperstepStats& t = c.totals;
    t.messages_sent = persist::le::get_u64(p);
    t.messages_delivered = persist::le::get_u64(p);
    t.messages_dropped = persist::le::get_u64(p);
    t.bytes_sent = persist::le::get_u64(p);
    t.bytes_delivered = persist::le::get_u64(p);
    t.cross_machine_bytes = persist::le::get_u64(p);
    t.active_vertices = persist::le::get_u64(p);
    t.vertices_halted = persist::le::get_u64(p);
    t.vertices_woken = persist::le::get_u64(p);
    t.compute_seconds = persist::le::get_f64(p);
    t.exchange_seconds = persist::le::get_f64(p);
    t.sim_comm_seconds = persist::le::get_f64(p);
    r.close();
    for (std::uint32_t w = 0; w < W; ++w) {
      for (const graph::VertexId v : c.queues[w])
        if (v >= n) bad("work-queue entry out of range");
      for (const auto& [dst, m] : c.pending[w])
        if (dst >= n) bad("pending message destination out of range");
    }
    engine_->restore(std::move(c));

    r.open(persist::kSecRetract);
    const std::uint64_t snap_k = r.get_u64();
    if (snap_k != retract_table_.k)
      throw persist::SnapshotError(
          "snapshot was written with minmax_memo_k=" +
          std::to_string(snap_k) + " but this session runs minmax_memo_k=" +
          std::to_string(retract_table_.k) +
          "; k-best buffers cannot be reinterpreted across capacities");
    const bool live = r.get_bool();
    if (live != !retract_table_.empty())
      bad("retraction-memo routing mismatch");
    if (live) {
      if (r.get_u32_vec() != retract_table_.site_of)
        bad("retraction-memo site routing mismatch");
      if (r.get_u64() != n)
        bad("retraction memo sized for a different graph");
      retract_table_.reset(n);
      const std::vector<std::uint8_t> counts = r.get_u8_vec();
      const std::vector<std::uint64_t> bounds = r.get_u64_vec();
      if (counts.size() != retract_table_.counts.size() ||
          bounds.size() != retract_table_.bounds.size())
        bad("retraction-memo cell arrays sized for a different graph");
      const std::vector<std::uint32_t> senders = r.get_u32_vec();
      const std::vector<std::uint64_t> bits = r.get_u64_vec();
      std::size_t total = 0;
      for (const std::uint8_t cnt : counts) {
        if (cnt > retract_table_.k) bad("retraction-memo count exceeds k");
        total += cnt;
      }
      if (senders.size() != total || bits.size() != total)
        bad("retraction-memo entry list inconsistent with cell counts");
      retract_table_.counts = counts;
      retract_table_.bounds = bounds;
      std::size_t at = 0;
      for (std::size_t cell = 0; cell < counts.size(); ++cell) {
        RetractEntry* e = &retract_table_.entries[cell * retract_table_.k];
        for (std::uint8_t j = 0; j < counts[cell]; ++j, ++at)
          e[j] = RetractEntry{senders[at], bits[at]};
      }
    }
    r.close();
  }

 private:
  /// Post-step drain of the lock-free fold path: walks every lane's
  /// two-level frontier (for_each_marked), applies each marked (vertex,
  /// site) pending slot into the aggAccum field via the same apply_delta a
  /// buffered delivery runs, and wakes the vertex. The application is
  /// UNCONDITIONAL — a marked slot still holding identity bits corresponds
  /// to a buffered combined-to-identity message, which is also applied and
  /// also wakes its receiver (bit-exactness: −0.0 + 0.0 must land as +0.0
  /// on both paths). Deleted vertices get their slot reset but neither
  /// apply nor wake, mirroring the engine's message drop. Runs
  /// single-threaded between supersteps; `activate` selects engine wake-up
  /// (stepping) vs the epoch's wake_ frontier (apply_epoch marks wake_ at
  /// fold time already, so false there).
  void drain_atomic(bool activate) {
    if (atomic_table_.empty()) return;
    std::uint64_t folds = 0;
    for (AtomicFoldLane& lane : atomic_lanes_) {
      folds += lane.folds;
      lane.folds = 0;
    }
    atomic_folds_last_step_ = folds;
    atomic_folds_total_ += folds;
    if (obs::Collector* const col = obs::resolve(options_.collector))
      col->metrics.shard(0).add(obs::Counter::kAtomicFolds, folds);
    for_each_marked(atomic_lanes_, [&](int c, graph::VertexId v) {
      const Value pending = atomic_table_.take(v, c);
      if (engine_->is_deleted(v)) return;
      const AggSite& site = prog_.sites[static_cast<std::size_t>(
          atomic_col_site_[static_cast<std::size_t>(c)])];
      AccumRef ref;
      ref.acc = &fields_of(v)[static_cast<std::size_t>(site.acc_slot)];
      apply_delta(site.op, site.elem_type, ref, pending, 0, 0);
      if (activate) engine_->activate(v);
    });
  }

  /// Post-step drain of the retraction-memo records (DESIGN.md §11).
  /// Gathers every lane's records (RetractDrainOrder), applies them in
  /// canonical (dst, col, sender) order — deterministic across schedules
  /// and bit-identical across tiers — and rewrites accumulators from the
  /// memo where the extremum may have risen. In step mode (`activate`) only kWorsened
  /// cells are rewritten: improvements already arrived through the normal
  /// fold paths, and rewriting them too would trade bit patterns between
  /// paths for no information. In epoch mode every touched cell is
  /// rewritten, because Phase B routed these sites' deltas here instead
  /// of through apply_direct. Underflown cells (all k survivors
  /// retracted) take a targeted re-fold of that one vertex's
  /// in-neighborhood — never a whole-graph restart.
  void drain_retract(bool activate) {
    if (retract_table_.empty()) return;
    retract_changes_last_step_ = 0;
    retract_order_.gather(memo_lanes_, retract_table_.columns(),
                          retract_table_.counts.size(), retract_scratch_);
    if (retract_scratch_.empty()) return;
    std::uint64_t retractions = 0, refolds = 0, underflows = 0;
    std::size_t i = 0;
    while (i < retract_scratch_.size()) {
      const graph::VertexId dst = retract_scratch_[i].dst;
      const std::uint32_t col = retract_scratch_[i].col;
      bool worsened = false;
      bool touched = false;
      for (; i < retract_scratch_.size() &&
             retract_scratch_[i].dst == dst && retract_scratch_[i].col == col;
           ++i) {
        const auto ap = retract_table_.apply(dst, static_cast<int>(col),
                                             retract_scratch_[i].sender,
                                             retract_scratch_[i].bits);
        if (ap == RetractMemoTable::Applied::kWorsened) {
          worsened = true;
          ++retractions;
        }
        if (ap != RetractMemoTable::Applied::kUntouched) touched = true;
      }
      if (engine_->is_deleted(dst)) continue;
      if (activate ? !worsened : !touched) continue;
      std::uint64_t acc_bits = 0;
      if (retract_table_.query(dst, static_cast<int>(col), &acc_bits) ==
          RetractMemoTable::CellState::kUnderflow) {
        ++underflows;
        refold_cell(dst, static_cast<int>(col));
        ++refolds;
        const auto st =
            retract_table_.query(dst, static_cast<int>(col), &acc_bits);
        DV_CHECK_MSG(st == RetractMemoTable::CellState::kExact,
                     "retraction memo still underflown after refold");
      }
      const AggSite& site = prog_.sites[static_cast<std::size_t>(
          retract_table_.site_of[col])];
      Value& acc =
          fields_of(dst)[static_cast<std::size_t>(site.acc_slot)];
      if (atomic_fold_bits(site.elem_type, acc) == acc_bits) continue;
      acc = atomic_fold_value(site.elem_type, acc_bits);
      ++retract_changes_last_step_;
      if (activate) {
        engine_->activate(dst);
      } else {
        ++deltas_applied_;
        mark_wake(dst);
      }
    }
    minmax_retractions_total_ += retractions;
    minmax_refolds_total_ += refolds;
    minmax_underflows_total_ += underflows;
    if (obs::Collector* const col = obs::resolve(options_.collector)) {
      auto& sh = col->metrics.shard(0);
      sh.add(obs::Counter::kMinmaxRetractions, retractions);
      sh.add(obs::Counter::kMinmaxRefolds, refolds);
      sh.add(obs::Counter::kMinmaxUnderflows, underflows);
    }
  }

  /// Targeted underflow repair: re-evaluate what every in-neighbor last
  /// contributed into (dst, col) (last_folded) and rebuild the cell from
  /// the complete list.
  void refold_cell(graph::VertexId dst, int col) {
    const AggSite& site = prog_.sites[static_cast<std::size_t>(
        retract_table_.site_of[static_cast<std::size_t>(col)])];
    const auto [srcs, weights] = push_targets(site, dst, /*reverse=*/true);
    EvalContext ctx = make_ctx(0);
    ctx.has_vertex = true;
    refold_scratch_.clear();
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      const graph::VertexId u = srcs[i];
      if (engine_->is_deleted(u)) continue;
      ctx.vertex = u;
      ctx.fields = fields_of(u);
      std::copy(scratch_defaults_.begin(), scratch_defaults_.end(),
                ctx.scratch.begin());
      ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[i];
      refold_scratch_.push_back(
          {static_cast<std::uint32_t>(u),
           atomic_fold_bits(site.elem_type, last_folded(site, ctx))});
    }
    retract_table_.rebuild(dst, col, refold_scratch_.data(),
                           refold_scratch_.size());
  }

  /// What a receiver last folded from the sender in `ctx`, over the arc
  /// whose weight is ctx.cur_edge_weight: the ε-gated last-sent slot when
  /// the site has one, else the (possibly per-edge) send expression,
  /// which for bound sites reads the memoized sent_k field.
  Value last_folded(const AggSite& site, EvalContext& ctx) {
    if (site.last_sent_slot >= 0)
      return ctx.fields[static_cast<std::size_t>(site.last_sent_slot)];
    return eval_root(site_sent_chunk_[static_cast<std::size_t>(site.id)],
                     *site.send_expr, ctx)
        .coerce(site.elem_type);
  }

  /// Adds `v` to the epoch wake frontier exactly once (bitmap dedup).
  void mark_wake(graph::VertexId v) {
    if (wake_[v]) return;
    wake_[v] = 1;
    wake_list_.push_back(v);
  }

  /// Applies a synthesized Δ-message synchronously into the receiver's
  /// accumulator slots (Eq. 8/9) — the epoch-start equivalent of the
  /// fold's per-message apply_delta — and marks it for wake-up. Routed
  /// sites park in the pending slots the superstep path uses (one code
  /// path, one semantics); the epoch's drain_atomic(false) applies them
  /// after Phase B.
  void apply_direct(graph::VertexId dst, const DvMessage& m) {
    ++deltas_applied_;
    mark_wake(dst);
    if (router(0).fold(site_routes_[m.site].fold_col, {&dst, 1}, m)) return;
    const AggSite& site = prog_.sites[m.site];
    const auto fields = fields_of(dst);
    AccumRef ref;
    ref.acc = &fields[static_cast<std::size_t>(site.acc_slot)];
    if (site.multiplicative()) {
      ref.nn = &fields[static_cast<std::size_t>(site.nn_slot)];
      ref.nulls = &fields[static_cast<std::size_t>(site.nulls_slot)];
    }
    apply_delta(site.op, site.elem_type, ref, m.payload, m.nulls, m.denulls);
  }

  /// SendSink that short-circuits the engine: messages land in receiver
  /// state immediately, so none is buffered. Used for epoch-start
  /// synthesis only (push_first of added vertices routes through it, with
  /// `sender` the vertex being initialized).
  class ApplySink : public SendSink {
   public:
    explicit ApplySink(Impl* runner) : runner_(runner) {}
    std::uint64_t send(graph::VertexId dst, const DvMessage& msg) override {
      const MemoColumn& memo = runner_->site_routes_[msg.site].memo;
      if (!runner_->recorder(0).record(memo, {&dst, 1}, sender, msg))
        runner_->apply_direct(dst, msg);
      return 0;
    }
    graph::VertexId sender = 0;

   private:
    Impl* runner_;
  };

  /// The fold-path router for worker lane `w`; routes nothing when every
  /// site is buffered.
  FoldRouter router(std::size_t w) {
    if (atomic_table_.empty()) return {};
    return {&atomic_table_, &atomic_lanes_[w]};
  }

  /// The retraction-memo recorder for worker lane `w`; records nothing
  /// when no site is memoized.
  MemoRecorder recorder(std::size_t w) {
    if (retract_table_.empty()) return {};
    return {&retract_table_, &memo_lanes_[w]};
  }

  /// The stored-arc span a site's push sends traverse from `v`; with
  /// `reverse`, the arcs whose pushes land on `v` (its senders).
  std::pair<std::span<const graph::VertexId>, std::span<const double>>
  push_targets(const AggSite& site, graph::VertexId v,
               bool reverse = false) const {
    const bool in =
        (push_direction(site.pull_dir) == GraphDir::kIn) != reverse;
    if (in) return {g_.in_neighbors(v), g_.in_weights(v)};
    return {g_.out_neighbors(v), g_.out_weights(v)};
  }

  /// The chunk a runner-visible root was lowered to; -1 for no root or
  /// on the tree tier.
  int chunk_of(const Expr* root) const {
    if (!vm_ || root == nullptr) return -1;
    const int id = vm_->program().chunk_of(*root);
    DV_CHECK_MSG(id >= 0, "expression was not lowered as a VM root");
    return id;
  }

  /// Runs chunk `id` on the compiled tier chosen at construction.
  Value run_chunk(int id, EvalContext& ctx) const {
    return run_chunk_(*this, id, ctx);
  }

  /// Evaluates root `e`, whose chunk is `chunk`, on the selected tier.
  Value eval_root(int chunk, const Expr& e, EvalContext& ctx) const {
    return chunk >= 0 ? run_chunk(chunk, ctx) : eval(e, ctx);
  }

  void validate() {
    for (const AggSite& site : prog_.sites) {
      if (site.is_channel()) continue;
      if (site.pull_dir == GraphDir::kNeighbors && g_.directed())
        DV_FAIL("program aggregates over #neighbors but the graph is "
                "directed; use #in/#out");
    }
    if (!options_.deletions.empty()) {
      bool any_remote = false;
      for (const Stmt& stmt : prog_.stmts)
        any_remote = any_remote || !stmt.phases.empty() ||
                     expr_contains(*stmt.body, ExprKind::kRemoteRead);
      for (const AggSite& site : prog_.sites)
        any_remote = any_remote || site.is_channel();
      DV_CHECK_MSG(!any_remote,
                   "scheduled vertex deletions cannot run with remote "
                   "reads: a deleted owner cannot answer requests");
    }
    for (const Param& p : prog_.params)
      DV_CHECK_MSG(options_.params.count(p.name) == 1,
                   "missing program parameter '" << p.name << "'");
    for (const VertexDeletion& d : options_.deletions) {
      DV_CHECK_MSG(d.stmt_index < prog_.stmts.size(),
                   "deletion statement index out of range");
      DV_CHECK_MSG(d.iteration >= 1, "deletion iteration is 1-based");
      for (auto v : d.vertices)
        DV_CHECK_MSG(v < g_.num_vertices(),
                     "deleted vertex " << v << " out of range");
      if (!cp_.options.incrementalize) continue;
      for (const AggSite& site : prog_.sites) {
        if (site.stmt_index != static_cast<int>(d.stmt_index)) continue;
        DV_CHECK_MSG(!is_idempotent(site.op),
                     "vertex deletion cannot retract a "
                         << agg_op_name(site.op)
                         << " contribution (min/max accumulators cannot "
                            "forget); see §9 of the paper");
      }
    }
  }

  /// Broadcasts the §9 retraction for every site of statement `si`: a
  /// Δ-message taking this vertex's last-sent contribution to the
  /// aggregation identity. Runs in place of the victim's body; out of
  /// line, like note_changed, so the per-vertex compute path keeps its
  /// shape.
  [[gnu::noinline]] void send_retractions(EvalContext& ctx, graph::VertexId v,
                        std::size_t si) {
    for (const AggSite& site : prog_.sites) {
      if (site.is_channel()) continue;  // validate() bans deletions with
      // remote reads; belt-and-braces against a null send_expr deref
      if (site.stmt_index != static_cast<int>(si)) continue;
      const auto [targets, weights] = push_targets(site, v);
      const Value identity = agg_identity(site.op, site.elem_type);
      const auto wire = site_wire_[static_cast<std::size_t>(site.id)];
      for (std::size_t i = 0; i < targets.size(); ++i) {
        ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[i];
        const DeltaPayload d = synthesize_delta(
            site.op, site.elem_type, last_folded(site, ctx), identity);
        if (!d.noop)
          ctx.sink->send(targets[i], delta_message(site.id, wire, d));
      }
    }
  }

  /// Per-field initial values: compiler-added fields have runtime-defined
  /// initial values; user fields are initialized by the init block.
  std::vector<Value> compiler_field_defaults() const {
    std::vector<Value> defaults(stride_);
    for (std::size_t fi = 0; fi < stride_; ++fi) {
      const Field& f = prog_.fields[fi];
      switch (f.origin) {
        case Field::Origin::kAccumulator:
        case Field::Origin::kNnAcc: {
          const AggSite& site =
              prog_.sites[static_cast<std::size_t>(f.site)];
          defaults[fi] = agg_identity(site.op, site.elem_type);
          break;
        }
        case Field::Origin::kNullCount:
          defaults[fi] = Value::of_int(0);
          break;
        case Field::Origin::kLastSent: {
          const AggSite& site =
              prog_.sites[static_cast<std::size_t>(f.site)];
          defaults[fi] = agg_identity(site.op, site.elem_type);
          break;
        }
        case Field::Origin::kUser:
        case Field::Origin::kSentBinding: {
          Value zero;
          switch (f.type) {
            case Type::kFloat: zero = Value::of_float(0.0); break;
            case Type::kBool: zero = Value::of_bool(false); break;
            default: zero = Value::of_int(0); break;
          }
          defaults[fi] = zero;
          break;
        }
      }
    }
    return defaults;
  }

  void init_compiler_fields() {
    const std::vector<Value> defaults = compiler_field_defaults();
    for (std::size_t v = 0; v < g_.num_vertices(); ++v)
      std::copy(defaults.begin(), defaults.end(),
                state_.begin() + static_cast<std::ptrdiff_t>(v * stride_));
  }

  void bind_params() {
    params_.reserve(prog_.params.size());
    for (const Param& p : prog_.params) {
      const Value& v = options_.params.at(p.name);
      params_.push_back(v.coerce(p.type));
    }
  }

  void compute_site_wires() {
    const bool multi_site = prog_.sites.size() > 1;
    for (const AggSite& site : prog_.sites) {
      std::size_t bytes = type_wire_bytes(site.elem_type);
      if (multi_site) bytes += 1;  // site id rides along
      if (cp_.options.incrementalize && site.multiplicative() &&
          !site.is_channel())
        bytes += 1;  // §6.4.1 transition tags (never on whole-value
                     // request/reply payloads)
      site_wire_.push_back(static_cast<std::uint8_t>(bytes));
    }
  }

  /// Fills send_per_edge_ and folded_per_edge_: whether a site's send, or
  /// what its receivers last folded, can differ from arc to arc.
  void compute_site_edge_use() {
    for (const AggSite& site : prog_.sites) {
      if (site.is_channel()) {
        send_per_edge_.push_back(0);
        folded_per_edge_.push_back(0);
        continue;
      }
      const Expr& original =
          site.init_send_expr ? *site.init_send_expr : *site.send_expr;
      send_per_edge_.push_back(uses_edge_weight(original));
      folded_per_edge_.push_back(site.last_sent_slot < 0 &&
                                 uses_edge_weight(*site.send_expr));
    }
  }

  EvalContext make_ctx(int worker) {
    EvalContext ctx;
    ctx.prog = &prog_;
    ctx.graph = &g_;
    ctx.params = params_;
    ctx.site_wire = &site_wire_;
    ctx.record_sites = record_sites_;
    ctx.scratch = worker_scratch_[static_cast<std::size_t>(worker)];
    return ctx;
  }

  std::span<Value> fields_of(graph::VertexId v) {
    return {state_.data() + static_cast<std::size_t>(v) * stride_, stride_};
  }

  /// True if evaluating `e` can read ctx.cur_edge_weight — the only way a
  /// send payload can vary across the target span (expressions are pure).
  static bool uses_edge_weight(const Expr& e) {
    if (e.kind == ExprKind::kEdgeWeight) return true;
    for (const ExprPtr& k : e.kids)
      if (k && uses_edge_weight(*k)) return true;
    return false;
  }

  /// Pushes the initial full values for all sites of statement `si` from
  /// vertex `v` (the §6.1 "first superstep" sends), storing bound-field
  /// values so later Δ computations see what was actually sent.
  void push_first(EvalContext& ctx, graph::VertexId v, std::size_t si) {
    for (const AggSite& site : prog_.sites) {
      if (site.is_channel()) continue;  // channels have no initial push:
      // requests are re-issued from scratch every iteration
      if (site.stmt_index != static_cast<int>(si)) continue;
      const auto [targets, weights] = push_targets(site, v);
      const Expr& expr =
          site.init_send_expr ? *site.init_send_expr : *site.send_expr;
      const int send_chunk =
          site_send_chunk_[static_cast<std::size_t>(site.id)];
      const auto eval_send = [&](EvalContext& c) {
        return eval_root(send_chunk, expr, c);
      };
      const auto wire = site_wire_[static_cast<std::size_t>(site.id)];
      // The first send of `v0`: a first Δ for ΔV, the full value for ΔV*
      // (whose identity payloads are fold no-ops).
      const auto first = [&](const Value& v0) {
        if (cp_.options.incrementalize)
          return synthesize_first(site.op, site.elem_type, v0);
        DeltaPayload d;
        d.value = v0;
        d.noop = is_identity(site.op, v0);
        return d;
      };
      Value bound{};
      bool bound_set = false;
      if (!targets.empty() &&
          (weights.empty() ||
           !send_per_edge_[static_cast<std::size_t>(site.id)])) {
        // Edge-invariant payload (the common case — PageRank/HITS seed
        // their rank over the whole span): evaluate once, broadcast or
        // skip once. Purity makes this message-identical to the per-edge
        // loop below.
        ctx.cur_edge_weight =
            weights.empty() ? 1.0 : weights[targets.size() - 1];
        const Value v0 = eval_send(ctx).coerce(site.elem_type);
        if (site.bound_field >= 0) {
          bound = v0;
          bound_set = true;
        }
        const DeltaPayload d = first(v0);
        if (!d.noop)
          ctx.sink->send_span(targets, delta_message(site.id, wire, d));
      } else {
        for (std::size_t i = 0; i < targets.size(); ++i) {
          ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[i];
          const Value v0 = eval_send(ctx).coerce(site.elem_type);
          if (site.bound_field >= 0 && !bound_set) {
            bound = v0;
            bound_set = true;
          }
          const DeltaPayload d = first(v0);
          if (d.noop) continue;
          ctx.sink->send(targets[i], delta_message(site.id, wire, d));
        }
      }
      if (site.bound_field >= 0) {
        // Record what this vertex's neighbors now believe its value is.
        if (!bound_set) {
          ctx.cur_edge_weight = 1.0;
          bound = eval_send(ctx).coerce(site.elem_type);
        }
        ctx.fields[static_cast<std::size_t>(site.bound_field)] = bound;
        if (site.last_sent_slot >= 0)
          ctx.fields[static_cast<std::size_t>(site.last_sent_slot)] = bound;
      } else if (site.last_sent_slot >= 0) {
        ctx.cur_edge_weight = 1.0;
        ctx.fields[static_cast<std::size_t>(site.last_sent_slot)] =
            eval_send(ctx).coerce(site.elem_type);
      }
    }
  }

  void run_init_superstep() {
    run_priming_step([&](EvalContext& ctx, graph::VertexId v) {
      eval_root(init_chunk_, *prog_.init, ctx);
      push_first(ctx, v, 0);
      // No halt: statement 0's first superstep must run on every vertex.
    });
  }

  void run_transition(std::size_t next_si) {
    engine_->activate_all();
    bool has_sites = false;
    for (const AggSite& site : prog_.sites)
      has_sites = has_sites || (!site.is_channel() &&
                                site.stmt_index == static_cast<int>(next_si));
    if (!has_sites) return;  // nothing to prime; vertices are awake
    run_priming_step([&](EvalContext& ctx, graph::VertexId v) {
      push_first(ctx, v, next_si);
    });
  }

  /// One superstep of per-vertex priming work (init block, push_first)
  /// on the same per-worker lanes as run_statement's hot loop.
  template <typename PerVertex>
  void run_priming_step(PerVertex&& per_vertex) {
    std::vector<WorkerLane> lanes = make_lanes();
    engine_->step([&](DvEngine::Context& ectx, graph::VertexId v,
                      std::span<const DvMessage>) {
      per_vertex(enter(lanes, ectx, v, {}), v);
    });
    ++supersteps_;
    drain_atomic(/*activate=*/true);
    drain_retract(/*activate=*/true);
  }

  /// Per-worker evaluation state. Cache-line aligned: the context's
  /// per-vertex fields are rewritten millions of times from distinct
  /// threads, and packing them back-to-back would false-share across
  /// workers.
  struct alignas(64) WorkerLane {
    EngineSink sink;
    EvalContext ctx;
  };

  /// One lane per engine worker, built once per superstep loop: the
  /// context is bound to the worker's scratch and metrics shard, and the
  /// sink to its fold-router and memo-recorder lanes, so the per-vertex
  /// work (enter) is only the vertex-varying views.
  std::vector<WorkerLane> make_lanes() {
    const std::size_t W = worker_scratch_.size();
    obs::Collector* const col = obs::resolve_for(options_.collector, W);
    std::vector<WorkerLane> lanes(W);
    for (std::size_t w = 0; w < W; ++w) {
      EvalContext& c = lanes[w].ctx;
      c = make_ctx(static_cast<int>(w));
      c.sink = &lanes[w].sink;
      c.has_vertex = true;
      c.obs = col ? &col->metrics.shard(w) : nullptr;
      lanes[w].sink.route(site_routes_.data(), router(w), recorder(w));
    }
    return lanes;
  }

  /// Points the computing worker's lane at vertex `v` and resets its
  /// per-vertex out-flags and scratch.
  EvalContext& enter(std::vector<WorkerLane>& lanes, DvEngine::Context& ectx,
                     graph::VertexId v, std::span<const DvMessage> msgs) {
    WorkerLane& lane = lanes[static_cast<std::size_t>(ectx.worker())];
    lane.sink.bind(&ectx, &options_.send_probe);
    EvalContext& ctx = lane.ctx;
    ctx.vertex = v;
    ctx.fields = fields_of(v);
    ctx.msgs = msgs;
    ctx.halt_requested = false;
    ctx.any_field_assign = false;
    std::copy(scratch_defaults_.begin(), scratch_defaults_.end(),
              ctx.scratch.begin());
    return ctx;
  }

  /// Evaluates statement `si`'s until clause globally (no vertex context).
  bool eval_until(std::size_t si, std::int64_t iter, bool stable) {
    EvalContext ctx = make_ctx(0);
    ctx.has_vertex = false;
    ctx.iter = iter;
    ctx.stable = stable;
    std::copy(scratch_defaults_.begin(), scratch_defaults_.end(), ctx.scratch.begin());
    return eval_root(until_chunk_[si], *prog_.stmts[si].until, ctx).as_b();
  }

  /// Arms `victims_` for deletions scheduled at (statement, iteration).
  /// ΔV victims are woken so they can broadcast retractions during the
  /// superstep; ΔV* victims are simply removed up front (their
  /// contribution vanishes because non-memoized folds only see what
  /// arrives each superstep).
  void prepare_deletions(std::size_t si, std::size_t iter) {
    victims_.clear();
    for (const VertexDeletion& d : options_.deletions) {
      if (d.stmt_index != si || d.iteration != iter) continue;
      if (cp_.options.incrementalize) {
        if (victims_.empty()) victims_.assign(g_.num_vertices(), 0);
        for (auto v : d.vertices) {
          victims_[v] = 1;
          engine_->activate(v);
        }
      } else {
        for (auto v : d.vertices) engine_->mark_deleted(v);
      }
    }
  }

  std::uint64_t sites_mask_of(std::size_t si) const {
    std::uint64_t mask = 0;
    for (const AggSite& site : prog_.sites)
      if (!site.is_channel() && site.stmt_index == static_cast<int>(si))
        mask |= 1ULL << site.id;
    // Channel traffic is never last-execution suppressed: even the final
    // iteration's consume superstep folds that iteration's replies.
    return mask;
  }

  /// True when every aggregation site in the `sites` mask folds through
  /// the atomic table, bypassing the message pipeline.
  bool all_fold_atomically(std::uint64_t sites) {
    const FoldRouter r = router(0);
    if (r.table == nullptr) return false;
    for (const AggSite& site : prog_.sites)
      if ((sites >> site.id & 1) && r.column(site.id) < 0) return false;
    return true;
  }

  void run_statement(std::size_t si, std::size_t start_iter = 0) {
    const Stmt& stmt = prog_.stmts[si];
    const bool is_iter = stmt.kind == Stmt::Kind::kIter;
    const bool stable_until = is_iter && uses_stable(*stmt.until);
    const std::uint64_t own_sites = sites_mask_of(si);
    const bool has_phases = !stmt.phases.empty();
    const bool ref_remote =
        !has_phases && expr_contains(*stmt.body, ExprKind::kRemoteRead);
    // Remote statements carry only channel traffic, and the consume
    // superstep (the one the quiescence probe below observes) sends
    // nothing; `stable` then hinges entirely on the assignment aggregator.
    const bool msgless_stmt = has_phases || ref_remote;
    // Exchange-free: an iterated body with no request/reply phases or
    // reference remote reads whose every own site folds atomically, so
    // its rounds leave nothing to exchange and small ones run inline.
    // Correctness never rests on this: an inline round still exchanges
    // any fallback message.
    const bool exchange_free =
        is_iter && !msgless_stmt && all_fold_atomically(own_sites);
    const std::uint64_t inline_cap = std::max<std::uint64_t>(
        kInlineFrontierFloor, g_.num_vertices() / kInlineFrontierShare);

    // The superstep cap is per statement *run*, so streaming epochs get a
    // fresh budget instead of exhausting a cumulative one.
    const std::size_t steps_base = supersteps_;
    std::size_t iter = start_iter;  // nonzero only when resuming a restore

    // Hot-loop state hoisted out of the superstep loop: contexts are
    // built once per worker per *statement*; iteration-varying fields
    // (iter, suppression mask) are patched in place between supersteps,
    // and the per-vertex work is only the vertex-varying views and
    // out-flags.
    const int body_chunk = body_chunk_[si];
    // Reference interpretation: kRemoteRead reads the *iteration-start*
    // field matrix, so the loop below snapshots state_ before every body
    // superstep and every lane reads through the same buffer.
    std::vector<Value> ref_snapshot;
    if (ref_remote) ref_snapshot.resize(state_.size());
    std::vector<WorkerLane> lanes = make_lanes();
    if (ref_remote) {
      for (WorkerLane& lane : lanes) {
        lane.ctx.prev_state = ref_snapshot.data();
        lane.ctx.prev_stride = stride_;
      }
    }
    const auto set_iteration = [&](std::size_t it, std::uint64_t suppress) {
      for (WorkerLane& lane : lanes) {
        lane.ctx.iter = static_cast<std::int64_t>(it);
        lane.ctx.suppress_sites = suppress;
      }
    };
    // Non-null during a request/reply superstep of a remote statement: the
    // compute below evaluates it on the tree walker (phases are never VM-
    // or native-lowered — they are two sends and a message loop, nothing
    // hot) instead of the body.
    const Expr* phase_expr = nullptr;
    const auto compute = [&](DvEngine::Context& ectx, graph::VertexId v,
                             std::span<const DvMessage> msgs) {
      EvalContext& ctx = enter(lanes, ectx, v, msgs);
      if (phase_expr != nullptr) {
        eval(*phase_expr, ctx);
        return;
      }
      if (!victims_.empty() && victims_[v]) {
        // §9: retract this vertex's contributions, then leave for good.
        send_retractions(ctx, v, si);
        engine_->mark_deleted(v);
        return;
      }
      eval_root(body_chunk, *stmt.body, ctx);
      if (ctx.halt_requested) ectx.vote_to_halt();
      if (ctx.any_field_assign) {
        assign_agg_->contribute(ectx.worker(), true);
        if (tracking_) note_changed(ectx.worker(), v);
      }
    };

    for (;;) {
      ++iter;
      // Scheduled vertex removals for this (statement, iteration).
      prepare_deletions(si, iter);
      // Send suppression: if this superstep is provably the statement's
      // last execution, its own-site sends could never be folded. This
      // also covers mixed untils like `stable || i >= N`: evaluating with
      // stable=false under-approximates the condition (stable only occurs
      // positively in any sensible until), so a true result means the
      // statement ends here no matter what this superstep does.
      bool last_known = !is_iter;
      if (is_iter)
        last_known = eval_until(si, static_cast<std::int64_t>(iter),
                                /*stable=*/false);
      assign_agg_->reset();
      set_iteration(iter, last_known ? own_sites : 0);
      if (has_phases) {
        // One logical iteration = request superstep, reply superstep,
        // consume superstep. Owners cannot know which vertices will read
        // from them (targets are field-dependent), so every phase — and
        // the consume that folds the replies — runs on all vertices.
        for (const ExprPtr& ph : stmt.phases) {
          engine_->activate_all();
          phase_expr = ph.get();
          engine_->step(compute);
          ++supersteps_;
        }
        phase_expr = nullptr;
        engine_->activate_all();
      } else if (ref_remote) {
        // The reference interpretation reads arbitrary vertices' state
        // directly; there is no message flow to wake readers.
        engine_->activate_all();
      }
      if (ref_remote)
        std::copy(state_.begin(), state_.end(), ref_snapshot.begin());
      engine_->step(compute,
                    exchange_free && engine_->num_active() <= inline_cap);
      victims_.clear();
      ++supersteps_;
      drain_atomic(/*activate=*/true);
      drain_retract(/*activate=*/true);
      if (epoch_cap_abs_ != 0 && supersteps_ >= epoch_cap_abs_) {
        warm_aborted_ = true;
        break;
      }
      DV_CHECK_MSG(supersteps_ - steps_base <= options_.max_supersteps,
                   "superstep limit exceeded (non-terminating until?)");

      if (!is_iter) break;
      if (last_known) break;
      if (stable_until) {
        // Quiescence: nothing was sent, so no vertex can learn anything
        // new. For ΔV this is sufficient (bodies are idempotent under an
        // unchanged accumulator). ΔV* additionally requires that nothing
        // was assigned, because its non-memoized folds recompute from
        // whatever arrives each superstep. On the atomic path sends turn
        // into lock-free folds, so quiescence additionally requires that
        // no contribution was folded this superstep.
        const auto& last = engine_->stats().supersteps.back();
        const bool quiescent =
            last.messages_sent == 0 && atomic_folds_last_step_ == 0 &&
            retract_changes_last_step_ == 0 &&
            ((cp_.options.incrementalize && !msgless_stmt) ||
             !assign_agg_->reduce());
        if (eval_until(si, static_cast<std::int64_t>(iter), quiescent))
          break;
      }
      // Non-stable untils were pre-checked as last_known above; if the
      // condition first becomes true *at* this iteration count, the next
      // loop turn detects it before running another superstep.

      // Checkpoint hook: fires only once every break check has resolved to
      // "continue", so the saved cursor needs no quiescence or last-known
      // context — a resume simply re-enters this loop at iter + 1.
      if (checkpointing_ &&
          supersteps_ % options_.checkpoint_every == 0) {
        cur_iter_ = iter;
        options_.checkpoint_sink(supersteps_);
      }
    }
    // One entry per statement: a warm epoch re-runs statement 0, so it
    // replaces that entry rather than appending one per epoch.
    iterations_.resize(std::min(iterations_.size(), si));
    iterations_.push_back(iter);
  }

  DvRunResult collect_result() {
    DvRunResult r;
    r.stats = engine_->stats();
    r.supersteps = supersteps_;
    r.iterations = iterations_;
    r.atomic_folds = atomic_folds_total_;
    // Copied, not moved: the runner keeps executing (streaming epochs
    // snapshot the state after every batch).
    r.state = state_;
    for (const Field& f : prog_.fields) r.fields.push_back(f);
    r.num_vertices = g_.num_vertices();
    r.tier_used = native_   ? ExecTier::kNative
                  : vm_     ? ExecTier::kVm
                            : ExecTier::kTree;
    r.native_fallback = native_fallback_;
    return r;
  }

  const CompiledProgram& cp_;
  const Program& prog_;
  graph::GraphView g_;
  DvRunOptions options_;

  std::size_t stride_ = 0;
  std::vector<Value> state_;
  std::vector<Value> params_;
  std::vector<Value> scratch_defaults_;
  std::vector<std::uint8_t> site_wire_;
  // Per site.id, from uses_edge_weight: can the original send expression
  // (send_per_edge_) or last_folded (folded_per_edge_) vary across a
  // sender's target span? When not, the epoch path and push_first
  // evaluate it once per (sender, site) instead of once per arc.
  std::vector<std::uint8_t> send_per_edge_;
  std::vector<std::uint8_t> folded_per_edge_;
  std::vector<std::vector<Value>> worker_scratch_;
  std::unique_ptr<DvEngine> engine_;
  std::unique_ptr<Vm> vm_;  // null on the tree tier
  // The native unit of vm_'s chunks (null unless --tier=native loaded).
  std::shared_ptr<native::NativeProgram> native_;
  // The compiled tier's chunk entry, chosen once in the ctor: the native
  // unit's function when it loaded, else the VM (null on the tree tier).
  Value (*run_chunk_)(const Impl&, int, EvalContext&) = nullptr;
  // Root chunk ids (-1 on the tree tier): init, per statement body and
  // until, and per site.id the original send expression (init_send_expr
  // when set) and send_expr, what a receiver last folded.
  int init_chunk_ = -1;
  std::vector<int> body_chunk_, until_chunk_;
  std::vector<int> site_send_chunk_, site_sent_chunk_;
  std::vector<SiteRoute> site_routes_;  // per site.id; the sinks' routes
  std::string native_fallback_;  // why --tier=native ran on the VM
  std::unique_ptr<pregel::OrAggregator> assign_agg_;
  // Remote-read shape, computed once in the ctor: any kRequest/kReply
  // channel site (lowered mode) / any kRemoteRead left in a body
  // (reference mode, tree tier only).
  bool has_channels_ = false;
  bool reference_remote_ = false;
  std::size_t supersteps_ = 0;
  std::vector<std::size_t> iterations_;
  std::vector<std::uint8_t> victims_;
  bool converged_ = false;
  // Resumable-execution cursor (dv/persist): which statement run() is in
  // and how many body supersteps it has completed. All-zero on a fresh
  // runner; restore_state() sets it so run() re-enters the interrupted
  // statement. in_statement_ distinguishes "priming superstep already ran"
  // from "transition still pending" for cur_stmt_.
  bool init_done_ = false;
  bool in_statement_ = false;
  std::size_t cur_stmt_ = 0;
  std::size_t cur_iter_ = 0;
  bool checkpointing_ = false;  // armed only inside run()
  // Epoch scratch: the wake frontier (bitmap for dedup + list so waking
  // never scans the full vertex range), the Δ-application counter, and
  // the Phase A old-contribution lists, indexed [site][touched position]
  // and capacity-reused across epochs.
  std::vector<std::uint8_t> wake_;
  std::vector<graph::VertexId> wake_list_;
  std::vector<std::vector<std::vector<std::pair<graph::VertexId, Value>>>>
      epoch_olds_;
  std::size_t deltas_applied_ = 0;
  // Lock-free fold path (atomic_fold.h): the shared pending-slot table,
  // one frontier-bitmap lane per worker, and the column → site map the
  // drain uses to find accumulator slots. Empty when every site is
  // buffered.
  AtomicFoldTable atomic_table_;
  std::vector<AtomicFoldLane> atomic_lanes_;
  std::vector<int> atomic_col_site_;
  std::uint64_t atomic_folds_total_ = 0;      // since construction
  std::uint64_t atomic_folds_last_step_ = 0;  // quiescence extension
  // Retraction-memo path (streaming/retract/retract_memo.h): the k-best
  // tournament table, one record lane per worker, drain/refold scratch,
  // and the Class B runtime guard state. Empty/zero when minmax_memo_k is
  // 0 or no site qualifies — every hot-path hook is then one null test.
  RetractMemoTable retract_table_;
  std::vector<RetractLane> memo_lanes_;
  std::vector<RetractRecord> retract_scratch_;
  RetractDrainOrder retract_order_;
  std::vector<RetractEntry> refold_scratch_;
  std::uint64_t record_sites_ = 0;  // memo-routed sites, as a site bitmask
  bool memo_edge_feedback_ = false;
  double min_weight_lb_ = std::numeric_limits<double>::infinity();
  std::uint64_t retract_changes_last_step_ = 0;  // quiescence extension
  std::uint64_t minmax_retractions_total_ = 0;
  std::uint64_t minmax_refolds_total_ = 0;
  std::uint64_t minmax_underflows_total_ = 0;
  // Warm-epoch superstep ceiling (absolute; 0 = unarmed): Class B repairs
  // on a severed reachability component would count to infinity, so
  // apply_epoch arms a generous budget and the drive loops abort the
  // epoch instead of tripping the fatal superstep DV_CHECK.
  std::size_t epoch_cap_abs_ = 0;
  bool warm_aborted_ = false;
  // Change set for take_changed: armed by its first call (so runs that
  // nobody reads incrementally never record), then every vertex whose
  // compute assigned a user field, and every vertex growth created, is
  // recorded once — the mark byte dedupes, so the per-worker lists never
  // exceed |V| however long nobody takes them.
  bool tracking_ = false;
  std::vector<std::uint8_t> changed_mark_;
  std::vector<std::vector<graph::VertexId>> changed_lists_;

  /// Out of line, behind the any_field_assign branch, so the per-vertex
  /// compute path keeps its shape. A vertex is computed by its owner
  /// worker only, so the mark and the worker's list have one writer per
  /// superstep.
  [[gnu::noinline]] void note_changed(int worker, graph::VertexId v) {
    if (changed_mark_[v]) return;
    changed_mark_[v] = 1;
    changed_lists_[static_cast<std::size_t>(worker)].push_back(v);
  }
};

const char* exec_tier_name(ExecTier tier) {
  switch (tier) {
    case ExecTier::kTree: return "tree";
    case ExecTier::kVm: return "vm";
    case ExecTier::kNative: return "native";
  }
  DV_FAIL("unknown execution tier");
}

ExecTier parse_exec_tier(const std::string& name) {
  if (name == "tree") return ExecTier::kTree;
  if (name == "vm") return ExecTier::kVm;
  if (name == "native") return ExecTier::kNative;
  DV_FAIL("unknown execution tier '" << name
                                     << "' (expected tree|vm|native)");
}

const char* fold_path_name(FoldPath p) {
  switch (p) {
    case FoldPath::kAuto: return "auto";
    case FoldPath::kBuffered: return "buffered";
  }
  DV_FAIL("unknown fold path");
}

FoldPath parse_fold_path(const std::string& name) {
  if (name == "auto") return FoldPath::kAuto;
  if (name == "buffered") return FoldPath::kBuffered;
  DV_FAIL("unknown fold path '" << name << "' (expected auto|buffered)");
}

int DvRunResult::field_slot(const std::string& name) const {
  for (std::size_t i = 0; i < fields.size(); ++i)
    if (fields[i].name == name) return static_cast<int>(i);
  DV_FAIL("no field named '" << name << "'");
}

std::vector<double> DvRunResult::field_as_double(
    const std::string& name) const {
  const int slot = field_slot(name);
  std::vector<double> out(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v)
    out[v] = at(static_cast<graph::VertexId>(v), slot).as_f();
  return out;
}

std::vector<std::int64_t> DvRunResult::field_as_int(
    const std::string& name) const {
  const int slot = field_slot(name);
  std::vector<std::int64_t> out(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v)
    out[v] = at(static_cast<graph::VertexId>(v), slot).as_i();
  return out;
}

DvRunResult run_program(const CompiledProgram& cp, graph::GraphView g,
                        const DvRunOptions& options) {
  DvRunner::Impl runner(cp, g, options);
  return runner.run();
}

DvRunner::DvRunner(const CompiledProgram& cp, graph::GraphView g,
                   DvRunOptions options)
    : impl_(std::make_unique<Impl>(cp, g, std::move(options))) {}
DvRunner::~DvRunner() = default;
DvRunner::DvRunner(DvRunner&&) noexcept = default;
DvRunner& DvRunner::operator=(DvRunner&&) noexcept = default;

DvRunResult DvRunner::converge() { return impl_->run(); }

EpochStats DvRunner::apply_epoch(graph::DynamicGraph& dyn,
                                 const graph::GraphDelta& delta) {
  return impl_->apply_epoch(dyn, delta);
}

DvRunResult DvRunner::result() const { return impl_->snapshot_result(); }

StateWindow DvRunner::state_window() const { return impl_->state_window(); }

bool DvRunner::take_changed(std::vector<graph::VertexId>& out) {
  return impl_->take_changed(out);
}

bool DvRunner::converged() const { return impl_->converged(); }

bool DvRunner::atomic_path() const { return impl_->atomic_path(); }

bool DvRunner::memo_path() const { return impl_->memo_path(); }

const char* DvRunner::warm_runtime_blocker(
    const graph::GraphDelta& delta) const {
  return impl_->warm_runtime_blocker(delta);
}

void DvRunner::save_state(persist::SnapshotWriter& w) const {
  impl_->save_state(w);
}

void DvRunner::restore_state(persist::SnapshotReader& r) {
  impl_->restore_state(r);
}

const char* DvRunner::warm_blocker(const CompiledProgram& cp,
                                   const graph::GraphDelta& delta,
                                   std::size_t minmax_memo_k) {
  const Program& prog = cp.program;
  if (!cp.options.incrementalize)
    return "program is not incrementalized (DV*): no memoized accumulators "
           "to patch";
  // Checked before any send_expr dereference: channel sites have none.
  for (const Stmt& s : prog.stmts)
    if (!s.phases.empty() || expr_contains(*s.body, ExprKind::kRemoteRead))
      return "remote reads re-request every iteration: there is no "
             "memoized channel state to patch and no frontier to wake";
  if (prog.stmts.size() != 1)
    return "multi-statement programs resume cold (cross-statement priming "
           "cannot be replayed)";
  if (prog.sites.empty())
    return "no aggregation sites: topology changes have no Δ to carry";

  // graphSize anywhere + a vertex-count change moves every vertex's value,
  // not just the frontier. Bound sites' original expressions were hoisted
  // out of the body, so scan them explicitly.
  if (delta.new_num_vertices != delta.old_num_vertices) {
    bool reads_n = expr_contains(*prog.init, ExprKind::kGraphSize);
    for (const Stmt& s : prog.stmts) {
      reads_n = reads_n || expr_contains(*s.body, ExprKind::kGraphSize);
      if (s.until)
        reads_n = reads_n || expr_contains(*s.until, ExprKind::kGraphSize);
    }
    for (const AggSite& site : prog.sites) {
      const Expr& original =
          site.init_send_expr ? *site.init_send_expr : *site.send_expr;
      reads_n = reads_n || expr_contains(original, ExprKind::kGraphSize);
    }
    if (reads_n)
      return "graphSize is read and |V| changed: every vertex is affected";
  }

  for (const AggSite& site : prog.sites) {
    const Expr& original =
        site.init_send_expr ? *site.init_send_expr : *site.send_expr;
    if (is_idempotent(site.op)) {
      // min/max accumulators cannot forget a contribution (§9), so only
      // monotone-growing change streams resume warm — unless the site is
      // routed through the k-best retraction memo (DESIGN.md §11), which
      // makes deletions O(k) keyed removals with targeted refold backup.
      const bool memoed = minmax_memo_k > 0 && site.memo_ok;
      if (!memoed) {
        if (delta.has_removals)
          return "min/max cannot retract a removed contribution";
        if (delta.has_weight_changes &&
            expr_contains(original, ExprKind::kEdgeWeight))
          return "min/max cannot retract a weight-changed contribution";
        if (expr_contains(original, ExprKind::kDegree))
          return "min/max with degree-dependent sends cannot retract on "
                 "topology change";
      }
    }
    if (cp.options.epsilon > 0 &&
        expr_contains(original, ExprKind::kEdgeWeight))
      return "epsilon-slop cannot track per-edge send payloads";
  }

  // A body indexed by its iteration variable is not resumable: the warm
  // epoch restarts the count at 1.
  for (const Stmt& s : prog.stmts) {
    if (expr_reads_iter(*s.body))
      return "statement body reads the iteration variable";
    if (!s.until || !expr_reads_iter(*s.until)) continue;
    // An iteration-bounded until makes the loop count itself semantic: a
    // warm epoch restarts iter at 1 and replays up to the bound from the
    // old converged state. That replay is harmless only when every
    // iteration past the first is a no-op — i.e. no site's send feeds on
    // a field the body itself assigns. A feedback recurrence under a
    // fixed bound (fixed-iteration PageRank) is generally not at a
    // fixpoint when the bound fires, so the extra iterations would
    // advance it past the from-scratch answer.
    std::vector<std::uint8_t> written(prog.fields.size(), 0);
    mark_field_writes(*s.body, written);
    for (const AggSite& site : prog.sites) {
      const Expr& original =
          site.init_send_expr ? *site.init_send_expr : *site.send_expr;
      if (expr_reads_marked_field(original, written))
        return "iteration-bounded until with a feedback send: the warm "
               "epoch cannot replay the loop count";
    }
  }
  return nullptr;
}

}  // namespace deltav::dv
