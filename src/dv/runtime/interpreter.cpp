#include "dv/runtime/interpreter.h"

#include "dv/obs/obs.h"
#include "dv/runtime/delta.h"

namespace deltav::dv {

namespace {

Value unit() { return Value::of_int(0); }

Value eval_binary(const Expr& e, EvalContext& ctx) {
  // Short-circuit boolean operators first.
  if (e.bin_op == BinOp::kAnd) {
    if (!eval(*e.kids[0], ctx).as_b()) return Value::of_bool(false);
    return Value::of_bool(eval(*e.kids[1], ctx).as_b());
  }
  if (e.bin_op == BinOp::kOr) {
    if (eval(*e.kids[0], ctx).as_b()) return Value::of_bool(true);
    return Value::of_bool(eval(*e.kids[1], ctx).as_b());
  }
  const Value a = eval(*e.kids[0], ctx);
  const Value b = eval(*e.kids[1], ctx);
  switch (e.bin_op) {
    case BinOp::kAdd:
      return e.type == Type::kInt ? Value::of_int(a.as_i() + b.as_i())
                                  : Value::of_float(a.as_f() + b.as_f());
    case BinOp::kSub:
      return e.type == Type::kInt ? Value::of_int(a.as_i() - b.as_i())
                                  : Value::of_float(a.as_f() - b.as_f());
    case BinOp::kMul:
      return e.type == Type::kInt ? Value::of_int(a.as_i() * b.as_i())
                                  : Value::of_float(a.as_f() * b.as_f());
    case BinOp::kDiv:
      // '/' is always float (IEEE semantics; x/0 → ±inf, 0/0 → nan).
      return Value::of_float(a.as_f() / b.as_f());
    case BinOp::kLt: return Value::of_bool(a.as_f() < b.as_f());
    case BinOp::kGt: return Value::of_bool(a.as_f() > b.as_f());
    case BinOp::kGe: return Value::of_bool(a.as_f() >= b.as_f());
    case BinOp::kLe: return Value::of_bool(a.as_f() <= b.as_f());
    case BinOp::kEq: return Value::of_bool(a.equals(b));
    case BinOp::kNe: return Value::of_bool(!a.equals(b));
    default: DV_FAIL("unhandled binary operator");
  }
}

Value eval_fold(const Expr& e, EvalContext& ctx) {
  DV_CHECK_MSG(ctx.has_vertex, "message fold outside vertex context");
  const auto site_id = static_cast<std::size_t>(e.site);
  const AggSite& site = ctx.prog->sites[site_id];
  if (!e.flag) {
    // Eq. 3: non-incremental — fold this superstep's full-value messages
    // from the identity.
    DV_OBS_COUNT(ctx.obs, kMemoRecomputes, 1);
    Value acc = agg_identity(site.op, site.elem_type);
    for (const DvMessage& m : ctx.msgs) {
      if (m.site != e.site) continue;
      acc = agg_apply(site.op, site.elem_type, acc, m.payload);
    }
    return acc;
  }
  // Eq. 8/9: incremental — fold Δ-messages into the memoized accumulator.
  DV_OBS_COUNT(ctx.obs, kMemoHits, 1);
  AccumRef ref;
  ref.acc = &ctx.fields[static_cast<std::size_t>(site.acc_slot)];
  if (site.multiplicative()) {
    // §6.4.1 absorbing-element slow path: the fold tracks non-null counts
    // and absorbed operands alongside the accumulator.
    DV_OBS_COUNT(ctx.obs, kAbsorbingSlowPath, 1);
    ref.nn = &ctx.fields[static_cast<std::size_t>(site.nn_slot)];
    ref.nulls = &ctx.fields[static_cast<std::size_t>(site.nulls_slot)];
  }
  for (const DvMessage& m : ctx.msgs) {
    if (m.site != e.site) continue;
    apply_delta(site.op, site.elem_type, ref, m.payload, m.nulls, m.denulls);
  }
  return *ref.acc;
}

Value eval_send_loop(const Expr& e, EvalContext& ctx) {
  DV_CHECK_MSG(ctx.has_vertex && ctx.sink, "send loop outside superstep");
  const AggSite& site = ctx.prog->sites[static_cast<std::size_t>(e.site)];
  const graph::GraphView& g = *ctx.graph;
  const graph::VertexId v = ctx.vertex;

  std::span<const graph::VertexId> targets;
  std::span<const double> weights;
  switch (e.dir) {
    case GraphDir::kOut:
    case GraphDir::kNeighbors:
      targets = g.out_neighbors(v);
      weights = g.out_weights(v);
      break;
    case GraphDir::kIn:
      targets = g.in_neighbors(v);
      weights = g.in_weights(v);
      break;
  }

  if (ctx.suppress_sites & (1ULL << e.site)) {
    // Last-execution analysis: this site's consumers never run again, so
    // the whole loop is elided (distinct from the §6.3 change check).
    DV_OBS_COUNT(ctx.obs, kLastStepSendsSuppressed, targets.size());
    return unit();
  }

  // Memo-routed sites send their no-op Δs too: the identity payload is
  // the "this sender no longer contributes" removal record.
  const bool record_noops = (ctx.record_sites & (1ULL << e.site)) != 0;

  std::uint64_t n_suppressed = 0, n_delta = 0, n_full = 0;
  const std::uint8_t wire = (*ctx.site_wire)[static_cast<std::size_t>(
      e.site)];
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[i];
    if (e.flag) {
      // §6.5 Δ-message: ∆_old(new), synthesized per operator (Eq. 11).
      const Value new_v = eval(*e.kids[0], ctx).coerce(site.elem_type);
      const Value old_v = eval(*e.kids[1], ctx).coerce(site.elem_type);
      const DeltaPayload d =
          synthesize_delta(site.op, site.elem_type, old_v, new_v);
      if (d.noop) {  // a meaningless message by construction (§6.3)
        ++n_suppressed;
        if (!record_noops) continue;
      }
      n_delta += ctx.sink->send(targets[i], delta_message(e.site, wire, d));
    } else {
      // Full-value send (ΔV*). Identity payloads are no-ops for the fold
      // and are suppressed — without this, e.g. SSSP's initial push would
      // broadcast |E| useless infinities (DESIGN.md).
      const Value payload = eval(*e.kids[0], ctx).coerce(site.elem_type);
      if (is_identity(site.op, payload)) {
        ++n_suppressed;
        continue;
      }
      DvMessage msg;
      msg.site = static_cast<std::uint8_t>(e.site);
      msg.wire = wire;
      msg.payload = payload;
      n_full += ctx.sink->send(targets[i], msg);
    }
  }
  if (ctx.obs) {
    ctx.obs->add(obs::Counter::kSendsSuppressed, n_suppressed);
    ctx.obs->add(obs::Counter::kDeltaMessages, n_delta);
    ctx.obs->add(obs::Counter::kFullMessages, n_full);
  }
  return unit();
}

}  // namespace

Value eval(const Expr& e, EvalContext& ctx) {
  switch (e.kind) {
    case ExprKind::kIntLit: return Value::of_int(e.int_val);
    case ExprKind::kFloatLit: return Value::of_float(e.float_val);
    case ExprKind::kBoolLit: return Value::of_bool(e.bool_val);
    case ExprKind::kInfty:
      return Value::of_float(std::numeric_limits<double>::infinity());
    case ExprKind::kGraphSize:
      return Value::of_int(static_cast<std::int64_t>(
          ctx.graph->num_vertices()));
    case ExprKind::kVertexIdRef:
      DV_CHECK_MSG(ctx.has_vertex, "vertexId outside vertex context");
      return Value::of_int(ctx.vertex);
    case ExprKind::kStableRef: return Value::of_bool(ctx.stable);
    case ExprKind::kEdgeWeight: return Value::of_float(ctx.cur_edge_weight);
    case ExprKind::kParamRef:
      return ctx.params[static_cast<std::size_t>(e.slot)];
    case ExprKind::kVarRef:
      if (e.var_kind == VarKind::kIter) return Value::of_int(ctx.iter);
      DV_CHECK_MSG(e.var_kind == VarKind::kLet, "unresolved variable");
      return ctx.scratch[static_cast<std::size_t>(e.slot)];
    case ExprKind::kFieldRef:
      DV_CHECK_MSG(ctx.has_vertex, "field read outside vertex context");
      return ctx.fields[static_cast<std::size_t>(e.slot)];
    case ExprKind::kScratchRef:
      return ctx.scratch[static_cast<std::size_t>(e.slot)];
    case ExprKind::kBinary: return eval_binary(e, ctx);
    case ExprKind::kUnary: {
      const Value v = eval(*e.kids[0], ctx);
      if (e.un_op == UnOp::kNot) return Value::of_bool(!v.as_b());
      return e.type == Type::kInt ? Value::of_int(-v.as_i())
                                  : Value::of_float(-v.as_f());
    }
    case ExprKind::kPairOp: {
      const Value a = eval(*e.kids[0], ctx);
      const Value b = eval(*e.kids[1], ctx);
      const bool take_a = e.pair_op == PairOp::kMin ? a.as_f() <= b.as_f()
                                                    : a.as_f() >= b.as_f();
      return (take_a ? a : b).coerce(e.type);
    }
    case ExprKind::kIf: {
      if (eval(*e.kids[0], ctx).as_b()) {
        const Value v = eval(*e.kids[1], ctx);
        return e.type == Type::kUnit ? unit() : v.coerce(e.type);
      }
      if (e.kids.size() == 3) {
        const Value v = eval(*e.kids[2], ctx);
        return e.type == Type::kUnit ? unit() : v.coerce(e.type);
      }
      if (e.obs_site >= 0 && ctx.obs && ctx.has_vertex) {
        // §6.3 change check held the whole broadcast back: count the
        // fan-out that was never sent. Metered runs only.
        const auto targets = e.dir == GraphDir::kIn
                                 ? ctx.graph->in_neighbors(ctx.vertex)
                                 : ctx.graph->out_neighbors(ctx.vertex);
        ctx.obs->add(obs::Counter::kSendsSuppressed, targets.size());
      }
      return unit();
    }
    case ExprKind::kLet: {
      const Value v = eval(*e.kids[0], ctx).coerce(e.decl_type);
      ctx.scratch[static_cast<std::size_t>(e.slot)] = v;
      return eval(*e.kids[1], ctx);
    }
    case ExprKind::kSeq: {
      Value last = unit();
      for (const auto& k : e.kids) last = eval(*k, ctx);
      return last;
    }
    case ExprKind::kAssign: {
      if (e.assign_target == AssignTarget::kField) {
        DV_CHECK_MSG(ctx.has_vertex, "field write outside vertex context");
        const Field& f = ctx.prog->fields[static_cast<std::size_t>(e.slot)];
        ctx.fields[static_cast<std::size_t>(e.slot)] =
            eval(*e.kids[0], ctx).coerce(f.type);
        // Quiescence tracks user-visible writes only: compiler-introduced
        // fields (sent bindings, last-sent copies) may be rewritten
        // unconditionally without implying the computation is still live.
        if (f.origin == Field::Origin::kUser) ctx.any_field_assign = true;
      } else {
        const ScratchVar& sv =
            ctx.prog->scratch[static_cast<std::size_t>(e.slot)];
        ctx.scratch[static_cast<std::size_t>(e.slot)] =
            eval(*e.kids[0], ctx).coerce(sv.type);
      }
      return unit();
    }
    case ExprKind::kLocalDecl: {
      DV_CHECK_MSG(ctx.has_vertex, "local declaration outside vertex");
      ctx.fields[static_cast<std::size_t>(e.slot)] =
          eval(*e.kids[0], ctx).coerce(e.decl_type);
      return unit();
    }
    case ExprKind::kDegree: {
      DV_CHECK_MSG(ctx.has_vertex, "degree outside vertex context");
      std::size_t d = 0;
      switch (e.dir) {
        case GraphDir::kIn: d = ctx.graph->in_degree(ctx.vertex); break;
        case GraphDir::kOut:
        case GraphDir::kNeighbors:
          d = ctx.graph->out_degree(ctx.vertex);
          break;
      }
      return Value::of_int(static_cast<std::int64_t>(d));
    }
    case ExprKind::kFoldMessages: return eval_fold(e, ctx);
    case ExprKind::kSendLoop: return eval_send_loop(e, ctx);
    case ExprKind::kSendTo: {
      // Request phase of a lowered remote read: this vertex asks the
      // (wrapped) target for a field by sending its own id.
      DV_CHECK_MSG(ctx.has_vertex && ctx.sink,
                   "request send outside superstep");
      const std::int64_t t = eval(*e.kids[0], ctx).as_i();
      const auto n =
          static_cast<std::int64_t>(ctx.graph->num_vertices());
      DvMessage msg;
      msg.site = static_cast<std::uint8_t>(e.site);
      msg.wire = (*ctx.site_wire)[static_cast<std::size_t>(e.site)];
      msg.payload = Value::of_int(ctx.vertex);
      ctx.sink->send(static_cast<graph::VertexId>(((t % n) + n) % n), msg);
      DV_OBS_COUNT(ctx.obs, kRemoteRequests, 1);
      return unit();
    }
    case ExprKind::kReplyLoop: {
      // Reply phase: answer every request delivered this superstep with
      // this vertex's current field value on the reply channel.
      DV_CHECK_MSG(ctx.has_vertex && ctx.sink,
                   "reply loop outside superstep");
      const AggSite& rep =
          ctx.prog->sites[static_cast<std::size_t>(e.int_val)];
      DvMessage reply;
      reply.site = static_cast<std::uint8_t>(rep.id);
      reply.wire = (*ctx.site_wire)[static_cast<std::size_t>(rep.id)];
      reply.payload =
          ctx.fields[static_cast<std::size_t>(e.slot)].coerce(rep.elem_type);
      std::uint64_t n_replies = 0;
      for (const DvMessage& m : ctx.msgs) {
        if (m.site != e.site) continue;
        ctx.sink->send(static_cast<graph::VertexId>(m.payload.as_i()),
                       reply);
        ++n_replies;
      }
      DV_OBS_COUNT(ctx.obs, kRemoteReplies, n_replies);
      return unit();
    }
    case ExprKind::kRemoteRead: {
      // Reference interpretation only (lower_remote = false): read the
      // target vertex's field from the iteration-start snapshot. The
      // target itself is evaluated against this vertex's snapshot row —
      // the lowered pipeline evaluates it in the request superstep, before
      // any body assignment has run.
      DV_CHECK_MSG(ctx.has_vertex, "remote read outside vertex context");
      DV_CHECK_MSG(ctx.prev_state != nullptr && ctx.prev_stride > 0,
                   "remote read reached execution without lowering and "
                   "without a reference snapshot");
      EvalContext tctx = ctx;
      tctx.fields = std::span<Value>(
          ctx.prev_state +
              static_cast<std::size_t>(ctx.vertex) * ctx.prev_stride,
          ctx.prev_stride);
      const std::int64_t t = eval(*e.kids[0], tctx).as_i();
      const auto n =
          static_cast<std::int64_t>(ctx.graph->num_vertices());
      const auto owner = static_cast<std::size_t>(((t % n) + n) % n);
      const Field& f = ctx.prog->fields[static_cast<std::size_t>(e.slot)];
      return ctx
          .prev_state[owner * ctx.prev_stride +
                      static_cast<std::size_t>(e.slot)]
          .coerce(f.type);
    }
    case ExprKind::kHalt:
      ctx.halt_requested = true;
      return unit();
    case ExprKind::kAgg:
    case ExprKind::kNeighborField:
      DV_FAIL("unconverted " << expr_kind_name(e.kind)
                             << " reached the interpreter (compiler bug)");
  }
  DV_FAIL("unhandled expression kind");
}

}  // namespace deltav::dv
