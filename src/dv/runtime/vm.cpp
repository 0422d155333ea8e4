#include "dv/runtime/vm.h"

#include <cstring>

#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/runtime/delta.h"

// Direct-threaded dispatch via GNU computed goto where available; the
// portable switch loop is the fallback (and the sanitizer builds exercise
// both paths through the differential fuzzer either way).
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(DV_VM_NO_COMPUTED_GOTO)
#define DV_VM_CG 1
#else
#define DV_VM_CG 0
#endif

namespace deltav::dv {

namespace {

// Every opcode, in bytecode.h enum order. The static_asserts below keep
// the dispatch table in sync with the enum.
#define DV_VM_OPS(X)                                                         \
  X(kConstI) X(kConstF) X(kConstB) X(kMove)                                  \
  X(kI2F) X(kF2I) X(kB2F) X(kB2I)                                            \
  X(kLoadIter) X(kLoadStable) X(kLoadVertexId) X(kLoadGraphSize)             \
  X(kLoadEdgeWeight) X(kLoadParamI) X(kLoadParamF) X(kLoadParamB)            \
  X(kDegreeIn) X(kDegreeOut)                                                 \
  X(kLoadFieldI) X(kLoadFieldF) X(kLoadFieldB)                               \
  X(kStoreFieldI) X(kStoreFieldF) X(kStoreFieldB)                            \
  X(kLoadScratchI) X(kLoadScratchF) X(kLoadScratchB)                         \
  X(kStoreScratchI) X(kStoreScratchF) X(kStoreScratchB)                      \
  X(kAddI) X(kAddF) X(kSubI) X(kSubF) X(kMulI) X(kMulF) X(kDivF)             \
  X(kNegI) X(kNegF) X(kNotB)                                                 \
  X(kLtF) X(kLeF) X(kGtF) X(kGeF)                                            \
  X(kEqI) X(kEqF) X(kEqB) X(kNeI) X(kNeF) X(kNeB)                            \
  X(kMinI) X(kMinF) X(kMaxI) X(kMaxF)                                        \
  X(kJump) X(kJumpIfFalse) X(kJumpIfTrue)                                    \
  X(kHalt) X(kReturnVal) X(kReturnUnit)                                      \
  X(kFoldFull) X(kFoldDelta) X(kSendDelta) X(kSendFull)                      \
  X(kDivGraphSizeF) X(kDivDegOutF) X(kCopyFieldScratchF) X(kMulAddF)       \
  X(kObsCount)

#define X(n) ord_##n,
enum : int { DV_VM_OPS(X) };
#undef X
#define X(n)                                          \
  static_assert(ord_##n == static_cast<int>(Op::n),   \
                "DV_VM_OPS out of sync with Op enum");
DV_VM_OPS(X)
#undef X

/// Raw 8-byte copy of a Value's payload into a register (the union's
/// widest member spans all of them; memcpy sidesteps active-member rules).
inline VmSlot to_slot(const Value& v) {
  VmSlot s;
  std::memcpy(&s, &v.i, sizeof(VmSlot));
  return s;
}

inline Value slot_value(Type t, VmSlot s) {
  switch (t) {
    case Type::kInt: return Value::of_int(s.i);
    case Type::kFloat: return Value::of_float(s.f);
    case Type::kBool: return Value::of_bool(s.b);
    default: DV_FAIL("slot of type " << type_name(t));
  }
}

}  // namespace

Vm::Vm(const CompiledProgram& cp) : vp_(lower_program(cp)) {}

Value Vm::eval_root(const Expr& root, EvalContext& ctx) const {
  const int id = vp_.chunk_of(root);
  DV_CHECK_MSG(id >= 0, "expression was not lowered as a VM root");
  return run_chunk(id, ctx);
}

Value Vm::send_operand(std::uint16_t packed, Type elem,
                       EvalContext& ctx) const {
  const std::uint16_t idx = send_operand_index(packed);
  switch (send_operand_src(packed)) {
    // Field/scratch slots were selected at lowering only when their static
    // type equals the site's element type, so the stored Value is already
    // payload-shaped — the same no-op coerce the interpreter hits.
    case SendSrc::kField: return ctx.fields[idx];
    case SendSrc::kScratch: return ctx.scratch[idx];
    case SendSrc::kConst: return slot_value(elem, vp_.consts[idx]);
    case SendSrc::kChunk: return run_chunk(idx, ctx);
  }
  DV_FAIL("corrupt send operand");
}

Value Vm::run_chunk(int chunk_id, EvalContext& ctx) const {
  const Chunk& ch = vp_.chunks[static_cast<std::size_t>(chunk_id)];
  const Instr* const code = ch.code.data();
  const VmSlot* const consts = vp_.consts.data();
  const Instr* pc = code;
  const Instr* I = nullptr;
  VmSlot regs[kVmMaxRegs];

  // Dispatch accounting: `ops += op_tick` is one branchless add per
  // dispatched instruction (op_tick is 0 with no collector), flushed once
  // at the returns. Keeps the hot loop free of per-op branches.
  obs::MetricsShard* const shard = ctx.obs;
  const std::uint64_t op_tick = shard ? 1 : 0;
  std::uint64_t ops = 0;

#if DV_VM_CG
#define X(n) &&L_##n,
  static const void* const kLabels[] = {DV_VM_OPS(X)};
#undef X
#define CASE(n) L_##n:
#define NEXT()                                      \
  do {                                              \
    I = pc++;                                       \
    ops += op_tick;                                 \
    goto* kLabels[static_cast<int>(I->op)];         \
  } while (0)
  NEXT();
#else
#define CASE(n) case Op::n:
#define NEXT() break
  for (;;) {
    I = pc++;
    ops += op_tick;
    switch (I->op) {
#endif

  CASE(kConstI) { regs[I->a] = consts[I->imm]; } NEXT();
  CASE(kConstF) { regs[I->a] = consts[I->imm]; } NEXT();
  CASE(kConstB) { regs[I->a].b = I->imm != 0; } NEXT();
  CASE(kMove) { regs[I->a] = regs[I->b]; } NEXT();

  CASE(kI2F) { regs[I->a].f = static_cast<double>(regs[I->b].i); } NEXT();
  CASE(kF2I) {
    regs[I->a].i = static_cast<std::int64_t>(regs[I->b].f);
  } NEXT();
  CASE(kB2F) { regs[I->a].f = regs[I->b].b ? 1.0 : 0.0; } NEXT();
  CASE(kB2I) { regs[I->a].i = regs[I->b].b ? 1 : 0; } NEXT();

  CASE(kLoadIter) { regs[I->a].i = ctx.iter; } NEXT();
  CASE(kLoadStable) { regs[I->a].b = ctx.stable; } NEXT();
  CASE(kLoadVertexId) { regs[I->a].i = ctx.vertex; } NEXT();
  CASE(kLoadGraphSize) {
    regs[I->a].i = static_cast<std::int64_t>(ctx.graph->num_vertices());
  } NEXT();
  CASE(kLoadEdgeWeight) { regs[I->a].f = ctx.cur_edge_weight; } NEXT();
  CASE(kLoadParamI) { regs[I->a].i = ctx.params[I->b].i; } NEXT();
  CASE(kLoadParamF) { regs[I->a].f = ctx.params[I->b].f; } NEXT();
  CASE(kLoadParamB) { regs[I->a].b = ctx.params[I->b].b; } NEXT();
  CASE(kDegreeIn) {
    regs[I->a].i = static_cast<std::int64_t>(ctx.graph->in_degree(
        ctx.vertex));
  } NEXT();
  CASE(kDegreeOut) {
    regs[I->a].i = static_cast<std::int64_t>(ctx.graph->out_degree(
        ctx.vertex));
  } NEXT();

  CASE(kLoadFieldI) { regs[I->a].i = ctx.fields[I->b].i; } NEXT();
  CASE(kLoadFieldF) { regs[I->a].f = ctx.fields[I->b].f; } NEXT();
  CASE(kLoadFieldB) { regs[I->a].b = ctx.fields[I->b].b; } NEXT();
  CASE(kStoreFieldI) {
    Value& v = ctx.fields[I->b];
    v.type = Type::kInt;
    v.i = regs[I->a].i;
    if (I->c) ctx.any_field_assign = true;
  } NEXT();
  CASE(kStoreFieldF) {
    Value& v = ctx.fields[I->b];
    v.type = Type::kFloat;
    v.f = regs[I->a].f;
    if (I->c) ctx.any_field_assign = true;
  } NEXT();
  CASE(kStoreFieldB) {
    Value& v = ctx.fields[I->b];
    v.type = Type::kBool;
    v.b = regs[I->a].b;
    if (I->c) ctx.any_field_assign = true;
  } NEXT();
  CASE(kLoadScratchI) { regs[I->a].i = ctx.scratch[I->b].i; } NEXT();
  CASE(kLoadScratchF) { regs[I->a].f = ctx.scratch[I->b].f; } NEXT();
  CASE(kLoadScratchB) { regs[I->a].b = ctx.scratch[I->b].b; } NEXT();
  CASE(kStoreScratchI) {
    Value& v = ctx.scratch[I->b];
    v.type = Type::kInt;
    v.i = regs[I->a].i;
  } NEXT();
  CASE(kStoreScratchF) {
    Value& v = ctx.scratch[I->b];
    v.type = Type::kFloat;
    v.f = regs[I->a].f;
  } NEXT();
  CASE(kStoreScratchB) {
    Value& v = ctx.scratch[I->b];
    v.type = Type::kBool;
    v.b = regs[I->a].b;
  } NEXT();

  CASE(kAddI) { regs[I->a].i = regs[I->b].i + regs[I->c].i; } NEXT();
  CASE(kAddF) { regs[I->a].f = regs[I->b].f + regs[I->c].f; } NEXT();
  CASE(kSubI) { regs[I->a].i = regs[I->b].i - regs[I->c].i; } NEXT();
  CASE(kSubF) { regs[I->a].f = regs[I->b].f - regs[I->c].f; } NEXT();
  CASE(kMulI) { regs[I->a].i = regs[I->b].i * regs[I->c].i; } NEXT();
  CASE(kMulF) { regs[I->a].f = regs[I->b].f * regs[I->c].f; } NEXT();
  CASE(kDivF) { regs[I->a].f = regs[I->b].f / regs[I->c].f; } NEXT();
  CASE(kNegI) { regs[I->a].i = -regs[I->b].i; } NEXT();
  CASE(kNegF) { regs[I->a].f = -regs[I->b].f; } NEXT();
  CASE(kNotB) { regs[I->a].b = !regs[I->b].b; } NEXT();

  CASE(kLtF) { regs[I->a].b = regs[I->b].f < regs[I->c].f; } NEXT();
  CASE(kLeF) { regs[I->a].b = regs[I->b].f <= regs[I->c].f; } NEXT();
  CASE(kGtF) { regs[I->a].b = regs[I->b].f > regs[I->c].f; } NEXT();
  CASE(kGeF) { regs[I->a].b = regs[I->b].f >= regs[I->c].f; } NEXT();
  CASE(kEqI) { regs[I->a].b = regs[I->b].i == regs[I->c].i; } NEXT();
  CASE(kEqF) { regs[I->a].b = regs[I->b].f == regs[I->c].f; } NEXT();
  CASE(kEqB) { regs[I->a].b = regs[I->b].b == regs[I->c].b; } NEXT();
  CASE(kNeI) { regs[I->a].b = regs[I->b].i != regs[I->c].i; } NEXT();
  CASE(kNeF) { regs[I->a].b = regs[I->b].f != regs[I->c].f; } NEXT();
  CASE(kNeB) { regs[I->a].b = regs[I->b].b != regs[I->c].b; } NEXT();

  // Pair ops mirror the interpreter: compare via as_f() (ints through
  // double), then select the original operand.
  CASE(kMinI) {
    regs[I->a].i = static_cast<double>(regs[I->b].i) <=
                           static_cast<double>(regs[I->c].i)
                       ? regs[I->b].i
                       : regs[I->c].i;
  } NEXT();
  CASE(kMinF) {
    regs[I->a].f = regs[I->b].f <= regs[I->c].f ? regs[I->b].f
                                                : regs[I->c].f;
  } NEXT();
  CASE(kMaxI) {
    regs[I->a].i = static_cast<double>(regs[I->b].i) >=
                           static_cast<double>(regs[I->c].i)
                       ? regs[I->b].i
                       : regs[I->c].i;
  } NEXT();
  CASE(kMaxF) {
    regs[I->a].f = regs[I->b].f >= regs[I->c].f ? regs[I->b].f
                                                : regs[I->c].f;
  } NEXT();

  CASE(kJump) { pc = code + I->imm; } NEXT();
  CASE(kJumpIfFalse) {
    if (!regs[I->a].b) pc = code + I->imm;
  } NEXT();
  CASE(kJumpIfTrue) {
    if (regs[I->a].b) pc = code + I->imm;
  } NEXT();
  CASE(kHalt) { ctx.halt_requested = true; } NEXT();
  CASE(kReturnVal) {
    DV_OBS_COUNT(shard, kVmOpsDispatched, ops);
    return slot_value(ch.result, regs[I->a]);
  } NEXT();
  CASE(kReturnUnit) {
    DV_OBS_COUNT(shard, kVmOpsDispatched, ops);
    return Value::of_int(0);
  } NEXT();

  CASE(kFoldFull) {
    // Eq. 3: fold this superstep's full-value messages from the identity.
    DV_CHECK_MSG(ctx.has_vertex, "message fold outside vertex context");
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    DV_OBS_COUNT(shard, kMemoRecomputes, 1);
    const AggSite& site = ctx.prog->sites[static_cast<std::size_t>(I->imm)];
    // Non-multiplicative folds are pure reductions; run them over unboxed
    // scalars (the same as_f()/as_i() arithmetic agg_apply performs, so the
    // result is bit-identical — the helper call and Value boxing per
    // message are what we skip).
    if (!site.multiplicative() && site.elem_type == Type::kFloat) {
      double a = agg_identity_double(site.op);
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        const double p = m.payload.as_f();
        switch (site.op) {
          case AggOp::kSum: a += p; break;
          case AggOp::kMin: a = a < p ? a : p; break;
          default: a = a > p ? a : p; break;
        }
      }
      regs[I->a].f = a;
    } else if (!site.multiplicative() && site.elem_type == Type::kInt) {
      std::int64_t a = agg_identity_int(site.op);
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        const std::int64_t p = m.payload.as_i();
        switch (site.op) {
          case AggOp::kSum: a += p; break;
          case AggOp::kMin: a = a < p ? a : p; break;
          default: a = a > p ? a : p; break;
        }
      }
      regs[I->a].i = a;
    } else {
      Value acc = agg_identity(site.op, site.elem_type);
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        acc = agg_apply(site.op, site.elem_type, acc, m.payload);
      }
      regs[I->a] = to_slot(acc);
    }
  } NEXT();
  CASE(kFoldDelta) {
    // Eq. 8/9: fold Δ-messages into the memoized accumulator triple.
    DV_CHECK_MSG(ctx.has_vertex, "message fold outside vertex context");
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    DV_OBS_COUNT(shard, kMemoHits, 1);
    const AggSite& site = ctx.prog->sites[static_cast<std::size_t>(I->imm)];
    Value& accv = ctx.fields[static_cast<std::size_t>(site.acc_slot)];
    // Fast path mirroring the float fold above: apply_delta for a
    // non-multiplicative site is acc = agg_apply(acc, payload), so inline
    // the arithmetic on the unboxed accumulator. Gated on the accumulator
    // tag so as_f()/as_i() semantics match the generic helper exactly.
    if (!site.multiplicative() && site.elem_type == Type::kFloat &&
        accv.type == Type::kFloat) {
      double a = accv.f;
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        const double p = m.payload.as_f();
        switch (site.op) {
          case AggOp::kSum: a += p; break;
          case AggOp::kMin: a = a < p ? a : p; break;
          default: a = a > p ? a : p; break;
        }
      }
      accv.f = a;
      regs[I->a].f = a;
    } else if (!site.multiplicative() && site.elem_type == Type::kInt &&
               accv.type == Type::kInt) {
      std::int64_t a = accv.i;
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        const std::int64_t p = m.payload.as_i();
        switch (site.op) {
          case AggOp::kSum: a += p; break;
          case AggOp::kMin: a = a < p ? a : p; break;
          default: a = a > p ? a : p; break;
        }
      }
      accv.i = a;
      regs[I->a].i = a;
    } else {
      AccumRef ref;
      ref.acc = &accv;
      if (site.multiplicative()) {
        // §6.4.1 absorbing-element slow path (nnAcc/aggNulls tracking).
        DV_OBS_COUNT(shard, kAbsorbingSlowPath, 1);
        ref.nn = &ctx.fields[static_cast<std::size_t>(site.nn_slot)];
        ref.nulls = &ctx.fields[static_cast<std::size_t>(site.nulls_slot)];
      }
      for (const DvMessage& m : ctx.msgs) {
        if (static_cast<std::int32_t>(m.site) != I->imm) continue;
        apply_delta(site.op, site.elem_type, ref, m.payload, m.nulls,
                    m.denulls);
      }
      regs[I->a] = to_slot(*ref.acc);
    }
  } NEXT();

  CASE(kSendDelta) {
    // §6.5 Δ-send loop over one CSR neighbor span, fused: per target,
    // evaluate new/old, synthesize_delta (Eq. 11), suppress no-ops, send.
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    if (ctx.suppress_sites & (1ULL << I->imm)) {
      if (shard) {
        const auto dir = static_cast<GraphDir>(I->a);
        shard->add(obs::Counter::kLastStepSendsSuppressed,
                   dir == GraphDir::kIn
                       ? ctx.graph->in_neighbors(ctx.vertex).size()
                       : ctx.graph->out_neighbors(ctx.vertex).size());
      }
    } else {
      DV_CHECK_MSG(ctx.has_vertex && ctx.sink, "send loop outside superstep");
      const AggSite& site =
          ctx.prog->sites[static_cast<std::size_t>(I->imm)];
      const graph::GraphView& g = *ctx.graph;
      std::span<const graph::VertexId> targets;
      std::span<const double> weights;
      if (static_cast<GraphDir>(I->a) == GraphDir::kIn) {
        targets = g.in_neighbors(ctx.vertex);
        weights = g.in_weights(ctx.vertex);
      } else {
        targets = g.out_neighbors(ctx.vertex);
        weights = g.out_weights(ctx.vertex);
      }
      const std::uint8_t wire =
          (*ctx.site_wire)[static_cast<std::size_t>(I->imm)];
      // Memo-routed sites send their no-op Δs too (identity totals are
      // the removal records), as in the tree tier.
      const bool record_noops = (ctx.record_sites & (1ULL << I->imm)) != 0;
      if (send_operand_src(I->b) != SendSrc::kChunk &&
          send_operand_src(I->c) != SendSrc::kChunk) {
        // Direct operands (field/scratch/const) cannot depend on the edge,
        // so they are invariant across the neighbor span: synthesize one Δ
        // for the whole loop, and when it is an unrecorded no-op skip the
        // span entirely. The per-edge values the tree interpreter
        // re-evaluates are identical by purity, so so are the messages.
        if (!targets.empty()) {
          ctx.cur_edge_weight =
              weights.empty() ? 1.0 : weights[targets.size() - 1];
          const Value new_v = send_operand(I->b, site.elem_type, ctx);
          const Value old_v = send_operand(I->c, site.elem_type, ctx);
          const DeltaPayload d =
              synthesize_delta(site.op, site.elem_type, old_v, new_v);
          if (d.noop) DV_OBS_COUNT(shard, kSendsSuppressed, targets.size());
          if (!d.noop || record_noops) {
            const std::uint64_t sent = ctx.sink->send_span(
                targets, delta_message(I->imm, wire, d));
            DV_OBS_COUNT(shard, kDeltaMessages, sent);
          }
        }
      } else {
        std::uint64_t n_suppressed = 0, n_delta = 0;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[t];
          const Value new_v = send_operand(I->b, site.elem_type, ctx);
          const Value old_v = send_operand(I->c, site.elem_type, ctx);
          const DeltaPayload d =
              synthesize_delta(site.op, site.elem_type, old_v, new_v);
          if (d.noop) {
            ++n_suppressed;
            if (!record_noops) continue;
          }
          n_delta +=
              ctx.sink->send(targets[t], delta_message(I->imm, wire, d));
        }
        if (shard) {
          shard->add(obs::Counter::kSendsSuppressed, n_suppressed);
          shard->add(obs::Counter::kDeltaMessages, n_delta);
        }
      }
    }
  } NEXT();
  CASE(kSendFull) {
    // Full-value send loop (ΔV*); identity payloads are fold no-ops and
    // are suppressed, as in the interpreter.
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    if (ctx.suppress_sites & (1ULL << I->imm)) {
      if (shard) {
        const auto dir = static_cast<GraphDir>(I->a);
        shard->add(obs::Counter::kLastStepSendsSuppressed,
                   dir == GraphDir::kIn
                       ? ctx.graph->in_neighbors(ctx.vertex).size()
                       : ctx.graph->out_neighbors(ctx.vertex).size());
      }
    } else {
      DV_CHECK_MSG(ctx.has_vertex && ctx.sink, "send loop outside superstep");
      const AggSite& site =
          ctx.prog->sites[static_cast<std::size_t>(I->imm)];
      const graph::GraphView& g = *ctx.graph;
      std::span<const graph::VertexId> targets;
      std::span<const double> weights;
      if (static_cast<GraphDir>(I->a) == GraphDir::kIn) {
        targets = g.in_neighbors(ctx.vertex);
        weights = g.in_weights(ctx.vertex);
      } else {
        targets = g.out_neighbors(ctx.vertex);
        weights = g.out_weights(ctx.vertex);
      }
      const std::uint8_t wire =
          (*ctx.site_wire)[static_cast<std::size_t>(I->imm)];
      if (send_operand_src(I->b) != SendSrc::kChunk) {
        // Direct operand: loop-invariant payload, one identity test for
        // the whole span (see kSendDelta).
        if (!targets.empty()) {
          ctx.cur_edge_weight =
              weights.empty() ? 1.0 : weights[targets.size() - 1];
          const Value payload = send_operand(I->b, site.elem_type, ctx);
          if (!is_identity(site.op, payload)) {
            DvMessage msg;
            msg.site = static_cast<std::uint8_t>(I->imm);
            msg.wire = wire;
            msg.payload = payload;
            const std::uint64_t sent = ctx.sink->send_span(targets, msg);
            DV_OBS_COUNT(shard, kFullMessages, sent);
          } else {
            DV_OBS_COUNT(shard, kSendsSuppressed, targets.size());
          }
        }
      } else {
        std::uint64_t n_suppressed = 0, n_full = 0;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          ctx.cur_edge_weight = weights.empty() ? 1.0 : weights[t];
          const Value payload = send_operand(I->b, site.elem_type, ctx);
          if (is_identity(site.op, payload)) {
            ++n_suppressed;
            continue;
          }
          DvMessage msg;
          msg.site = static_cast<std::uint8_t>(I->imm);
          msg.wire = wire;
          msg.payload = payload;
          n_full += ctx.sink->send(targets[t], msg);
        }
        if (shard) {
          shard->add(obs::Counter::kSendsSuppressed, n_suppressed);
          shard->add(obs::Counter::kFullMessages, n_full);
        }
      }
    }
  } NEXT();

  // Peephole fusions: same register writes, same order as the unfused
  // sequences (bytecode.h), so values are bit-identical either way.
  CASE(kDivGraphSizeF) {
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    regs[I->c].i = static_cast<std::int64_t>(ctx.graph->num_vertices());
    regs[I->imm].f = static_cast<double>(regs[I->c].i);
    regs[I->a].f = regs[I->b].f / regs[I->imm].f;
  } NEXT();
  CASE(kDivDegOutF) {
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    regs[I->c].i = static_cast<std::int64_t>(ctx.graph->out_degree(
        ctx.vertex));
    regs[I->imm].f = static_cast<double>(regs[I->c].i);
    regs[I->a].f = regs[I->b].f / regs[I->imm].f;
  } NEXT();
  CASE(kCopyFieldScratchF) {
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    regs[I->a].f = ctx.fields[I->b].f;
    Value& v = ctx.scratch[I->c];
    v.type = Type::kFloat;
    v.f = regs[I->a].f;
  } NEXT();
  CASE(kMulAddF) {
    DV_OBS_COUNT(shard, kVmFusedOps, 1);
    const std::size_t t = static_cast<std::size_t>(I->imm & 0xff);
    const std::size_t e = static_cast<std::size_t>((I->imm >> 8) & 0xff);
    regs[t].f = regs[I->b].f * regs[I->c].f;
    regs[I->a].f = regs[e].f + regs[t].f;
  } NEXT();
  CASE(kObsCount) {
    // Else edge of a §6.3 change-check guard: the broadcast for site
    // I->imm was held back this superstep. Graph lookup only when metered.
    if (shard) {
      const auto dir = static_cast<GraphDir>(I->a);
      shard->add(obs::Counter::kSendsSuppressed,
                 dir == GraphDir::kIn
                     ? ctx.graph->in_neighbors(ctx.vertex).size()
                     : ctx.graph->out_neighbors(ctx.vertex).size());
    }
  } NEXT();

#if !DV_VM_CG
    }
  }
#endif
#undef CASE
#undef NEXT
  DV_FAIL("fell off the end of a bytecode chunk");
}

}  // namespace deltav::dv
