#include "dv/codegen/native_emit.h"

#include <cmath>
#include <sstream>

#include "dv/codegen/native_abi.h"
#include "dv/obs/metrics.h"
#include "dv/runtime/value.h"

namespace deltav::dv::native {

namespace {

/// Thrown internally when the program leaves the emittable subset; caught
/// at the top and reported as NativeUnit::unsupported (→ vm fallback).
struct Unsupported {
  std::string reason;
};

[[noreturn]] void unsupported(const std::string& reason) {
  throw Unsupported{reason};
}

std::string int_lit(std::int64_t v) {
  if (v == std::numeric_limits<std::int64_t>::min())
    return "(-9223372036854775807LL - 1LL)";
  return std::to_string(v) + "LL";
}

/// Exact double literal. Hex floats round-trip bit-for-bit, which the
/// tier-equivalence contract requires (a shortest-decimal print does too,
/// but hex is unambiguous across libcs).
std::string double_lit(double v) {
  if (std::isnan(v)) return "std::numeric_limits<double>::quiet_NaN()";
  if (std::isinf(v))
    return v > 0 ? "std::numeric_limits<double>::infinity()"
                 : "-std::numeric_limits<double>::infinity()";
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

/// The baked Value tag (native_abi.h pins kInt=0, kBool=1, kFloat=2).
std::string tag_of(Type t) {
  switch (t) {
    case Type::kInt: return "0u";
    case Type::kBool: return "1u";
    case Type::kFloat: return "2u";
    default:
      unsupported(std::string("no native tag for type ") + type_name(t));
  }
}

/// True when `e` is a pure value expression that cannot observe the edge
/// being broadcast over — the gate for evaluating a send payload once per
/// neighbor span instead of once per edge. Mirrors the VM's "direct
/// operand" fast path but admits whole pure subtrees: identical values by
/// purity, so identical messages and counters.
bool span_invariant(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kEdgeWeight:
      return false;
    case ExprKind::kIntLit:
    case ExprKind::kFloatLit:
    case ExprKind::kBoolLit:
    case ExprKind::kInfty:
    case ExprKind::kFieldRef:
    case ExprKind::kParamRef:
    case ExprKind::kScratchRef:
    case ExprKind::kDegree:
    case ExprKind::kGraphSize:
    case ExprKind::kVertexIdRef:
    case ExprKind::kStableRef:
    case ExprKind::kBinary:
    case ExprKind::kUnary:
    case ExprKind::kPairOp:
      break;
    case ExprKind::kVarRef:
      if (e.var_kind != VarKind::kIter && e.var_kind != VarKind::kLet)
        return false;
      break;
    case ExprKind::kIf:
      // Only value-ifs: a missing-else if is a statement (and may carry
      // §6.3 obs accounting that must fire per evaluation).
      if (e.kids.size() != 3 || e.obs_site >= 0) return false;
      break;
    default:
      return false;  // assignments, lets, folds, sends, halt: effectful
  }
  for (const ExprPtr& k : e.kids)
    if (k && !span_invariant(*k)) return false;
  return true;
}

class NativeEmitter {
 public:
  explicit NativeEmitter(const CompiledProgram& cp)
      : cp_(cp), prog_(cp.program) {}

  NativeUnit emit() {
    NativeUnit unit;
    try {
      // Remote statements interleave engine supersteps with tree-evaluated
      // request/reply phases; the phase expressions are two sends and a
      // message loop — nothing hot enough to justify a native ABI for the
      // message-iteration callbacks. The whole program falls back (named
      // reason → dv.native_fallbacks.remote_read) so all supersteps run
      // one tier.
      for (const Stmt& s : prog_.stmts)
        if (!s.phases.empty())
          unsupported(
              "remote_read: request/reply phases are interpreted; the "
              "program runs on the vm tier");
      preamble();
      if (prog_.init) emit_root(*prog_.init, "init");
      for (std::size_t i = 0; i < prog_.stmts.size(); ++i) {
        const Stmt& s = prog_.stmts[i];
        if (s.body) emit_root(*s.body, "stmt" + std::to_string(i) + ".body");
        if (s.until)
          emit_root(*s.until, "stmt" + std::to_string(i) + ".until");
      }
      for (const AggSite& site : prog_.sites) {
        if (site.send_expr)
          emit_root(*site.send_expr,
                    "site" + std::to_string(site.id) + ".send");
        if (site.init_send_expr)
          emit_root(*site.init_send_expr,
                    "site" + std::to_string(site.id) + ".init_send");
      }
      footer();
    } catch (const Unsupported& u) {
      return NativeUnit{.source = {}, .roots = {}, .unsupported = u.reason};
    }
    unit.source = out_.str();
    unit.roots = std::move(roots_);
    return unit;
  }

 private:
  // --------------------------------------------------------------- output

  void line(const std::string& s) { out_ << ind_ << s << "\n"; }
  void open(const std::string& s) {
    line(s);
    ind_ += "  ";
  }
  void close(const std::string& s = "}") {
    ind_.resize(ind_.size() - 2);
    line(s);
  }
  /// close("} else {") + re-indent, for two-armed blocks.
  void reopen(const std::string& s) {
    close(s);
    ind_ += "  ";
  }

  std::string fresh() { return "t" + std::to_string(tmp_++); }

  // ---------------------------------------------------------- expressions
  //
  // gen() emits any side effects and stateful reads as statements at call
  // time and returns a *pure* expression string over const temporaries and
  // call-invariant ctx members — so parents may combine returned strings
  // in any textual order without reordering effects.

  std::string materialize(const std::string& expr) {
    const std::string t = fresh();
    line("const DvnValue " + t + " = " + expr + ";");
    return t;
  }

  std::string gen(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: return "dvn_int(" + int_lit(e.int_val) + ")";
      case ExprKind::kFloatLit:
        return "dvn_float(" + double_lit(e.float_val) + ")";
      case ExprKind::kBoolLit:
        return e.bool_val ? "dvn_bool(true)" : "dvn_bool(false)";
      case ExprKind::kInfty:
        return "dvn_float(std::numeric_limits<double>::infinity())";
      case ExprKind::kGraphSize:
        return "dvn_int((std::int64_t)ctx.graph_size)";
      case ExprKind::kVertexIdRef:
        return "dvn_int((std::int64_t)ctx.vertex)";
      case ExprKind::kStableRef: return "dvn_bool(ctx.stable != 0u)";
      case ExprKind::kEdgeWeight:
        // Mutable during send loops: pin the value at evaluation order.
        return materialize("dvn_float(ctx.cur_edge_weight)");
      case ExprKind::kParamRef:
        return "ctx.params[" + std::to_string(e.slot) + "]";
      case ExprKind::kVarRef:
        if (e.var_kind == VarKind::kIter) return "dvn_int(ctx.iter)";
        if (e.var_kind != VarKind::kLet)
          unsupported("unresolved variable reference");
        return materialize("ctx.scratch[" + std::to_string(e.slot) + "]");
      case ExprKind::kFieldRef:
        return materialize("ctx.fields[" + std::to_string(e.slot) + "]");
      case ExprKind::kScratchRef:
        return materialize("ctx.scratch[" + std::to_string(e.slot) + "]");
      case ExprKind::kBinary: return gen_binary(e);
      case ExprKind::kUnary: {
        const std::string a = gen(*e.kids[0]);
        if (e.un_op == UnOp::kNot) return "dvn_bool(!dvn_as_b(" + a + "))";
        return e.type == Type::kInt
                   ? "dvn_int(-dvn_as_i(" + a + "))"
                   : "dvn_float(-dvn_as_f(" + a + "))";
      }
      case ExprKind::kPairOp: {
        const std::string a = gen(*e.kids[0]);
        const std::string b = gen(*e.kids[1]);
        const char* cmp = e.pair_op == PairOp::kMin ? "<=" : ">=";
        return "dvn_coerce(dvn_as_f(" + a + ") " + cmp + " dvn_as_f(" + b +
               ") ? " + a + " : " + b + ", " + tag_of(e.type) + ")";
      }
      case ExprKind::kIf: return gen_if(e);
      case ExprKind::kLet: {
        const std::string v = gen(*e.kids[0]);
        line("ctx.scratch[" + std::to_string(e.slot) + "] = dvn_coerce(" +
             v + ", " + tag_of(e.decl_type) + ");");
        return gen(*e.kids[1]);
      }
      case ExprKind::kSeq: {
        std::string last = "dvn_int(0LL)";
        for (const ExprPtr& k : e.kids) last = gen(*k);
        return last;
      }
      case ExprKind::kAssign: {
        const std::string v = gen(*e.kids[0]);
        if (e.assign_target == AssignTarget::kField) {
          const Field& f = prog_.fields[static_cast<std::size_t>(e.slot)];
          line("ctx.fields[" + std::to_string(e.slot) + "] = dvn_coerce(" +
               v + ", " + tag_of(f.type) + ");");
          if (f.origin == Field::Origin::kUser)
            line("ctx.any_field_assign = 1u;");
        } else {
          const ScratchVar& sv =
              prog_.scratch[static_cast<std::size_t>(e.slot)];
          line("ctx.scratch[" + std::to_string(e.slot) + "] = dvn_coerce(" +
               v + ", " + tag_of(sv.type) + ");");
        }
        return "dvn_int(0LL)";
      }
      case ExprKind::kLocalDecl: {
        const std::string v = gen(*e.kids[0]);
        line("ctx.fields[" + std::to_string(e.slot) + "] = dvn_coerce(" + v +
             ", " + tag_of(e.decl_type) + ");");
        return "dvn_int(0LL)";
      }
      case ExprKind::kDegree: {
        const char* dir_in = e.dir == GraphDir::kIn ? "1u" : "0u";
        return materialize(std::string("dvn_int((std::int64_t)ctx.degree("
                                       "ctx.host, ") +
                           dir_in + "))");
      }
      case ExprKind::kFoldMessages: return gen_fold(e);
      case ExprKind::kSendLoop:
        gen_send_loop(e);
        return "dvn_int(0LL)";
      case ExprKind::kHalt:
        line("ctx.halt_requested = 1u;");
        return "dvn_int(0LL)";
      case ExprKind::kAgg:
      case ExprKind::kNeighborField:
        unsupported(std::string("unconverted ") + expr_kind_name(e.kind) +
                    " node");
    }
    unsupported("unhandled expression kind");
  }

  std::string gen_binary(const Expr& e) {
    // Short-circuit operators first, exactly as the interpreter.
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      const bool is_and = e.bin_op == BinOp::kAnd;
      const std::string t = fresh();
      line("DvnValue " + t + ";");
      const std::string a = gen(*e.kids[0]);
      open(std::string("if (") + (is_and ? "!" : "") + "dvn_as_b(" + a +
           ")) {");
      line(t + " = dvn_bool(" + (is_and ? "false" : "true") + ");");
      reopen("} else {");
      const std::string b = gen(*e.kids[1]);
      line(t + " = dvn_bool(dvn_as_b(" + b + "));");
      close();
      return t;
    }
    const std::string a = gen(*e.kids[0]);
    const std::string b = gen(*e.kids[1]);
    const auto arith = [&](const char* op) {
      return e.type == Type::kInt
                 ? "dvn_int(dvn_as_i(" + a + ") " + op + " dvn_as_i(" + b +
                       "))"
                 : "dvn_float(dvn_as_f(" + a + ") " + op + " dvn_as_f(" + b +
                       "))";
    };
    const auto cmp = [&](const char* op) {
      return "dvn_bool(dvn_as_f(" + a + ") " + op + " dvn_as_f(" + b + "))";
    };
    switch (e.bin_op) {
      case BinOp::kAdd: return arith("+");
      case BinOp::kSub: return arith("-");
      case BinOp::kMul: return arith("*");
      case BinOp::kDiv:
        // '/' is always float (IEEE: x/0 → ±inf, 0/0 → nan).
        return "dvn_float(dvn_as_f(" + a + ") / dvn_as_f(" + b + "))";
      case BinOp::kLt: return cmp("<");
      case BinOp::kGt: return cmp(">");
      case BinOp::kGe: return cmp(">=");
      case BinOp::kLe: return cmp("<=");
      case BinOp::kEq: return "dvn_bool(dvn_equals(" + a + ", " + b + "))";
      case BinOp::kNe: return "dvn_bool(!dvn_equals(" + a + ", " + b + "))";
      default: unsupported("unhandled binary operator");
    }
  }

  std::string gen_if(const Expr& e) {
    const std::string t = fresh();
    line("DvnValue " + t + " = dvn_int(0LL);");
    const std::string c = gen(*e.kids[0]);
    open("if (dvn_as_b(" + c + ")) {");
    const std::string v = gen(*e.kids[1]);
    if (e.type != Type::kUnit)
      line(t + " = dvn_coerce(" + v + ", " + tag_of(e.type) + ");");
    if (e.kids.size() == 3) {
      reopen("} else {");
      const std::string v2 = gen(*e.kids[2]);
      if (e.type != Type::kUnit)
        line(t + " = dvn_coerce(" + v2 + ", " + tag_of(e.type) + ");");
      close();
    } else if (e.obs_site >= 0) {
      // §6.3 change check held a whole broadcast back: count the fan-out
      // that was never sent (metered runs only).
      reopen("} else if (ctx.has_obs && ctx.has_vertex) {");
      line(std::string("ctx.obs_add(ctx.host, kObsSendsSuppressed, "
                       "ctx.degree(ctx.host, ") +
           (e.dir == GraphDir::kIn ? "1u" : "0u") + "));");
      close();
    } else {
      close();
    }
    return t;
  }

  /// Eq. 3 full fold / Eq. 8-9 Δ-fold into the memoized accumulator slots,
  /// specialized for one site (runtime/interpreter.cpp eval_fold).
  std::string gen_fold(const Expr& e) {
    const AggSite& site = prog_.sites[static_cast<std::size_t>(e.site)];
    const std::string op = std::to_string(static_cast<int>(site.op));
    const std::string tg = tag_of(site.elem_type);
    const std::string S = std::to_string(e.site);
    const std::string t = fresh();
    line("DvnValue " + t + ";");
    open("{");
    if (!e.flag) {
      line("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsMemoRecomputes, "
           "1ull);");
      line("DvnValue dvn_acc = dvn_agg_identity(" + op + ", " + tg + ");");
      open("for (std::uint64_t dvn_mi = 0; dvn_mi < ctx.num_msgs; "
           "++dvn_mi) {");
      line("const DvnMsg& m = ctx.msgs[dvn_mi];");
      line("if (m.site != " + S + "u) continue;");
      line("dvn_acc = dvn_agg_apply(" + op + ", " + tg +
           ", dvn_acc, m.payload);");
      close();
      line(t + " = dvn_acc;");
    } else {
      line("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsMemoHits, 1ull);");
      const std::string acc =
          "ctx.fields[" + std::to_string(site.acc_slot) + "]";
      if (site.multiplicative()) {
        line("if (ctx.has_obs) ctx.obs_add(ctx.host, "
             "kObsAbsorbingSlowPath, 1ull);");
        const std::string nn =
            "ctx.fields[" + std::to_string(site.nn_slot) + "]";
        const std::string nulls =
            "ctx.fields[" + std::to_string(site.nulls_slot) + "]";
        open("for (std::uint64_t dvn_mi = 0; dvn_mi < ctx.num_msgs; "
             "++dvn_mi) {");
        line("const DvnMsg& m = ctx.msgs[dvn_mi];");
        line("if (m.site != " + S + "u) continue;");
        line(nn + " = dvn_agg_apply(" + op + ", " + tg + ", " + nn +
             ", m.payload);");
        line(nulls + ".u.i += (std::int64_t)m.nulls - "
                     "(std::int64_t)m.denulls;");
        line(acc + " = " + nulls + ".u.i > 0 ? dvn_agg_absorbing(" + op +
             ", " + tg + ") : " + nn + ";");
        close();
      } else {
        open("for (std::uint64_t dvn_mi = 0; dvn_mi < ctx.num_msgs; "
             "++dvn_mi) {");
        line("const DvnMsg& m = ctx.msgs[dvn_mi];");
        line("if (m.site != " + S + "u) continue;");
        line(acc + " = dvn_agg_apply(" + op + ", " + tg + ", " + acc +
             ", m.payload);");
        close();
      }
      line(t + " = " + acc + ";");
    }
    close();
    return t;
  }

  /// Broadcast over one neighbor span (runtime/interpreter.cpp
  /// eval_send_loop): last-execution suppression, then the send loop —
  /// with the whole-span single-synthesis specialization when the payload
  /// is span-invariant. The host sink picks the fold path per send and
  /// returns how many contributions it buffered; only those are counted.
  /// No-op Δs of ctx.record_sites still reach it, as memo removals.
  void gen_send_loop(const Expr& e) {
    const AggSite& site = prog_.sites[static_cast<std::size_t>(e.site)];
    const std::string op = std::to_string(static_cast<int>(site.op));
    const std::string tg = tag_of(site.elem_type);
    const std::string S = std::to_string(e.site);
    const bool invariant =
        span_invariant(*e.kids[0]) &&
        (!e.flag || span_invariant(*e.kids[1]));
    open("{");
    line("const std::uint32_t* dvn_tg; const double* dvn_wt;");
    line("std::uint64_t dvn_nt, dvn_nw;");
    line(std::string("ctx.arcs(ctx.host, ") +
         (e.dir == GraphDir::kIn ? "1u" : "0u") +
         ", &dvn_tg, &dvn_wt, &dvn_nt, &dvn_nw);");
    open("if (ctx.suppress_sites & (1ull << " + S + ")) {");
    line("if (ctx.has_obs) ctx.obs_add(ctx.host, "
         "kObsLastStepSendsSuppressed, dvn_nt);");
    reopen("} else {");

    const auto set_envelope = [&](const char* msg) {
      line(std::string(msg) + ".site = (std::uint8_t)" + S + "; " + msg +
           ".wire = ctx.site_wire[" + S + "];");
    };

    if (invariant && e.flag) {
      open("if (dvn_nt) {");
      line("ctx.cur_edge_weight = dvn_nw ? dvn_wt[dvn_nt - 1] : 1.0;");
      const std::string nv = gen(*e.kids[0]);
      const std::string ov = gen(*e.kids[1]);
      line("const DvnValue dvn_nv = dvn_coerce(" + nv + ", " + tg + ");");
      line("const DvnValue dvn_ov = dvn_coerce(" + ov + ", " + tg + ");");
      line("const DvnDelta dvn_d = dvn_synth_delta(" + op + ", " + tg +
           ", dvn_ov, dvn_nv);");
      line("if (dvn_d.noop && ctx.has_obs) ctx.obs_add(ctx.host, "
           "kObsSendsSuppressed, dvn_nt);");
      open("if (!dvn_d.noop || (ctx.record_sites & (1ull << " + S + "))) {");
      line("DvnMsg dvn_msg; dvn_msg.payload = dvn_d.value; "
           "dvn_msg.nulls = dvn_d.nulls; dvn_msg.denulls = dvn_d.denulls;");
      set_envelope("dvn_msg");
      line("const std::uint64_t dvn_sent = "
           "ctx.send_span(ctx.host, dvn_tg, dvn_nt, &dvn_msg);");
      line("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsDeltaMessages, "
           "dvn_sent);");
      close();
      close();
    } else if (invariant) {
      open("if (dvn_nt) {");
      line("ctx.cur_edge_weight = dvn_nw ? dvn_wt[dvn_nt - 1] : 1.0;");
      const std::string p = gen(*e.kids[0]);
      line("const DvnValue dvn_pl = dvn_coerce(" + p + ", " + tg + ");");
      open("if (dvn_is_identity(" + op + ", dvn_pl)) {");
      line("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsSendsSuppressed, "
           "dvn_nt);");
      reopen("} else {");
      line("DvnMsg dvn_msg; dvn_msg.payload = dvn_pl; dvn_msg.nulls = 0; "
           "dvn_msg.denulls = 0;");
      set_envelope("dvn_msg");
      line("const std::uint64_t dvn_sent = "
           "ctx.send_span(ctx.host, dvn_tg, dvn_nt, &dvn_msg);");
      line("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsFullMessages, "
           "dvn_sent);");
      close();
      close();
    } else if (e.flag) {
      line("std::uint64_t dvn_sup = 0, dvn_sent = 0;");
      open("for (std::uint64_t dvn_ei = 0; dvn_ei < dvn_nt; ++dvn_ei) {");
      line("ctx.cur_edge_weight = dvn_nw ? dvn_wt[dvn_ei] : 1.0;");
      const std::string nv = gen(*e.kids[0]);
      const std::string ov = gen(*e.kids[1]);
      line("const DvnValue dvn_nv = dvn_coerce(" + nv + ", " + tg + ");");
      line("const DvnValue dvn_ov = dvn_coerce(" + ov + ", " + tg + ");");
      line("const DvnDelta dvn_d = dvn_synth_delta(" + op + ", " + tg +
           ", dvn_ov, dvn_nv);");
      line("if (dvn_d.noop) { ++dvn_sup; "
           "if (!(ctx.record_sites & (1ull << " + S + "))) continue; }");
      line("DvnMsg dvn_msg; dvn_msg.payload = dvn_d.value; "
           "dvn_msg.nulls = dvn_d.nulls; dvn_msg.denulls = dvn_d.denulls;");
      set_envelope("dvn_msg");
      line("dvn_sent += ctx.send(ctx.host, dvn_tg[dvn_ei], &dvn_msg);");
      close();
      open("if (ctx.has_obs) {");
      line("ctx.obs_add(ctx.host, kObsSendsSuppressed, dvn_sup);");
      line("ctx.obs_add(ctx.host, kObsDeltaMessages, dvn_sent);");
      close();
    } else {
      line("std::uint64_t dvn_sup = 0, dvn_sent = 0;");
      open("for (std::uint64_t dvn_ei = 0; dvn_ei < dvn_nt; ++dvn_ei) {");
      line("ctx.cur_edge_weight = dvn_nw ? dvn_wt[dvn_ei] : 1.0;");
      const std::string p = gen(*e.kids[0]);
      line("const DvnValue dvn_pl = dvn_coerce(" + p + ", " + tg + ");");
      line("if (dvn_is_identity(" + op + ", dvn_pl)) { ++dvn_sup; "
           "continue; }");
      line("DvnMsg dvn_msg; dvn_msg.payload = dvn_pl; dvn_msg.nulls = 0; "
           "dvn_msg.denulls = 0;");
      set_envelope("dvn_msg");
      line("dvn_sent += ctx.send(ctx.host, dvn_tg[dvn_ei], &dvn_msg);");
      close();
      open("if (ctx.has_obs) {");
      line("ctx.obs_add(ctx.host, kObsSendsSuppressed, dvn_sup);");
      line("ctx.obs_add(ctx.host, kObsFullMessages, dvn_sent);");
      close();
    }
    close();  // else (not suppressed)
    close();  // block
  }

  // -------------------------------------------------------------- roots

  void emit_root(const Expr& e, const std::string& label) {
    const int idx = static_cast<int>(roots_.size());
    roots_.push_back(&e);
    tmp_ = 0;
    out_ << "\n// root " << idx << ": " << label << "\n";
    open("static void dvn_root_" + std::to_string(idx) +
         "(DvnCtx* dvn_ctx, DvnValue* dvn_ret) {");
    line("DvnCtx& ctx = *dvn_ctx;");
    const std::string r = gen(e);
    line("*dvn_ret = " + r + ";");
    close();
  }

  // ------------------------------------------------------------ sections

  void preamble() {
    out_ << "// Native-tier translation unit for a compiled ΔV program "
            "(variant: "
         << (cp_.options.incrementalize ? "ΔV" : "ΔV*")
         << ").\n"
            "// Generated by dv::native::emit_native_unit - do not edit.\n"
            "// ABI v"
         << kDvnAbiVersion
         << " (src/dv/codegen/native_abi.h); semantics mirror\n"
            "// src/dv/runtime/interpreter.cpp and are held bit-exact by "
            "the differential\n"
            "// fuzzer's tier axis.\n";
    out_ << R"raw(#include <cstddef>
#include <cstdint>
#include <limits>

extern "C" {
struct DvnValue {
  std::uint8_t tag;  // 0 = int, 1 = bool, 2 = float
  union { std::int64_t i; double f; bool b; } u;
};
struct DvnMsg {
  DvnValue payload;
  std::int32_t nulls;
  std::int32_t denulls;
  std::uint8_t site;
  std::uint8_t wire;
};
struct DvnCtx {
  DvnValue* fields;
  DvnValue* scratch;
  const DvnMsg* msgs;
  std::uint64_t num_msgs;
  std::uint32_t vertex;
  std::uint8_t has_vertex;
  const DvnValue* params;
  std::int64_t iter;
  std::uint8_t stable;
  std::uint64_t suppress_sites;
  std::uint64_t record_sites;
  std::uint64_t graph_size;
  double cur_edge_weight;
  std::uint8_t halt_requested;
  std::uint8_t any_field_assign;
  const std::uint8_t* site_wire;
  std::uint8_t has_obs;
  void* host;
  void (*arcs)(void* host, std::uint8_t dir_in, const std::uint32_t** nbrs,
               const double** wts, std::uint64_t* n_nbrs,
               std::uint64_t* n_wts);
  std::uint64_t (*degree)(void* host, std::uint8_t dir_in);
  std::uint64_t (*send)(void* host, std::uint32_t dst, const DvnMsg* msg);
  std::uint64_t (*send_span)(void* host, const std::uint32_t* dsts,
                             std::uint64_t n, const DvnMsg* msg);
  void (*obs_add)(void* host, std::uint32_t counter, std::uint64_t n);
};
typedef void (*DvnRootFn)(DvnCtx*, DvnValue*);
struct DvnVTable {
  std::uint32_t abi_version;
  std::uint32_t num_roots;
  const char* source_digest;
  const DvnRootFn* roots;
};
}  // extern "C"

// Layout pins: refuse to build where the host's raw-pointer crossing
// would be illegal (native_abi.h asserts the mirror-image side).
static_assert(sizeof(DvnValue) == 16 && alignof(DvnValue) == 8, "abi");
static_assert(offsetof(DvnValue, u) == 8, "abi");
static_assert(sizeof(DvnMsg) == 32, "abi");
static_assert(offsetof(DvnMsg, nulls) == 16, "abi");
static_assert(offsetof(DvnMsg, denulls) == 20, "abi");
static_assert(offsetof(DvnMsg, site) == 24, "abi");
static_assert(offsetof(DvnMsg, wire) == 25, "abi");
static_assert(sizeof(bool) == 1, "abi");

// ---- Value algebra, mirroring src/dv/runtime/value.h. `op` mirrors
// AggOp (0 +, 1 *, 2 min, 3 max, 4 ||, 5 &&), `tag` mirrors Type. Call
// sites pass constants; the optimizer folds every dispatch below into
// straight-line code.
static inline DvnValue dvn_int(std::int64_t v) {
  DvnValue x; x.tag = 0u; x.u.i = v; return x;
}
static inline DvnValue dvn_float(double v) {
  DvnValue x; x.tag = 2u; x.u.f = v; return x;
}
static inline DvnValue dvn_bool(bool v) {
  DvnValue x; x.tag = 1u; x.u.i = 0; x.u.b = v; return x;
}
static inline double dvn_as_f(DvnValue v) {
  return v.tag == 2u ? v.u.f
                     : (v.tag == 0u ? (double)v.u.i : (v.u.b ? 1.0 : 0.0));
}
static inline std::int64_t dvn_as_i(DvnValue v) {
  return v.tag == 0u
             ? v.u.i
             : (v.tag == 2u ? (std::int64_t)v.u.f
                            : (std::int64_t)(v.u.b ? 1 : 0));
}
static inline bool dvn_as_b(DvnValue v) { return v.u.b; }
static inline DvnValue dvn_coerce(DvnValue v, unsigned tag) {
  if (v.tag == tag) return v;
  if (tag == 2u) return dvn_float(dvn_as_f(v));
  if (tag == 0u) return dvn_int(dvn_as_i(v));
  return dvn_bool(dvn_as_b(v));
}
static inline bool dvn_equals(DvnValue a, DvnValue b) {
  if (a.tag == 1u || b.tag == 1u) return a.tag == b.tag && a.u.b == b.u.b;
  if (a.tag == 0u && b.tag == 0u) return a.u.i == b.u.i;
  return dvn_as_f(a) == dvn_as_f(b);
}
static inline DvnValue dvn_agg_identity(int op, unsigned tag) {
  if (tag == 1u) return dvn_bool(op == 5);
  if (tag == 0u) {
    if (op == 0) return dvn_int(0);
    if (op == 1) return dvn_int(1);
    if (op == 2) return dvn_int(9223372036854775807LL);
    return dvn_int(-9223372036854775807LL - 1LL);
  }
  if (op == 0) return dvn_float(0.0);
  if (op == 1) return dvn_float(1.0);
  if (op == 2) return dvn_float(std::numeric_limits<double>::infinity());
  return dvn_float(-std::numeric_limits<double>::infinity());
}
static inline DvnValue dvn_agg_absorbing(int op, unsigned tag) {
  if (op == 1) return tag == 0u ? dvn_int(0) : dvn_float(0.0);
  return dvn_bool(op == 4);
}
static inline bool dvn_is_absorbing(int op, DvnValue v) {
  if (op == 1) return dvn_as_f(v) == 0.0;
  if (op == 5) return !dvn_as_b(v);
  if (op == 4) return dvn_as_b(v);
  return false;
}
static inline bool dvn_is_identity(int op, DvnValue v) {
  switch (op) {
    case 0: return dvn_as_f(v) == 0.0;
    case 1: return dvn_as_f(v) == 1.0;
    case 2:
      return v.tag == 0u
                 ? v.u.i == 9223372036854775807LL
                 : dvn_as_f(v) == std::numeric_limits<double>::infinity();
    case 3:
      return v.tag == 0u
                 ? v.u.i == (-9223372036854775807LL - 1LL)
                 : dvn_as_f(v) == -std::numeric_limits<double>::infinity();
    case 5: return dvn_as_b(v);
    default: return !dvn_as_b(v);
  }
}
static inline DvnValue dvn_agg_apply(int op, unsigned tag, DvnValue a,
                                     DvnValue b) {
  switch (op) {
    case 0:
      return tag == 0u ? dvn_int(dvn_as_i(a) + dvn_as_i(b))
                       : dvn_float(dvn_as_f(a) + dvn_as_f(b));
    case 1:
      return tag == 0u ? dvn_int(dvn_as_i(a) * dvn_as_i(b))
                       : dvn_float(dvn_as_f(a) * dvn_as_f(b));
    case 2:
      if (tag == 0u)
        return dvn_int(dvn_as_i(a) < dvn_as_i(b) ? dvn_as_i(a)
                                                 : dvn_as_i(b));
      return dvn_float(dvn_as_f(a) < dvn_as_f(b) ? dvn_as_f(a)
                                                 : dvn_as_f(b));
    case 3:
      if (tag == 0u)
        return dvn_int(dvn_as_i(a) > dvn_as_i(b) ? dvn_as_i(a)
                                                 : dvn_as_i(b));
      return dvn_float(dvn_as_f(a) > dvn_as_f(b) ? dvn_as_f(a)
                                                 : dvn_as_f(b));
    case 4: return dvn_bool(dvn_as_b(a) || dvn_as_b(b));
    default: return dvn_bool(dvn_as_b(a) && dvn_as_b(b));
  }
}
// Δ-message synthesis, mirroring src/dv/runtime/delta.h (§6.5 / Eq. 11).
struct DvnDelta {
  DvnValue value;
  std::int32_t nulls;
  std::int32_t denulls;
  bool noop;
};
static inline DvnDelta dvn_synth_delta(int op, unsigned tag, DvnValue old_v,
                                       DvnValue new_v) {
  DvnDelta d;
  d.nulls = 0; d.denulls = 0; d.noop = false;
  switch (op) {
    case 0:
      d.value = tag == 0u ? dvn_int(dvn_as_i(new_v) - dvn_as_i(old_v))
                          : dvn_float(dvn_as_f(new_v) - dvn_as_f(old_v));
      d.noop = dvn_is_identity(op, d.value);
      return d;
    case 1: {
      const bool old_null = dvn_is_absorbing(op, old_v);
      const bool new_null = dvn_is_absorbing(op, new_v);
      if (!old_null && !new_null) {
        d.value = dvn_float(dvn_as_f(new_v) / dvn_as_f(old_v));
        d.noop = dvn_is_identity(op, d.value);
      } else if (!old_null && new_null) {
        d.value = dvn_float(1.0 / dvn_as_f(old_v));
        d.nulls = 1;
      } else if (old_null && !new_null) {
        d.value = dvn_coerce(new_v, tag);
        d.denulls = 1;
      } else {
        d.value = dvn_agg_identity(op, tag);
        d.noop = true;
      }
      return d;
    }
    case 2:
    case 3:
      d.value = dvn_coerce(new_v, tag);
      d.noop = dvn_is_identity(op, d.value);
      return d;
    default: {
      const bool old_null = dvn_is_absorbing(op, old_v);
      const bool new_null = dvn_is_absorbing(op, new_v);
      d.value = dvn_agg_identity(op, tag);
      if (!old_null && new_null) d.nulls = 1;
      else if (old_null && !new_null) d.denulls = 1;
      else d.noop = true;
      return d;
    }
  }
}
)raw";
    // Observability counter ids, baked from the host's fixed catalogue at
    // emission time (obs/metrics.h) — always in sync by construction.
    const auto cid = [](obs::Counter c) {
      return std::to_string(static_cast<std::uint32_t>(c)) + "u";
    };
    out_ << "enum : std::uint32_t {\n"
         << "  kObsSendsSuppressed = " << cid(obs::Counter::kSendsSuppressed)
         << ",\n"
         << "  kObsDeltaMessages = " << cid(obs::Counter::kDeltaMessages)
         << ",\n"
         << "  kObsFullMessages = " << cid(obs::Counter::kFullMessages)
         << ",\n"
         << "  kObsLastStepSendsSuppressed = "
         << cid(obs::Counter::kLastStepSendsSuppressed) << ",\n"
         << "  kObsMemoHits = " << cid(obs::Counter::kMemoHits) << ",\n"
         << "  kObsMemoRecomputes = " << cid(obs::Counter::kMemoRecomputes)
         << ",\n"
         << "  kObsAbsorbingSlowPath = "
         << cid(obs::Counter::kAbsorbingSlowPath) << ",\n"
         << "};\n";
  }

  void footer() {
    out_ << "\nstatic const DvnRootFn kDvnRoots[] = {\n";
    for (std::size_t i = 0; i < roots_.size(); ++i)
      out_ << "  dvn_root_" << i << ",\n";
    out_ << "};\n"
         << "static const DvnVTable kDvnVTable = {" << kDvnAbiVersion
         << "u, " << roots_.size() << "u, \"" << kDigestPlaceholder
         << "\", kDvnRoots};\n"
         << "extern \"C\" __attribute__((visibility(\"default\"))) const "
            "DvnVTable* "
         << kDvnEntrySymbol << "() { return &kDvnVTable; }\n";
  }

  const CompiledProgram& cp_;
  const Program& prog_;
  std::ostringstream out_;
  std::string ind_;
  std::vector<const Expr*> roots_;
  int tmp_ = 0;
};

}  // namespace

NativeUnit emit_native_unit(const CompiledProgram& cp) {
  if (cp.program.sites.size() >= 64)
    return NativeUnit{.source = {},
                      .roots = {},
                      .unsupported = "more than 63 aggregation sites"};
  return NativeEmitter(cp).emit();
}

}  // namespace deltav::dv::native
