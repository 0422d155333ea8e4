#include "dv/codegen/native_emit.h"

#include <sstream>

#include "dv/codegen/native_abi.h"

namespace deltav::dv::native {

namespace {

/// What every chunk function needs besides its own code, after the ABI
/// declarations (kDvnAbiDecls): layout pins, the register type, the Value
/// algebra, and the fold and send loops.
constexpr const char* kPreamble = R"raw(
// Layout pins: refuse to build where the host's raw-pointer crossing
// would be illegal (native_abi.h asserts the mirror-image side).
static_assert(sizeof(DvnValue) == 16 && alignof(DvnValue) == 8 &&
              offsetof(DvnValue, u) == 8 && sizeof(DvnMsg) == 32 &&
              offsetof(DvnMsg, nulls) == 16 && offsetof(DvnMsg, site) == 24 &&
              offsetof(DvnMsg, denulls) == 20 && sizeof(bool) == 1 &&
              offsetof(DvnMsg, wire) == 25, "abi");

// A VM register (VmSlot, src/dv/runtime/bytecode.h).
union VmSlot { std::int64_t i; double f; bool b; };

// ---- Value algebra, mirroring src/dv/runtime/value.h and delta.h. `op`
// mirrors AggOp (0 +, 1 *, 2 min, 3 max, 4 ||, 5 &&), `tag` mirrors Type.
// Call sites pass constants, so the optimizer folds every dispatch.
static inline DvnValue dvn_raw(unsigned tag, std::int64_t bits) {
  DvnValue x; x.tag = (std::uint8_t)tag; x.u.i = bits; return x;
}
static inline DvnValue dvn_int(std::int64_t v) { return dvn_raw(0u, v); }
static inline DvnValue dvn_float(double v) {
  DvnValue x; x.tag = 2u; x.u.f = v; return x;
}
static inline DvnValue dvn_bool(bool v) {
  DvnValue x = dvn_raw(1u, 0); x.u.b = v; return x;
}
static inline double dvn_as_f(DvnValue v) {
  return v.tag == 2u ? v.u.f : v.tag == 0u ? (double)v.u.i : v.u.b;
}
static inline std::int64_t dvn_as_i(DvnValue v) {
  return v.tag == 0u ? v.u.i : v.tag == 2u ? (std::int64_t)v.u.f : v.u.b;
}
static inline DvnValue dvn_coerce(DvnValue v, unsigned tag) {
  return v.tag == tag ? v : tag == 2u ? dvn_float(dvn_as_f(v))
                          : tag == 0u ? dvn_int(dvn_as_i(v)) : dvn_bool(v.u.b);
}
static inline bool dvn_is_absorbing(int op, DvnValue v) {
  return op == 1 ? dvn_as_f(v) == 0.0 : op == 5 ? !v.u.b : op == 4 && v.u.b;
}
static inline bool dvn_is_identity(int op, DvnValue v) {
  typedef std::numeric_limits<std::int64_t> I;
  const double inf = std::numeric_limits<double>::infinity();
  if (op == 2 || op == 3)
    return v.tag == 0u ? v.u.i == (op == 2 ? I::max() : I::min())
                       : dvn_as_f(v) == (op == 2 ? inf : -inf);
  return op < 2 ? dvn_as_f(v) == op : op == 5 ? v.u.b : !v.u.b;
}
static inline DvnValue dvn_agg_apply(int op, unsigned tag, DvnValue a,
                                     DvnValue b) {
  if (op >= 4) return dvn_bool(op == 4 ? a.u.b || b.u.b : a.u.b && b.u.b);
  if (tag == 0u) {
    const std::int64_t x = dvn_as_i(a), y = dvn_as_i(b);
    return dvn_int(op == 0 ? x + y : op == 1 ? x * y
                   : op == 2 ? (x < y ? x : y) : (x > y ? x : y));
  }
  const double x = dvn_as_f(a), y = dvn_as_f(b);
  return dvn_float(op == 0 ? x + y : op == 1 ? x * y
                   : op == 2 ? (x < y ? x : y) : (x > y ? x : y));
}
struct DvnDelta { DvnValue value; std::int32_t nulls, denulls; bool noop; };
// synthesize_delta; `id` is the site's identity.
static inline DvnDelta dvn_synth_delta(int op, unsigned tag, DvnValue id,
                                       DvnValue old_v, DvnValue new_v) {
  DvnDelta d = {id, 0, 0, false};
  if (op == 0 || op == 2 || op == 3) {
    d.value = op != 0 ? dvn_coerce(new_v, tag)
              : tag == 0u ? dvn_int(dvn_as_i(new_v) - dvn_as_i(old_v))
                          : dvn_float(dvn_as_f(new_v) - dvn_as_f(old_v));
    d.noop = dvn_is_identity(op, d.value);
    return d;
  }
  const bool old_null = dvn_is_absorbing(op, old_v);
  const bool new_null = dvn_is_absorbing(op, new_v);
  if (!old_null && new_null) {
    d.nulls = 1;
    if (op == 1) d.value = dvn_float(1.0 / dvn_as_f(old_v));
  } else if (old_null && !new_null) {
    d.denulls = 1;
    if (op == 1) d.value = dvn_coerce(new_v, tag);
  } else if (op == 1 && !old_null) {
    d.value = dvn_float(dvn_as_f(new_v) / dvn_as_f(old_v));
    d.noop = dvn_is_identity(op, d.value);
  } else {
    d.noop = true;
  }
  return d;
}
// Stored-arc count of the current vertex (suppression accounting).
static inline std::uint64_t dvn_arc_count(DvnCtx& ctx, std::uint8_t dir_in) {
  const std::uint32_t* t; const double* w; std::uint64_t n, nw;
  ctx.arcs(ctx.host, dir_in, &t, &w, &n, &nw);
  return n;
}
#define DVN_INLINE static inline __attribute__((always_inline))

// kFoldFull / kFoldDelta: folds this superstep's messages of `site` into
// `acc` — for a multiplicative Δ-fold through its nnAcc/aggNulls pair
// (apply_delta), else by agg_apply — and returns the result's bits.
DVN_INLINE std::int64_t dvn_fold(DvnCtx& ctx, std::uint8_t site, int op,
                                 unsigned tag, DvnValue* acc, DvnValue* nn,
                                 DvnValue* nulls, DvnValue absorbing) {
  for (std::uint64_t k = 0; k < ctx.num_msgs; ++k) {
    const DvnMsg& m = ctx.msgs[k];
    if (m.site != site) continue;
    if (nn) {
      *nn = dvn_agg_apply(op, tag, *nn, m.payload);
      nulls->u.i += m.nulls - m.denulls;
      *acc = nulls->u.i > 0 ? absorbing : *nn;
    } else {
      *acc = dvn_agg_apply(op, tag, *acc, m.payload);
    }
  }
  return acc->u.i;
}

// kSendDelta / kSendFull: the send loop over the vertex's arcs. `nv`/`ov`
// evaluate the new/old payload operands in that order. kDirect operands
// cannot read the edge, so one Δ, synthesized at the last arc's weight,
// serves the whole span. A full send is a Δ that is a no-op at the
// identity and is never a memo record.
template <bool kDelta, bool kDirect, class New, class Old>
DVN_INLINE void dvn_send(DvnCtx& ctx, std::uint8_t site, std::uint8_t dir_in,
                         int op, unsigned tag, DvnValue id, New nv, Old ov) {
  if (ctx.suppress_sites & (1ull << site)) {
    if (ctx.has_obs)
      ctx.obs_add(ctx.host, kObsLastStepSendsSuppressed,
                  dvn_arc_count(ctx, dir_in));
    return;
  }
  const std::uint32_t* tg; const double* wt; std::uint64_t nt, nw;
  ctx.arcs(ctx.host, dir_in, &tg, &wt, &nt, &nw);
  const bool record = kDelta && (ctx.record_sites & (1ull << site));
  DvnMsg msg; msg.site = site; msg.wire = ctx.site_wire[site];
  std::uint64_t sup = 0, sent = 0;
  for (std::uint64_t t = kDirect && nt ? nt - 1 : 0; t < nt; ++t) {
    ctx.cur_edge_weight = nw ? wt[t] : 1.0;
    const DvnValue n = nv();
    const DvnDelta d = kDelta ? dvn_synth_delta(op, tag, id, ov(), n)
                              : DvnDelta{n, 0, 0, dvn_is_identity(op, n)};
    msg.payload = d.value; msg.nulls = d.nulls; msg.denulls = d.denulls;
    if (d.noop) {
      sup += kDirect ? nt : 1;
      if (!record) continue;
    }
    sent += kDirect ? ctx.send_span(ctx.host, tg, nt, &msg)
                    : ctx.send(ctx.host, tg[t], &msg);
  }
  if (ctx.has_obs) {
    ctx.obs_add(ctx.host, kObsSendsSuppressed, sup);
    ctx.obs_add(ctx.host, kDelta ? kObsDeltaMessages : kObsFullMessages, sent);
  }
}
)raw";

/// The baked Value tag (native_abi.h pins kInt=0, kBool=1, kFloat=2), and
/// 64 bits as an integer literal (assignments convert it back).
std::string tag_of(Type t) {
  return std::to_string(static_cast<int>(t)) + "u";
}
std::string lit(std::int64_t v) {
  return std::to_string(static_cast<std::uint64_t>(v)) + "ull";
}

/// Emits one C++ function per chunk of a lowered program. Each opcode's
/// template copies its case in runtime/vm.cpp: the same register writes,
/// state stores, sink calls and metric counts as Vm::run_chunk, except the
/// VM's own dispatch counters (vm.ops_dispatched, vm.fused_ops).
class Emitter {
 public:
  Emitter(const CompiledProgram& cp, const VmProgram& vp)
      : prog_(cp.program), vp_(vp) {
    out_ << "// Native-tier unit for a compiled ΔV program (variant: "
         << (cp.options.incrementalize ? "ΔV" : "ΔV*") << "), ABI v"
         << kDvnAbiVersion << " (src/dv/codegen/native_abi.h).\n// Generated"
            " from its bytecode by dv::native::emit_native_unit - do not "
            "edit.\n// Function i runs chunk i as src/dv/runtime/vm.cpp "
            "does.\n#include <cstddef>\n#include <cstdint>\n#include "
            "<limits>\nextern \"C\" {\n"
         << kDvnAbiDecls << "\n}\n" << kPreamble;
  }

  std::string emit() {
    const std::size_t n = vp_.chunks.size();
    for (std::size_t i = 0; i < n; ++i)
      out_ << "static void dvn_chunk_" << i << "(DvnCtx*, DvnValue*);\n";
    for (std::size_t i = 0; i < n; ++i) chunk(i);
    out_ << "\nstatic const DvnChunkFn kDvnChunks[] = {";
    for (std::size_t i = 0; i < n; ++i) out_ << "dvn_chunk_" << i << ", ";
    out_ << "};\nstatic const DvnVTable kDvnVTable = {" << kDvnAbiVersion
         << "u, " << n << "u, \"" << kDigestPlaceholder
         << "\", kDvnChunks};\nextern \"C\" "
            "__attribute__((visibility(\"default\"))) const DvnVTable* "
         << kDvnEntrySymbol << "() { return &kDvnVTable; }\n";
    return out_.str();
  }

 private:
  /// Writes `tpl` as one line: $a/$b/$c/$m name registers a, b, c and
  /// imm; #b/#c/#i are the raw operands b, c and imm.
  void put(const std::string& tpl) {
    out_ << "  ";
    for (std::size_t k = 0; k < tpl.size(); ++k) {
      const char c = tpl[k];
      if ((c != '$' && c != '#') || k + 1 == tpl.size()) {
        out_ << c;
        continue;
      }
      const char w = tpl[++k];
      out_ << (c == '$' ? "r" : "")
           << (w == 'a' ? I_.a : w == 'b' ? I_.b : w == 'c' ? I_.c : I_.imm);
    }
    out_ << "\n";
  }

  void chunk(std::size_t id) {
    const Chunk& ch = vp_.chunks[id];
    ch_ = &ch;
    std::vector<bool> target(ch.code.size());  // .at(): a jump stays inside
    for (const Instr& i : ch.code)
      if (i.op == Op::kJump || i.op == Op::kJumpIfFalse ||
          i.op == Op::kJumpIfTrue)
        target.at(static_cast<std::size_t>(i.imm)) = true;
    out_ << "\nstatic void dvn_chunk_" << id
         << "(DvnCtx* dvn_ctx, DvnValue* dvn_ret) {\n  DvnCtx& ctx = "
            "*dvn_ctx;\n";
    out_ << "  VmSlot r0{}";  // zeroed registers; r0 even when unused
    for (int r = 1; r < ch.num_regs; ++r) out_ << ", r" << r << "{}";
    out_ << ";\n";
    for (std::size_t pc = 0; pc < ch.code.size(); ++pc) {
      if (target[pc]) out_ << "L" << pc << ":;\n";
      I_ = ch.code[pc];
      instr();
    }
    out_ << "}\n";
  }

  void instr() {
    switch (I_.op) {
      case Op::kConstI:
      case Op::kConstF:
        return put("$a.i = " + lit(vp_.consts[I_.imm].i) + ";");
      case Op::kConstB: return put(I_.imm ? "$a.b = true;" : "$a.b = false;");
      case Op::kMove: return put("$a = $b;");
      case Op::kI2F: return put("$a.f = (double)$b.i;");
      case Op::kF2I: return put("$a.i = (std::int64_t)$b.f;");
      case Op::kB2F: return put("$a.f = $b.b ? 1.0 : 0.0;");
      case Op::kB2I: return put("$a.i = $b.b ? 1 : 0;");
      case Op::kLoadIter: return put("$a.i = ctx.iter;");
      case Op::kLoadStable: return put("$a.b = ctx.stable != 0u;");
      case Op::kLoadVertexId: return put("$a.i = ctx.vertex;");
      case Op::kLoadGraphSize: return put("$a.i = ctx.graph_size;");
      case Op::kLoadEdgeWeight: return put("$a.f = ctx.cur_edge_weight;");
      case Op::kLoadParamI: return put("$a.i = ctx.params[#b].u.i;");
      case Op::kLoadParamF: return put("$a.f = ctx.params[#b].u.f;");
      case Op::kLoadParamB: return put("$a.b = ctx.params[#b].u.b;");
      case Op::kDegreeIn: return put("$a.i = ctx.degree(ctx.host, 1u);");
      case Op::kDegreeOut: return put("$a.i = ctx.degree(ctx.host, 0u);");
      case Op::kLoadFieldI: return put("$a.i = ctx.fields[#b].u.i;");
      case Op::kLoadFieldF: return put("$a.f = ctx.fields[#b].u.f;");
      case Op::kLoadFieldB: return put("$a.b = ctx.fields[#b].u.b;");
      case Op::kStoreFieldI: return store("fields", "0u", "i");
      case Op::kStoreFieldF: return store("fields", "2u", "f");
      case Op::kStoreFieldB: return store("fields", "1u", "b");
      case Op::kLoadScratchI: return put("$a.i = ctx.scratch[#b].u.i;");
      case Op::kLoadScratchF: return put("$a.f = ctx.scratch[#b].u.f;");
      case Op::kLoadScratchB: return put("$a.b = ctx.scratch[#b].u.b;");
      case Op::kStoreScratchI: return store("scratch", "0u", "i");
      case Op::kStoreScratchF: return store("scratch", "2u", "f");
      case Op::kStoreScratchB: return store("scratch", "1u", "b");
      case Op::kAddI: return put("$a.i = $b.i + $c.i;");
      case Op::kAddF: return put("$a.f = $b.f + $c.f;");
      case Op::kSubI: return put("$a.i = $b.i - $c.i;");
      case Op::kSubF: return put("$a.f = $b.f - $c.f;");
      case Op::kMulI: return put("$a.i = $b.i * $c.i;");
      case Op::kMulF: return put("$a.f = $b.f * $c.f;");
      case Op::kDivF: return put("$a.f = $b.f / $c.f;");
      case Op::kNegI: return put("$a.i = -$b.i;");
      case Op::kNegF: return put("$a.f = -$b.f;");
      case Op::kNotB: return put("$a.b = !$b.b;");
      case Op::kLtF: return put("$a.b = $b.f < $c.f;");
      case Op::kLeF: return put("$a.b = $b.f <= $c.f;");
      case Op::kGtF: return put("$a.b = $b.f > $c.f;");
      case Op::kGeF: return put("$a.b = $b.f >= $c.f;");
      case Op::kEqI: return put("$a.b = $b.i == $c.i;");
      case Op::kEqF: return put("$a.b = $b.f == $c.f;");
      case Op::kEqB: return put("$a.b = $b.b == $c.b;");
      case Op::kNeI: return put("$a.b = $b.i != $c.i;");
      case Op::kNeF: return put("$a.b = $b.f != $c.f;");
      case Op::kNeB: return put("$a.b = $b.b != $c.b;");
      case Op::kMinI: return put("$a.i = $b.i <= (double)$c.i ? $b.i : $c.i;");
      case Op::kMinF: return put("$a.f = $b.f <= $c.f ? $b.f : $c.f;");
      case Op::kMaxI: return put("$a.i = $b.i >= (double)$c.i ? $b.i : $c.i;");
      case Op::kMaxF: return put("$a.f = $b.f >= $c.f ? $b.f : $c.f;");
      case Op::kJump: return put("goto L#i;");
      case Op::kJumpIfFalse: return put("if (!$a.b) goto L#i;");
      case Op::kJumpIfTrue: return put("if ($a.b) goto L#i;");
      case Op::kHalt: return put("ctx.halt_requested = 1u;");
      case Op::kReturnVal: {  // slot_value(result, reg)
        const Type t = ch_->result;
        DV_CHECK(t == Type::kInt || t == Type::kFloat || t == Type::kBool);
        return put(t == Type::kBool ? "*dvn_ret = dvn_bool($a.b); return;"
                                    : "*dvn_ret = dvn_raw(" + tag_of(t) +
                                          ", $a.i); return;");
      }
      case Op::kReturnUnit: return put("*dvn_ret = dvn_int(0); return;");
      case Op::kFoldFull: return fold(false);
      case Op::kFoldDelta: return fold(true);
      case Op::kSendDelta: return send(true);
      case Op::kSendFull: return send(false);
      case Op::kDivGraphSizeF:
        return put("$c.i = ctx.graph_size; $m.f = $c.i; $a.f = $b.f / $m.f;");
      case Op::kDivDegOutF:
        return put("$c.i = ctx.degree(ctx.host, 0u); $m.f = $c.i; "
                   "$a.f = $b.f / $m.f;");
      case Op::kCopyFieldScratchF:
        return put("$a.f = ctx.fields[#b].u.f; ctx.scratch[#c].tag = 2u; "
                   "ctx.scratch[#c].u.f = $a.f;");
      case Op::kMulAddF: {
        const std::string t = "r" + std::to_string(I_.imm & 0xff);
        const std::string e = "r" + std::to_string((I_.imm >> 8) & 0xff);
        return put(t + ".f = $b.f * $c.f; $a.f = " + e + ".f + " + t + ".f;");
      }
      case Op::kObsCount:
        return put(std::string("if (ctx.has_obs) ctx.obs_add(ctx.host, "
                               "kObsSendsSuppressed, dvn_arc_count(ctx, ") +
                   dir_in() + "));");
    }
  }

  void store(const char* where, const char* tag, const char* member) {
    const std::string slot = std::string("ctx.") + where + "[#b]";
    put(slot + ".tag = " + tag + "; " + slot + ".u." + member + " = $a." +
        member + ";" + (I_.c ? " ctx.any_field_assign = 1u;" : ""));
  }

  const char* dir_in() const {
    return static_cast<GraphDir>(I_.a) == GraphDir::kIn ? "1u" : "0u";
  }

  const AggSite& site() const {
    return prog_.sites[static_cast<std::size_t>(I_.imm)];
  }

  /// The site's operator and element tag, as the helpers take them.
  std::string op_tag() const {
    return std::to_string(static_cast<int>(site().op)) + ", " +
           tag_of(site().elem_type);
  }

  /// A Value as a literal of the emitted algebra.
  static std::string value_lit(const Value& v) {
    if (v.type == Type::kBool)
      return v.b ? "dvn_bool(true)" : "dvn_bool(false)";
    return "dvn_raw(" + tag_of(v.type) + ", " + lit(v.i) + ")";
  }

  /// The site's identity, for folds from scratch and Δ synthesis.
  std::string identity() const {
    return value_lit(agg_identity(site().op, site().elem_type));
  }

  /// kFoldFull (Eq. 3) and kFoldDelta (Eq. 8/9). The VM's unboxed scalar
  /// loops compute exactly what its agg_apply path does; dvn_fold's
  /// agg_apply with constant op/tag folds down to the same loop.
  void fold(bool delta) {
    const AggSite& s = site();
    const auto field = [](int slot) {
      return "&ctx.fields[" + std::to_string(slot) + "]";
    };
    put(std::string("if (ctx.has_obs) ctx.obs_add(ctx.host, ") +
        (delta ? "kObsMemoHits" : "kObsMemoRecomputes") + ", 1u);");
    const std::string call = "$a.i = dvn_fold(ctx, #iu, " + op_tag() + ", ";
    if (!delta)
      return put("{ DvnValue acc = " + identity() + "; " + call +
                 "&acc, 0, 0, acc); }");
    if (s.multiplicative())
      put("if (ctx.has_obs) ctx.obs_add(ctx.host, kObsAbsorbingSlowPath, 1u);");
    put(call + field(s.acc_slot) + ", " +
        (s.multiplicative() ? field(s.nn_slot) + ", " + field(s.nulls_slot) +
                                  ", " +
                                  value_lit(agg_absorbing(s.op, s.elem_type))
                            : "0, 0, " + identity()) +
        ");");
  }

  /// A lambda evaluating a send payload operand (Vm::send_operand).
  std::string operand(std::uint16_t packed) const {
    const std::string idx = std::to_string(send_operand_index(packed));
    switch (send_operand_src(packed)) {
      case SendSrc::kField: return "[&] { return ctx.fields[" + idx + "]; }";
      case SendSrc::kScratch: return "[&] { return ctx.scratch[" + idx + "]; }";
      case SendSrc::kConst: {
        // slot_value(elem, const), as the VM reads it.
        const VmSlot c = vp_.consts[send_operand_index(packed)];
        const Type t = site().elem_type;
        return "[] { return " +
               value_lit(t == Type::kBool    ? Value::of_bool(c.b)
                         : t == Type::kFloat ? Value::of_float(c.f)
                                             : Value::of_int(c.i)) +
               "; }";
      }
      case SendSrc::kChunk:
        return "[&] { DvnValue v; dvn_chunk_" + idx +
               "(dvn_ctx, &v); return v; }";
    }
    DV_FAIL("corrupt send operand");
  }

  /// kSendDelta / kSendFull. Field, scratch and constant operands are
  /// edge-invariant (the VM's span path); a sub-chunk runs per arc.
  void send(bool delta) {
    const bool direct =
        send_operand_src(I_.b) != SendSrc::kChunk &&
        (!delta || send_operand_src(I_.c) != SendSrc::kChunk);
    put(std::string("dvn_send<") + (delta ? "true" : "false") + ", " +
        (direct ? "true" : "false") + ">(ctx, #iu, " + dir_in() + ", " +
        op_tag() + ", " + identity() + ", " + operand(I_.b) + ", " +
        (delta ? operand(I_.c) : "[] { return DvnValue(); }") + ");");
  }

  const Program& prog_;
  const VmProgram& vp_;
  std::ostringstream out_;
  const Chunk* ch_ = nullptr;
  Instr I_;
};

}  // namespace

NativeUnit emit_native_unit(const CompiledProgram& cp, const VmProgram& vp) {
  if (cp.program.sites.size() >= 64)
    return {.source = {}, .unsupported = "more than 63 aggregation sites"};
  return {.source = Emitter(cp, vp).emit(), .unsupported = {}};
}

}  // namespace deltav::dv::native
