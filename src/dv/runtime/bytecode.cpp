#include "dv/runtime/bytecode.h"

#include <limits>
#include <sstream>

#include "dv/compiler.h"

namespace deltav::dv {

namespace {

constexpr int kMaxRegs = kVmMaxRegs;

bool is_jump(Op op) {
  return op == Op::kJump || op == Op::kJumpIfFalse || op == Op::kJumpIfTrue;
}

/// Peephole pass over a finished chunk: rewrites known hot sequences into
/// single fused instructions and remaps (absolute) jump targets. Windows
/// that a jump lands into mid-sequence are left unfused. The fused forms
/// write the same registers in the same order as the originals, so the
/// rewrite needs no liveness information.
void fuse_chunk(std::vector<Instr>& code) {
  const std::size_t n = code.size();
  std::vector<std::uint8_t> is_target(n + 1, 0);
  for (const Instr& ins : code) {
    if (!is_jump(ins.op)) continue;
    DV_CHECK(ins.imm >= 0 && static_cast<std::size_t>(ins.imm) <= n);
    is_target[static_cast<std::size_t>(ins.imm)] = 1;
  }

  std::vector<Instr> out;
  out.reserve(n);
  std::vector<std::int32_t> new_pc(n + 1);
  std::size_t pc = 0;
  while (pc < n) {
    const auto here = static_cast<std::int32_t>(out.size());
    new_pc[pc] = here;
    const Instr& x = code[pc];
    // {load.n | deg.out} rC; i2f rImm, rC; div.f rA, rB, rImm
    if ((x.op == Op::kLoadGraphSize || x.op == Op::kDegreeOut) &&
        pc + 2 < n && !is_target[pc + 1] && !is_target[pc + 2]) {
      const Instr& y = code[pc + 1];
      const Instr& z = code[pc + 2];
      if (y.op == Op::kI2F && y.b == x.a && z.op == Op::kDivF &&
          z.c == y.a) {
        Instr f;
        f.op = x.op == Op::kLoadGraphSize ? Op::kDivGraphSizeF
                                          : Op::kDivDegOutF;
        f.a = z.a;
        f.b = z.b;
        f.c = x.a;
        f.imm = y.a;
        new_pc[pc + 1] = new_pc[pc + 2] = here;
        out.push_back(f);
        pc += 3;
        continue;
      }
    }
    // ldf.f rA, field; sts.f rA, scratch
    if (x.op == Op::kLoadFieldF && pc + 1 < n && !is_target[pc + 1]) {
      const Instr& y = code[pc + 1];
      if (y.op == Op::kStoreScratchF && y.a == x.a) {
        Instr f;
        f.op = Op::kCopyFieldScratchF;
        f.a = x.a;
        f.b = x.b;
        f.c = y.b;
        new_pc[pc + 1] = here;
        out.push_back(f);
        pc += 2;
        continue;
      }
    }
    // mul.f rT, rB, rC; add.f rA, rE, rT
    if (x.op == Op::kMulF && pc + 1 < n && !is_target[pc + 1]) {
      const Instr& y = code[pc + 1];
      // x.a (a uint8) always fits the low imm byte; y.b is a uint16
      // register index and must fit the high byte.
      if (y.op == Op::kAddF && y.c == x.a && y.b < 256) {
        Instr f;
        f.op = Op::kMulAddF;
        f.a = y.a;
        f.b = x.b;
        f.c = x.c;
        f.imm = static_cast<std::int32_t>(y.b << 8 | x.a);
        new_pc[pc + 1] = here;
        out.push_back(f);
        pc += 2;
        continue;
      }
    }
    // store slot; load same slot into the same register — the load reads
    // back the exact bits the store just wrote, so it is a no-op.
    if (pc + 1 < n && !is_target[pc + 1]) {
      const Instr& y = code[pc + 1];
      const bool dead_load =
          y.a == x.a && y.b == x.b &&
          ((x.op == Op::kStoreFieldI && y.op == Op::kLoadFieldI) ||
           (x.op == Op::kStoreFieldF && y.op == Op::kLoadFieldF) ||
           (x.op == Op::kStoreFieldB && y.op == Op::kLoadFieldB) ||
           (x.op == Op::kStoreScratchI && y.op == Op::kLoadScratchI) ||
           (x.op == Op::kStoreScratchF && y.op == Op::kLoadScratchF) ||
           (x.op == Op::kStoreScratchB && y.op == Op::kLoadScratchB));
      if (dead_load) {
        new_pc[pc + 1] = here;
        out.push_back(x);
        pc += 2;
        continue;
      }
    }
    out.push_back(x);
    ++pc;
  }
  new_pc[n] = static_cast<std::int32_t>(out.size());
  for (Instr& ins : out)
    if (is_jump(ins.op))
      ins.imm = new_pc[static_cast<std::size_t>(ins.imm)];
  code = std::move(out);
}

class Lowerer {
 public:
  Lowerer(VmProgram& vp, const Program& prog) : vp_(vp), prog_(prog) {}

  /// Lowers `root` into a fresh chunk. When `want` is a value type, the
  /// chunk's return value is converted to it (send sub-chunks must return
  /// the site's element type).
  int lower(const Expr& root, Type want = Type::kUnknown) {
    const int id = static_cast<int>(vp_.chunks.size());
    vp_.chunks.emplace_back();  // reserve the slot; filled at the end so
                                // nested lower() calls cannot invalidate it
    Builder b;
    int r = emit(root, b);
    Type result = Type::kUnit;
    if (r >= 0 && root.type != Type::kUnit) {
      Type t = root.type;
      if (want != Type::kUnknown && want != t) {
        r = convert(b, r, t, want);
        t = want;
      }
      push(b, Op::kReturnVal, r);
      result = t;
    } else {
      DV_CHECK_MSG(want == Type::kUnknown || want == Type::kUnit,
                   "unit expression lowered where a value is required");
      b.code.push_back({Op::kReturnUnit});
    }
    Chunk& ch = vp_.chunks[static_cast<std::size_t>(id)];
    fuse_chunk(b.code);
    ch.code = std::move(b.code);
    ch.num_regs = b.high_water;
    ch.result = result;
    return id;
  }

 private:
  struct Builder {
    std::vector<Instr> code;
    int next_reg = 0;
    int high_water = 0;

    int alloc() {
      DV_CHECK_MSG(next_reg < kMaxRegs, "bytecode chunk exceeds "
                                            << kMaxRegs << " registers");
      if (next_reg + 1 > high_water) high_water = next_reg + 1;
      return next_reg++;
    }
  };

  static std::uint8_t reg8(int r) { return static_cast<std::uint8_t>(r); }

  static void push(Builder& b, Op op, int a = 0, int bb = 0, int cc = 0,
                   std::int32_t imm = 0) {
    Instr ins;
    ins.op = op;
    ins.a = reg8(a);
    ins.b = static_cast<std::uint16_t>(bb);
    ins.c = static_cast<std::uint16_t>(cc);
    ins.imm = imm;
    b.code.push_back(ins);
  }

  /// Emits a pending jump; returns its index for patching.
  static std::size_t push_jump(Builder& b, Op op, int cond_reg = 0) {
    push(b, op, cond_reg, 0, 0, -1);
    return b.code.size() - 1;
  }
  static void patch_jump(Builder& b, std::size_t at) {
    b.code[at].imm = static_cast<std::int32_t>(b.code.size());
  }

  int intern_const(VmSlot v) {
    vp_.consts.push_back(v);
    const std::size_t idx = vp_.consts.size() - 1;
    DV_CHECK(idx <= std::numeric_limits<std::int32_t>::max());
    return static_cast<int>(idx);
  }

  /// Static residue of Value::coerce: widen/truncate between the numeric
  /// types exactly as as_f()/as_i() would. Coercing a non-bool to bool is
  /// a CheckError in the interpreter and cannot appear in a typechecked
  /// program, so it is a lowering failure here.
  int convert(Builder& b, int reg, Type from, Type to) {
    if (from == to) return reg;
    Op op;
    if (to == Type::kFloat) {
      if (from == Type::kInt) op = Op::kI2F;
      else if (from == Type::kBool) op = Op::kB2F;
      else DV_FAIL("cannot lower conversion " << type_name(from) << "→float");
    } else if (to == Type::kInt) {
      if (from == Type::kFloat) op = Op::kF2I;
      else if (from == Type::kBool) op = Op::kB2I;
      else DV_FAIL("cannot lower conversion " << type_name(from) << "→int");
    } else {
      DV_FAIL("cannot lower conversion " << type_name(from) << "→"
                                         << type_name(to));
    }
    const int dst = b.alloc();
    push(b, op, dst, reg);
    return dst;
  }

  int emit_typed(const Expr& e, Builder& b, Type want) {
    const int r = emit(e, b);
    DV_CHECK_MSG(r >= 0, "value expected from " << expr_kind_name(e.kind));
    return convert(b, r, e.type, want);
  }

  Op scratch_load_op(Type t) const {
    switch (t) {
      case Type::kInt: return Op::kLoadScratchI;
      case Type::kFloat: return Op::kLoadScratchF;
      case Type::kBool: return Op::kLoadScratchB;
      default: DV_FAIL("scratch slot of type " << type_name(t));
    }
  }
  Op scratch_store_op(Type t) const {
    switch (t) {
      case Type::kInt: return Op::kStoreScratchI;
      case Type::kFloat: return Op::kStoreScratchF;
      case Type::kBool: return Op::kStoreScratchB;
      default: DV_FAIL("scratch store of type " << type_name(t));
    }
  }
  Op field_load_op(Type t) const {
    switch (t) {
      case Type::kInt: return Op::kLoadFieldI;
      case Type::kFloat: return Op::kLoadFieldF;
      case Type::kBool: return Op::kLoadFieldB;
      default: DV_FAIL("field slot of type " << type_name(t));
    }
  }
  Op field_store_op(Type t) const {
    switch (t) {
      case Type::kInt: return Op::kStoreFieldI;
      case Type::kFloat: return Op::kStoreFieldF;
      case Type::kBool: return Op::kStoreFieldB;
      default: DV_FAIL("field store of type " << type_name(t));
    }
  }

  int emit_binary(const Expr& e, Builder& b) {
    // Short-circuit booleans compile to jumps.
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      const int dst = b.alloc();
      const int mark = b.next_reg;
      int r = emit(*e.kids[0], b);
      push(b, Op::kMove, dst, r);
      b.next_reg = mark;
      const std::size_t skip = push_jump(
          b, e.bin_op == BinOp::kAnd ? Op::kJumpIfFalse : Op::kJumpIfTrue,
          dst);
      r = emit(*e.kids[1], b);
      push(b, Op::kMove, dst, r);
      b.next_reg = mark;
      patch_jump(b, skip);
      return dst;
    }

    const Type lt = e.kids[0]->type, rt = e.kids[1]->type;
    const int mark = b.next_reg;
    switch (e.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul: {
        const Type t = e.type;
        const int a = emit_typed(*e.kids[0], b, t);
        const int c = emit_typed(*e.kids[1], b, t);
        b.next_reg = mark;
        const int dst = b.alloc();
        Op op{};
        if (e.bin_op == BinOp::kAdd) op = t == Type::kInt ? Op::kAddI : Op::kAddF;
        if (e.bin_op == BinOp::kSub) op = t == Type::kInt ? Op::kSubI : Op::kSubF;
        if (e.bin_op == BinOp::kMul) op = t == Type::kInt ? Op::kMulI : Op::kMulF;
        push(b, op, dst, a, c);
        return dst;
      }
      case BinOp::kDiv: {
        const int a = emit_typed(*e.kids[0], b, Type::kFloat);
        const int c = emit_typed(*e.kids[1], b, Type::kFloat);
        b.next_reg = mark;
        const int dst = b.alloc();
        push(b, Op::kDivF, dst, a, c);
        return dst;
      }
      case BinOp::kLt:
      case BinOp::kGt:
      case BinOp::kGe:
      case BinOp::kLe: {
        // The interpreter compares via as_f() regardless of operand type.
        const int a = emit_typed(*e.kids[0], b, Type::kFloat);
        const int c = emit_typed(*e.kids[1], b, Type::kFloat);
        b.next_reg = mark;
        const int dst = b.alloc();
        Op op{};
        if (e.bin_op == BinOp::kLt) op = Op::kLtF;
        if (e.bin_op == BinOp::kGt) op = Op::kGtF;
        if (e.bin_op == BinOp::kGe) op = Op::kGeF;
        if (e.bin_op == BinOp::kLe) op = Op::kLeF;
        push(b, op, dst, a, c);
        return dst;
      }
      case BinOp::kEq:
      case BinOp::kNe: {
        // Value::equals: bool pairs compare as bool, int pairs exactly,
        // any float operand unifies the comparison to double. The type
        // checker rejects bool/number mixes.
        const bool ne = e.bin_op == BinOp::kNe;
        Op op;
        int a, c;
        if (lt == Type::kBool && rt == Type::kBool) {
          a = emit(*e.kids[0], b);
          c = emit(*e.kids[1], b);
          op = ne ? Op::kNeB : Op::kEqB;
        } else if (lt == Type::kInt && rt == Type::kInt) {
          a = emit(*e.kids[0], b);
          c = emit(*e.kids[1], b);
          op = ne ? Op::kNeI : Op::kEqI;
        } else {
          a = emit_typed(*e.kids[0], b, Type::kFloat);
          c = emit_typed(*e.kids[1], b, Type::kFloat);
          op = ne ? Op::kNeF : Op::kEqF;
        }
        b.next_reg = mark;
        const int dst = b.alloc();
        push(b, op, dst, a, c);
        return dst;
      }
      default: DV_FAIL("unhandled binary operator in lowering");
    }
  }

  int emit(const Expr& e, Builder& b) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const int dst = b.alloc();
        VmSlot v;
        v.i = e.int_val;
        push(b, Op::kConstI, dst, 0, 0, intern_const(v));
        return dst;
      }
      case ExprKind::kFloatLit: {
        const int dst = b.alloc();
        VmSlot v;
        v.f = e.float_val;
        push(b, Op::kConstF, dst, 0, 0, intern_const(v));
        return dst;
      }
      case ExprKind::kBoolLit: {
        const int dst = b.alloc();
        push(b, Op::kConstB, dst, 0, 0, e.bool_val ? 1 : 0);
        return dst;
      }
      case ExprKind::kInfty: {
        const int dst = b.alloc();
        VmSlot v;
        v.f = std::numeric_limits<double>::infinity();
        push(b, Op::kConstF, dst, 0, 0, intern_const(v));
        return dst;
      }
      case ExprKind::kGraphSize: {
        const int dst = b.alloc();
        push(b, Op::kLoadGraphSize, dst);
        return dst;
      }
      case ExprKind::kVertexIdRef: {
        const int dst = b.alloc();
        push(b, Op::kLoadVertexId, dst);
        return dst;
      }
      case ExprKind::kStableRef: {
        const int dst = b.alloc();
        push(b, Op::kLoadStable, dst);
        return dst;
      }
      case ExprKind::kEdgeWeight: {
        const int dst = b.alloc();
        push(b, Op::kLoadEdgeWeight, dst);
        return dst;
      }
      case ExprKind::kParamRef: {
        const int dst = b.alloc();
        const Type t = prog_.params[static_cast<std::size_t>(e.slot)].type;
        Op op = t == Type::kInt ? Op::kLoadParamI
                : t == Type::kFloat ? Op::kLoadParamF
                                    : Op::kLoadParamB;
        push(b, op, dst, e.slot);
        return dst;
      }
      case ExprKind::kVarRef: {
        if (e.var_kind == VarKind::kIter) {
          const int dst = b.alloc();
          push(b, Op::kLoadIter, dst);
          return dst;
        }
        DV_CHECK_MSG(e.var_kind == VarKind::kLet,
                     "unresolved variable in lowering");
        [[fallthrough]];
      }
      case ExprKind::kScratchRef: {
        const int dst = b.alloc();
        const Type t = prog_.scratch[static_cast<std::size_t>(e.slot)].type;
        push(b, scratch_load_op(t), dst, e.slot);
        return dst;
      }
      case ExprKind::kFieldRef: {
        const int dst = b.alloc();
        const Type t = prog_.fields[static_cast<std::size_t>(e.slot)].type;
        push(b, field_load_op(t), dst, e.slot);
        return dst;
      }
      case ExprKind::kBinary: return emit_binary(e, b);
      case ExprKind::kUnary: {
        const int mark = b.next_reg;
        if (e.un_op == UnOp::kNot) {
          const int r = emit(*e.kids[0], b);
          b.next_reg = mark;
          const int dst = b.alloc();
          push(b, Op::kNotB, dst, r);
          return dst;
        }
        const Type t = e.type;
        const int r = emit_typed(*e.kids[0], b, t);
        b.next_reg = mark;
        const int dst = b.alloc();
        push(b, t == Type::kInt ? Op::kNegI : Op::kNegF, dst, r);
        return dst;
      }
      case ExprKind::kPairOp: {
        const int mark = b.next_reg;
        const Type t = e.type;
        // The interpreter compares as_f() and then coerces the *chosen*
        // operand; converting both operands first selects the same value.
        const int a = emit_typed(*e.kids[0], b, t);
        const int c = emit_typed(*e.kids[1], b, t);
        b.next_reg = mark;
        const int dst = b.alloc();
        Op op{};
        if (e.pair_op == PairOp::kMin)
          op = t == Type::kInt ? Op::kMinI : Op::kMinF;
        else
          op = t == Type::kInt ? Op::kMaxI : Op::kMaxF;
        push(b, op, dst, a, c);
        return dst;
      }
      case ExprKind::kIf: {
        const bool value_form = e.type != Type::kUnit;
        const int dst = value_form ? b.alloc() : -1;
        const int mark = b.next_reg;
        const int cond = emit(*e.kids[0], b);
        b.next_reg = mark;
        const std::size_t to_else = push_jump(b, Op::kJumpIfFalse, cond);
        if (value_form) {
          const int r = emit_typed(*e.kids[1], b, e.type);
          push(b, Op::kMove, dst, r);
        } else {
          emit(*e.kids[1], b);
        }
        b.next_reg = mark;
        if (e.kids.size() == 3) {
          const std::size_t to_end = push_jump(b, Op::kJump);
          patch_jump(b, to_else);
          if (value_form) {
            const int r = emit_typed(*e.kids[2], b, e.type);
            push(b, Op::kMove, dst, r);
          } else {
            emit(*e.kids[2], b);
          }
          b.next_reg = mark;
          patch_jump(b, to_end);
        } else if (e.obs_site >= 0) {
          // Change-check guard: synthesize an else edge that counts the
          // suppressed broadcast (no-op when unmetered).
          const std::size_t to_end = push_jump(b, Op::kJump);
          patch_jump(b, to_else);
          Instr ins;
          ins.op = Op::kObsCount;
          ins.a = static_cast<std::uint8_t>(e.dir);
          ins.imm = e.obs_site;
          b.code.push_back(ins);
          patch_jump(b, to_end);
        } else {
          patch_jump(b, to_else);
        }
        return dst;
      }
      case ExprKind::kLet: {
        const int mark = b.next_reg;
        const int r = emit_typed(*e.kids[0], b, e.decl_type);
        push(b, scratch_store_op(e.decl_type), r, e.slot);
        b.next_reg = mark;
        return emit(*e.kids[1], b);
      }
      case ExprKind::kSeq: {
        const int mark = b.next_reg;
        int last = -1;
        for (std::size_t i = 0; i < e.kids.size(); ++i) {
          b.next_reg = mark;
          last = emit(*e.kids[i], b);
        }
        return last;
      }
      case ExprKind::kAssign: {
        const int mark = b.next_reg;
        if (e.assign_target == AssignTarget::kField) {
          const Field& f = prog_.fields[static_cast<std::size_t>(e.slot)];
          const int r = emit_typed(*e.kids[0], b, f.type);
          // Quiescence tracks user-visible writes only (see interpreter).
          push(b, field_store_op(f.type), r, e.slot,
               f.origin == Field::Origin::kUser ? 1 : 0);
        } else {
          const ScratchVar& sv =
              prog_.scratch[static_cast<std::size_t>(e.slot)];
          const int r = emit_typed(*e.kids[0], b, sv.type);
          push(b, scratch_store_op(sv.type), r, e.slot);
        }
        b.next_reg = mark;
        return -1;
      }
      case ExprKind::kLocalDecl: {
        const int mark = b.next_reg;
        const int r = emit_typed(*e.kids[0], b, e.decl_type);
        // Init-block declarations never count as quiescence-relevant
        // assignments (mirrors the interpreter's kLocalDecl).
        push(b, field_store_op(e.decl_type), r, e.slot, 0);
        b.next_reg = mark;
        return -1;
      }
      case ExprKind::kDegree: {
        const int dst = b.alloc();
        push(b, e.dir == GraphDir::kIn ? Op::kDegreeIn : Op::kDegreeOut,
             dst);
        return dst;
      }
      case ExprKind::kFoldMessages: {
        const int dst = b.alloc();
        const AggSite& site = prog_.sites[static_cast<std::size_t>(e.site)];
        push(b, e.flag ? Op::kFoldDelta : Op::kFoldFull, dst, 0, 0, e.site);
        return convert(b, dst, site.elem_type, e.type);
      }
      case ExprKind::kSendLoop: {
        const AggSite& site = prog_.sites[static_cast<std::size_t>(e.site)];
        Instr ins;
        ins.op = e.flag ? Op::kSendDelta : Op::kSendFull;
        ins.a = static_cast<std::uint8_t>(e.dir);
        ins.imm = e.site;
        ins.b = send_operand(*e.kids[0], site.elem_type);
        if (e.flag) ins.c = send_operand(*e.kids[1], site.elem_type);
        b.code.push_back(ins);
        return -1;
      }
      case ExprKind::kHalt:
        push(b, Op::kHalt);
        return -1;
      case ExprKind::kAgg:
      case ExprKind::kNeighborField:
        DV_FAIL("unconverted " << expr_kind_name(e.kind)
                               << " reached bytecode lowering (compiler "
                                  "bug)");
    }
    DV_FAIL("unhandled expression kind in lowering");
  }

  /// Packs a send-loop payload. Bare slots whose static type already
  /// matches the element type become direct operands (zero dispatch per
  /// edge); everything else — edge-dependent payloads, arithmetic,
  /// type-mismatched slots — compiles to a sub-chunk run per target.
  std::uint16_t send_operand(const Expr& e, Type elem) {
    switch (e.kind) {
      case ExprKind::kFieldRef:
        if (prog_.fields[static_cast<std::size_t>(e.slot)].type == elem)
          return pack_send_operand(SendSrc::kField,
                                   static_cast<std::uint16_t>(e.slot));
        break;
      case ExprKind::kVarRef:
        if (e.var_kind != VarKind::kLet) break;
        [[fallthrough]];
      case ExprKind::kScratchRef:
        if (prog_.scratch[static_cast<std::size_t>(e.slot)].type == elem)
          return pack_send_operand(SendSrc::kScratch,
                                   static_cast<std::uint16_t>(e.slot));
        break;
      case ExprKind::kIntLit:
      case ExprKind::kFloatLit:
      case ExprKind::kBoolLit:
      case ExprKind::kInfty: {
        VmSlot v;
        switch (elem) {
          case Type::kInt:
            v.i = e.kind == ExprKind::kFloatLit
                      ? static_cast<std::int64_t>(e.float_val)
                      : e.kind == ExprKind::kBoolLit
                            ? static_cast<std::int64_t>(e.bool_val)
                            : e.int_val;
            break;
          case Type::kFloat:
            v.f = e.kind == ExprKind::kIntLit
                      ? static_cast<double>(e.int_val)
                      : e.kind == ExprKind::kBoolLit
                            ? (e.bool_val ? 1.0 : 0.0)
                            : e.kind == ExprKind::kInfty
                                  ? std::numeric_limits<double>::infinity()
                                  : e.float_val;
            break;
          case Type::kBool:
            DV_CHECK_MSG(e.kind == ExprKind::kBoolLit,
                         "non-bool literal sent to a bool site");
            v.b = e.bool_val;
            break;
          default: DV_FAIL("send payload of type " << type_name(elem));
        }
        return pack_send_operand(SendSrc::kConst,
                                 static_cast<std::uint16_t>(intern_const(v)));
      }
      default: break;
    }
    const int chunk = lower(e, elem);
    return pack_send_operand(SendSrc::kChunk,
                             static_cast<std::uint16_t>(chunk));
  }

  VmProgram& vp_;
  const Program& prog_;
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kConstI: return "const.i";
    case Op::kConstF: return "const.f";
    case Op::kConstB: return "const.b";
    case Op::kMove: return "move";
    case Op::kI2F: return "i2f";
    case Op::kF2I: return "f2i";
    case Op::kB2F: return "b2f";
    case Op::kB2I: return "b2i";
    case Op::kLoadIter: return "load.iter";
    case Op::kLoadStable: return "load.stable";
    case Op::kLoadVertexId: return "load.vid";
    case Op::kLoadGraphSize: return "load.n";
    case Op::kLoadEdgeWeight: return "load.edge";
    case Op::kLoadParamI: return "ldp.i";
    case Op::kLoadParamF: return "ldp.f";
    case Op::kLoadParamB: return "ldp.b";
    case Op::kDegreeIn: return "deg.in";
    case Op::kDegreeOut: return "deg.out";
    case Op::kLoadFieldI: return "ldf.i";
    case Op::kLoadFieldF: return "ldf.f";
    case Op::kLoadFieldB: return "ldf.b";
    case Op::kStoreFieldI: return "stf.i";
    case Op::kStoreFieldF: return "stf.f";
    case Op::kStoreFieldB: return "stf.b";
    case Op::kLoadScratchI: return "lds.i";
    case Op::kLoadScratchF: return "lds.f";
    case Op::kLoadScratchB: return "lds.b";
    case Op::kStoreScratchI: return "sts.i";
    case Op::kStoreScratchF: return "sts.f";
    case Op::kStoreScratchB: return "sts.b";
    case Op::kAddI: return "add.i";
    case Op::kAddF: return "add.f";
    case Op::kSubI: return "sub.i";
    case Op::kSubF: return "sub.f";
    case Op::kMulI: return "mul.i";
    case Op::kMulF: return "mul.f";
    case Op::kDivF: return "div.f";
    case Op::kNegI: return "neg.i";
    case Op::kNegF: return "neg.f";
    case Op::kNotB: return "not";
    case Op::kLtF: return "lt.f";
    case Op::kLeF: return "le.f";
    case Op::kGtF: return "gt.f";
    case Op::kGeF: return "ge.f";
    case Op::kEqI: return "eq.i";
    case Op::kEqF: return "eq.f";
    case Op::kEqB: return "eq.b";
    case Op::kNeI: return "ne.i";
    case Op::kNeF: return "ne.f";
    case Op::kNeB: return "ne.b";
    case Op::kMinI: return "min.i";
    case Op::kMinF: return "min.f";
    case Op::kMaxI: return "max.i";
    case Op::kMaxF: return "max.f";
    case Op::kJump: return "jmp";
    case Op::kJumpIfFalse: return "jf";
    case Op::kJumpIfTrue: return "jt";
    case Op::kHalt: return "halt";
    case Op::kReturnVal: return "ret";
    case Op::kReturnUnit: return "ret.unit";
    case Op::kFoldFull: return "fold.full";
    case Op::kFoldDelta: return "fold.delta";
    case Op::kSendDelta: return "send.delta";
    case Op::kSendFull: return "send.full";
    case Op::kDivGraphSizeF: return "div.n.f";
    case Op::kDivDegOutF: return "div.degout.f";
    case Op::kCopyFieldScratchF: return "cpfs.f";
    case Op::kMulAddF: return "muladd.f";
    case Op::kObsCount: return "obs.count";
  }
  return "?";
}

const char* send_src_name(SendSrc s) {
  switch (s) {
    case SendSrc::kField: return "field";
    case SendSrc::kScratch: return "scratch";
    case SendSrc::kConst: return "const";
    case SendSrc::kChunk: return "chunk";
  }
  return "?";
}

}  // namespace

VmProgram lower_program(const CompiledProgram& cp) {
  VmProgram vp;
  Lowerer lw(vp, cp.program);
  const Program& prog = cp.program;
  const auto add_root = [&](const ExprPtr& e) {
    if (e) vp.roots.emplace(e.get(), lw.lower(*e));
  };
  add_root(prog.init);
  for (const Stmt& s : prog.stmts) {
    add_root(s.body);
    add_root(s.until);
  }
  for (const AggSite& site : prog.sites) {
    add_root(site.send_expr);
    add_root(site.init_send_expr);
  }
  return vp;
}

int lower_root(VmProgram& vp, const Program& prog, const Expr& root) {
  Lowerer lw(vp, prog);
  const int id = lw.lower(root);
  vp.roots.emplace(&root, id);
  return id;
}

std::string to_string(const VmProgram& vp) {
  std::ostringstream os;
  for (std::size_t ci = 0; ci < vp.chunks.size(); ++ci) {
    const Chunk& ch = vp.chunks[ci];
    os << "chunk " << ci << " (regs=" << ch.num_regs << ", result="
       << type_name(ch.result) << "):\n";
    for (std::size_t pc = 0; pc < ch.code.size(); ++pc) {
      const Instr& ins = ch.code[pc];
      os << "  " << pc << ": " << op_name(ins.op);
      switch (ins.op) {
        case Op::kSendDelta:
        case Op::kSendFull: {
          os << " site=" << ins.imm << " new=" << send_src_name(
                send_operand_src(ins.b)) << ":" << send_operand_index(ins.b);
          if (ins.op != Op::kSendFull)
            os << " old=" << send_src_name(send_operand_src(ins.c)) << ":"
               << send_operand_index(ins.c);
          break;
        }
        case Op::kJump:
        case Op::kJumpIfFalse:
        case Op::kJumpIfTrue:
          os << " r" << int(ins.a) << " -> " << ins.imm;
          break;
        default:
          os << " r" << int(ins.a) << ", " << ins.b << ", " << ins.c
             << ", " << ins.imm;
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace deltav::dv
