// Register-based bytecode for the ΔV runtime's compiled execution tier.
//
// The tree interpreter (runtime/interpreter.{h,cpp}) is the reference
// semantics; this lowering produces a flat, type-specialized instruction
// stream that the VM (runtime/vm.{h,cpp}) executes without any runtime tag
// dispatch or Value::coerce calls: every conversion point the interpreter
// reaches dynamically (operand widening, declared-type coercion at lets and
// assignments, payload coercion at sends) is resolved at lowering time from
// the typechecker's annotations and emitted as an explicit conversion
// instruction — or as nothing, when the static types already agree.
//
// The two dominant loops of a compiled program are fused superinstructions
// rather than bytecode loops:
//
//   kSendDelta / kSendFull  — the Δ-send loop over a CSR neighbor span:
//       evaluate new/old payloads, synthesize_delta (Eq. 11), suppress
//       no-ops, send. Payload operands are usually bare field/scratch slots
//       after §6.2 state binding, so the common case runs with zero
//       bytecode dispatch per edge; edge-dependent payloads (u.edge) fall
//       back to a nested sub-chunk executed per target.
//   kFoldFull / kFoldDelta  — the receiver-side message fold (Eq. 3 and
//       Eq. 8/9, including the multiplicative nnAcc/aggNulls/aggAccum
//       triple), one instruction per fold site.
//
// Both superinstructions call the same delta.h/value.h helpers as the tree
// interpreter, which is what makes the tiers bit-identical (the
// differential fuzzer enforces this; see testing/differential.cpp).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dv/ast.h"

namespace deltav::dv {

struct CompiledProgram;

/// An unboxed VM register / constant-pool slot. Which member is live is
/// statically known per instruction — the VM never inspects a tag.
union VmSlot {
  std::int64_t i;
  double f;
  bool b;
};
static_assert(sizeof(VmSlot) == 8);

enum class Op : std::uint8_t {
  // ---- constants & moves ----
  kConstI,   // regs[a] = consts[imm].i
  kConstF,   // regs[a] = consts[imm].f
  kConstB,   // regs[a].b = imm != 0
  kMove,     // regs[a] = regs[b] (raw 8-byte copy)
  // ---- conversions (the static residue of Value::coerce/as_*) ----
  kI2F,      // regs[a].f = double(regs[b].i)
  kF2I,      // regs[a].i = int64(regs[b].f)
  kB2F,      // regs[a].f = regs[b].b ? 1.0 : 0.0
  kB2I,      // regs[a].i = regs[b].b ? 1 : 0
  // ---- context loads ----
  kLoadIter,      // regs[a].i = ctx.iter
  kLoadStable,    // regs[a].b = ctx.stable
  kLoadVertexId,  // regs[a].i = ctx.vertex
  kLoadGraphSize, // regs[a].i = ctx.graph->num_vertices()
  kLoadEdgeWeight,// regs[a].f = ctx.cur_edge_weight
  kLoadParamI, kLoadParamF, kLoadParamB,  // regs[a] = params[b]
  kDegreeIn,      // regs[a].i = in_degree(ctx.vertex)
  kDegreeOut,     // regs[a].i = out_degree(ctx.vertex)
  // ---- state access (slot types are static; no tag dispatch) ----
  kLoadFieldI, kLoadFieldF, kLoadFieldB,     // regs[a] = fields[b]
  kStoreFieldI, kStoreFieldF, kStoreFieldB,  // fields[b] = regs[a]; c = user
  kLoadScratchI, kLoadScratchF, kLoadScratchB,
  kStoreScratchI, kStoreScratchF, kStoreScratchB,
  // ---- arithmetic / logic (type-specialized) ----
  kAddI, kAddF, kSubI, kSubF, kMulI, kMulF, kDivF,  // regs[a] = b ⊕ c
  kNegI, kNegF, kNotB,                              // regs[a] = ⊖ regs[b]
  kLtF, kLeF, kGtF, kGeF,        // regs[a].b = regs[b].f ⋈ regs[c].f
  kEqI, kEqF, kEqB, kNeI, kNeF, kNeB,
  kMinI, kMinF, kMaxI, kMaxF,    // pair ops; int compares via double, as
                                 // the interpreter's as_f() does
  // ---- control flow ----
  kJump,         // pc = imm
  kJumpIfFalse,  // if (!regs[a].b) pc = imm
  kJumpIfTrue,   // if (regs[a].b) pc = imm
  kHalt,         // ctx.halt_requested = true (not control flow)
  kReturnVal,    // return regs[a] as chunk.result-typed Value
  kReturnUnit,
  // ---- fused superinstructions ----
  kFoldFull,     // regs[a] = Eq. 3 fold of site imm's messages
  kFoldDelta,    // regs[a] = Eq. 8/9 Δ-fold into site imm's accumulators
  kSendDelta,    // Δ-send loop for site imm; b = new operand, c = old
  kSendFull,     // full-value send loop for site imm; b = payload operand
  // ---- peephole fusions (fuse_chunk in bytecode.cpp) ----
  // Each replays the exact register writes of the sequence it replaces, so
  // fusion is semantics-preserving without liveness analysis. Normalizing
  // divisions (x / N, x / deg) dominate PageRank/HITS bodies.
  kDivGraphSizeF,  // load.n c; i2f imm,c; div.f a,b,imm
  kDivDegOutF,     // deg.out c; i2f imm,c; div.f a,b,imm
  kCopyFieldScratchF,  // ldf.f a,b; sts.f a,c
  kMulAddF,  // mul.f t,b,c; add.f a,e,t — t/e packed as imm = e<<8 | t;
             // two roundings, exactly as the unfused pair
  // ---- observability ----
  kObsCount,  // metrics only: the §6.3 change-check guard of site imm's
              // send loop evaluated false — count the skipped fan-out
              // (a = push direction) into dv.sends_suppressed. Emitted on
              // the guard's else edge; pure no-op without a shard.
};

/// Every opcode, in enum order: the VM's dispatch table and the native
/// tier's opcode coverage test iterate this list. The static_asserts below
/// keep it in sync with the enum.
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
  X(kDivGraphSizeF) X(kDivDegOutF) X(kCopyFieldScratchF) X(kMulAddF)         \
  X(kObsCount)

namespace op_order {
#define X(n) n,
enum : int { DV_VM_OPS(X) kCount };
#undef X
#define X(n)                                     \
  static_assert(n == static_cast<int>(Op::n),    \
                "DV_VM_OPS out of sync with Op enum");
DV_VM_OPS(X)
#undef X
}  // namespace op_order

/// Number of opcodes.
inline constexpr int kNumOps = op_order::kCount;

/// Payload operand of a send superinstruction, packed into a uint16:
/// top two bits select the source, low 14 bits index it. The operand's
/// value is guaranteed by lowering to already have the site's element
/// type (mismatches fall back to kChunk, which converts on return).
enum class SendSrc : std::uint8_t {
  kField = 0,    // per-vertex field slot
  kScratch = 1,  // scratch slot
  kConst = 2,    // constant pool (pre-converted at lowering)
  kChunk = 3,    // nested sub-chunk, executed per target
};

constexpr std::uint16_t pack_send_operand(SendSrc src, std::uint16_t index) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(src) << 14 |
                                    index);
}
constexpr SendSrc send_operand_src(std::uint16_t packed) {
  return static_cast<SendSrc>(packed >> 14);
}
constexpr std::uint16_t send_operand_index(std::uint16_t packed) {
  return packed & 0x3fff;
}

/// Per-chunk register budget. The VM stacks at most two frames (a body
/// chunk plus one send sub-chunk), so this bounds register stack usage at
/// 2 × kVmMaxRegs × 8 bytes.
inline constexpr int kVmMaxRegs = 224;

struct Instr {
  Op op{};
  std::uint8_t a = 0;   // destination register (or source, for stores)
  std::uint16_t b = 0;  // source register / slot / packed send operand
  std::uint16_t c = 0;  // second source / store-is-user-field flag
  std::int32_t imm = 0; // jump target / constant index / site id
};
static_assert(sizeof(Instr) <= 12);

/// One compiled entry point: straight-line code with internal jumps,
/// terminated by kReturnVal/kReturnUnit on every path.
struct Chunk {
  std::vector<Instr> code;
  int num_regs = 0;
  Type result = Type::kUnit;  // static type of kReturnVal's register
};

/// A lowered program: every expression root the runner evaluates (init
/// block, statement bodies, until clauses, per-site send expressions) maps
/// to a chunk; send superinstructions may reference further sub-chunks.
struct VmProgram {
  std::vector<Chunk> chunks;
  std::vector<VmSlot> consts;
  /// Root expression → chunk id, keyed by node identity in the owning
  /// CompiledProgram's AST.
  std::unordered_map<const Expr*, int> roots;

  int chunk_of(const Expr& root) const {
    auto it = roots.find(&root);
    return it == roots.end() ? -1 : it->second;
  }
};

/// Lowers every runner-visible root of `cp`. Throws CheckError on
/// malformed input (untyped nodes, register overflow) — those indicate a
/// compiler bug, mirroring the tree interpreter's DV_FAIL policy.
VmProgram lower_program(const CompiledProgram& cp);

/// Lowers one extra expression as a root into `vp` (tests and
/// microbenchmarks build expression trees directly); returns its chunk id.
int lower_root(VmProgram& vp, const Program& prog, const Expr& root);

/// Human-readable disassembly (tests; `dvc --emit=bytecode`).
std::string to_string(const VmProgram& vp);

}  // namespace deltav::dv
