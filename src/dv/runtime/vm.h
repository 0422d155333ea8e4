// Direct-threaded VM executing the bytecode of runtime/bytecode.h.
//
// A `Vm` is immutable after construction and holds no execution state:
// register windows live on the run_chunk() stack frame, so one instance is
// shared by every worker thread of the Pregel engine. All mutable state
// flows through the same `EvalContext` the tree interpreter uses, which is
// what lets the runner switch tiers per call site (ExecTier in runner.h)
// without changing its superstep state machine.
#pragma once

#include "dv/runtime/bytecode.h"
#include "dv/runtime/interpreter.h"

namespace deltav::dv {

class Vm {
 public:
  /// Lowers every runner-visible root of `cp`.
  explicit Vm(const CompiledProgram& cp);
  /// Adopts an already-lowered program (tests, microbenchmarks).
  explicit Vm(VmProgram vp) : vp_(std::move(vp)) {}

  /// Evaluates a lowered root expression; drop-in for eval(root, ctx).
  /// Throws CheckError if `root` was never lowered into this program.
  Value eval_root(const Expr& root, EvalContext& ctx) const;

  /// Executes chunk `chunk_id` against `ctx`; returns its result (unit
  /// chunks return a zero int, like the interpreter's unit()).
  Value run_chunk(int chunk_id, EvalContext& ctx) const;

  const VmProgram& program() const { return vp_; }

 private:
  Value send_operand(std::uint16_t packed, Type elem, EvalContext& ctx) const;

  VmProgram vp_;
};

}  // namespace deltav::dv
