// Native-tier source emission: compiled ΔV program → one hermetic C++
// translation unit implementing every evaluation root as straight-line
// code over the native C ABI (native_abi.h).
//
// The emitted functions are drop-in replacements for the tree walker's
// eval() on the exact root set the bytecode VM compiles (init, statement
// bodies, until clauses, per-site send expressions), called by the runner
// through dlopen-ed function pointers with the same EvalContext-shaped
// state. Bit-exactness against the interpreter is the contract — every
// coercion, short-circuit, Δ-synthesis rule, suppression decision and
// observability count below mirrors runtime/interpreter.cpp line for line,
// and the differential fuzzer's tier axis enforces it.
#pragma once

#include <string>
#include <vector>

#include "dv/compiler.h"

namespace deltav::dv::native {

/// Placeholder inside NativeUnit::source where the module loader writes
/// the cache digest (the digest covers the source *with* the placeholder,
/// since it cannot contain itself).
inline constexpr const char* kDigestPlaceholder = "@DVN_DIGEST@";

struct NativeUnit {
  /// The emitted translation unit. Empty when `unsupported` is set.
  std::string source;
  /// Root index -> expression, in emission order. Mirrors the root set
  /// bytecode.cpp registers: init, then per-statement body/until, then
  /// per-site send_expr/init_send_expr.
  std::vector<const Expr*> roots;
  /// Non-empty when the program uses a construct the native tier does not
  /// support; the runner falls back to the VM with this named reason.
  std::string unsupported;
};

/// Emits the translation unit for `cp`. Never throws for unsupported
/// programs — those come back via NativeUnit::unsupported.
NativeUnit emit_native_unit(const CompiledProgram& cp);

}  // namespace deltav::dv::native
