// Native-tier source emission: a compiled ΔV program's bytecode → one
// hermetic C++ translation unit over the native C ABI (native_abi.h).
//
// The unit has one function per chunk of lower_program(cp): function i
// runs chunk i. Each opcode becomes one statement from a template copied
// from its case in runtime/vm.cpp (the peephole fusions and kObsCount
// included), registers become VmSlot locals, jump targets become labels,
// the send and fold superinstructions become loops over the host's arc,
// send and send_span callbacks, and a kChunk send operand becomes a direct
// call to that chunk's function. The native tier therefore runs exactly
// the chunks the VM runs; the runner resolves every root through
// VmProgram::chunk_of on both tiers, and the differential fuzzer's tier
// axis holds them bit-exact.
#pragma once

#include <string>

#include "dv/compiler.h"
#include "dv/runtime/bytecode.h"

namespace deltav::dv::native {

/// Placeholder inside NativeUnit::source where the module loader writes
/// the cache digest (the digest covers the source *with* the placeholder,
/// since it cannot contain itself).
inline constexpr const char* kDigestPlaceholder = "@DVN_DIGEST@";

struct NativeUnit {
  /// The emitted translation unit. Empty when `unsupported` is set.
  std::string source;
  /// Non-empty when the program uses a construct the native tier does not
  /// support; the runner falls back to the VM with this named reason.
  std::string unsupported;
};

/// Emits the translation unit for `vp`, the lowering of `cp`. Never throws
/// for unsupported programs — those come back via NativeUnit::unsupported.
NativeUnit emit_native_unit(const CompiledProgram& cp, const VmProgram& vp);

}  // namespace deltav::dv::native
