// Native-tier build pipeline: emitted translation unit → host compiler →
// cached shared object → dlopen-ed vtable (native_abi.h) → per-chunk
// dispatch.
//
// Cache contract: objects live under a content digest of (emitted source,
// compiler identification, compile flags), so a repeat run of the same
// program with the same toolchain reuses the .so without invoking the
// compiler, while any change to the program, the compiler version, or the
// flags (including DV_NATIVE_CXXFLAGS) compiles a fresh object. A cached
// object that fails to load or validate (truncated, wrong ABI version,
// wrong chunk count, wrong digest) is unlinked and recompiled once; if the
// recompile also fails the caller falls back to the VM with the named
// reason — never a silent wrong tier.
//
// Environment knobs (all optional):
//   DV_NATIVE_CXX       explicit compiler; no PATH fallback when set
//   DV_NATIVE_CXXFLAGS  extra flags, appended and digested
//   DV_NATIVE_CACHE     cache directory (default XDG/HOME cache, else /tmp)
#pragma once

#include <memory>
#include <string>

#include "dv/codegen/native_abi.h"
#include "dv/compiler.h"
#include "dv/runtime/bytecode.h"
#include "dv/runtime/interpreter.h"

namespace deltav::dv::native {

/// One loaded shared object (dlopen handle + validated vtable), shared by
/// every program instance with the same digest in this process.
class NativeModule {
 public:
  NativeModule(void* handle, const DvnVTable* vt, std::string digest,
               std::string object_path)
      : handle_(handle),
        vt_(vt),
        digest_(std::move(digest)),
        object_path_(std::move(object_path)) {}
  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  const DvnVTable* vtable() const { return vt_; }
  const std::string& digest() const { return digest_; }
  const std::string& object_path() const { return object_path_; }

 private:
  void* handle_ = nullptr;
  const DvnVTable* vt_ = nullptr;
  std::string digest_;
  std::string object_path_;
};

/// A loaded unit's chunk functions: run(i, ctx) is the native counterpart
/// of Vm::run_chunk(i, ctx) on the same lowering.
class NativeProgram {
 public:
  explicit NativeProgram(std::shared_ptr<const NativeModule> mod)
      : mod_(std::move(mod)) {}

  /// Runs chunk `chunk` against `ctx` and returns its result (unit chunks
  /// return a zero int, like the VM).
  Value run(int chunk, EvalContext& ctx) const;

  const std::string& digest() const { return mod_->digest(); }
  const std::string& object_path() const { return mod_->object_path(); }

 private:
  std::shared_ptr<const NativeModule> mod_;
};

struct NativeBuildReport {
  /// Null on failure; `reason` then names why (the runner's vm-fallback
  /// reason and the dv.native_fallbacks.<reason> metric suffix come from
  /// it).
  std::shared_ptr<NativeProgram> program;
  bool cache_hit = false;          // reused a cached .so (or live module)
  double compile_seconds = 0.0;    // wall time of a real compiler run
  std::string reason;
  std::string digest;
  std::string object_path;
};

/// Emits, compiles (or reuses) and loads the native unit for `vp`, the
/// lowering of `cp`. Never throws for toolchain or program-subset failures
/// — those come back as a report with a reason.
NativeBuildReport build_native(const CompiledProgram& cp, const VmProgram& vp);

/// Process-wide availability probe: empty when the native tier can run
/// here, else a named reason (sanitizer-instrumented host build, no host
/// compiler, probe compile failed). Computed once, on first use; tools use
/// it to skip or drop the native axis gracefully.
const std::string& native_unavailable_reason();

}  // namespace deltav::dv::native
