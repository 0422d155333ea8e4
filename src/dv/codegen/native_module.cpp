#include "dv/codegen/native_module.h"

#include <dlfcn.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/check.h"
#include "common/hash.h"
#include "dv/codegen/native_emit.h"

// Sanitizer-instrumented hosts never run native: the emitted object is
// uninstrumented, so TSan would miss its synchronization (false positives)
// and ASan its memory traffic (false negatives). The availability probe
// reports this as a named reason and everything falls back to the VM.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DV_NATIVE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DV_NATIVE_SANITIZED 1
#endif
#endif

namespace deltav::dv::native {

namespace fs = std::filesystem;

namespace {

// ------------------------------------------------------------ subprocess

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

int run_shell(const std::string& cmd) { return std::system(cmd.c_str()); }

/// First line of `cmd`'s stdout (empty on failure).
std::string capture_first_line(const std::string& cmd) {
  FILE* p = popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!p) return {};
  char buf[512];
  std::string out;
  if (std::fgets(buf, sizeof(buf), p)) out = buf;
  pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string read_file_tail(const fs::path& path, std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  std::string s = os.str();
  if (s.size() > max_bytes) s = "..." + s.substr(s.size() - max_bytes);
  for (char& c : s)
    if (c == '\n') c = ' ';
  return s;
}

// ------------------------------------------------------------- toolchain

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : fallback;
}

/// The compiler to shell out to. DV_NATIVE_CXX is authoritative when set
/// (no PATH fallback — a bogus value is a reportable failure, not a silent
/// substitution); otherwise the first of c++/g++/clang++ on PATH.
std::string discover_compiler() {
  const std::string env = env_or("DV_NATIVE_CXX", "");
  if (!env.empty()) return env;
  for (const char* cand : {"c++", "g++", "clang++"}) {
    if (run_shell(std::string("command -v ") + cand +
                  " >/dev/null 2>&1") == 0)
      return cand;
  }
  return {};
}

/// `<compiler> --version` first line, cached per compiler string — part of
/// the cache digest so a toolchain upgrade invalidates every object.
std::string compiler_id(const std::string& cxx) {
  static std::mutex mu;
  static std::map<std::string, std::string> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(cxx);
  if (it != cache.end()) return it->second;
  std::string id = capture_first_line(shell_quote(cxx) + " --version");
  if (id.empty()) id = "unidentified:" + cxx;
  cache.emplace(cxx, id);
  return id;
}

/// Baseline flags. -ffp-contract=off is load-bearing for bit-exactness:
/// the emitted code nests float multiplies into adds inside single
/// expressions, and a contracted FMA rounds once where the interpreter
/// (whose boxed evaluation can never contract across eval() calls) rounds
/// twice. -w because generated code legitimately has unused locals.
constexpr const char* kBaseFlags =
    "-std=c++20 -O2 -fPIC -shared -fvisibility=hidden -ffp-contract=off -w";

std::string compile_flags() {
  const std::string extra = env_or("DV_NATIVE_CXXFLAGS", "");
  return extra.empty() ? std::string(kBaseFlags)
                       : std::string(kBaseFlags) + " " + extra;
}

fs::path cache_dir() {
  const std::string env = env_or("DV_NATIVE_CACHE", "");
  if (!env.empty()) return fs::path(env);
  const std::string xdg = env_or("XDG_CACHE_HOME", "");
  if (!xdg.empty()) return fs::path(xdg) / "dv-native";
  const std::string home = env_or("HOME", "");
  if (!home.empty()) return fs::path(home) / ".cache" / "dv-native";
  return fs::path("/tmp") / "dv-native";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// 128-bit content digest of (emitted source, compiler id, flags).
std::string cache_digest(const std::string& source,
                         const std::string& compiler,
                         const std::string& flags) {
  std::string key = source;
  key += '\x1f';
  key += compiler;
  key += '\x1f';
  key += flags;
  const std::uint64_t h1 = fnv1a(key);
  const std::uint64_t h2 = mix64(h1 ^ hash_combine(fnv1a(compiler),
                                                   fnv1a(flags)));
  return hex64(h1) + hex64(h2);
}

// ------------------------------------------------------------ load & run

struct LoadResult {
  void* handle = nullptr;
  const DvnVTable* vt = nullptr;
  std::string error;
};

/// dlopens and validates one object: entry symbol present, ABI version
/// matches, chunk count matches, embedded digest matches the cache key.
LoadResult load_object(const fs::path& so_path, const std::string& digest,
                       std::size_t expect_chunks) {
  LoadResult r;
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = dlerror();
    r.error = std::string("dlopen failed: ") + (err ? err : "unknown");
    return r;
  }
  const auto entry =
      reinterpret_cast<DvnEntryFn>(dlsym(handle, kDvnEntrySymbol));
  if (!entry) {
    dlclose(handle);
    r.error = "entry symbol missing";
    return r;
  }
  const DvnVTable* vt = entry();
  if (!vt || vt->abi_version != kDvnAbiVersion) {
    dlclose(handle);
    r.error = "ABI version mismatch";
    return r;
  }
  if (vt->num_chunks != expect_chunks || !vt->chunks) {
    dlclose(handle);
    r.error = "chunk table mismatch";
    return r;
  }
  if (!vt->source_digest || digest != vt->source_digest) {
    dlclose(handle);
    r.error = "embedded digest mismatch";
    return r;
  }
  for (std::uint32_t i = 0; i < vt->num_chunks; ++i) {
    if (!vt->chunks[i]) {
      dlclose(handle);
      r.error = "null chunk function";
      return r;
    }
  }
  r.handle = handle;
  r.vt = vt;
  return r;
}

/// Writes `text` to `path` via a temp file + atomic rename.
bool write_file_atomic(const fs::path& path, const std::string& text) {
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << text;
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

/// In-process module registry: one dlopen per digest, shared across
/// runners (repeat runs skip validation too, not just compilation).
std::mutex registry_mu;
std::map<std::string, std::weak_ptr<const NativeModule>> registry;

std::shared_ptr<const NativeModule> registry_get(const std::string& digest) {
  std::lock_guard<std::mutex> lock(registry_mu);
  const auto it = registry.find(digest);
  return it == registry.end() ? nullptr : it->second.lock();
}

void registry_put(const std::string& digest,
                  const std::shared_ptr<const NativeModule>& mod) {
  std::lock_guard<std::mutex> lock(registry_mu);
  registry[digest] = mod;
}

// --------------------------------------------------------- host callbacks

EvalContext& host_ctx(void* host) {
  return *static_cast<EvalContext*>(host);
}

void t_arcs(void* host, std::uint8_t dir_in, const std::uint32_t** nbrs,
            const double** wts, std::uint64_t* n_nbrs,
            std::uint64_t* n_wts) {
  EvalContext& ctx = host_ctx(host);
  const auto t = dir_in ? ctx.graph->in_neighbors(ctx.vertex)
                        : ctx.graph->out_neighbors(ctx.vertex);
  const auto w = dir_in ? ctx.graph->in_weights(ctx.vertex)
                        : ctx.graph->out_weights(ctx.vertex);
  *nbrs = t.data();
  *n_nbrs = t.size();
  *wts = w.data();
  *n_wts = w.size();
}

std::uint64_t t_degree(void* host, std::uint8_t dir_in) {
  EvalContext& ctx = host_ctx(host);
  return dir_in ? ctx.graph->in_degree(ctx.vertex)
                : ctx.graph->out_degree(ctx.vertex);
}

std::uint64_t t_send(void* host, std::uint32_t dst, const DvnMsg* msg) {
  return host_ctx(host).sink->send(
      dst, *reinterpret_cast<const DvMessage*>(msg));
}

std::uint64_t t_send_span(void* host, const std::uint32_t* dsts,
                          std::uint64_t n, const DvnMsg* msg) {
  return host_ctx(host).sink->send_span(
      std::span<const graph::VertexId>(dsts, n),
      *reinterpret_cast<const DvMessage*>(msg));
}

void t_obs_add(void* host, std::uint32_t counter, std::uint64_t n) {
  host_ctx(host).obs->add(static_cast<obs::Counter>(counter), n);
}

}  // namespace

NativeModule::~NativeModule() {
  if (handle_) dlclose(handle_);
}

Value NativeProgram::run(int chunk, EvalContext& ctx) const {
  DvnCtx c;
  c.fields = reinterpret_cast<DvnValue*>(ctx.fields.data());
  c.scratch = reinterpret_cast<DvnValue*>(ctx.scratch.data());
  c.msgs = reinterpret_cast<const DvnMsg*>(ctx.msgs.data());
  c.num_msgs = ctx.msgs.size();
  c.vertex = ctx.vertex;
  c.has_vertex = ctx.has_vertex ? 1 : 0;
  c.params = reinterpret_cast<const DvnValue*>(ctx.params.data());
  c.iter = ctx.iter;
  c.stable = ctx.stable ? 1 : 0;
  c.suppress_sites = ctx.suppress_sites;
  c.record_sites = ctx.record_sites;
  c.graph_size = ctx.graph ? ctx.graph->num_vertices() : 0;
  c.cur_edge_weight = ctx.cur_edge_weight;
  c.halt_requested = ctx.halt_requested ? 1 : 0;
  c.any_field_assign = ctx.any_field_assign ? 1 : 0;
  c.site_wire = ctx.site_wire ? ctx.site_wire->data() : nullptr;
  c.has_obs = ctx.obs ? 1 : 0;
  c.host = &ctx;
  c.arcs = &t_arcs;
  c.degree = &t_degree;
  c.send = &t_send;
  c.send_span = &t_send_span;
  c.obs_add = &t_obs_add;

  DvnValue ret;
  mod_->vtable()->chunks[static_cast<std::size_t>(chunk)](&c, &ret);

  ctx.halt_requested = c.halt_requested != 0;
  ctx.any_field_assign = c.any_field_assign != 0;
  ctx.cur_edge_weight = c.cur_edge_weight;
  return *reinterpret_cast<Value*>(&ret);
}

NativeBuildReport build_native(const CompiledProgram& cp,
                               const VmProgram& vp) {
  NativeBuildReport report;

#ifdef DV_NATIVE_SANITIZED
  report.reason = "sanitized_host";
  return report;
#else
  NativeUnit unit = emit_native_unit(cp, vp);
  if (!unit.unsupported.empty()) {
    report.reason = "unsupported: " + unit.unsupported;
    return report;
  }

  const std::string cxx = discover_compiler();
  if (cxx.empty()) {
    report.reason = "no_compiler";
    return report;
  }
  const std::string flags = compile_flags();
  const std::string digest =
      cache_digest(unit.source, compiler_id(cxx), flags);
  report.digest = digest;

  // Resolve the digest placeholder now that the digest is known (the
  // digest covers the source *with* the placeholder).
  std::string source = unit.source;
  const std::size_t at = source.find(kDigestPlaceholder);
  DV_CHECK_MSG(at != std::string::npos, "digest placeholder missing");
  source.replace(at, std::string(kDigestPlaceholder).size(), digest);

  // Live module with this digest → nothing to load at all.
  if (auto mod = registry_get(digest)) {
    report.cache_hit = true;
    report.object_path = mod->object_path();
    report.program = std::make_shared<NativeProgram>(std::move(mod));
    return report;
  }

  std::error_code ec;
  const fs::path dir = cache_dir();
  fs::create_directories(dir, ec);
  if (ec) {
    report.reason = "cache_dir: " + ec.message();
    return report;
  }
  const fs::path so_path = dir / (digest + ".so");
  const fs::path src_path = dir / (digest + ".cpp");
  const fs::path log_path = dir / (digest + ".log");
  report.object_path = so_path.string();

  const auto compile_once = [&]() -> std::string {
    if (!write_file_atomic(src_path, source)) return "source write failed";
    const fs::path tmp_so =
        so_path.string() + ".tmp." + std::to_string(::getpid());
    const std::string cmd = shell_quote(cxx) + " " + flags + " -o " +
                            shell_quote(tmp_so.string()) + " " +
                            shell_quote(src_path.string()) + " 2> " +
                            shell_quote(log_path.string());
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = run_shell(cmd);
    report.compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rc != 0) {
      fs::remove(tmp_so, ec);
      return "compiler exited " + std::to_string(rc) + ": " +
             read_file_tail(log_path, 300);
    }
    fs::rename(tmp_so, so_path, ec);
    if (ec) return "object rename failed: " + ec.message();
    return {};
  };

  bool hit = fs::exists(so_path, ec) && !ec;
  std::string load_error;
  LoadResult loaded;
  if (hit) {
    loaded = load_object(so_path, digest, vp.chunks.size());
    if (!loaded.handle) {
      // Corrupt or stale cached object: drop it and recompile once.
      load_error = loaded.error;
      fs::remove(so_path, ec);
      hit = false;
    }
  }
  if (!loaded.handle) {
    const std::string err = compile_once();
    if (!err.empty()) {
      report.reason = "compile_failed: " + err;
      if (!load_error.empty())
        report.reason += " (after cache load failed: " + load_error + ")";
      return report;
    }
    loaded = load_object(so_path, digest, vp.chunks.size());
    if (!loaded.handle) {
      report.reason = "load_failed: " + loaded.error;
      return report;
    }
  }
  report.cache_hit = hit;

  auto mod = std::make_shared<const NativeModule>(
      loaded.handle, loaded.vt, digest, so_path.string());
  registry_put(digest, mod);
  report.program = std::make_shared<NativeProgram>(std::move(mod));
  return report;
#endif  // DV_NATIVE_SANITIZED
}

const std::string& native_unavailable_reason() {
  static const std::string reason = []() -> std::string {
#ifdef DV_NATIVE_SANITIZED
    return "sanitizer-instrumented host build";
#else
    const std::string cxx = discover_compiler();
    if (cxx.empty())
      return "no host C++ compiler (set DV_NATIVE_CXX or put c++/g++/"
             "clang++ on PATH)";
    // End-to-end probe: compile and dlopen a trivial object once so a
    // present-but-broken toolchain is caught here, not per run.
    std::error_code ec;
    const fs::path dir = cache_dir();
    fs::create_directories(dir, ec);
    if (ec) return "cache directory unavailable: " + ec.message();
    const std::string probe_src =
        "extern \"C\" __attribute__((visibility(\"default\"))) int "
        "dv_native_probe() { return 42; }\n";
    const std::string digest =
        cache_digest(probe_src, compiler_id(cxx), compile_flags());
    const fs::path so_path = dir / ("probe-" + digest + ".so");
    if (!fs::exists(so_path, ec) || ec) {
      const fs::path src_path = dir / ("probe-" + digest + ".cpp");
      const fs::path log_path = dir / ("probe-" + digest + ".log");
      if (!write_file_atomic(src_path, probe_src))
        return "cache directory not writable";
      const std::string cmd =
          shell_quote(cxx) + " " + compile_flags() + " -o " +
          shell_quote(so_path.string()) + " " +
          shell_quote(src_path.string()) + " 2> " +
          shell_quote(log_path.string());
      if (run_shell(cmd) != 0)
        return "host compiler probe failed: " +
               read_file_tail(log_path, 200);
    }
    void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle) {
      const char* err = dlerror();
      return std::string("probe dlopen failed: ") + (err ? err : "?");
    }
    const auto fn =
        reinterpret_cast<int (*)()>(dlsym(handle, "dv_native_probe"));
    const bool ok = fn && fn() == 42;
    dlclose(handle);
    return ok ? std::string() : "probe symbol failed";
#endif
  }();
  return reason;
}

}  // namespace deltav::dv::native
