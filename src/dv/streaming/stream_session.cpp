#include "dv/streaming/stream_session.h"

#include <bit>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "dv/obs/obs.h"
#include "dv/persist/graph_codec.h"
#include "dv/persist/snapshot.h"

namespace deltav::dv::streaming {
namespace {

/// Current snapshot payload version. The container magic ("DVSNAP01")
/// guards the framing; this guards the section contents. Bump on any
/// layout change — old snapshots then fail restore with a version
/// message, never a misparse.
/// v2: SuperstepStats gained vertices_halted/vertices_woken.
/// v3: runner snapshots gained the kSecRetract section (min/max
///     retraction memos, DESIGN.md §11).
/// v4: the meta section lost its schedule-mode byte (the work queue is the
///     engine's only scheduler).
/// v5: the engine section ends with one stats totals record in place of
///     the per-superstep stats history, so its size no longer grows with
///     the session's uptime.
constexpr std::uint32_t kFormatVersion = 5;

std::uint64_t value_payload_bits(const Value& v) {
  switch (v.type) {
    case Type::kFloat:
      return std::bit_cast<std::uint64_t>(v.f);
    case Type::kBool:
      return v.b ? 1 : 0;
    case Type::kInt:
    default:
      return static_cast<std::uint64_t>(v.i);
  }
}

/// Fingerprint of everything that determines the compiled program's
/// execution semantics: the source text plus every CompileOptions field
/// (the same source compiles to different state layouts and send policies
/// under different options) plus the layout counts as a belt-and-braces
/// check against compiler drift across versions of this codebase.
std::uint64_t program_digest(const CompiledProgram& cp) {
  std::uint64_t h = fnv1a(cp.source);
  h = hash_combine(h, cp.options.incrementalize ? 1 : 0);
  h = hash_combine(h, cp.options.insert_halts ? 1 : 0);
  h = hash_combine(h, cp.options.naive_sends ? 1 : 0);
  h = hash_combine(h, std::bit_cast<std::uint64_t>(cp.options.epsilon));
  h = hash_combine(h, cp.num_fields());
  h = hash_combine(h, cp.num_scratch());
  h = hash_combine(h, cp.num_sites());
  h = hash_combine(h, cp.program.stmts.size());
  return h;
}

/// Fingerprint of the parameter bindings. Params feed expression
/// evaluation, so a restore under different bindings would diverge from
/// the saved trajectory on the very next superstep. std::map iteration is
/// name-ordered, hence deterministic.
std::uint64_t params_digest(const std::map<std::string, Value>& params) {
  std::uint64_t h = fnv1a("dv-params");
  for (const auto& [name, v] : params) {
    h = hash_combine(h, fnv1a(name));
    h = hash_combine(h, static_cast<std::uint64_t>(v.type));
    h = hash_combine(h, value_payload_bits(v));
  }
  return h;
}

[[noreturn]] void mismatch(const std::string& what) {
  throw persist::SnapshotError(
      "snapshot does not match the restoring session: " + what);
}

}  // namespace

DvStreamSession::DvStreamSession(const CompiledProgram& cp,
                                 graph::CsrGraph base, SessionOptions options)
    : DvStreamSession(cp, graph::DynamicGraph(std::move(base)),
                      std::move(options)) {}

DvStreamSession::DvStreamSession(const CompiledProgram& cp,
                                 graph::DynamicGraph dyn,
                                 SessionOptions options)
    : cp_(&cp), options_(std::move(options)), dyn_(std::move(dyn)) {
  // The session-level knob is authoritative: runners (including cold-
  // epoch replacements) inherit it through options_.run.
  options_.run.minmax_memo_k = options_.minmax_memo_k;
  if (options_.checkpoint_every > 0 &&
      (options_.checkpoint_sink || !options_.checkpoint_path.empty())) {
    // Installed on options_.run so cold-epoch replacement runners inherit
    // the hook too. `this` is stable: the session type is immovable.
    options_.run.checkpoint_every = options_.checkpoint_every;
    options_.run.checkpoint_sink = [this](std::size_t) { write_checkpoint(); };
  }
  init_runner();
}

DvStreamSession::~DvStreamSession() = default;

void DvStreamSession::check_owner() const {
#ifndef NDEBUG
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};  // unbound
  if (owner_.compare_exchange_strong(expected, self,
                                     std::memory_order_acq_rel)) {
    return;  // first guarded entry point: this thread is now the owner
  }
  DV_CHECK_MSG(expected == self,
               "DvStreamSession entered from a second thread: sessions are "
               "single-owner (see rebind_owner_thread() in "
               "stream_session.h); dv/serve drives each session from one "
               "engine thread and serves reads from a published view");
#endif
}

void DvStreamSession::rebind_owner_thread() {
  owner_.store(std::this_thread::get_id(), std::memory_order_release);
}

void DvStreamSession::init_runner() {
  runner_ = std::make_unique<DvRunner>(*cp_, graph::GraphView(dyn_),
                                       options_.run);
}

bool DvStreamSession::converged() const { return runner_->converged(); }

bool DvStreamSession::atomic_path() const { return runner_->atomic_path(); }

bool DvStreamSession::memo_path() const { return runner_->memo_path(); }

DvRunResult DvStreamSession::converge() {
  check_owner();
  DV_CHECK_MSG(!runner_->converged(), "converge() already ran; use apply()");
  // Distinguish the first-ever converge() from resuming a snapshot taken
  // mid-cold-epoch (epoch_ > 0: apply() had already committed the delta
  // and was re-running when the checkpoint fired).
  const bool resumed_epoch = converge_called_ && epoch_ > 0;
  converge_called_ = true;
  DvRunResult r = runner_->converge();
  if (resumed_epoch &&
      dyn_.overlay_fraction() > options_.compact_threshold) {
    // Replay the interrupted epoch's pending compaction check, so the
    // overlay — and every later epoch's compaction decision — stays on
    // the uninterrupted session's trajectory.
    dyn_.compact();
  }
  return r;
}

SessionEpoch DvStreamSession::apply(const graph::MutationBatch& batch) {
  check_owner();
  DV_CHECK_MSG(converge_called_, "apply() before converge()");
  DV_CHECK_MSG(runner_->converged(),
               "apply() on an unresumed snapshot; call converge() first");
  obs::Collector* const col = obs::resolve(options_.run.collector);
  obs::Scope obs_scope(col, "stream.apply");
  SessionEpoch ep;
  ep.epoch = ++epoch_;

  const auto note_decision = [&](const SessionEpoch& e) {
    if (!col) return;
    col->metrics.shard(0).add(
        e.warm ? obs::Counter::kWarmEpochs : obs::Counter::kColdEpochs, 1);
    if (e.blocker)
      col->metrics.add_named(std::string("stream.warm_blocked.") +
                             e.blocker);
  };

  const graph::GraphDelta delta = dyn_.plan(batch);
  if (delta.empty()) {
    // Nothing net-changed (all ops redundant): state is already converged.
    ep.warm = true;
    ep.stats.atomic_path = runner_->atomic_path();
    note_decision(ep);
    return ep;
  }

  ep.blocker = options_.force_cold
                   ? "cold rebuild forced by SessionOptions::force_cold"
                   : DvRunner::warm_blocker(*cp_, delta,
                                            options_.run.minmax_memo_k);
  if (ep.blocker == nullptr)
    ep.blocker = runner_->warm_runtime_blocker(delta);
  ep.warm = ep.blocker == nullptr;
  if (ep.blocker == nullptr) {
    ep.stats = runner_->apply_epoch(dyn_, delta);
    if (ep.stats.warm_aborted) {
      // The warm repair hit the count-to-infinity cap: mid-climb state is
      // unusable. apply_epoch already committed the delta, so rebuild
      // cold over the mutated graph — no re-commit.
      ep.warm = false;
      ep.blocker = "warm repair aborted at the superstep cap "
                   "(count-to-infinity guard)";
      init_runner();
      const DvRunResult r = runner_->converge();
      ep.stats.supersteps += r.supersteps;
      ep.stats.messages += r.stats.total_messages_sent();
      ep.stats.woken = r.num_vertices;
      ep.stats.atomic_path = runner_->atomic_path();
    }
  } else {
    dyn_.commit(delta);
    init_runner();
    const DvRunResult r = runner_->converge();
    ep.stats.supersteps = r.supersteps;
    ep.stats.messages = r.stats.total_messages_sent();
    ep.stats.woken = r.num_vertices;  // a cold run wakes everyone
    ep.stats.atomic_path = runner_->atomic_path();
  }
  note_decision(ep);

  if (dyn_.overlay_fraction() > options_.compact_threshold) {
    // The runner's GraphView targets dyn_ itself, so reads stay valid —
    // compaction only moves adjacency from the overlay into the base CSR.
    dyn_.compact();
    ep.compacted = true;
  }
  return ep;
}

DvRunResult DvStreamSession::result() const {
  check_owner();
  return runner_->result();
}

StateWindow DvStreamSession::state_window() const {
  check_owner();
  return runner_->state_window();
}

bool DvStreamSession::take_changed(std::vector<graph::VertexId>& out) {
  check_owner();
  return runner_->take_changed(out);
}

persist::SnapshotWriter DvStreamSession::build_snapshot() const {
  check_owner();
  // An eighth of headroom absorbs what the graph and the state rows grew
  // by since the last save (inserted vertices, overlay arcs, memo cells).
  persist::SnapshotWriter w(last_snapshot_bytes_ + last_snapshot_bytes_ / 8);
  w.begin_section(persist::kSecMeta);
  w.put_u32(kFormatVersion);
  w.put_u64(program_digest(*cp_));
  w.put_u64(params_digest(options_.run.params));
  // Engine configuration fields are stored individually (not digested) so
  // a mismatch names the offending knob. The execution tier is
  // deliberately absent: tiers are bit-identical by contract, so a
  // VM-written snapshot may resume on the tree interpreter and vice versa
  // (tests/dv_persist_test.cpp pins this down).
  const pregel::EngineOptions& eng = options_.run.engine;
  w.put_u32(static_cast<std::uint32_t>(eng.num_workers));
  w.put_u8(static_cast<std::uint8_t>(eng.partition));
  w.put_bool(eng.use_combiner);
  w.put_bool(options_.run.use_combiner);
  w.put_u64(epoch_);
  w.put_bool(converge_called_);
  w.end_section();
  persist::GraphCodec::write(dyn_, w);
  runner_->save_state(w);
  w.finish();
  last_snapshot_bytes_ = w.bytes().size();
  return w;
}

// persist.save spans encode and CRC; its persist.write_file child is the
// file I/O, so the parent's self time is the codec alone.
void DvStreamSession::save(const std::string& path) const {
  obs::Collector* const col = obs::resolve(options_.run.collector);
  obs::Scope obs_scope(col, "persist.save");
  const persist::SnapshotWriter w = build_snapshot();
  obs::Scope io_scope(col, "persist.write_file");
  w.write_file(path);
}

std::vector<std::uint8_t> DvStreamSession::save_bytes() const {
  obs::Scope obs_scope(obs::resolve(options_.run.collector),
                       "persist.save");
  return std::move(build_snapshot()).take_bytes();
}

void DvStreamSession::write_checkpoint() {
  if (options_.checkpoint_sink) {
    options_.checkpoint_sink(save_bytes());
  } else {
    save(options_.checkpoint_path);
  }
}

// As with save(): persist.restore's self time is the decode, and its
// persist.read_file child the file I/O.
std::unique_ptr<DvStreamSession> DvStreamSession::restore(
    const CompiledProgram& cp, const std::string& path,
    SessionOptions options) {
  obs::Collector* const col = obs::resolve(options.run.collector);
  obs::Scope obs_scope(col, "persist.restore");
  std::vector<std::uint8_t> bytes;
  {
    obs::Scope io_scope(col, "persist.read_file");
    bytes = persist::read_file_bytes(path);
  }
  return decode(cp, std::move(bytes), std::move(options));
}

std::unique_ptr<DvStreamSession> DvStreamSession::restore_bytes(
    const CompiledProgram& cp, std::vector<std::uint8_t> bytes,
    SessionOptions options) {
  obs::Scope obs_scope(obs::resolve(options.run.collector),
                       "persist.restore");
  return decode(cp, std::move(bytes), std::move(options));
}

std::unique_ptr<DvStreamSession> DvStreamSession::decode(
    const CompiledProgram& cp, std::vector<std::uint8_t> bytes,
    SessionOptions options) {
  persist::SnapshotReader r(std::move(bytes));

  r.open(persist::kSecMeta);
  const std::uint32_t version = r.get_u32();
  if (version != kFormatVersion) {
    mismatch("snapshot format version " + std::to_string(version) +
             ", this build reads version " + std::to_string(kFormatVersion));
  }
  if (r.get_u64() != program_digest(cp)) {
    mismatch("it was written by a different compiled program "
             "(source or compile options differ)");
  }
  if (r.get_u64() != params_digest(options.run.params)) {
    mismatch("program parameter bindings differ");
  }
  const pregel::EngineOptions& eng = options.run.engine;
  const std::uint32_t workers = r.get_u32();
  if (workers != static_cast<std::uint32_t>(eng.num_workers)) {
    mismatch("it was written with " + std::to_string(workers) +
             " engine workers, restoring with " +
             std::to_string(eng.num_workers));
  }
  if (r.get_u8() != static_cast<std::uint8_t>(eng.partition)) {
    mismatch("partition scheme differs");
  }
  if (r.get_bool() != eng.use_combiner) {
    mismatch("engine combiner setting differs");
  }
  if (r.get_bool() != options.run.use_combiner) {
    mismatch("runtime combiner setting differs");
  }
  const std::uint64_t epoch = r.get_u64();
  const bool converge_called = r.get_bool();
  r.close();

  graph::DynamicGraph dyn = persist::GraphCodec::read(r);

  // The constructor builds a fresh runner over the restored graph (its
  // init superstep has not run); restore_state then overwrites the
  // runner's entire execution state with the saved one.
  std::unique_ptr<DvStreamSession> s(
      new DvStreamSession(cp, std::move(dyn), std::move(options)));
  s->runner_->restore_state(r);
  r.finish();
  s->epoch_ = static_cast<std::size_t>(epoch);
  s->converge_called_ = converge_called;
  return s;
}

std::unique_ptr<DvStreamSession> make_stream_session(
    const CompiledProgram& cp, graph::CsrGraph base, SessionOptions options) {
  return std::make_unique<DvStreamSession>(cp, std::move(base),
                                           std::move(options));
}

}  // namespace deltav::dv::streaming
