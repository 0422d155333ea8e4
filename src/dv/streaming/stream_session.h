// Streaming epochs: a ΔV program kept converged across graph mutations.
//
// A session owns a DynamicGraph (the delta-overlay, graph/dynamic_graph.h)
// and a DvRunner whose EvalContexts view it. Epoch 0 is an ordinary cold
// run to convergence. Every later epoch applies one MutationBatch:
//
//   plan      DynamicGraph::plan resolves the batch into its net per-arc
//             effect (GraphDelta) without touching the graph;
//   gate      DvRunner::warm_blocker decides whether the memoized state
//             can be patched incrementally for this (program, delta)
//             pair — min/max cannot retract removals, graphSize reads
//             pin |V|, and so on;
//   warm      DvRunner::apply_epoch synthesizes retraction/injection
//             Δ-messages for every affected aggregation site, folds them
//             into the receivers' accumulators, wakes only the mutation
//             frontier, and re-converges;
//   cold      otherwise the delta is committed and a fresh runner re-runs
//             the program from scratch over the same DynamicGraph — the
//             semantics-preserving fallback, also the baseline that
//             bench/bench_stream.cpp compares against;
//   compact   once the overlay covers more than compact_threshold of the
//             vertices, the overlay is folded into a fresh base CSR.
//
// Either way the session's state after epoch k is value-identical to a
// from-scratch run on the mutated graph (the stream fuzz tier checks this
// per batch against materialize()).
//
// Persistence (dv/persist/): save()/save_bytes() serialize the complete
// session — graph base + overlay verbatim, every vertex-state row
// (aggAccum, nnAcc/aggNulls, last-sent memos), the engine's halt bits,
// work queues, pending messages and stats totals, the runner's
// statement/iteration cursor, and the epoch counter — into a checksummed
// snapshot. restore() rebuilds a session that is bit-exact with one that
// never stopped: same values, same subsequent warm/cold and compaction
// decisions, same superstep and message counts and totals. The engine's
// per-superstep stats log is not saved; a restored session's log starts
// empty. A snapshot taken mid-convergence (see
// SessionOptions::checkpoint_every) restores to a session whose
// converge() resumes the interrupted run. Torn or corrupted snapshots
// always fail restore with a persist::SnapshotError carrying the reason;
// callers fall back to a cold rebuild.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dv/runtime/runner.h"
#include "graph/dynamic_graph.h"

namespace deltav::dv::streaming {

struct SessionOptions {
  DvRunOptions run;
  /// Compact the overlay back into a base CSR when overlay_fraction()
  /// exceeds this after a batch. <= 0 compacts every batch; >= 1 never.
  double compact_threshold = 0.25;
  /// Always rebuild cold (baseline mode for benchmarks and the
  /// differential oracle).
  bool force_cold = false;
  /// Retraction-memo capacity (DESIGN.md §11), copied into
  /// run.minmax_memo_k: every memo-eligible min/max site keeps the k best
  /// tagged contributions per vertex, so deletion-bearing epochs stay
  /// warm (O(k) retraction; targeted in-neighbor refold on underflow).
  /// 0 restores the legacy behavior — min/max deltas with removals
  /// rebuild cold. Snapshots record k; restore refuses a mismatch.
  std::size_t minmax_memo_k = 8;

  /// Checkpoint the whole session during convergence, every K supersteps
  /// (0 = off). Fires for epoch-0 converge() and for cold-epoch rebuilds
  /// — the long-running phases worth interrupting; warm epochs are short
  /// by construction and never fire.
  std::size_t checkpoint_every = 0;
  /// Each firing writes the session here, atomically (tmp + rename)...
  std::string checkpoint_path;
  /// ...or hands the serialized bytes to this callback instead when set
  /// (tests and the fuzz harness collect kill-points this way).
  std::function<void(const std::vector<std::uint8_t>&)> checkpoint_sink;
};

/// What one apply() did and cost.
struct SessionEpoch {
  std::size_t epoch = 0;        // 1-based; epoch 0 is converge()
  bool warm = false;            // patched incrementally vs rebuilt cold
  const char* blocker = nullptr;  // why cold (static string); null if warm
  bool compacted = false;
  EpochStats stats;             // cold epochs report the full re-run cost
};

class DvStreamSession {
 public:
  /// The compiled program must outlive the session.
  DvStreamSession(const CompiledProgram& cp, graph::CsrGraph base,
                  SessionOptions options = {});
  ~DvStreamSession();

  // The runner's EvalContexts hold a GraphView into dyn_, so the session
  // is pinned in place. Use make_stream_session() for a movable handle.
  DvStreamSession(DvStreamSession&&) = delete;
  DvStreamSession& operator=(DvStreamSession&&) = delete;

  /// Epoch 0: cold run to convergence. Must be called once, first — or
  /// again after restoring a mid-convergence snapshot, where it resumes
  /// the interrupted run (and replays the interrupted epoch's pending
  /// compaction check, keeping later compaction decisions on the
  /// uninterrupted session's trajectory).
  DvRunResult converge();

  /// Applies one batch and re-converges (warm when possible).
  SessionEpoch apply(const graph::MutationBatch& batch);

  /// Current converged vertex state.
  DvRunResult result() const;

  /// The current state uncopied, valid until the next converge()/apply().
  StateWindow state_window() const;

  /// Replaces `out` with the vertices whose user fields may have changed
  /// since the previous call and returns true; or returns false when
  /// every row must be treated as changed. That is the case on the first
  /// call, and on the first call after converge(), a cold rebuild or a
  /// warm abort (each starts a fresh runner, which recorded nothing), and
  /// after a restore. An empty batch yields an exact empty set.
  bool take_changed(std::vector<graph::VertexId>& out);

  const graph::DynamicGraph& graph() const { return dyn_; }
  std::size_t epoch() const { return epoch_; }
  /// False while convergence is pending: on a fresh session before
  /// converge(), and after restoring a mid-convergence snapshot (call
  /// converge() to resume).
  bool converged() const;
  /// True when at least one aggregation site routes through the lock-free
  /// fold path under this session's run options (labels tool output).
  bool atomic_path() const;
  /// True when at least one min/max site routes through the retraction
  /// memo under this session's run options (labels tool output).
  bool memo_path() const;

  /// Serializes the complete session (see the file comment) to `path`,
  /// atomically. Call between supersteps only — always true outside the
  /// checkpoint hook.
  void save(const std::string& path) const;
  std::vector<std::uint8_t> save_bytes() const;

  /// Single-owner-thread contract. A session is not internally
  /// synchronized: converge()/apply()/result()/save() mutate or read the
  /// runner's memoized state and must all be issued from one thread — the
  /// engine spawns its own worker pool internally, but the *entry points*
  /// race if two client threads interleave them. dv/serve makes this
  /// contract load-bearing: each served session is driven by exactly one
  /// engine thread, and reads go through a published state view instead.
  /// In debug builds (!NDEBUG) the first guarded entry point binds the
  /// calling thread as the owner and every later call DV_CHECKs it came
  /// from the same thread. Release builds compile the check away.
  /// Transferring a session between threads is legal only through an
  /// explicit rebind: call this from the *new* owner before its first
  /// entry point (it must happen-after the old owner's last call).
  void rebind_owner_thread();

  /// Rebuilds a session from a snapshot. `cp` and `options` must match
  /// the saving session's program and engine configuration (worker count,
  /// partition, combiner) — the snapshot records both and restore refuses
  /// a mismatch, since bit-exact continuation is only defined under the
  /// determinism contract's fixed configuration. The
  /// execution tier may differ (tiers are bit-identical by contract).
  /// Throws persist::SnapshotError on any damage or mismatch; never
  /// restores silently wrong state.
  static std::unique_ptr<DvStreamSession> restore(const CompiledProgram& cp,
                                                  const std::string& path,
                                                  SessionOptions options = {});
  static std::unique_ptr<DvStreamSession> restore_bytes(
      const CompiledProgram& cp, std::vector<std::uint8_t> bytes,
      SessionOptions options = {});

 private:
  DvStreamSession(const CompiledProgram& cp, graph::DynamicGraph dyn,
                  SessionOptions options);

  void init_runner();
  persist::SnapshotWriter build_snapshot() const;
  /// restore_bytes() without its trace span (restore() opens its own).
  static std::unique_ptr<DvStreamSession> decode(
      const CompiledProgram& cp, std::vector<std::uint8_t> bytes,
      SessionOptions options);
  void write_checkpoint();
  /// Debug-build owner-thread check (see rebind_owner_thread). Binds on
  /// first call; fails loudly on a call from a second thread.
  void check_owner() const;

  const CompiledProgram* cp_;  // never null
  SessionOptions options_;
  graph::DynamicGraph dyn_;
  std::unique_ptr<DvRunner> runner_;
  std::size_t epoch_ = 0;
  bool converge_called_ = false;
  /// Size of the last snapshot built, to pre-size the next one (a
  /// session's state grows slowly, so the next is rarely much larger).
  mutable std::size_t last_snapshot_bytes_ = 0;
  /// Owner thread for the debug affinity guard; default-constructed id
  /// means "not yet bound".
  mutable std::atomic<std::thread::id> owner_{};
};

/// Builds a session on the heap: the class itself is pinned (the runner
/// holds a GraphView into the session's own DynamicGraph), so this is the
/// way to get a movable handle without optional::emplace gymnastics.
std::unique_ptr<DvStreamSession> make_stream_session(
    const CompiledProgram& cp, graph::CsrGraph base,
    SessionOptions options = {});

}  // namespace deltav::dv::streaming
