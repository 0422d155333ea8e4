// One served session: a warm DvStreamSession owned by a dedicated engine
// thread, fed through an admission queue, read through a published view.
//
// Threading model (DESIGN.md §10). A DvStreamSession is single-owner by
// contract (stream_session.h): converge/apply/save must all come from one
// thread. SessionHost makes that contract load-bearing for serving:
//
//   engine thread   — the session's owner. Runs the initial convergence,
//                     then loops: drain the admission queue, merge every
//                     pending batch into ONE epoch (group commit), apply,
//                     publish the converged state to the ReadView, and
//                     checkpoint when due. Snapshot requests are executed
//                     here too, between epochs — which is exactly the
//                     "between supersteps" boundary save() requires.
//   writer threads  — enqueue() MutationBatches. The queue is bounded
//                     (HostOptions::queue_limit); a full queue blocks the
//                     writer until the engine drains — backpressure, not
//                     unbounded memory. Admission order is preserved
//                     within the merged epoch (last-write-wins semantics
//                     of MutationBatch concatenation).
//   reader threads  — get()/topk() against the last *committed* epoch's
//                     state via ReadView: never blocked by, and never
//                     observing, the epoch in flight.
//
// Epoch coalescing: every batch queued when the engine thread starts an
// epoch is folded into that epoch (plus, optionally, batches arriving
// within commit_window_ms — a group-commit window trading commit latency
// for fewer convergences). Correctness is unconditional: incremental
// re-execution is value-equivalent to from-scratch on the mutated graph
// after *any* partition of the mutation stream into epochs (the stream
// fuzz tier's invariant), so coalescing changes cost, never results.
//
// Failure: if the engine thread throws (malformed mutation against the
// live graph, superstep cap, ...), the host latches the error; every
// subsequent enqueue/flush/read surfaces it instead of hanging. The
// daemon maps it to an ERR response; the session stays down until closed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/serve/read_view.h"
#include "dv/streaming/stream_session.h"

namespace deltav::dv::serve {

struct HostOptions {
  /// Tier, fold path, engine workers, ε, compaction, mid-convergence
  /// checkpointing — everything the underlying session understands.
  streaming::SessionOptions session;
  /// Maximum queued-but-unapplied batches; enqueue() blocks beyond this.
  std::size_t queue_limit = 64;
  /// Group-commit window: after the first batch of an epoch is picked up,
  /// wait this long for more writers to join the epoch. 0 = drain only
  /// what is already queued (natural batching under load, minimal commit
  /// latency when idle).
  double commit_window_ms = 0;
  /// Epoch-boundary checkpointing: every K committed epochs the engine
  /// thread saves the full session to checkpoint_path (atomic
  /// tmp+rename). 0 = off. Independent of (and composable with)
  /// session.checkpoint_every, which fires *during* long convergences.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Own an obs::Collector for this host: serve.* counters, runtime
  /// counters and spans, all attributable to this session and mergeable
  /// across hosts. Per-host collectors keep the single-writer-per-lane
  /// shard contract intact when many engine threads serve concurrently
  /// (a shared global collector would race its hot shards). Benches that
  /// want unmetered timings turn this off.
  bool collect_metrics = true;

  /// Display labels for STATS — what the session was created from.
  std::string program_label;
  std::string graph_label;
};

/// Point-in-time host statistics (STATS surface; all fields cumulative
/// unless noted).
struct HostStats {
  std::size_t epoch = 0;            // last committed epoch number
  std::size_t epochs_committed = 0; // epochs applied by this host (excl. 0)
  std::size_t warm_epochs = 0;
  std::size_t cold_epochs = 0;
  std::size_t batches_admitted = 0;
  std::size_t batches_coalesced = 0;  // admitted into an epoch beyond its 1st
  std::size_t max_coalesced = 1;      // largest batches-per-epoch observed
  std::size_t mutations_admitted = 0; // edge ops + addv + delv line items
  std::size_t reads = 0;
  std::size_t queue_depth = 0;        // sampled now, not cumulative
  std::size_t supersteps = 0;         // summed over committed epochs
  std::uint64_t messages = 0;
  std::uint64_t atomic_folds = 0;     // lock-free folds, summed likewise
  std::size_t checkpoints = 0;
  std::size_t vertices = 0;           // as of the last published epoch
  std::size_t arcs = 0;
  // View publication (read_view.h): rows patched into the spare buffer,
  // and publishes that copied every row instead, by reason.
  std::size_t view_rows_patched = 0;
  std::size_t view_full_builds = 0;   // sum of the five below
  std::size_t view_builds_first = 0;  // a fresh host's first two
  std::size_t view_builds_cold = 0;   // cold epoch in the last two
  std::size_t view_builds_restore = 0;  // a restored host's first two
  std::size_t view_builds_grown = 0;  // |V| grew
  std::size_t view_builds_spare_held = 0;  // a reader held the spare
  double epoch_seconds_sum = 0;
  bool ready = false;                 // initial convergence published
  bool failed = false;
  std::string error;                  // non-empty iff failed
};

class SessionHost {
 public:
  /// Builds a fresh session over `base` and starts the engine thread; the
  /// thread runs the initial convergence asynchronously (wait_ready() or
  /// the first read blocks until it is published).
  SessionHost(std::string name, CompiledProgram cp, graph::CsrGraph base,
              HostOptions options);
  /// Restores a session from snapshot bytes (throws persist::SnapshotError
  /// on damage/mismatch before any thread starts) and serves it. A
  /// mid-convergence snapshot resumes the interrupted run first.
  SessionHost(std::string name, CompiledProgram cp,
              std::vector<std::uint8_t> snapshot, HostOptions options);
  /// Stops the engine thread. Graceful: already-admitted batches are
  /// applied first (unless kill() was called).
  ~SessionHost();

  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  const std::string& name() const { return name_; }
  const CompiledProgram& program() const { return cp_; }
  const HostOptions& options() const { return options_; }

  /// Admits one batch (blocks while the queue is at queue_limit). Throws
  /// CheckError if the host failed or is shutting down.
  void enqueue(graph::MutationBatch batch);
  /// Blocks until every admitted batch has been applied and published
  /// (and the host is ready). Throws if the host failed.
  void flush();

  /// Admission control: while paused the engine thread commits no new
  /// epochs (the queue still admits up to queue_limit, then exerts
  /// backpressure). Tests use this to make coalescing deterministic; a
  /// deployment could use it to fence maintenance windows.
  void pause();
  void resume();

  /// Blocks until the initial convergence (or restored state) has been
  /// published. Throws if the engine thread failed first.
  void wait_ready() const;

  /// The last committed epoch's converged state; never blocks on the
  /// epoch in flight. Requires ready (blocks on wait_ready()).
  std::shared_ptr<const StateSnapshot> view() const;
  /// Point read of one vertex field from view(). Counts serve.reads.
  /// Reads user (`local`) fields only: a compiler-added field throws a
  /// CheckError naming it.
  Value get(graph::VertexId v, const std::string& field) const;
  /// Top-k read over view() (descending; deterministic tie-break); user
  /// fields only, like get().
  std::vector<std::pair<graph::VertexId, double>> topk(
      const std::string& field, std::size_t k) const;

  /// Serializes the session on the engine thread (between epochs) and
  /// returns the bytes. Blocks until done; throws if the host failed.
  std::vector<std::uint8_t> snapshot_bytes();

  /// Abandons queued work and stops the engine thread without applying or
  /// checkpointing anything further — the in-process stand-in for
  /// kill -9 in recovery tests. The host only serves errors afterwards.
  void kill();

  HostStats stats() const;
  /// This host's collector (null when collect_metrics was off).
  obs::Collector* collector() const { return collector_.get(); }

 private:
  void start();
  void run();
  void publish_epoch(double epoch_seconds, const streaming::SessionEpoch* ep,
                     std::size_t coalesced);
  void fail(const std::string& what);
  /// `field`'s slot in a published (user-fields-only) snapshot; throws
  /// naming the field when it is compiler-internal or unknown.
  int user_field_slot(const StateSnapshot& snap,
                      const std::string& field) const;
  void add_counter(obs::Counter c, std::uint64_t n = 1) const;

  const std::string name_;
  CompiledProgram cp_;  // must outlive session_
  HostOptions options_;
  std::unique_ptr<obs::Collector> collector_;  // may be null
  std::unique_ptr<streaming::DvStreamSession> session_;  // engine thread's
  ReadView view_;
  const bool restored_ = false;  // built from snapshot bytes
  std::vector<graph::VertexId> changed_;  // engine thread's publish scratch

  mutable std::mutex mu_;  // queue + control flags
  mutable std::condition_variable cv_work_;   // engine thread wakeups
  mutable std::condition_variable cv_space_;  // writer backpressure
  mutable std::condition_variable cv_state_;  // ready/flush/snapshot waiters
  std::vector<graph::MutationBatch> queue_;
  bool stop_ = false;
  bool kill_ = false;
  bool paused_ = false;
  bool in_flight_ = false;   // engine thread is applying an epoch
  bool ready_ = false;
  bool failed_ = false;
  std::string error_;
  bool snapshot_requested_ = false;
  bool snapshot_done_ = false;
  std::vector<std::uint8_t> snapshot_out_;
  std::mutex snap_mu_;  // serializes concurrent snapshot_bytes() callers

  mutable std::mutex stats_mu_;
  mutable HostStats stats_;  // mutable: const reads still count themselves

  std::thread engine_;  // last member: joins before the rest tears down
};

/// Concatenates `batches` into one (order-preserving: MutationBatch
/// semantics are last-write-wins, so concatenation is the correct merge).
graph::MutationBatch merge_batches(
    std::vector<graph::MutationBatch> batches);

/// Line items in a batch (edge ops + one per addv directive + detaches)
/// — the STATS "mutations" unit.
std::size_t batch_ops(const graph::MutationBatch& b);

}  // namespace deltav::dv::serve
