// A Pregel+-like Bulk Synchronous Parallel graph-computation engine.
//
// The engine owns the BSP mechanics the paper's frameworks provide:
// vertex→worker partitioning, per-superstep fork-join execution of a
// user compute function, message buffering and delivery, sender-side
// combiners, vote-to-halt / reactivation semantics, termination detection,
// and statistics (message/byte counts, per-phase timings, and a simulated
// cluster communication time via net::ClusterModel).
//
// Vertex *state* deliberately lives outside the engine, in the algorithm
// object (typically as structure-of-arrays vectors indexed by vertex id).
// This keeps the engine reusable by both the hand-written Pregel+ baselines
// and the ΔV interpreter, whose state layout is only known at run time.
//
// Threading model: step() is the only drive. A threaded superstep is one
// fork-join region over a persistent WorkerPool, with a barrier between
// its compute and exchange phases. During compute, each worker touches
// only its owned vertices and its own outboxes. During exchange, each
// worker builds only its own inbox (reading all senders' outboxes for its
// slot — sender buffers are immutable in this phase). Halt flags are
// owner-written only. No locks or atomics appear on the per-message path.
// An inline superstep (step(fn, true)) runs the same per-worker phases
// one after another on the caller's thread, without waking the pool.
//
// Scheduling: halt-by-default (§6.6 of the paper) with the per-worker work
// queues §9 proposes in place of stock Pregel+'s per-superstep scan. Each
// worker queues the vertices that run at the next superstep: a vertex is
// queued when it wakes (a delivered message, activate(), activate_all())
// and when its compute call does not vote to halt. The invariant, between
// supersteps:
//   each worker's queue holds every live (unhalted, undeleted) vertex it
//   owns exactly once, and nothing else but vertices deleted since they
//   were queued, which compute drops.
// For an undeleted vertex "unhalted" and "queued" are therefore the same
// fact, so halt flags are the only per-vertex schedule state. Everything
// that touches the schedule costs O(frontier), not O(|V|): halt_all()
// walks the queues rather than the flag array.
//
// Determinism: given a fixed worker count and partition scheme, message
// delivery order per vertex is fixed (senders visited in worker order, each
// buffer in generation order), so floating-point reductions reproduce
// bit-for-bit across runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/open_hash_map.h"
#include "common/timer.h"
#include "dv/obs/obs.h"
#include "graph/csr_graph.h"
#include "net/cluster_model.h"
#include "pregel/partition.h"
#include "pregel/stats.h"
#include "pregel/worker_pool.h"

namespace deltav::pregel {

using graph::VertexId;

/// Byte accounting hook. Specialize (or pass a custom Traits) when the
/// logical wire size differs from sizeof(Message) — the ΔV runtime does
/// this so Figure-4 byte counts reflect the paper's message format rather
/// than our in-memory struct padding.
template <typename Message>
struct MessageTraits {
  static std::size_t wire_size(const Message&) { return sizeof(Message); }
};

/// Tag type: no combiner; every message is delivered as sent.
struct NoCombiner {};

struct EngineOptions {
  int num_workers = 4;
  PartitionScheme partition = PartitionScheme::kBlock;
  /// Applies only when a combiner type is supplied; lets benches toggle
  /// combining without changing types.
  bool use_combiner = true;
  /// Simulated deployment used for cross-machine byte accounting. Engine
  /// workers are block-mapped onto the model's machines.
  net::ClusterConfig cluster;
  /// Observability sink. nullptr falls back to the globally installed
  /// collector (obs::current()); when that is also null the engine pays
  /// nothing beyond one pointer test per superstep. Either one needs at
  /// least num_workers lanes (one per worker); step() refuses a narrower
  /// one with a CheckError.
  obs::Collector* collector = nullptr;
};

template <typename Message, typename Combiner = NoCombiner,
          typename Traits = MessageTraits<Message>>
class Engine {
  static constexpr bool kHasCombiner = !std::is_same_v<Combiner, NoCombiner>;

  // A combiner may define key(dst, msg) to combine at a finer grain than
  // the destination vertex (the ΔV runtime keys on (dst, aggregation
  // site)). Without it, all messages to one vertex combine together.
  template <typename C>
  static constexpr bool kHasKey = requires(const C& c, VertexId v,
                                           const Message& m) {
    { c.key(v, m) } -> std::convertible_to<std::uint64_t>;
  };

  // A combiner whose key space factors as (destination vertex × small
  // subkey) may additionally define num_subkeys()/subkey(msg); the engine
  // then combines through a direct-indexed slot array (one slot per owned
  // vertex per subkey) instead of probing a hash map per message — the
  // combine lookup is the single hottest engine operation.
  template <typename C>
  static constexpr bool kHasSubkey = requires(const C& c, const Message& m) {
    { c.num_subkeys() } -> std::convertible_to<std::size_t>;
    { c.subkey(m) } -> std::convertible_to<std::size_t>;
  };

 public:
  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

  Engine(std::size_t num_vertices, EngineOptions options = {},
         Combiner combiner = {})
      : options_(options),
        combiner_(std::move(combiner)),
        partition_(num_vertices, options.num_workers, options.partition),
        cluster_(options.cluster),
        pool_(options.num_workers),
        halted_(num_vertices, 0),
        deleted_(num_vertices, 0) {
    DV_CHECK(options.num_workers >= 1);
    const int w = options.num_workers;
    if constexpr (kHasCombiner && kHasSubkey<Combiner>) {
      if (options.use_combiner) {
        const std::size_t s = combiner_.num_subkeys();
        // Every worker keeps one slot per (owned vertex, subkey) per
        // destination worker; fall back to the hash maps when that would
        // be an unreasonable allocation.
        if (s > 0 && num_vertices * s * static_cast<std::size_t>(w) <=
                         kDenseCombineSlotCap)
          dense_subkeys_ = s;
      }
    }
    workers_.resize(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      auto& ws = workers_[static_cast<std::size_t>(i)];
      ws.outbox.resize(static_cast<std::size_t>(w));
      ws.outbox_hwm.assign(static_cast<std::size_t>(w), 0);
      ws.combine_maps.resize(static_cast<std::size_t>(w));
      if (dense_subkeys_ > 0) {
        ws.dense_slots.resize(static_cast<std::size_t>(w));
        ws.dense_touched.resize(static_cast<std::size_t>(w));
        for (int dw = 0; dw < w; ++dw)
          ws.dense_slots[static_cast<std::size_t>(dw)].resize(
              partition_.local_capacity(dw) * dense_subkeys_);
      }
      ws.inbox_offsets.assign(partition_.local_capacity(i) + 1, 0);
      ws.unhalted = partition_.count(i);
      ws.cross_in_from.assign(
          static_cast<std::size_t>(options.cluster.machines), 0);
      partition_.for_each_owned(i,
                                [&](VertexId v) { ws.queue.push_back(v); });
    }
  }

  /// Per-vertex API handed to the compute function — the moral equivalent
  /// of Pregel's Vertex base class methods.
  class Context {
   public:
    std::size_t superstep() const { return engine_->stats_.steps; }
    std::size_t num_vertices() const { return engine_->partition_.num_vertices(); }
    int worker() const { return worker_; }
    VertexId vertex() const { return vertex_; }

    void send(VertexId dst, const Message& msg) {
      engine_->send_from(worker_, dst, msg);
    }

    /// Sends one identical message to every destination in `dsts`. Stats
    /// and routing match `dsts.size()` individual send() calls; the batch
    /// form exists so span-invariant broadcasts (the VM's fused Δ-send)
    /// amortize the per-message bookkeeping.
    void send_span(std::span<const VertexId> dsts, const Message& msg) {
      engine_->send_span_from(worker_, dsts, msg);
    }

    /// Halts this vertex after the current compute call; it is reactivated
    /// by any delivered message.
    void vote_to_halt() { halt_requested_ = true; }

   private:
    friend class Engine;
    Engine* engine_ = nullptr;
    int worker_ = 0;
    VertexId vertex_ = 0;
    bool halt_requested_ = false;
  };

  /// Executes one superstep: runs `fn(ctx, v, msgs)` for every active owned
  /// vertex on every worker, then exchanges messages. `msgs` is the span of
  /// messages delivered to v at the end of the previous superstep.
  ///
  /// `inline_round` runs the superstep on the caller's thread instead of
  /// the worker pool: compute_phase for each worker in order, then
  /// exchange_phase for each worker. The per-worker structures and the
  /// vertex order are the ones a threaded round uses, so messages, stats
  /// and delivery order are identical; only the fork-join is skipped,
  /// which pays off when the live frontier is too small to amortize it.
  template <typename ComputeFn>
  void step(ComputeFn&& fn, bool inline_round = false) {
    SuperstepStats ss;
    obs::Collector* const col = obs::resolve_for(
        options_.collector, static_cast<std::size_t>(options_.num_workers));
    const std::uint64_t span_start = col ? col->trace.now_us() : 0;
    Timer phase_timer;

    const int W = options_.num_workers;
    if (inline_round) {
      // A throwing compute propagates straight out: no exchange, no
      // finish_step, exactly like a failed threaded round.
      for (int w = 0; w < W; ++w) compute_phase(w, fn);
      ss.compute_seconds = phase_timer.elapsed_seconds();
      for (int w = 0; w < W; ++w) exchange_phase(w);
    } else {
      // Both phases run inside ONE fork-join region: a lightweight barrier
      // separates compute from exchange so the workers stay hot instead of
      // paying a second condvar wake/sleep per superstep. The barrier's
      // acquire/release pair publishes every worker's outbox writes to
      // every exchange reader. A worker that throws still arrives (so
      // nobody spins forever), flags the failure so exchange is skipped
      // engine-wide, and rethrows for the pool to propagate.
      std::atomic<int> arrived{0};
      std::atomic<bool> failed{false};
      pool_.run([&](int w) {
        std::exception_ptr err;
        try {
          compute_phase(w, fn);
        } catch (...) {
          err = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == W)
          ss.compute_seconds = phase_timer.elapsed_seconds();
        while (arrived.load(std::memory_order_acquire) < W)
          std::this_thread::yield();
        if (err) std::rethrow_exception(err);
        if (!failed.load(std::memory_order_relaxed)) exchange_phase(w);
      });
    }
    ss.exchange_seconds = phase_timer.elapsed_seconds() - ss.compute_seconds;

    finish_step(ss, inline_round);

    if (col) {
      auto& tr = col->trace;
      const std::uint64_t t_end = tr.now_us();
      const auto us = [](double s) {
        return static_cast<std::uint64_t>(s * 1e6);
      };
      // Phase spans are reconstructed from the phase timings so the trace
      // nests as superstep ⊃ {compute, exchange} by timestamp containment.
      tr.record(0, "pregel.superstep", span_start, t_end - span_start);
      tr.record(0, "pregel.compute", span_start, us(ss.compute_seconds));
      tr.record(0, "pregel.exchange", span_start + us(ss.compute_seconds),
                us(ss.exchange_seconds));
    }
  }

  /// Number of currently unhalted vertices — the live frontier size.
  std::uint64_t num_active() const {
    std::uint64_t n = 0;
    for (const auto& ws : workers_) n += ws.unhalted;
    return n;
  }

  /// True once every vertex has halted and no messages are pending.
  bool done() const {
    std::uint64_t unhalted = 0, pending = 0;
    for (const auto& ws : workers_) {
      unhalted += ws.unhalted;
      pending += ws.inbox_data.size();
    }
    return unhalted == 0 && pending == 0;
  }

  /// Runs supersteps until done() or `max_supersteps` steps have executed.
  template <typename ComputeFn>
  const RunStats& run(ComputeFn&& fn, std::size_t max_supersteps = kNoLimit) {
    while (!done() && stats_.steps < max_supersteps) step(fn);
    return stats_;
  }

  std::size_t superstep() const { return stats_.steps; }
  const RunStats& stats() const { return stats_; }
  const VertexPartition& partition() const { return partition_; }
  const net::ClusterModel& cluster() const { return cluster_; }
  const EngineOptions& options() const { return options_; }

  bool is_halted(VertexId v) const {
    DV_CHECK(v < halted_.size());
    return halted_[v] != 0;
  }

  /// Reactivates every (non-deleted) vertex (used by phase transitions in
  /// compiled ΔV programs: a new statement's first superstep must run
  /// everywhere).
  void activate_all() {
    for (int w = 0; w < options_.num_workers; ++w) {
      auto& ws = workers_[static_cast<std::size_t>(w)];
      ws.unhalted = 0;
      // Unhalted vertices (e.g. woken by a message delivered last
      // superstep) are already queued; append only the halted rest, so
      // every live vertex is queued exactly once.
      partition_.for_each_owned(w, [&](VertexId v) {
        if (deleted_[v]) return;
        ++ws.unhalted;
        if (!halted_[v]) return;
        halted_[v] = 0;
        ws.queue.push_back(v);
      });
    }
  }

  /// Wakes one vertex so it runs at the next superstep (e.g. so a vertex
  /// about to be deleted can broadcast its retraction, §9 of the paper).
  /// Call between supersteps only.
  void activate(VertexId v) {
    DV_CHECK(v < halted_.size());
    if (deleted_[v] || !halted_[v]) return;
    halted_[v] = 0;
    auto& ws = workers_[static_cast<std::size_t>(partition_.owner(v))];
    ++ws.unhalted;
    ws.queue.push_back(v);
  }

  /// Permanently removes a vertex from the computation: it never computes
  /// again and messages addressed to it are dropped (counted in
  /// SuperstepStats::messages_dropped). Mirrors Pregel's vertex removal;
  /// §9 of the paper extends incrementalization to it. Safe to call from
  /// the vertex's own compute() (owner thread) or between supersteps.
  void mark_deleted(VertexId v) {
    DV_CHECK(v < deleted_.size());
    if (deleted_[v]) return;
    deleted_[v] = 1;
    if (!halted_[v]) {
      halted_[v] = 1;
      --workers_[static_cast<std::size_t>(partition_.owner(v))].unhalted;
    }
  }

  bool is_deleted(VertexId v) const {
    DV_CHECK(v < deleted_.size());
    return deleted_[v] != 0;
  }

  std::uint64_t num_unhalted() const {
    std::uint64_t total = 0;
    for (const auto& ws : workers_) total += ws.unhalted;
    return total;
  }

  /// Extends capacity to `new_num_vertices` (streaming vertex additions).
  /// New vertices start halted, undeleted, and unqueued; existing
  /// halt/delete flags are preserved. The partition function depends on
  /// |V| — block ownership shifts as ranges stretch, and hash local
  /// numbering is recomputed — so every per-worker structure keyed by
  /// local indices is rebuilt from the authoritative flag arrays. Call
  /// between supersteps only, with no messages in flight: pending inboxes
  /// are laid out by the OLD local indices and cannot be remapped.
  void grow(std::size_t new_num_vertices) {
    const std::size_t old_n = partition_.num_vertices();
    DV_CHECK_MSG(new_num_vertices >= old_n, "grow() cannot shrink |V|");
    if (new_num_vertices == old_n) return;
    for (const auto& ws : workers_)
      DV_CHECK_MSG(ws.inbox_data.empty(),
                   "grow() with messages in flight (inbox not drained)");
    partition_ = VertexPartition(new_num_vertices, options_.num_workers,
                                 options_.partition);
    halted_.resize(new_num_vertices, 1);
    deleted_.resize(new_num_vertices, 0);
    const int W = options_.num_workers;
    // Re-gate dense combining against the new slot count; a growing graph
    // can cross the cap, falling back to the hash maps.
    if constexpr (kHasCombiner && kHasSubkey<Combiner>) {
      if (options_.use_combiner) {
        const std::size_t s = combiner_.num_subkeys();
        dense_subkeys_ =
            (s > 0 && new_num_vertices * s * static_cast<std::size_t>(W) <=
                          kDenseCombineSlotCap)
                ? s
                : 0;
      }
    }
    for (int i = 0; i < W; ++i) {
      auto& ws = workers_[static_cast<std::size_t>(i)];
      if (dense_subkeys_ > 0) {
        ws.dense_slots.assign(static_cast<std::size_t>(W), {});
        ws.dense_touched.assign(static_cast<std::size_t>(W), {});
        for (int dw = 0; dw < W; ++dw)
          ws.dense_slots[static_cast<std::size_t>(dw)].resize(
              partition_.local_capacity(dw) * dense_subkeys_);
      } else {
        ws.dense_slots.clear();
        ws.dense_touched.clear();
      }
      ws.inbox_offsets.assign(partition_.local_capacity(i) + 1, 0);
      ws.inbox_data.clear();
      ws.scatter_cursor.clear();
      ws.queue.clear();
      ws.next_queue.clear();
      ws.unhalted = 0;
      partition_.for_each_owned(i, [&](VertexId v) {
        if (deleted_[v] || halted_[v]) return;
        ++ws.unhalted;
        ws.queue.push_back(v);
      });
    }
  }

  /// Execution state captured at a superstep boundary. Outboxes, combine
  /// maps and dense slots are empty there by construction, so the only
  /// state that carries across the boundary is: halt/delete flags, the
  /// work queues (a sparse round computes in queue order, which fixes
  /// message emission order — a bit-exact restore must reproduce it
  /// verbatim), the pending inboxes (per worker, in per-vertex delivery
  /// order), and the stats totals. The per-superstep stats log does not
  /// carry across: a restored engine's log starts empty, while its totals
  /// and superstep count continue the checkpointed run's.
  struct Checkpoint {
    std::size_t num_vertices = 0;
    /// Supersteps run so far; the count behind `totals`.
    std::size_t superstep = 0;
    SuperstepStats totals;
    std::vector<std::uint8_t> halted;
    std::vector<std::uint8_t> deleted;
    /// Per worker, in queue order; holds every live vertex exactly once.
    std::vector<std::vector<VertexId>> queues;
    /// Per worker: undelivered messages as (destination, message), grouped
    /// by destination in owner iteration order, each group in delivery
    /// order.
    std::vector<std::vector<std::pair<VertexId, Message>>> pending;
  };

  /// Captures the engine state between supersteps.
  Checkpoint checkpoint() const {
    for (const auto& ws : workers_)
      for (const auto& out : ws.outbox)
        DV_CHECK_MSG(out.empty(),
                     "checkpoint() mid-superstep (outbox not flushed)");
    Checkpoint c;
    c.num_vertices = partition_.num_vertices();
    c.superstep = stats_.steps;
    c.totals = stats_.totals;
    c.halted = halted_;
    c.deleted = deleted_;
    const auto W = static_cast<std::size_t>(options_.num_workers);
    c.queues.resize(W);
    c.pending.resize(W);
    for (std::size_t w = 0; w < W; ++w) {
      const auto& ws = workers_[w];
      c.queues[w] = ws.queue;
      auto& pend = c.pending[w];
      pend.reserve(ws.inbox_data.size());
      partition_.for_each_owned(static_cast<int>(w), [&](VertexId v) {
        const std::size_t li = partition_.local_index(v);
        for (std::uint32_t i = ws.inbox_offsets[li];
             i < ws.inbox_offsets[li + 1]; ++i)
          pend.emplace_back(v, ws.inbox_data[i]);
      });
    }
    return c;
  }

  /// Restores a checkpoint taken by an engine with the same configuration
  /// (vertex count, worker count, partition scheme) — bit-exact
  /// continuation is only defined under identical configuration, since the
  /// partition fixes message routing and delivery order. The unhalted
  /// counts are derived, not stored: they are recomputed from the flags. A
  /// checkpoint is outside input, so one that breaks the scheduling
  /// invariant (see the file comment) is refused by name.
  void restore(Checkpoint&& c) {
    DV_CHECK_MSG(c.num_vertices == partition_.num_vertices(),
                 "checkpoint |V| mismatch");
    DV_CHECK_MSG(c.halted.size() == c.num_vertices &&
                     c.deleted.size() == c.num_vertices,
                 "checkpoint flag array size mismatch");
    const auto W = static_cast<std::size_t>(options_.num_workers);
    DV_CHECK_MSG(c.queues.size() == W && c.pending.size() == W,
                 "checkpoint worker count mismatch");
    halted_ = std::move(c.halted);
    deleted_ = std::move(c.deleted);
    std::vector<std::uint8_t> queued(c.num_vertices, 0);
    stats_ = RunStats{};
    stats_.totals = c.totals;
    stats_.steps = c.superstep;
    for (std::size_t w = 0; w < W; ++w) {
      auto& ws = workers_[w];
      ws.queue = std::move(c.queues[w]);
      ws.next_queue.clear();
      for (const VertexId v : ws.queue) {
        DV_CHECK_MSG(v < c.num_vertices &&
                         partition_.owner(v) == static_cast<int>(w),
                     "checkpoint queue entry owned by a different worker");
        DV_CHECK_MSG(!queued[v], "checkpoint queues vertex " << v << " twice");
        DV_CHECK_MSG(!halted_[v] || deleted_[v],
                     "checkpoint queues halted vertex " << v);
        queued[v] = 1;
      }
      ws.unhalted = 0;
      partition_.for_each_owned(static_cast<int>(w), [&](VertexId v) {
        if (halted_[v]) return;
        DV_CHECK_MSG(!deleted_[v],
                     "checkpoint has deleted vertex " << v << " unhalted");
        DV_CHECK_MSG(queued[v],
                     "checkpoint leaves live vertex " << v << " unqueued");
        ++ws.unhalted;
      });
      // Rebuild the inbox CSR from the (destination, message) list; the
      // per-destination groups arrive in delivery order, and the scatter
      // below is stable, so delivered spans replay byte-for-byte.
      ws.inbox_offsets.assign(
          partition_.local_capacity(static_cast<int>(w)) + 1, 0);
      for (const auto& [v, msg] : c.pending[w]) {
        DV_CHECK_MSG(v < c.num_vertices &&
                         partition_.owner(v) == static_cast<int>(w),
                     "checkpoint pending message owned by a different "
                     "worker");
        ++ws.inbox_offsets[partition_.local_index(v) + 1];
      }
      for (std::size_t i = 1; i < ws.inbox_offsets.size(); ++i)
        ws.inbox_offsets[i] += ws.inbox_offsets[i - 1];
      ws.inbox_data.assign(c.pending[w].size(), Message{});
      auto& cursor = ws.scatter_cursor;
      cursor.assign(ws.inbox_offsets.begin(), ws.inbox_offsets.end() - 1);
      for (const auto& [v, msg] : c.pending[w])
        ws.inbox_data[cursor[partition_.local_index(v)]++] = msg;
    }
  }

  /// Halts every vertex and clears the work queues, so a subsequent
  /// activate() wakes exactly the chosen frontier (streaming epochs: after
  /// convergence the runner wakes only vertices the mutation touched).
  /// Call between supersteps with no messages in flight. O(frontier): by
  /// the scheduling invariant only queued vertices can be unhalted.
  void halt_all() {
    for (const auto& ws : workers_)
      DV_CHECK_MSG(ws.inbox_data.empty(),
                   "halt_all() with messages in flight");
    for (auto& ws : workers_) {
      for (const VertexId v : ws.queue) halted_[v] = 1;
      ws.queue.clear();
      ws.unhalted = 0;
    }
  }

 private:
  struct Envelope {
    // Default state is the "unset" sentinel so combiner map slots can tell
    // first-touch from fold; GraphBuilder guarantees real ids stay below it.
    VertexId dst = std::numeric_limits<VertexId>::max();
    Message msg{};
  };

  // Cache-line aligned: the per-step counters are bumped from the compute
  // hot loop, and adjacent workers' states must not share a line.
  struct alignas(64) WorkerState {
    // Sender side: one buffer per destination worker.
    std::vector<std::vector<Envelope>> outbox;
    std::vector<OpenHashMap<Envelope>> combine_maps;
    // Dense combine slots (see kHasSubkey): per destination worker, one
    // slot per (owned local vertex × subkey), plus the indices touched
    // this superstep for O(messages) flush and reset.
    std::vector<std::vector<Envelope>> dense_slots;
    std::vector<std::vector<std::uint32_t>> dense_touched;
    // Receiver side: CSR-of-messages over local vertex indices.
    std::vector<Message> inbox_data;
    std::vector<std::uint32_t> inbox_offsets;
    // Scatter cursors, one per local vertex — scratch for exchange_phase,
    // kept here so the allocation is reused across supersteps.
    std::vector<std::uint32_t> scatter_cursor;
    // Per-destination outbox high-water marks across past supersteps;
    // compute_phase pre-reserves to these so steady-state sends never
    // reallocate mid-superstep.
    std::vector<std::size_t> outbox_hwm;
    // Scheduling: this superstep's queue and the one being built for the
    // next (swapped by finish_step).
    std::vector<VertexId> queue;
    std::vector<VertexId> next_queue;
    // Owner-local bookkeeping.
    std::uint64_t unhalted = 0;
    // Per-step counters (summed into SuperstepStats by finish_step).
    std::uint64_t sent = 0, sent_bytes = 0;
    std::uint64_t delivered = 0, delivered_bytes = 0, cross_bytes = 0;
    std::uint64_t dropped = 0;
    std::uint64_t active = 0;
    std::uint64_t halted_count = 0, woken_count = 0;
    // Cross-machine bytes this worker received, bucketed by the *sender's*
    // machine — lets finish_step compute exact per-machine egress.
    std::vector<std::uint64_t> cross_in_from;
  };

  std::uint64_t combine_key(VertexId dst, const Message& msg) const {
    if constexpr (kHasKey<Combiner>) {
      return combiner_.key(dst, msg);
    } else {
      (void)msg;
      return dst;
    }
  }

  bool combining() const { return kHasCombiner && options_.use_combiner; }

  /// Routes one message past the stats counters: combine (dense slots or
  /// hash map) or append to the destination worker's outbox.
  void route(WorkerState& ws, VertexId dst, const Message& msg) {
    const auto [dw, li] = partition_.locate(dst);
    if constexpr (kHasCombiner) {
      if constexpr (kHasSubkey<Combiner>) {
        if (dense_subkeys_ > 0) {
          const std::size_t idx =
              li * dense_subkeys_ +
              static_cast<std::size_t>(combiner_.subkey(msg));
          auto& dslots = ws.dense_slots[static_cast<std::size_t>(dw)];
          DV_DCHECK(idx < dslots.size());
          Envelope& slot = dslots[idx];
          if (slot.dst == kUnsetDst) {
            slot.dst = dst;
            slot.msg = msg;
            ws.dense_touched[static_cast<std::size_t>(dw)].push_back(
                static_cast<std::uint32_t>(idx));
          } else {
            combiner_(slot.msg, msg);
          }
          return;
        }
      }
      if (options_.use_combiner) {
        auto& slot =
            ws.combine_maps[static_cast<std::size_t>(dw)][combine_key(dst,
                                                                      msg)];
        if (slot.dst == kUnsetDst) {
          slot.dst = dst;
          slot.msg = msg;
        } else {
          combiner_(slot.msg, msg);
        }
        return;
      }
    }
    ws.outbox[static_cast<std::size_t>(dw)].push_back(Envelope{dst, msg});
  }

  void send_from(int worker, VertexId dst, const Message& msg) {
    DV_CHECK_MSG(dst < partition_.num_vertices(),
                 "send to out-of-range vertex " << dst);
    auto& ws = workers_[static_cast<std::size_t>(worker)];
    ++ws.sent;
    ws.sent_bytes += Traits::wire_size(msg);
    route(ws, dst, msg);
  }

  void send_span_from(int worker, std::span<const VertexId> dsts,
                      const Message& msg) {
    auto& ws = workers_[static_cast<std::size_t>(worker)];
    ws.sent += dsts.size();
    ws.sent_bytes += Traits::wire_size(msg) * dsts.size();
    for (const VertexId dst : dsts) {
      DV_CHECK_MSG(dst < partition_.num_vertices(),
                   "send to out-of-range vertex " << dst);
      route(ws, dst, msg);
    }
  }

  template <typename ComputeFn>
  void compute_phase(int w, ComputeFn& fn) {
    auto& ws = workers_[static_cast<std::size_t>(w)];
    for (std::size_t dw = 0; dw < ws.outbox.size(); ++dw)
      ws.outbox[dw].reserve(ws.outbox_hwm[dw]);
    Context ctx;
    ctx.engine_ = this;
    ctx.worker_ = w;

    auto run_vertex = [&](VertexId v) {
      if (halted_[v]) return;
      const std::size_t li = partition_.local_index(v);
      const std::uint32_t lo = ws.inbox_offsets[li];
      const std::uint32_t hi = ws.inbox_offsets[li + 1];
      std::span<const Message> msgs(ws.inbox_data.data() + lo,
                                    ws.inbox_data.data() + hi);
      ctx.vertex_ = v;
      ctx.halt_requested_ = false;
      ++ws.active;
      fn(ctx, v, msgs);
      if (deleted_[v]) return;  // mark_deleted already updated the books
      if (ctx.halt_requested_) {
        halted_[v] = 1;
        --ws.unhalted;
        ++ws.halted_count;
      } else {
        // Still active next step without needing a message.
        ws.next_queue.push_back(v);
      }
    };

    // A sparse frontier runs in queue order. A dense one visits the same
    // set (the unhalted vertices) by an ascending scan over the owned
    // vertices: memory order beats delivery order once the queue covers a
    // sizeable share of the worker, and it is the order a full-scan engine
    // would use, so dense rounds emit their messages in owner order.
    if (ws.queue.size() * kDenseFrontierDivisor >= partition_.count(w)) {
      partition_.for_each_owned(w, [&](VertexId v) { run_vertex(v); });
    } else {
      for (const VertexId v : ws.queue) run_vertex(v);
    }
    ws.queue.clear();

    // Flush combined messages into the outbox so the exchange phase sees
    // one uniform representation.
    if (dense_subkeys_ > 0) {
      for (std::size_t dw = 0; dw < ws.dense_slots.size(); ++dw) {
        auto& touched = ws.dense_touched[dw];
        auto& dslots = ws.dense_slots[dw];
        ws.outbox[dw].reserve(ws.outbox[dw].size() + touched.size());
        for (const std::uint32_t idx : touched) {
          ws.outbox[dw].push_back(dslots[idx]);
          dslots[idx].dst = kUnsetDst;
        }
        touched.clear();
      }
    } else if (combining()) {
      for (std::size_t dw = 0; dw < ws.combine_maps.size(); ++dw) {
        auto& map = ws.combine_maps[dw];
        ws.outbox[dw].reserve(ws.outbox[dw].size() + map.size());
        map.for_each([&](std::uint64_t, const Envelope& e) {
          ws.outbox[dw].push_back(e);
        });
        map.clear();
      }
    }
  }

  void exchange_phase(int dw) {
    auto& recv = workers_[static_cast<std::size_t>(dw)];
    const int W = options_.num_workers;

    // Exchange-free early out: when no sender has anything for this
    // worker and its inbox is already empty, both passes are pure
    // bookkeeping over zeroes — skip the O(local vertices) offset fill
    // entirely. This is the common shape under the lock-free fold path,
    // where Δ-contributions bypass outboxes altogether. The inbox check
    // matters: a non-empty inbox holds last step's messages, and the
    // offsets describing it must be rebuilt (to zero) before compute
    // reads them.
    {
      bool idle = recv.inbox_data.empty();
      for (int w = 0; idle && w < W; ++w)
        idle = workers_[static_cast<std::size_t>(w)]
                   .outbox[static_cast<std::size_t>(dw)]
                   .empty();
      if (idle) return;
    }

    // Pass 1: count messages per local vertex; messages to deleted
    // vertices are dropped here (and at scatter below).
    std::fill(recv.inbox_offsets.begin(), recv.inbox_offsets.end(), 0);
    std::uint64_t total = 0;
    for (int w = 0; w < W; ++w) {
      const auto& out =
          workers_[static_cast<std::size_t>(w)]
              .outbox[static_cast<std::size_t>(dw)];
      for (const Envelope& e : out) {
        if (deleted_[e.dst]) continue;
        ++recv.inbox_offsets[partition_.local_index(e.dst) + 1];
        ++total;
      }
    }
    DV_CHECK_MSG(total <= std::numeric_limits<std::uint32_t>::max(),
                 "per-worker inbox exceeds 32-bit offsets");
    for (std::size_t i = 1; i < recv.inbox_offsets.size(); ++i)
      recv.inbox_offsets[i] += recv.inbox_offsets[i - 1];

    // Pass 2: scatter, reactivate, account.
    recv.inbox_data.resize(total);
    auto& cursor = recv.scatter_cursor;
    cursor.assign(recv.inbox_offsets.begin(), recv.inbox_offsets.end() - 1);
    const int dst_machine = machine_of_worker(dw);
    for (int w = 0; w < W; ++w) {
      auto& out = workers_[static_cast<std::size_t>(w)]
                      .outbox[static_cast<std::size_t>(dw)];
      const int src_machine = machine_of_worker(w);
      const bool cross = src_machine != dst_machine;
      for (const Envelope& e : out) {
        if (deleted_[e.dst]) {
          ++recv.dropped;
          continue;
        }
        const std::size_t li = partition_.local_index(e.dst);
        recv.inbox_data[cursor[li]++] = e.msg;
        const std::size_t bytes = Traits::wire_size(e.msg);
        ++recv.delivered;
        recv.delivered_bytes += bytes;
        if (cross) {
          recv.cross_bytes += bytes;
          recv.cross_in_from[static_cast<std::size_t>(src_machine)] += bytes;
        }
        if (halted_[e.dst]) {
          // Unhalted vertices are queued already (they ran this superstep
          // and did not vote to halt); a woken one joins the queue here.
          halted_[e.dst] = 0;
          ++recv.unhalted;
          ++recv.woken_count;
          recv.next_queue.push_back(e.dst);
        }
      }
      auto& hwm = workers_[static_cast<std::size_t>(w)]
                      .outbox_hwm[static_cast<std::size_t>(dw)];
      if (out.size() > hwm) hwm = out.size();
      out.clear();
    }
  }

  void finish_step(SuperstepStats& ss, bool inline_round) {
    egress_.assign(static_cast<std::size_t>(cluster_.config().machines), 0);
    ingress_.assign(egress_.size(), 0);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      auto& ws = workers_[w];
      ss.messages_sent += ws.sent;
      ss.bytes_sent += ws.sent_bytes;
      ss.messages_delivered += ws.delivered;
      ss.messages_dropped += ws.dropped;
      ss.bytes_delivered += ws.delivered_bytes;
      ss.cross_machine_bytes += ws.cross_bytes;
      ss.active_vertices += ws.active;
      ss.vertices_halted += ws.halted_count;
      ss.vertices_woken += ws.woken_count;
      const auto m =
          static_cast<std::size_t>(machine_of_worker(static_cast<int>(w)));
      ingress_[m] += ws.cross_bytes;
      for (std::size_t sm = 0; sm < ws.cross_in_from.size(); ++sm) {
        egress_[sm] += ws.cross_in_from[sm];
        ws.cross_in_from[sm] = 0;
      }
      ws.sent = ws.sent_bytes = 0;
      ws.delivered = ws.delivered_bytes = ws.cross_bytes = 0;
      ws.dropped = 0;
      ws.active = 0;
      ws.halted_count = ws.woken_count = 0;
      std::swap(ws.queue, ws.next_queue);
    }
    ss.sim_comm_seconds = cluster_.superstep_seconds(egress_, ingress_);
    stats_.record(ss);
    if (obs::Collector* const col = obs::resolve(options_.collector)) {
      auto& sh = col->metrics.shard(0);
      sh.add(obs::Counter::kEngineMessagesSent, ss.messages_sent);
      sh.add(obs::Counter::kEngineMessagesDelivered, ss.messages_delivered);
      sh.add(obs::Counter::kEngineMessagesDropped, ss.messages_dropped);
      sh.add(obs::Counter::kEngineActiveVertices, ss.active_vertices);
      sh.add(obs::Counter::kVerticesHalted, ss.vertices_halted);
      sh.add(obs::Counter::kVerticesWoken, ss.vertices_woken);
      sh.add(obs::Counter::kSupersteps, 1);
      if (inline_round) sh.add(obs::Counter::kInlineSupersteps, 1);
    }
  }

  int machine_of_worker(int w) const {
    // Block-map engine workers onto the simulated machines; exact when
    // num_workers == cluster.total_workers().
    const int machines = cluster_.config().machines;
    return static_cast<int>(
        (static_cast<std::int64_t>(w) * machines) / options_.num_workers);
  }

  static constexpr VertexId kUnsetDst =
      std::numeric_limits<VertexId>::max();
  /// compute_phase scans instead of walking the queue once the queue holds
  /// at least 1/kDenseFrontierDivisor of the worker's owned vertices.
  static constexpr std::size_t kDenseFrontierDivisor = 16;
  /// Upper bound on total dense combine slots (all workers × destination
  /// workers); larger key domains fall back to the hash maps.
  static constexpr std::size_t kDenseCombineSlotCap = std::size_t{1} << 22;

  EngineOptions options_;
  Combiner combiner_;
  std::size_t dense_subkeys_ = 0;  // 0 = dense combining disabled
  VertexPartition partition_;
  net::ClusterModel cluster_;
  WorkerPool pool_;
  std::vector<std::uint8_t> halted_;
  std::vector<std::uint8_t> deleted_;
  std::vector<WorkerState> workers_;
  RunStats stats_;  // its step count is the superstep counter
  // Per-machine cross-network byte tallies: finish_step scratch, kept
  // here so a superstep allocates nothing.
  std::vector<std::uint64_t> egress_;
  std::vector<std::uint64_t> ingress_;
};

}  // namespace deltav::pregel
