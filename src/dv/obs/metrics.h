// Metrics registry: named counters, gauges and histograms for the ΔV
// runtime's observability subsystem (DESIGN.md §8).
//
// The hot-path surface is the fixed Counter enum: each series has a slot
// in a cache-line-aligned per-lane shard, and instrumented code holds a
// raw MetricsShard* (null when no collector is installed), so the per-
// event cost is one predictable pointer test plus an array increment —
// and exactly zero stores when observability is off. Lanes map onto
// engine workers (lane 0 doubles as the main thread), so no two threads
// ever write the same shard and no atomics appear on the counting path.
//
// Dynamic (string-keyed) counters, gauges and histograms take a mutex;
// they are reserved for cold paths — warm-blocker reasons once per epoch,
// snapshot CRC timings once per section — never per-message work.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace deltav::obs {

/// Fixed hot-path series. Names (counter_name) are the stable public
/// catalogue — DESIGN.md §8 documents each; CI greps them out of the
/// metrics JSON, so renames are schema breaks.
enum class Counter : std::uint32_t {
  // Incrementalization (§6.3 change check, §6.5 Δ-messages, §6.4 memos).
  kSendsSuppressed,          // change-check / no-op Δ / identity skips
  kDeltaMessages,            // Δ-messages actually sent (§6.5)
  kFullMessages,             // full-value messages actually sent (ΔV*)
  kLastStepSendsSuppressed,  // last-execution analysis zeroed whole sites
  kMemoHits,                 // Eq. 8/9 folds into a memoized accumulator
  kMemoRecomputes,           // Eq. 3 full recomputes from the identity
  kAbsorbingSlowPath,        // ×/&&/|| nnAcc+aggNulls treatment (§6.4.1)
  kDeltasApplied,            // epoch-start Δs folded directly into state
  kFrontierWoken,            // vertices woken by an epoch's mutation frontier
  kAtomicFolds,              // Δ-contributions folded lock-free into aggAccum
                             // slots, bypassing message construction entirely
  // Remote reads (passes/remote_lower.cpp request/response supersteps).
  kRemoteRequests,           // requester-id messages sent in request phases
  kRemoteReplies,            // field-value answers sent in reply phases
  // Engine (mirrors SuperstepStats; aggregated once per superstep).
  kEngineMessagesSent,
  kEngineMessagesDelivered,
  kEngineMessagesDropped,
  kEngineActiveVertices,
  kVerticesHalted,           // vote_to_halt transitions (§6.6)
  kVerticesWoken,            // message-driven reactivations (§6.6)
  kSupersteps,
  kInlineSupersteps,         // supersteps run on the caller's thread
                             // (step(fn, true)); the rest were threaded
  // Streaming epochs.
  kWarmEpochs,
  kColdEpochs,
  // Persistence.
  kSnapshotBytesWritten,
  kSnapshotBytesRead,
  // Bytecode VM.
  kVmOpsDispatched,
  kVmFusedOps,               // superinstructions + peephole fusions executed
  // Native tier (codegen/native_module.h).
  kNativeFallbacks,          // --tier=native runs that fell back to the VM
                             // (named reasons under dv.native_fallbacks.*)
  // Serving (dv/serve): the multi-tenant daemon over warm sessions.
  // Incremented via add_named from client/engine threads (request-rate
  // events, not per-message hot-path work); the enum entries exist so the
  // series appear — as zeros — in every snapshot, keeping the catalogue
  // and the metrics schema stable across tools.
  kServeEpochs,              // epochs committed by serving engine threads
  kServeReads,               // GET/TOPK reads answered from a state view
  kServeMutationBatches,     // MUT batches admitted to a session queue
  kServeCoalescedBatches,    // batches merged into an already-open epoch
                             // (group commit; 0 when every epoch is one
                             // batch)
  kServeSnapshots,           // SNAPSHOT requests + epoch checkpoints
  // Retraction memos (streaming/retract): bounded-memory min/max
  // deletion support (DESIGN.md §11).
  kMinmaxRetractions,        // contributions retracted/worsened through
                             // the k-best memo
  kMinmaxRefolds,            // targeted in-neighbor refolds
  kMinmaxUnderflows,         // cells whose k survivors were all retracted
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable dotted series name, e.g. "dv.sends_suppressed".
const char* counter_name(Counter c);

/// One lane's worth of fixed counters. Cache-line aligned so adjacent
/// lanes never false-share; single-writer by construction (lane == the
/// engine worker id, lane 0 == the main thread).
struct alignas(64) MetricsShard {
  std::array<std::uint64_t, kNumCounters> counts{};

  void add(Counter c, std::uint64_t n = 1) {
    counts[static_cast<std::size_t>(c)] += n;
  }
};

class MetricsRegistry {
 public:
  /// `lanes` must cover the widest worker pool that will record into this
  /// registry. An out-of-range lane aliases lane 0, whose shard is not
  /// synchronized: two threads on one shard race. The engine and the
  /// runner therefore refuse a narrower collector up front
  /// (obs::resolve_for).
  explicit MetricsRegistry(std::size_t lanes = kDefaultLanes);

  MetricsShard& shard(std::size_t lane) {
    return shards_[lane < shards_.size() ? lane : 0];
  }
  std::size_t num_lanes() const { return shards_.size(); }

  /// Cold-path string-keyed counter (e.g. "stream.warm_blocked.<reason>").
  void add_named(const std::string& name, std::uint64_t n = 1);
  void set_gauge(const std::string& name, double value);
  /// Histogram observation; tracked as count/sum/min/max.
  void observe(const std::string& name, double value);

  struct HistogramStats {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  /// Point-in-time aggregation across every lane plus the dynamic series.
  /// Fixed counters appear under their counter_name(); counters with a
  /// zero total are still listed (a dead series should read as 0, not as
  /// absent). Safe to call while lanes are quiescent (between supersteps
  /// or after a run).
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramStats> histograms;

    std::uint64_t counter(const std::string& name) const {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    }
  };

  Snapshot snapshot() const;

  static constexpr std::size_t kDefaultLanes = 64;

 private:
  std::vector<MetricsShard> shards_;
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> named_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramStats> histograms_;
};

}  // namespace deltav::obs
