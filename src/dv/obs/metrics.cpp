#include "dv/obs/metrics.h"

#include "common/check.h"

namespace deltav::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSendsSuppressed: return "dv.sends_suppressed";
    case Counter::kDeltaMessages: return "dv.delta_messages";
    case Counter::kFullMessages: return "dv.full_messages";
    case Counter::kLastStepSendsSuppressed:
      return "dv.last_step_sends_suppressed";
    case Counter::kMemoHits: return "dv.memo_hits";
    case Counter::kMemoRecomputes: return "dv.memo_recomputes";
    case Counter::kAbsorbingSlowPath: return "dv.absorbing_slow_path";
    case Counter::kDeltasApplied: return "dv.deltas_applied";
    case Counter::kFrontierWoken: return "dv.frontier_woken";
    case Counter::kAtomicFolds: return "dv.atomic_folds";
    case Counter::kRemoteRequests: return "dv.remote_requests";
    case Counter::kRemoteReplies: return "dv.remote_replies";
    case Counter::kEngineMessagesSent: return "pregel.messages_sent";
    case Counter::kEngineMessagesDelivered:
      return "pregel.messages_delivered";
    case Counter::kEngineMessagesDropped: return "pregel.messages_dropped";
    case Counter::kEngineActiveVertices: return "pregel.active_vertices";
    case Counter::kVerticesHalted: return "pregel.vertices_halted";
    case Counter::kVerticesWoken: return "pregel.vertices_woken";
    case Counter::kSupersteps: return "pregel.supersteps";
    case Counter::kInlineSupersteps: return "pregel.inline_supersteps";
    case Counter::kWarmEpochs: return "stream.warm_epochs";
    case Counter::kColdEpochs: return "stream.cold_epochs";
    case Counter::kSnapshotBytesWritten:
      return "persist.snapshot_bytes_written";
    case Counter::kSnapshotBytesRead: return "persist.snapshot_bytes_read";
    case Counter::kVmOpsDispatched: return "vm.ops_dispatched";
    case Counter::kVmFusedOps: return "vm.fused_ops";
    case Counter::kNativeFallbacks: return "dv.native_fallbacks";
    case Counter::kServeEpochs: return "serve.epochs";
    case Counter::kServeReads: return "serve.reads";
    case Counter::kServeMutationBatches: return "serve.mutation_batches";
    case Counter::kServeCoalescedBatches: return "serve.coalesced_batches";
    case Counter::kServeSnapshots: return "serve.snapshots";
    case Counter::kMinmaxRetractions: return "dv.minmax_retractions";
    case Counter::kMinmaxRefolds: return "dv.minmax_refolds";
    case Counter::kMinmaxUnderflows: return "dv.minmax_underflows";
    case Counter::kCount: break;
  }
  DV_FAIL("counter_name out of range");
}

MetricsRegistry::MetricsRegistry(std::size_t lanes)
    : shards_(lanes == 0 ? 1 : lanes) {}

void MetricsRegistry::add_named(const std::string& name, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  named_[name] += n;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramStats& h = histograms_[name];
  if (h.count == 0) {
    h.min = h.max = value;
  } else {
    h.min = value < h.min ? value : h.min;
    h.max = value > h.max ? value : h.max;
  }
  ++h.count;
  h.sum += value;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    std::uint64_t total = 0;
    for (const MetricsShard& sh : shards_) total += sh.counts[c];
    s.counters[counter_name(static_cast<Counter>(c))] = total;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, n] : named_) s.counters[name] += n;
  s.gauges = gauges_;
  s.histograms = histograms_;
  return s;
}

}  // namespace deltav::obs
