// The four bench_e2e workloads and the metric names every one of them
// reports (the BENCHMARK.json contract at the repository root lists the
// same names; keep the two in step).
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace deltav::e2e {

struct Workload {
  const char* name;
  const char* why;
  void (*run)(const Config& cfg, Report& r);
};

/// In run order: batch-pagerank, stream-pagerank, stream-sssp-del,
/// serve-cc.
const std::vector<Workload>& workloads();

/// End-to-end metrics every workload reports on an untraced run. Each is
/// a time, rate or size that is never 0 on a run that did any work.
inline const std::vector<std::string> kContractEndToEnd = {
    "setup_s",          "latency_ms_p50", "latency_ms_tail",
    "throughput_per_s", "restore_s",      "peak_rss_mb",
};

/// Per-layer metrics every workload reports on a traced run. Times in
/// this list are measured on every workload; counts and ratios of a layer
/// a workload does not exercise read 0. Workload-specific times (epoch
/// patching, compaction epochs, serve queueing, load-generator lateness)
/// are in the full report and <workload>.layers.json only.
inline const std::vector<std::string> kContractLayers = {
    "compiler.compile_ms",
    "pregel.supersteps_per_op",
    "pregel.compute_ms_per_op",
    "pregel.exchange_ms_per_op",
    "pregel.unattributed_ms_per_op",
    "pregel.messages_per_op",
    "pregel.combine_ratio",
    "pregel.active_per_superstep",
    "runtime.vm_ops_per_op",
    "runtime.suppression_ratio",
    "runtime.delta_messages_per_op",
    "runtime.memo_hits_per_op",
    "runtime.atomic_folds_per_op",
    "streaming.warm_ratio",
    "streaming.woken_per_epoch",
    "streaming.deltas_per_epoch",
    "streaming.supersteps_per_epoch_mean",
    "streaming.supersteps_per_epoch_p99",
    "graph.compactions",
    "retract.retractions",
    "retract.refolds",
    "retract.underflows",
    "retract.underflow_ratio",
    "persist.save_ms",
    "persist.snapshot_mb",
    "persist.crc_ms",
    "persist.checkpoints",
    "serve.coalesce",
    "serve.limit_miss_frac",
    "obs.trace_overhead",
    "obs.dropped_events",
};

}  // namespace deltav::e2e
