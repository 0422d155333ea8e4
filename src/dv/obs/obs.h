// Collector handle and the DV_OBS_* instrumentation layer.
//
// A Collector bundles the metrics registry and the span tracer. Exactly
// one may be installed process-wide (obs::install / obs::current); the
// instrumented subsystems additionally accept an explicit Collector* via
// their option structs (DvRunOptions / pregel::EngineOptions /
// streaming::SessionOptions), falling back to the global one — so a
// bench can meter a single run without touching process state.
//
// Overhead-when-disabled contract (DESIGN.md §8): with no collector
// installed every hook degenerates to a null-pointer test — hot loops
// hold a MetricsShard* (EvalContext::obs) resolved once per superstep,
// tally into function-local integers, and flush only behind that test.
// No locks, no atomics, no allocation, no stores to shared state.
// bench_micro's obs-off/obs-on pair enforces this by numbers.
#pragma once

#include <atomic>

#include "common/check.h"
#include "dv/obs/metrics.h"
#include "dv/obs/trace.h"

namespace deltav::obs {

struct Collector {
  MetricsRegistry metrics;
  Tracer trace;

  explicit Collector(std::size_t lanes = MetricsRegistry::kDefaultLanes)
      : metrics(lanes), trace(lanes) {}
};

namespace detail {
inline std::atomic<Collector*>& global_slot() {
  static std::atomic<Collector*> slot{nullptr};
  return slot;
}
}  // namespace detail

/// The process-global collector, or nullptr when observability is off.
inline Collector* current() {
  return detail::global_slot().load(std::memory_order_acquire);
}

/// Installs `c` (nullptr uninstalls). The caller owns the collector and
/// must keep it alive until after uninstalling; returns the previous one.
inline Collector* install(Collector* c) {
  return detail::global_slot().exchange(c, std::memory_order_acq_rel);
}

/// `explicit_collector` when set, else the global one: the single
/// resolution rule every instrumented subsystem uses.
inline Collector* resolve(Collector* explicit_collector) {
  return explicit_collector ? explicit_collector : current();
}

/// resolve(), for a pool of `workers` threads that each record into their
/// own lane (lane w == worker w). A collector with fewer lanes is refused:
/// its out-of-range workers would share lane 0's unsynchronized shard.
inline Collector* resolve_for(Collector* explicit_collector,
                              std::size_t workers) {
  Collector* const c = resolve(explicit_collector);
  DV_CHECK_MSG(c == nullptr || c->metrics.num_lanes() >= workers,
               "obs::Collector has " << c->metrics.num_lanes()
                                     << " lanes but the engine runs "
                                     << workers
                                     << " workers; it needs one lane per "
                                        "worker");
  return c;
}

/// RAII span: records [construction, destruction) on `lane` of the
/// collector's tracer. A null collector makes it a no-op.
class Scope {
 public:
  Scope(Collector* col, const char* name, std::size_t lane = 0)
      : tracer_(col ? &col->trace : nullptr), name_(name), lane_(lane) {
    if (tracer_) start_ = tracer_->now_us();
  }
  /// Convenience form against the global collector.
  explicit Scope(const char* name, std::size_t lane = 0)
      : Scope(current(), name, lane) {}
  ~Scope() {
    if (tracer_) tracer_->record(lane_, name_, start_,
                                 tracer_->now_us() - start_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::size_t lane_;
  std::uint64_t start_ = 0;
};

}  // namespace deltav::obs

/// Bump a fixed counter through a possibly-null shard pointer.
#define DV_OBS_COUNT(shard, counter, n)                                   \
  do {                                                                    \
    if (shard) (shard)->add(::deltav::obs::Counter::counter, (n));        \
  } while (0)

/// Open an RAII span against a possibly-null Collector*.
#define DV_OBS_SCOPE(col, name, lane) \
  ::deltav::obs::Scope dv_obs_scope_((col), (name), (lane))
