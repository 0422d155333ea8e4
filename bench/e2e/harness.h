// Shared plumbing for bench_e2e: run settings, order statistics,
// bench-side spans, and the per-workload report.
//
// Everything here measures the system from outside: workloads time calls
// into public functions and read counts from the values those calls
// return (RunStats, EpochStats, HostStats) or from an obs::Collector the
// program is handed through its options.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dv/obs/obs.h"

namespace deltav::e2e {

/// One workload run's settings (flags are documented in main.cpp).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;  // measured time, over all repetitions
  bool trace = false;   // per-layer run instead of the end-to-end one
  bool smoke = false;   // tiny sizes: checks and output schema only
  std::string workdir = ".";    // checkpoints
  std::string trace_dir = ".";  // <workload>.trace.json / .layers.json
};

/// Engine workers of the workloads that run wide supersteps: min(4,
/// nproc), so no run uses more threads than the host has.
int engine_workers();

/// Nearest-rank quantile, q in [0, 1]. Empty input reads 0.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Derives an independent 64-bit seed for input `stream` of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Process peak resident set size so far, in MB (10^6 bytes).
double peak_rss_mb();

/// Monotonic seconds (steady_clock) from an arbitrary origin.
double now_s();

/// A number for JSON output, with all the digits of a double.
std::string json_number(double v);

/// Bench-side spans: {name, request id, parent, start, end} around every
/// public call a workload makes, kept in memory and written at exit. They
/// are timed on the program tracer's clock so they merge with the
/// program's own spans; a null tracer turns recording off (untraced runs
/// pay one branch per call).
class Spans {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t request;  // operation index; spans of one request share it
    std::uint64_t parent;   // enclosing bench span id, 0 at top level
    std::uint64_t start_us;
    std::uint64_t end_us;
  };

  explicit Spans(const obs::Tracer* clock = nullptr) : clock_(clock) {}
  bool enabled() const { return clock_ != nullptr; }

  class Scope {
   public:
    Scope(Spans* owner, const char* name, std::uint64_t request,
          std::uint64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Spans* owner_;
    std::size_t index_ = 0;
    std::uint64_t id_ = 0;
  };

  Scope open(const char* name, std::uint64_t request = 0,
             std::uint64_t parent = 0) {
    return Scope(enabled() ? this : nullptr, name, request, parent);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const obs::Tracer* clock_;
  std::vector<Span> spans_;
};

/// What one workload run measured and checked.
class Report {
 public:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
    std::size_t samples = 0;  // measurements the value summarizes
  };

  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  void e2e(const std::string& name, const std::string& unit, double value,
           std::size_t samples);
  void layer(const std::string& name, const std::string& unit, double value,
             std::size_t samples);

  /// Operations issued (jobs, batches, reads); the error-rate denominator.
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Records a failed or mismatched operation; returns `ok`.
  bool check(bool ok, const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<Metric>& layer_metrics() const { return layers_; }
  const Metric* find(const std::string& name) const;

  void print(std::ostream& os, const Config& cfg) const;
  void write_json(std::ostream& os, const Config& cfg) const;

 private:
  std::vector<std::pair<std::string, std::string>> info_;  // key, JSON
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Host and build descriptor shared by every output: nproc, CPU model,
/// compiler, build type and git revision.
void describe_host(Report& r);

/// Every span of a traced run, bench and program, with its nesting and
/// self time (duration − the part its direct children cover), worked out
/// once. Workloads read per-layer times from it; write() emits the files.
class TraceTree {
 public:
  /// `same_thread` says whether the program's lane-0 spans ran on the
  /// bench thread (they nest under bench spans) or on a thread of their
  /// own (a served session's engine thread).
  TraceTree(const Spans& spans, const obs::Collector& col, bool same_thread);

  struct Totals {
    std::size_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  /// Spans named `name`, only those inside a `within` span when given.
  Totals totals(const char* name, const char* within = nullptr) const;
  /// For every `parent` span, how many `child` spans it encloses.
  std::vector<double> counts_within(const char* parent,
                                    const char* child) const;

  /// Adds obs.dropped_events to `r`, then writes
  /// `<trace_dir>/<workload>.trace.json` (Chrome trace_event format: bench
  /// spans plus the program's own spans) and `.layers.json` (per span name
  /// its count, total and self time, self time per layer, and `r`'s
  /// per-layer metrics).
  void write(const Config& cfg, Report& r) const;

 private:
  struct Item {
    std::string name;
    const char* layer;
    std::uint64_t start, end;
    int tid;
    const Spans::Span* bench;  // null for program spans
    std::uint64_t self = 0;
    std::ptrdiff_t parent = -1;  // index of the enclosing item
  };
  bool inside(const Item& it, const char* ancestor) const;
  /// Whether item `i` counts in totals: it is nested (not a pool worker
  /// span) and starts inside the window every ring kept whole.
  bool summed(std::size_t i) const;

  // The first nested_ items, sorted by thread then start, carry nesting
  // and self times. The pool's per-worker spans follow: they repeat each
  // fork-join region once per worker and overlap the superstep's own
  // spans, so they are drawn in the trace but not summed.
  std::vector<Item> items_;
  std::size_t nested_ = 0;
  int program_tid_;
  std::size_t lanes_;
  std::uint64_t dropped_ = 0;
  std::uint64_t window_start_ = 0;
};

/// A collector for traced runs: one span lane per engine worker (the pool
/// records each worker's span on the lane of its id; everything else uses
/// lane 0), each ring large enough for a whole traced phase of most
/// workloads.
std::unique_ptr<obs::Collector> make_trace_collector(int workers);

}  // namespace deltav::e2e
