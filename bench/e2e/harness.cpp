#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef DV_GIT_REVISION
#define DV_GIT_REVISION "unknown"
#endif
#ifndef DV_BUILD_TYPE
#define DV_BUILD_TYPE "unknown"
#endif

namespace deltav::e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return splitmix64(state);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans

Spans::Scope::Scope(Spans* owner, const char* name, std::uint64_t request,
                    std::uint64_t parent)
    : owner_(owner) {
  if (!owner_) return;
  id_ = owner_->spans_.size() + 1;
  index_ = owner_->spans_.size();
  const std::uint64_t t = owner_->clock_->now_us();
  owner_->spans_.push_back(Span{name, id_, request, parent, t, t});
}

Spans::Scope::~Scope() {
  if (owner_) owner_->spans_[index_].end_us = owner_->clock_->now_us();
}

int engine_workers() {
  return static_cast<int>(
      std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN), 1, 4));
}

std::unique_ptr<obs::Collector> make_trace_collector(int workers) {
  auto col = std::make_unique<obs::Collector>();
  col->trace = obs::Tracer(static_cast<std::size_t>(workers), 1 << 17);
  return col;
}

// ---------------------------------------------------------------------------
// Report

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void write_metrics(std::ostream& os, const std::vector<Report::Metric>& ms,
                   const char* indent) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Report::Metric& m = ms[i];
    os << (i ? "," : "") << "\n" << indent << "  " << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << "}";
  }
  os << "\n" << indent << "}";
}

}  // namespace

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, json_string(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::e2e(const std::string& name, const std::string& unit,
                 double value, std::size_t samples) {
  check(std::isfinite(value), name + " is not finite");
  e2e_.push_back({name, unit, std::isfinite(value) ? value : 0, samples});
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value, std::size_t samples) {
  check(std::isfinite(value), name + " is not finite");
  layers_.push_back({name, unit, std::isfinite(value) ? value : 0, samples});
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    if (failures_.size() < 32) failures_.push_back(what);
    std::cerr << "bench_e2e: CHECK FAILED: " << what << "\n";
  }
  return ok;
}

const Report::Metric* Report::find(const std::string& name) const {
  for (const auto* list : {&e2e_, &layers_})
    for (const Metric& m : *list)
      if (m.name == name) return &m;
  return nullptr;
}

void Report::print(std::ostream& os, const Config& cfg) const {
  os << "== " << cfg.workload << " (seed " << cfg.seed << ", "
     << (cfg.trace ? "traced" : "untraced") << (cfg.smoke ? ", smoke" : "")
     << ") ==\n";
  for (const auto& [k, v] : info_) os << "  " << k << " = " << v << "\n";
  const auto table = [&](const char* title, const std::vector<Metric>& ms) {
    if (ms.empty()) return;
    os << title << "\n";
    for (const Metric& m : ms) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-36s %16.6g %-8s (n=%zu)\n",
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
      os << line;
    }
  };
  table("end-to-end:", e2e_);
  table("per-layer:", layers_);
  os << "checks: " << attempted_ << " operations attempted, " << failed_
     << " failed or mismatched\n";
  for (const std::string& f : failures_) os << "  FAILED: " << f << "\n";
}

void Report::write_json(std::ostream& os, const Config& cfg) const {
  os << "{\n  \"workload\": " << json_string(cfg.workload)
     << ",\n  \"seed\": " << cfg.seed
     << ",\n  \"traced\": " << (cfg.trace ? "true" : "false")
     << ",\n  \"smoke\": " << (cfg.smoke ? "true" : "false")
     << ",\n  \"descriptor\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    os << (i ? "," : "") << "\n    " << json_string(info_[i].first) << ": "
       << info_[i].second;
  os << "\n  },\n  \"end_to_end\": ";
  write_metrics(os, e2e_, "  ");
  os << ",\n  \"per_layer\": ";
  write_metrics(os, layers_, "  ");
  os << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": "
     << failed_ << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? ", " : "") << json_string(failures_[i]);
  os << "]\n}\n";
}

void describe_host(Report& r) {
  r.info("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  std::string cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    cpu = brand;
    cpu.erase(0, cpu.find_first_not_of(' '));
  }
#endif
  r.info("cpu", cpu);
#if defined(__clang__)
  r.info("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  r.info("compiler", std::string("gcc ") + __VERSION__);
#else
  r.info("compiler", "unknown");
#endif
  r.info("build_type", DV_BUILD_TYPE);
  r.info("git_revision", DV_GIT_REVISION);
}

// ---------------------------------------------------------------------------
// Trace analysis and outputs

namespace {

/// Which layer a span's self time belongs to. Bench spans wrap one public
/// call; program spans come from the engine, runner, session and persist
/// code (src/pregel, src/dv).
const char* layer_of(const std::string& name) {
  static const std::map<std::string, const char*> kLayers = {
      {"bench.compile", "compiler"},
      {"bench.run_program", "runtime"},
      {"dv.converge", "runtime"},
      {"bench.make_session", "streaming"},
      {"bench.converge", "streaming"},
      {"bench.apply", "streaming"},
      {"stream.apply", "streaming"},
      {"dv.epoch.apply", "streaming"},
      {"pregel.superstep", "pregel"},
      {"pregel.compute", "pregel"},
      {"pregel.exchange", "pregel"},
      {"bench.save_bytes", "persist"},
      {"bench.restore_bytes", "persist"},
      {"persist.save", "persist"},
      {"persist.restore", "persist"},
      {"bench.host_start", "serve"},
      {"bench.host_restore", "serve"},
      {"bench.enqueue", "serve"},
      {"bench.get", "serve"},
      {"bench.stats", "serve"},
      {"bench.flush", "serve"},
      {"bench.snapshot_bytes", "serve"},
      {"bench.setup", "bench"},
  };
  const auto it = kLayers.find(name);
  return it == kLayers.end() ? "other" : it->second;
}

}  // namespace

TraceTree::TraceTree(const Spans& spans, const obs::Collector& col,
                     bool same_thread)
    : program_tid_(same_thread ? 0 : 1), lanes_(col.trace.num_lanes()) {
  // A full ring drops its oldest events. Spans are recorded at exit, so
  // every span starting after the oldest retained event ended still has
  // all its children: totals are limited to that window.
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    const std::vector<obs::TraceEvent> events = col.trace.events(lane);
    const std::uint64_t lost = col.trace.dropped(lane);
    dropped_ += lost;
    if (lost > 0 && !events.empty())
      window_start_ = std::max(window_start_,
                               events.front().start_us + events.front().dur_us);
    for (const obs::TraceEvent& e : events)
      items_.push_back(Item{e.name, layer_of(e.name), e.start_us,
                            e.start_us + e.dur_us,
                            program_tid_ + static_cast<int>(lane), nullptr});
  }
  for (const Spans::Span& s : spans.spans())
    items_.push_back(
        Item{s.name, layer_of(s.name), s.start_us, s.end_us, 0, &s});
  const auto workers =
      std::stable_partition(items_.begin(), items_.end(), [](const Item& it) {
        return it.name != "pregel.worker";
      });
  nested_ = static_cast<std::size_t>(workers - items_.begin());

  // Nesting is recovered per thread from timestamp containment. Program
  // spans are µs-truncated reconstructions (compute/exchange are derived
  // from phase timers), so containment tolerates a couple of µs of
  // overhang.
  constexpr std::uint64_t kSlackUs = 2;
  std::sort(items_.begin(), workers, [](const Item& a, const Item& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end > b.end;
    return a.bench && !b.bench;  // equal bounds: the bench call encloses
  });
  std::vector<std::size_t> stack;
  int tid = -1;
  for (std::size_t i = 0; i < nested_; ++i) {
    Item& it = items_[i];
    it.self = it.end - it.start;
    if (it.tid != tid) {
      stack.clear();
      tid = it.tid;
    }
    while (!stack.empty() && (items_[stack.back()].end <= it.start ||
                              items_[stack.back()].end + kSlackUs < it.end))
      stack.pop_back();
    if (!stack.empty()) {
      Item& parent = items_[stack.back()];
      parent.self -= std::min(parent.self, it.end - it.start);
      it.parent = static_cast<std::ptrdiff_t>(stack.back());
    }
    stack.push_back(i);
  }
}

bool TraceTree::inside(const Item& it, const char* ancestor) const {
  for (std::ptrdiff_t p = it.parent; p >= 0; p = items_[p].parent)
    if (items_[p].name == ancestor) return true;
  return false;
}

bool TraceTree::summed(std::size_t i) const {
  return i < nested_ && items_[i].start >= window_start_;
}

TraceTree::Totals TraceTree::totals(const char* name,
                                    const char* within) const {
  Totals t;
  for (std::size_t i = 0; i < nested_; ++i) {
    const Item& it = items_[i];
    if (!summed(i) || it.name != name || (within && !inside(it, within)))
      continue;
    ++t.count;
    t.total_ms += static_cast<double>(it.end - it.start) / 1e3;
    t.self_ms += static_cast<double>(it.self) / 1e3;
  }
  return t;
}

std::vector<double> TraceTree::counts_within(const char* parent,
                                             const char* child) const {
  std::map<std::ptrdiff_t, double> counts;  // by parent index, in order
  for (std::size_t i = 0; i < nested_; ++i)
    if (summed(i) && items_[i].name == parent)
      counts[static_cast<std::ptrdiff_t>(i)] = 0;
  for (std::size_t i = 0; i < nested_; ++i) {
    if (!summed(i) || items_[i].name != child) continue;
    for (std::ptrdiff_t p = items_[i].parent; p >= 0; p = items_[p].parent)
      if (items_[p].name == parent) {
        if (const auto c = counts.find(p); c != counts.end()) ++c->second;
        break;
      }
  }
  std::vector<double> out;
  for (const auto& [index, n] : counts) out.push_back(n);
  return out;
}

void TraceTree::write(const Config& cfg, Report& r) const {
  r.layer("obs.dropped_events", "count", static_cast<double>(dropped_), 1);
  struct Agg {
    const char* layer = "";
    std::size_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < nested_; ++i) {
    const Item& it = items_[i];
    if (!summed(i)) continue;
    Agg& a = by_name[it.name];
    a.layer = it.layer;
    ++a.count;
    a.total_ms += static_cast<double>(it.end - it.start) / 1e3;
    a.self_ms += static_cast<double>(it.self) / 1e3;
    by_layer[it.layer] += static_cast<double>(it.self) / 1e3;
  }

  const std::string base = cfg.trace_dir + "/" + cfg.workload;
  {
    std::ofstream os(base + ".trace.json");
    DV_CHECK_MSG(os.good(), "cannot write " << base << ".trace.json");
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    // One track per thread: the bench thread, then the pool's workers from
    // worker 0 (the bench thread itself, or a served session's engine
    // thread) on.
    const int tracks = program_tid_ + static_cast<int>(lanes_);
    for (int tid = 0; tid < tracks; ++tid) {
      const int worker = tid - program_tid_;
      const std::string name = tid == 0      ? "bench"
                               : worker == 0 ? "engine"
                                             : "worker " + std::to_string(worker);
      os << (tid ? ",\n" : "\n")
         << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
         << tid << ", \"args\": {\"name\": \"" << name << "\"}}";
    }
    for (const Item& it : items_) {
      os << ",\n{\"name\": " << json_string(it.name) << ", \"cat\": \""
         << (it.bench ? "bench" : "program") << "\", \"ph\": \"X\", \"ts\": "
         << it.start << ", \"dur\": " << (it.end - it.start)
         << ", \"pid\": 1, \"tid\": " << it.tid;
      if (it.bench)
        os << ", \"args\": {\"id\": " << it.bench->id
           << ", \"request\": " << it.bench->request
           << ", \"parent\": " << it.bench->parent << "}";
      os << "}";
    }
    os << "\n]}\n";
    DV_CHECK_MSG(os.good(), "failed writing " << base << ".trace.json");
  }
  {
    std::ofstream os(base + ".layers.json");
    DV_CHECK_MSG(os.good(), "cannot write " << base << ".layers.json");
    os << "{\n  \"workload\": " << json_string(cfg.workload)
       << ",\n  \"seed\": " << cfg.seed << ",\n  \"dropped_events\": "
       << dropped_ << ",\n  \"window_start_us\": " << window_start_
       << ",\n  \"self_ms_by_layer\": {";
    bool first = true;
    for (const auto& [layer, ms] : by_layer) {
      os << (first ? "" : ",") << "\n    " << json_string(layer) << ": "
         << json_number(ms);
      first = false;
    }
    os << "\n  },\n  \"spans\": {";
    first = true;
    for (const auto& [name, a] : by_name) {
      os << (first ? "" : ",") << "\n    " << json_string(name)
         << ": {\"layer\": " << json_string(a.layer)
         << ", \"count\": " << a.count
         << ", \"total_ms\": " << json_number(a.total_ms)
         << ", \"self_ms\": " << json_number(a.self_ms) << "}";
      first = false;
    }
    os << "\n  },\n  \"metrics\": ";
    write_metrics(os, r.layer_metrics(), "  ");
    os << "\n}\n";
    DV_CHECK_MSG(os.good(), "failed writing " << base << ".layers.json");
  }
}

}  // namespace deltav::e2e
