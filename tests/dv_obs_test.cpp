// Unit tests for the observability subsystem (DESIGN.md §8): metrics
// registry sharding and snapshots, the span tracer rings, RAII scopes,
// global collector install/resolve, and the JSON sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "dv/obs/obs.h"
#include "dv/obs/report.h"
#include "dv/obs/trace_export.h"
#include "dv/programs/programs.h"
#include "dv/runtime/runner.h"
#include "test_util.h"

namespace deltav::obs {
namespace {

TEST(Metrics, CounterNamesAreTheStableCatalogue) {
  // These names are the public schema (CI greps them); renames break it.
  EXPECT_STREQ(counter_name(Counter::kSendsSuppressed),
               "dv.sends_suppressed");
  EXPECT_STREQ(counter_name(Counter::kDeltaMessages), "dv.delta_messages");
  EXPECT_STREQ(counter_name(Counter::kMemoHits), "dv.memo_hits");
  EXPECT_STREQ(counter_name(Counter::kVerticesHalted),
               "pregel.vertices_halted");
  EXPECT_STREQ(counter_name(Counter::kWarmEpochs), "stream.warm_epochs");
  EXPECT_STREQ(counter_name(Counter::kVmOpsDispatched),
               "vm.ops_dispatched");
  // Every enum value must map to a non-empty dotted name.
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const char* name = counter_name(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name).find('.'), std::string::npos) << name;
  }
}

TEST(Metrics, SnapshotAggregatesAcrossLanes) {
  MetricsRegistry reg(4);
  reg.shard(0).add(Counter::kMemoHits, 3);
  reg.shard(1).add(Counter::kMemoHits, 4);
  reg.shard(3).add(Counter::kMemoHits);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("dv.memo_hits"), 8u);
  // Untouched series still read as 0, not as absent.
  ASSERT_TRUE(snap.counters.contains("dv.memo_recomputes"));
  EXPECT_EQ(snap.counter("dv.memo_recomputes"), 0u);
  // Unknown names read as 0 through the helper.
  EXPECT_EQ(snap.counter("no.such.series"), 0u);
}

TEST(Metrics, OutOfRangeLaneAliasesLaneZero) {
  MetricsRegistry reg(2);
  reg.shard(99).add(Counter::kSupersteps, 5);
  EXPECT_EQ(reg.shard(0).counts[static_cast<std::size_t>(
                Counter::kSupersteps)],
            5u);
}

TEST(Metrics, NamedGaugeAndHistogramSeries) {
  MetricsRegistry reg(1);
  reg.add_named("stream.warm_blocked.program changed", 2);
  reg.add_named("stream.warm_blocked.program changed");
  reg.set_gauge("dv.frontier_size", 17.0);
  reg.set_gauge("dv.frontier_size", 12.0);  // last write wins
  reg.observe("persist.crc_seconds", 0.25);
  reg.observe("persist.crc_seconds", 0.75);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("stream.warm_blocked.program changed"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("dv.frontier_size"), 12.0);
  const auto& h = snap.histograms.at("persist.crc_seconds");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 1.0);
  EXPECT_DOUBLE_EQ(h.min, 0.25);
  EXPECT_DOUBLE_EQ(h.max, 0.75);
}

TEST(Metrics, CounterDiffIsPerEpochIncrementsClampedAtZero) {
  MetricsRegistry reg(1);
  reg.shard(0).add(Counter::kDeltaMessages, 10);
  const auto before = reg.snapshot();
  reg.shard(0).add(Counter::kDeltaMessages, 7);
  reg.add_named("stream.warm_blocked.x");
  const auto diff = counter_diff(before, reg.snapshot());
  EXPECT_EQ(diff.at("dv.delta_messages"), 7u);
  EXPECT_EQ(diff.at("stream.warm_blocked.x"), 1u);
  // A series that only exists in `before` clamps to 0 rather than wrapping.
  MetricsRegistry::Snapshot b2, a2;
  b2.counters["gone"] = 5;
  EXPECT_EQ(counter_diff(b2, a2).count("gone"), 0u);
}

TEST(Trace, RingKeepsNewestEventsAndCountsDrops) {
  Tracer t(/*lanes=*/1, /*events_per_lane=*/4);
  for (int i = 0; i < 6; ++i)
    t.record(0, "span", static_cast<std::uint64_t>(i * 10), 5);
  const auto events = t.events(0);
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 2..5 survive, 0 and 1 fell off.
  EXPECT_EQ(events.front().start_us, 20u);
  EXPECT_EQ(events.back().start_us, 50u);
  EXPECT_EQ(t.dropped(0), 2u);
}

TEST(Trace, ScopeRecordsClosedIntervalOnItsLane) {
  Collector col(2);
  {
    Scope s(&col, "outer", /*lane=*/1);
    Scope inner(&col, "inner", /*lane=*/1);
  }
  const auto events = col.trace.events(1);
  ASSERT_EQ(events.size(), 2u);
  // Scopes close innermost-first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_LE(events[0].start_us + events[0].dur_us,
            events[1].start_us + events[1].dur_us +
                1);  // containment up to µs rounding
  EXPECT_TRUE(col.trace.events(0).empty());
}

TEST(Trace, NullCollectorScopeIsANoOp) {
  ASSERT_EQ(current(), nullptr);
  Scope s(nullptr, "nothing");
  Scope g("also nothing");  // global form against no installed collector
  MetricsShard* shard = nullptr;
  DV_OBS_COUNT(shard, kSendsSuppressed, 10);  // must not crash
}

TEST(Obs, InstallResolveUninstall) {
  ASSERT_EQ(current(), nullptr);
  Collector col(1);
  Collector* prev = install(&col);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(current(), &col);
  EXPECT_EQ(resolve(nullptr), &col);
  Collector local(1);
  EXPECT_EQ(resolve(&local), &local);  // explicit wins over global
  install(nullptr);
  EXPECT_EQ(current(), nullptr);
  EXPECT_EQ(resolve(nullptr), nullptr);
}

TEST(Obs, CollectorNeedsALanePerWorker) {
  // Lane w is engine worker w's unsynchronized shard: a collector with
  // fewer lanes than workers would alias the extra workers onto lane 0
  // and race, so attaching one is refused by name.
  const auto g = test::small_undirected();
  const auto cp = test::compile_dv(dv::programs::kConnectedComponents);
  dv::DvRunOptions o;
  o.engine = test::small_engine(3);
  Collector narrow(1);
  o.collector = &narrow;
  try {
    dv::run_program(cp, g, o);
    FAIL() << "a 1-lane collector was accepted by a 3-worker run";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 lanes"), std::string::npos) << what;
    EXPECT_NE(what.find("3 workers"), std::string::npos) << what;
  }

  Collector wide(3);
  o.collector = &wide;
  const auto r = dv::run_program(cp, g, o);
  EXPECT_GT(r.supersteps, 0u);
  EXPECT_GT(wide.metrics.snapshot().counter("dv.memo_hits"), 0u);
}

TEST(Report, MetricsJsonShape) {
  MetricsRegistry reg(1);
  reg.shard(0).add(Counter::kSendsSuppressed, 42);
  reg.set_gauge("dv.frontier_size", 3.0);
  reg.observe("persist.crc_seconds", 0.5);
  EpochMetrics em;
  em.epoch = 2;
  em.warm = false;
  em.blocker = "program changed";
  em.counters["dv.delta_messages"] = 9;
  std::ostringstream os;
  write_metrics_json(reg.snapshot(), {em}, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"dv.sends_suppressed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"persist.crc_seconds\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"epochs\""), std::string::npos);
  EXPECT_NE(json.find("\"warm\":false"), std::string::npos);
  EXPECT_NE(json.find("\"blocker\":\"program changed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dv.delta_messages\":9"), std::string::npos);
}

TEST(Report, ChromeTraceHasCompleteEventsAndThreadNames) {
  Collector col(2);
  col.trace.record(0, "dv.converge", 10, 100);
  col.trace.record(1, "pregel.compute", 20, 30);
  std::ostringstream os;
  write_chrome_trace(col.trace, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"dv.converge\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pregel.compute\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // One named track per used lane.
  EXPECT_NE(json.find("main/worker 0"), std::string::npos);
  EXPECT_NE(json.find("worker 1"), std::string::npos);
}

TEST(Report, JsonlTraceIsOneObjectPerLine) {
  Collector col(1);
  col.trace.record(0, "stream.apply", 5, 50);
  std::ostringstream os;
  write_trace_jsonl(col.trace, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"stream.apply\""), std::string::npos);
  EXPECT_NE(out.find("\"dur_us\":50"), std::string::npos);
  // Exactly one newline-terminated record.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(Report, SessionIsInertWithoutPaths) {
  ObsSession session(ReportOptions{});
  EXPECT_FALSE(session.enabled());
  EXPECT_EQ(session.collector(), nullptr);
  EXPECT_EQ(current(), nullptr);  // nothing installed
  session.flush();                // harmless no-op
}

TEST(Report, SessionInstallsGloballyAndWritesMetricsFile) {
  const std::string path = ::testing::TempDir() + "dv_obs_metrics.json";
  {
    ReportOptions opts;
    opts.metrics_path = path;
    ObsSession session(opts);
    ASSERT_TRUE(session.enabled());
    EXPECT_EQ(current(), session.collector());
    session.collector()->metrics.shard(0).add(Counter::kMemoHits, 11);
    EpochMetrics em;
    em.epoch = 0;
    em.warm = true;
    session.add_epoch(std::move(em));
    session.flush();
  }
  EXPECT_EQ(current(), nullptr);  // uninstalled on destruction
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"dv.memo_hits\":11"), std::string::npos);
  EXPECT_NE(ss.str().find("\"warm\":true"), std::string::npos);
}

}  // namespace
}  // namespace deltav::obs
