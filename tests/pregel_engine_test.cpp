// Semantics tests for the BSP engine: superstep structure, vote-to-halt /
// reactivation, termination detection, combiners, statistics, scheduling
// modes, and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "dv/testing/persist_check.h"
#include "pregel/engine.h"
#include "test_util.h"

namespace deltav::pregel {
namespace {

struct SumCombiner {
  void operator()(int& acc, int in) const { acc += in; }
};

using IntEngine = Engine<int>;
using IntSumEngine = Engine<int, SumCombiner>;

TEST(Engine, AllVerticesActiveAtSuperstepZero) {
  IntEngine e(10, test::small_engine());
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_TRUE(e.done());
}

TEST(Engine, MessagesDeliveredNextSuperstep) {
  IntEngine e(4, test::small_engine());
  std::vector<int> got(4, -1);
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    EXPECT_TRUE(msgs.empty());
    if (v == 0) ctx.send(3, 42);
    ctx.vote_to_halt();
  });
  EXPECT_FALSE(e.done());  // message in flight
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    got[v] = msgs.empty() ? 0 : msgs[0];
    ctx.vote_to_halt();
  });
  // Only vertex 3 was reactivated.
  EXPECT_EQ(got[3], 42);
  EXPECT_EQ(got[0], -1);
  EXPECT_EQ(got[1], -1);
  EXPECT_TRUE(e.done());
}

TEST(Engine, HaltedVertexSkippedUntilMessage) {
  IntEngine e(2, test::small_engine(1));
  int runs_of_1 = 0;
  // Superstep 0: vertex 1 halts, vertex 0 stays active.
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 1) {
      ++runs_of_1;
      ctx.vote_to_halt();
    }
  });
  // Superstep 1: vertex 1 must not run.
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 1) ++runs_of_1;
    if (v == 0) {
      ctx.send(1, 5);
      ctx.vote_to_halt();
    }
  });
  EXPECT_EQ(runs_of_1, 1);
  // Superstep 2: message wakes vertex 1.
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    if (v == 1) {
      ++runs_of_1;
      EXPECT_EQ(msgs.size(), 1u);
      EXPECT_EQ(msgs[0], 5);
    }
    ctx.vote_to_halt();
  });
  EXPECT_EQ(runs_of_1, 2);
  EXPECT_TRUE(e.done());
}

TEST(Engine, NotHaltingKeepsVertexActive) {
  IntEngine e(1, test::small_engine(1));
  int runs = 0;
  for (int s = 0; s < 5; ++s)
    e.step([&](auto& ctx, VertexId, std::span<const int>) {
      ++runs;
      if (runs == 5) ctx.vote_to_halt();
    });
  EXPECT_EQ(runs, 5);
  EXPECT_TRUE(e.done());
}

TEST(Engine, RunDrivesToQuiescence) {
  // Token passing along a ring: each vertex forwards once then halts.
  const std::size_t n = 16;
  IntEngine e(n, test::small_engine());
  const RunStats& stats = e.run([&](auto& ctx, VertexId v,
                                    std::span<const int> msgs) {
    if (ctx.superstep() == 0) {
      if (v == 0) ctx.send(1, 1);
    } else {
      for (int m : msgs)
        if (v + 1 < n) ctx.send(static_cast<VertexId>(v + 1), m + 1);
    }
    ctx.vote_to_halt();
  });
  EXPECT_TRUE(e.done());
  EXPECT_EQ(stats.total_messages_sent(), n - 1);
  EXPECT_EQ(stats.num_supersteps(), n);  // 0..n-1
}

TEST(Engine, RunRespectsMaxSupersteps) {
  IntEngine e(1, test::small_engine(1));
  e.run([](auto&, VertexId, std::span<const int>) { /* never halts */ },
        7);
  EXPECT_EQ(e.superstep(), 7u);
  EXPECT_FALSE(e.done());
}

TEST(Engine, SendToOutOfRangeVertexThrows) {
  IntEngine e(3, test::small_engine(1));
  EXPECT_THROW(e.step([](auto& ctx, VertexId, std::span<const int>) {
    ctx.send(99, 1);
  }),
               CheckError);
}

TEST(Engine, CombinerReducesDeliveredNotSent) {
  const std::size_t n = 8;
  EngineOptions opts = test::small_engine(2);
  opts.use_combiner = true;
  IntSumEngine e(n, opts);
  // Everyone sends 1 to vertex 0.
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ctx.send(0, 1);
    ctx.vote_to_halt();
  });
  int total = -1;
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    if (v == 0) {
      total = 0;
      for (int m : msgs) total += m;
    }
    ctx.vote_to_halt();
  });
  EXPECT_EQ(total, static_cast<int>(n));  // combined sum preserved
  const auto& s0 = e.stats().supersteps[0];
  EXPECT_EQ(s0.messages_sent, n);
  // Sender-side combining: at most one message per (worker, dst).
  EXPECT_LE(s0.messages_delivered, 2u);
}

TEST(Engine, CombinerDisabledDeliversAll) {
  const std::size_t n = 8;
  EngineOptions opts = test::small_engine(2);
  opts.use_combiner = false;
  IntSumEngine e(n, opts);
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ctx.send(0, 1);
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].messages_delivered, n);
}

TEST(Engine, StatsCountBytesAndActiveVertices) {
  IntEngine e(4, test::small_engine(1));
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v < 2) ctx.send(3, 7);
    ctx.vote_to_halt();
  });
  const auto& s = e.stats().supersteps[0];
  EXPECT_EQ(s.active_vertices, 4u);
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.bytes_sent, 2 * sizeof(int));
}

// §6.6 halt/wake accounting: vote_to_halt transitions and message-driven
// reactivations are counted per superstep.
TEST(Engine, StatsCountHaltAndWakeTransitions) {
  IntEngine e(4, test::small_engine(2));
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(3, 7);
    ctx.vote_to_halt();
  });
  const auto& s0 = e.stats().supersteps[0];
  EXPECT_EQ(s0.vertices_halted, 4u);  // everyone voted to halt
  EXPECT_EQ(s0.vertices_woken, 1u);   // the delivery to 3 reactivated it
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    EXPECT_EQ(v, 3u);
    EXPECT_EQ(msgs.size(), 1u);
    ctx.vote_to_halt();
  });
  const auto& s1 = e.stats().supersteps[1];
  EXPECT_EQ(s1.vertices_halted, 1u);
  EXPECT_EQ(s1.vertices_woken, 0u);
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.stats().total_vertices_halted(), 5u);
  EXPECT_EQ(e.stats().total_vertices_woken(), 1u);
}

// A wake is a halted→active *transition*: messages to an already-woken
// vertex must not count again, and a vertex that never halted contributes
// nothing to either counter.
TEST(Engine, WakeCountsOnlyHaltedToActiveTransitions) {
  IntEngine e(3, test::small_engine(1));
  // Superstep 0: vertices 1 and 2 halt; 0 stays active.
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v != 0) ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].vertices_halted, 2u);
  EXPECT_EQ(e.stats().supersteps[0].vertices_woken, 0u);
  // Superstep 1: vertex 0 double-messages the halted vertex 1 and halts.
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) {
      ctx.send(1, 1);
      ctx.send(1, 2);
      ctx.vote_to_halt();
    }
  });
  const auto& s1 = e.stats().supersteps[1];
  EXPECT_EQ(s1.vertices_halted, 1u);  // vertex 0
  EXPECT_EQ(s1.vertices_woken, 1u);   // vertex 1, woken once despite 2 msgs
  // Superstep 2: vertex 1 drains its inbox and re-halts.
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(msgs.size(), 2u);
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[2].vertices_halted, 1u);
  EXPECT_TRUE(e.done());
}

TEST(Engine, CrossMachineBytesTracked) {
  EngineOptions opts;
  opts.num_workers = 4;
  opts.cluster.machines = 4;
  opts.cluster.workers_per_machine = 1;
  opts.partition = PartitionScheme::kBlock;
  IntEngine e(4, opts);  // one vertex per worker per machine
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ctx.send(static_cast<VertexId>((v + 1) % 4), 1);  // all cross-machine
    ctx.vote_to_halt();
  });
  e.step([](auto& ctx, VertexId, std::span<const int>) {
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].cross_machine_bytes, 4 * sizeof(int));
  EXPECT_GT(e.stats().supersteps[0].sim_comm_seconds, 0.0);
}

TEST(Engine, IntraMachineTrafficIsFree) {
  EngineOptions opts;
  opts.num_workers = 2;
  opts.cluster.machines = 1;
  opts.cluster.workers_per_machine = 2;
  IntEngine e(8, opts);
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ctx.send(static_cast<VertexId>((v + 5) % 8), 1);
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].cross_machine_bytes, 0u);
}

TEST(Engine, ActivateAllWakesEveryone) {
  IntEngine e(6, test::small_engine());
  e.step([](auto& ctx, VertexId, std::span<const int>) {
    ctx.vote_to_halt();
  });
  EXPECT_TRUE(e.done());
  e.activate_all();
  EXPECT_FALSE(e.done());
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 6);
}

TEST(Engine, WorkerExceptionPropagates) {
  for (const bool inline_round : {false, true}) {
    IntEngine e(4, test::small_engine(2));
    EXPECT_THROW(e.step(
                     [](auto&, VertexId v, std::span<const int>) {
                       if (v == 3) throw std::runtime_error("worker boom");
                     },
                     inline_round),
                 std::runtime_error)
        << "inline_round=" << inline_round;
    // A failed round is not a superstep: nothing was exchanged or counted.
    EXPECT_EQ(e.superstep(), 0u) << "inline_round=" << inline_round;
    EXPECT_TRUE(e.stats().supersteps.empty());
  }
}

TEST(Engine, InlineRoundReportsPhaseTimings) {
  IntEngine e(64, test::small_engine(3));
  volatile std::uint64_t sink = 0;
  e.step(
      [&](auto& ctx, VertexId v, std::span<const int>) {
        for (std::uint64_t i = 0; i < 1000; ++i) sink = sink + i * v;
        ctx.send(static_cast<VertexId>((v + 1) % 64), 1);
      },
      /*inline_round=*/true);
  const auto& s = e.stats().supersteps.at(0);
  EXPECT_GT(s.compute_seconds, 0.0);
  EXPECT_GE(s.exchange_seconds, 0.0);
  EXPECT_EQ(s.messages_delivered, 64u);
}

// ---- inline vs threaded rounds -------------------------------------------

/// A message addressed to one of four aggregation sites of its receiver,
/// so combiners can key on (destination, site) like the ΔV runtime does.
struct SiteMsg {
  std::uint32_t site = 0;
  std::int64_t val = 0;
  bool operator==(const SiteMsg&) const = default;
};

/// Combines per (destination, site) through the engine's hash maps.
struct HashSiteCombiner {
  void operator()(SiteMsg& acc, const SiteMsg& in) const { acc.val += in.val; }
  std::uint64_t key(VertexId dst, const SiteMsg& m) const {
    return std::uint64_t{dst} * 4 + m.site;
  }
};

/// The same key space through the dense (vertex × subkey) slot array.
struct DenseSiteCombiner {
  void operator()(SiteMsg& acc, const SiteMsg& in) const { acc.val += in.val; }
  std::size_t num_subkeys() const { return 4; }
  std::size_t subkey(const SiteMsg& m) const { return m.site; }
};

/// Everything a round can observably produce except its wall timings.
struct RoundTrace {
  std::vector<std::vector<std::uint64_t>> counters;  // per round
  std::vector<double> sim_comm_seconds;              // per round
  std::vector<std::vector<std::vector<SiteMsg>>> delivered;  // [round][v]
  std::vector<std::vector<std::uint8_t>> halted;     // [round][v]
  std::vector<std::vector<std::uint8_t>> deleted;    // [round][v]
  std::vector<std::int64_t> values;                  // final vertex state
};

/// Drives a halting, message-summing computation for a fixed number of
/// rounds, deleting and re-activating vertices between rounds, and
/// records every round's observable outcome.
template <typename EngineT>
RoundTrace trace_rounds(const graph::CsrGraph& g, const EngineOptions& opts,
                        bool inline_rounds) {
  constexpr std::size_t kRounds = 10;
  const std::size_t n = g.num_vertices();
  EngineT e(n, opts);
  RoundTrace t;
  t.delivered.assign(kRounds, std::vector<std::vector<SiteMsg>>(n));
  std::vector<std::int64_t> x(n);
  for (std::size_t v = 0; v < n; ++v) x[v] = static_cast<std::int64_t>(v + 1);
  for (std::size_t r = 0; r < kRounds; ++r) {
    if (r == 3)
      for (VertexId v = 5; v < n; v += 11) e.mark_deleted(v);
    if (r == 5)
      for (VertexId v = 2; v < n; v += 7) e.activate(v);
    e.step(
        [&](auto& ctx, VertexId v, std::span<const SiteMsg> msgs) {
          t.delivered[r][v].assign(msgs.begin(), msgs.end());
          for (const SiteMsg& m : msgs) x[v] = (x[v] + m.val) % 1000003;
          for (const VertexId u : g.out_neighbors(v))
            ctx.send(u, SiteMsg{static_cast<std::uint32_t>((v + u) % 4),
                                x[v] % 97});
          if ((x[v] + static_cast<std::int64_t>(r)) % 3 == 0)
            ctx.vote_to_halt();
        },
        inline_rounds);
    const SuperstepStats& s = e.stats().supersteps.back();
    t.counters.push_back({s.messages_sent, s.messages_delivered,
                          s.messages_dropped, s.bytes_sent, s.bytes_delivered,
                          s.cross_machine_bytes, s.active_vertices,
                          s.vertices_halted, s.vertices_woken});
    t.sim_comm_seconds.push_back(s.sim_comm_seconds);
    std::vector<std::uint8_t> halted(n), deleted(n);
    for (VertexId v = 0; v < n; ++v) {
      halted[v] = e.is_halted(v);
      deleted[v] = e.is_deleted(v);
    }
    t.halted.push_back(std::move(halted));
    t.deleted.push_back(std::move(deleted));
  }
  t.values = std::move(x);
  return t;
}

template <typename EngineT>
void expect_inline_matches_threaded(const char* combiner) {
  const auto g = test::small_directed(41);
  for (const int workers : {1, 3, 4}) {
    const EngineOptions opts = test::small_engine(workers);
    SCOPED_TRACE(::testing::Message()
                 << combiner << " workers=" << workers);
    const RoundTrace threaded = trace_rounds<EngineT>(g, opts, false);
    const RoundTrace inlined = trace_rounds<EngineT>(g, opts, true);
    EXPECT_EQ(inlined.counters, threaded.counters);
    EXPECT_EQ(inlined.sim_comm_seconds, threaded.sim_comm_seconds);
    EXPECT_EQ(inlined.delivered, threaded.delivered);
    EXPECT_EQ(inlined.halted, threaded.halted);
    EXPECT_EQ(inlined.deleted, threaded.deleted);
    EXPECT_EQ(inlined.values, threaded.values);
    // The computation must actually exercise the paths it compares.
    std::uint64_t dropped = 0, delivered = 0;
    for (const auto& c : threaded.counters) {
      delivered += c[1];
      dropped += c[2];
    }
    EXPECT_GT(delivered, 0u);
    EXPECT_GT(dropped, 0u);
  }
}

TEST(Engine, InlineRoundsMatchThreadedNoCombiner) {
  expect_inline_matches_threaded<Engine<SiteMsg>>("no combiner");
}

TEST(Engine, InlineRoundsMatchThreadedHashCombiner) {
  expect_inline_matches_threaded<Engine<SiteMsg, HashSiteCombiner>>(
      "hash combiner");
}

TEST(Engine, InlineRoundsMatchThreadedDenseCombiner) {
  expect_inline_matches_threaded<Engine<SiteMsg, DenseSiteCombiner>>(
      "dense-subkey combiner");
}

TEST(Engine, DeterministicAcrossRunsSameWorkerCount) {
  auto run_once = [] {
    const auto g = test::small_directed(31);
    EngineOptions opts = test::small_engine(4);
    Engine<double> e(g.num_vertices(), opts);
    std::vector<double> val(g.num_vertices(), 1.0);
    e.run(
        [&](auto& ctx, VertexId v, std::span<const double> msgs) {
          double sum = 0;
          for (double m : msgs) sum += m;
          if (ctx.superstep() > 0) val[v] = sum * 0.5 + 0.1;
          if (ctx.superstep() < 6) {
            for (auto u : g.out_neighbors(v)) ctx.send(u, val[v]);
          } else {
            ctx.vote_to_halt();
          }
        },
        20);
    return val;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bitwise equality
}

TEST(Engine, SingleWorkerWorks) {
  IntEngine e(5, test::small_engine(1));
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 5);
}

TEST(Engine, ManyWorkersMoreThanVertices) {
  IntEngine e(3, test::small_engine(8));
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 3);
}


TEST(Engine, CustomWireSizeTraitsDriveByteCounters) {
  struct TinyTraits {
    static std::size_t wire_size(const int&) { return 3; }
  };
  Engine<int, NoCombiner, TinyTraits> e(4, test::small_engine(1));
  e.step([](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(1, 42);
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].bytes_sent, 3u);
}

TEST(Engine, RunStatsSummaryMentionsTotals) {
  IntEngine e(4, test::small_engine(1));
  e.step([](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(1, 1);
    ctx.vote_to_halt();
  });
  const std::string s = e.stats().summary();
  EXPECT_NE(s.find("supersteps=1"), std::string::npos);
  EXPECT_NE(s.find("msgs=1"), std::string::npos);
}

TEST(Engine, DroppedMessagesRollUpInRunStats) {
  IntEngine e(3, test::small_engine(1));
  e.mark_deleted(2);
  e.step([](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(2, 1);
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().total_messages_dropped(), 1u);
  EXPECT_EQ(e.stats().total_messages_delivered(), 0u);
}

// A vertex that deletes itself from inside compute() while messages to it
// are already in flight: the messages must be dropped (and counted), the
// halt books must stay consistent, and the vertex must never run again —
// not even via activate_all().
TEST(Engine, MarkDeletedMidComputeDropsInFlightMessages) {
  IntEngine e(4, test::small_engine(2));
  std::atomic<int> runs_of_2{0};
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0 || v == 1) ctx.send(2, 7);  // in flight toward 2
    if (v == 2) {
      ++runs_of_2;
      e.mark_deleted(2);
      return;  // no vote_to_halt: deletion alone must settle the books
    }
    ctx.vote_to_halt();
  });
  EXPECT_EQ(e.stats().supersteps[0].messages_sent, 2u);
  EXPECT_EQ(e.stats().supersteps[0].messages_dropped, 2u);
  EXPECT_EQ(e.stats().supersteps[0].messages_delivered, 0u);
  EXPECT_TRUE(e.is_deleted(2));
  EXPECT_EQ(e.num_unhalted(), 0u);
  EXPECT_TRUE(e.done());  // dropped messages are not "pending"

  e.activate_all();
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ++ran;
    if (v == 2) ++runs_of_2;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 3);  // everyone but the deleted vertex
  EXPECT_EQ(runs_of_2.load(), 1);
  EXPECT_TRUE(e.done());
}

// Messages sent to a vertex *after* it deleted itself in the same
// superstep are dropped too: deletion is visible to the exchange phase
// regardless of compute ordering across workers.
TEST(Engine, MessagesToSelfDeletedVertexNeverWakeIt) {
  IntEngine e(2, test::small_engine(1));
  int runs_of_1 = 0;
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) {
      ctx.send(1, 1);
      ctx.vote_to_halt();
    } else {
      ++runs_of_1;
      e.mark_deleted(1);
    }
  });
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.stats().total_messages_dropped(), 1u);
  // Nothing left to run: the dropped message must not have reactivated 1.
  e.step([&](auto&, VertexId v, std::span<const int>) {
    if (v == 1) ++runs_of_1;
  });
  EXPECT_EQ(runs_of_1, 1);
}

// activate_all() must produce exactly one queue entry per live vertex,
// even when a vertex is already scheduled by a pending message delivery,
// and must leave deleted vertices out of the queue.
TEST(Engine, ActivateAllUnderWorkQueueNoDuplicateEntries) {
  const std::size_t n = 6;
  IntEngine e(n, test::small_engine(2));
  e.mark_deleted(5);
  // Superstep 0: vertex 0 messages vertex 1 (scheduling it for step 1),
  // everyone halts.
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(1, 1);
    ctx.vote_to_halt();
  });
  EXPECT_FALSE(e.done());
  // Vertex 1 is now both message-scheduled and re-activated here; it must
  // still run exactly once.
  e.activate_all();
  std::vector<std::atomic<int>> runs(n);
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ++runs[v];
    ctx.vote_to_halt();
  });
  for (std::size_t v = 0; v + 1 < n; ++v)
    EXPECT_EQ(runs[v].load(), 1) << "vertex " << v;
  EXPECT_EQ(runs[n - 1].load(), 0) << "deleted vertex must not be queued";
  EXPECT_TRUE(e.done());

  // Back-to-back activate_all() calls are idempotent.
  e.activate_all();
  e.activate_all();
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), static_cast<int>(n) - 1);
}

// Full fixpoint computation (min-label propagation) at the degenerate
// worker configurations: 1 worker and far more workers than vertices must
// both reach the reference answer computed at the default worker count.
TEST(Engine, FullComputationAtDegenerateWorkerCounts) {
  const auto g = test::small_undirected(123);
  auto run_with = [&](int workers) {
    EngineOptions opts = test::small_engine(workers);
    Engine<std::uint32_t> e(g.num_vertices(), opts);
    std::vector<std::uint32_t> comp(g.num_vertices());
    for (std::size_t v = 0; v < comp.size(); ++v)
      comp[v] = static_cast<std::uint32_t>(v);
    e.run([&](auto& ctx, VertexId v, std::span<const std::uint32_t> msgs) {
      std::uint32_t best = comp[v];
      for (auto m : msgs) best = std::min(best, m);
      const bool changed = best < comp[v];
      if (changed) comp[v] = best;
      if (ctx.superstep() == 0 || changed)
        for (auto u : g.neighbors(v)) ctx.send(u, comp[v]);
      ctx.vote_to_halt();
    });
    EXPECT_TRUE(e.done());
    return comp;
  };
  const auto reference = run_with(4);
  EXPECT_EQ(run_with(1), reference);
  const int many = static_cast<int>(g.num_vertices()) + 13;
  EXPECT_EQ(run_with(many), reference);
}

// An engine over zero vertices is legal: immediately done, and stepping /
// activate_all are harmless no-ops.
TEST(Engine, ZeroVertexEngine) {
  IntEngine e(0, test::small_engine(3));
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.num_unhalted(), 0u);
  std::atomic<int> ran{0};
  e.step([&](auto&, VertexId, std::span<const int>) { ++ran; });
  EXPECT_EQ(ran.load(), 0);
  e.activate_all();
  EXPECT_TRUE(e.done());
  const RunStats& stats =
      e.run([&](auto&, VertexId, std::span<const int>) { ++ran; }, 10);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(stats.total_messages_sent(), 0u);
}

// ---- capacity growth and frontier control (streaming epochs) -----------

TEST(Engine, GrowAddsHaltedVertices) {
  IntEngine e(4, test::small_engine());
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ctx.vote_to_halt();
  });
  ASSERT_TRUE(e.done());

  e.grow(7);
  // New ids exist but arrive halted: nothing runs until activated.
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.num_unhalted(), 0u);

  e.activate(6);
  std::vector<int> ran;
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ran.push_back(static_cast<int>(v));
    ctx.send(2, 99);  // old ids remain addressable
    ctx.vote_to_halt();
  });
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], 6);
  std::vector<int> got(7, -1);
  e.step([&](auto& ctx, VertexId v, std::span<const int> msgs) {
    got[v] = msgs.empty() ? 0 : msgs[0];
    ctx.vote_to_halt();
  });
  EXPECT_EQ(got[2], 99);
  EXPECT_TRUE(e.done());
}

TEST(Engine, GrowPreservesUnhaltedVertices) {
  IntEngine e(3, test::small_engine(2));
  // Vertex 1 stays active (does not vote to halt).
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v != 1) ctx.vote_to_halt();
  });
  ASSERT_EQ(e.num_unhalted(), 1u);
  e.grow(5);
  EXPECT_EQ(e.num_unhalted(), 1u);
  std::vector<int> ran;
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    ran.push_back(static_cast<int>(v));
    ctx.vote_to_halt();
  });
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], 1);
}

TEST(Engine, GrowKeepsDeletedVerticesDeleted) {
  IntEngine e(3, test::small_engine(1));
  e.mark_deleted(1);
  e.grow(6);
  EXPECT_TRUE(e.is_deleted(1));
  e.activate(1);  // silently refused, as before growth
  std::atomic<int> ran{0};
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ++ran;
    ctx.vote_to_halt();
  });
  EXPECT_EQ(ran.load(), 2);  // 0 and 2 (superstep zero runs non-deleted)
}

TEST(Engine, GrowRejectsShrinkAndInFlightMessages) {
  IntEngine e(4, test::small_engine(1));
  EXPECT_THROW(e.grow(3), CheckError);
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 0) ctx.send(1, 5);
    ctx.vote_to_halt();
  });
  // Message to vertex 1 is queued for the next superstep.
  EXPECT_THROW(e.grow(8), CheckError);
}

TEST(Engine, HaltAllThenActivateWakesExactFrontier) {
  IntEngine e(8, test::small_engine());
  e.halt_all();
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.num_unhalted(), 0u);
  e.activate(2);
  e.activate(5);
  std::vector<int> ran;
  std::mutex mu;
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    std::lock_guard<std::mutex> lk(mu);
    ran.push_back(static_cast<int>(v));
    ctx.vote_to_halt();
  });
  std::sort(ran.begin(), ran.end());
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], 2);
  EXPECT_EQ(ran[1], 5);
  EXPECT_TRUE(e.done());
}

// ---- the scheduling invariant (engine.h) --------------------------------

// Checks the invariant from outside through checkpoint(): every live
// vertex sits in its owner's queue exactly once, and everything else
// queued has been deleted.
void expect_queue_invariant(const IntEngine& e, const std::string& after) {
  SCOPED_TRACE("after " + after);
  const IntEngine::Checkpoint c = e.checkpoint();
  std::vector<int> seen(c.num_vertices, 0);
  for (std::size_t w = 0; w < c.queues.size(); ++w)
    for (const VertexId v : c.queues[w]) {
      ASSERT_LT(v, c.num_vertices);
      EXPECT_EQ(e.partition().owner(v), static_cast<int>(w));
      EXPECT_TRUE(!c.halted[v] || c.deleted[v])
          << "halted vertex " << v << " queued";
      ++seen[v];
    }
  for (VertexId v = 0; v < c.num_vertices; ++v) {
    EXPECT_LE(seen[v], 1) << "vertex " << v << " queued twice";
    if (!c.halted[v] && !c.deleted[v]) {
      EXPECT_EQ(seen[v], 1) << "live vertex " << v << " not queued";
    }
  }
}

std::size_t queued(const IntEngine& e) {
  std::size_t n = 0;
  for (const auto& q : e.checkpoint().queues) n += q.size();
  return n;
}

TEST(Engine, QueueInvariantHoldsAcrossEveryScheduleOperation) {
  IntEngine e(10, test::small_engine(3));
  expect_queue_invariant(e, "construction");
  EXPECT_EQ(queued(e), 10u);
  // Even vertices stay active, odd ones halt; 1 messages 2 (already
  // active, so it must not be queued a second time) and 7 (halted).
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v == 1) {
      ctx.send(2, 1);
      ctx.send(7, 1);
    }
    if (v % 2 == 1) ctx.vote_to_halt();
  });
  expect_queue_invariant(e, "step");
  EXPECT_EQ(queued(e), 6u);  // 0 2 4 6 8, and 7 woken by its message
  e.step([&](auto& ctx, VertexId, std::span<const int>) {
    ctx.vote_to_halt();
  });
  expect_queue_invariant(e, "second step");
  EXPECT_EQ(queued(e), 0u);
  e.activate(3);
  e.activate(3);
  expect_queue_invariant(e, "activate");
  EXPECT_EQ(queued(e), 1u);
  e.mark_deleted(3);
  e.mark_deleted(4);
  expect_queue_invariant(e, "mark_deleted");
  e.activate_all();
  expect_queue_invariant(e, "activate_all");
  EXPECT_EQ(e.num_unhalted(), 8u);

  e.halt_all();
  expect_queue_invariant(e, "halt_all");
  EXPECT_EQ(queued(e), 0u);
  EXPECT_EQ(e.num_unhalted(), 0u);
  for (VertexId v = 0; v < 10; ++v) EXPECT_TRUE(e.is_halted(v)) << v;
  EXPECT_TRUE(e.done());

  e.activate(5);
  e.grow(16);
  expect_queue_invariant(e, "grow");
  EXPECT_EQ(queued(e), 1u);
  e.activate(12);
  expect_queue_invariant(e, "activate after grow");

  IntEngine r(16, test::small_engine(3));
  r.restore(e.checkpoint());
  expect_queue_invariant(r, "restore");
  EXPECT_EQ(r.num_unhalted(), 2u);
  std::vector<int> ran;
  std::mutex mu;
  r.step([&](auto& ctx, VertexId v, std::span<const int>) {
    std::lock_guard<std::mutex> lk(mu);
    ran.push_back(static_cast<int>(v));
    ctx.vote_to_halt();
  });
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<int>{5, 12}));
}

/// Sums the log field by field, in superstep order.
SuperstepStats sum_of_log(const RunStats& s) {
  SuperstepStats t;
  for (const SuperstepStats& ss : s.supersteps) {
    t.messages_sent += ss.messages_sent;
    t.messages_delivered += ss.messages_delivered;
    t.messages_dropped += ss.messages_dropped;
    t.bytes_sent += ss.bytes_sent;
    t.bytes_delivered += ss.bytes_delivered;
    t.cross_machine_bytes += ss.cross_machine_bytes;
    t.active_vertices += ss.active_vertices;
    t.vertices_halted += ss.vertices_halted;
    t.vertices_woken += ss.vertices_woken;
    t.compute_seconds += ss.compute_seconds;
    t.exchange_seconds += ss.exchange_seconds;
    t.sim_comm_seconds += ss.sim_comm_seconds;
  }
  return t;
}

// The totals are the log's sums (timings bit for bit: same additions in
// the same order). A restore carries the totals and the superstep count
// but starts an empty log, and the restored run's totals end where an
// uninterrupted run's do.
TEST(Engine, RestoreContinuesTotalsAndRestartsTheLog) {
  // A token walks a 12-vertex ring twice; the other vertices halt.
  const auto walk = [](auto& ctx, VertexId v, std::span<const int> msgs) {
    const int hops = ctx.superstep() == 0 ? (v == 0 ? 1 : 0)
                     : msgs.empty()       ? 0
                                          : msgs[0] + 1;
    if (hops > 0 && hops <= 24) ctx.send((v + 1) % 12, hops);
    ctx.vote_to_halt();
  };
  IntEngine ref(12, test::small_engine(3));
  ref.run(walk);
  const RunStats& want = ref.stats();
  ASSERT_EQ(want.num_supersteps(), 25u);
  ASSERT_EQ(want.supersteps.size(), 25u);
  RunStats logged;
  logged.totals = sum_of_log(want);
  logged.steps = want.supersteps.size();
  EXPECT_EQ(dv::testing::totals_diff(want, logged), "");
  EXPECT_EQ(want.totals.compute_seconds, logged.totals.compute_seconds);
  EXPECT_EQ(want.totals.exchange_seconds, logged.totals.exchange_seconds);
  EXPECT_EQ(want.totals.sim_comm_seconds, logged.totals.sim_comm_seconds);
  EXPECT_EQ(want.total_messages_sent(), 24u);

  for (const std::size_t cut : {0u, 1u, 13u, 25u}) {
    const std::string who = "restored after " + std::to_string(cut);
    IntEngine e(12, test::small_engine(3));
    e.run(walk, cut);
    IntEngine r(12, test::small_engine(3));
    r.restore(e.checkpoint());
    EXPECT_EQ(r.superstep(), cut) << who;
    EXPECT_EQ(r.stats().num_supersteps(), cut) << who;
    EXPECT_TRUE(r.stats().supersteps.empty()) << who;
    EXPECT_EQ(dv::testing::totals_diff(r.stats(), e.stats()), "") << who;
    r.run(walk);
    EXPECT_EQ(r.stats().num_supersteps(), 25u) << who;
    EXPECT_EQ(r.stats().supersteps.size(), 25u - cut) << who;
    EXPECT_EQ(dv::testing::totals_diff(r.stats(), want), "") << who;
  }
}

TEST(Engine, RestoreRefusesCheckpointsThatBreakTheInvariant) {
  IntEngine e(8, test::small_engine(2));
  e.step([&](auto& ctx, VertexId v, std::span<const int>) {
    if (v >= 2) ctx.vote_to_halt();
  });
  const IntEngine::Checkpoint good = e.checkpoint();
  const auto expect_refused = [&](IntEngine::Checkpoint c,
                                  const std::string& why) {
    IntEngine r(8, test::small_engine(2));
    try {
      r.restore(std::move(c));
      ADD_FAILURE() << "restore accepted a checkpoint: " << why;
    } catch (const CheckError& err) {
      EXPECT_NE(std::string(err.what()).find(why), std::string::npos)
          << err.what();
    }
  };
  {
    IntEngine::Checkpoint c = good;  // vertex 0 live but unqueued
    for (auto& q : c.queues) std::erase(q, VertexId{0});
    expect_refused(std::move(c), "unqueued");
  }
  {
    IntEngine::Checkpoint c = good;  // vertex 5 woken but never queued
    c.halted[5] = 0;
    expect_refused(std::move(c), "unqueued");
  }
  {
    IntEngine::Checkpoint c = good;
    const int w = e.partition().owner(1);
    c.queues[static_cast<std::size_t>(w)].push_back(1);
    expect_refused(std::move(c), "twice");
  }
  {
    IntEngine::Checkpoint c = good;  // vertex 5 halted, yet queued
    const int w = e.partition().owner(5);
    c.queues[static_cast<std::size_t>(w)].push_back(5);
    expect_refused(std::move(c), "queues halted vertex");
  }
  {
    IntEngine::Checkpoint c = good;
    c.deleted[0] = 1;
    expect_refused(std::move(c), "unhalted");
  }
  IntEngine r(8, test::small_engine(2));
  r.restore(IntEngine::Checkpoint(good));  // control
  EXPECT_EQ(r.num_unhalted(), 2u);
}

// One run on both sides of the compute-order rule: superstep 0 queues
// every vertex (dense: an ascending scan), the BFS tail queues a few
// (sparse: queue order, which is delivery order). The 1-worker run pins
// both orders; every worker count must match the sequential oracle.
TEST(Engine, DenseScanThenSparseQueueMatchesOracle) {
  const VertexId n = 128;
  std::vector<std::vector<VertexId>> adj(n);
  adj[0] = {40, 20, 10};  // sent in this order: not ascending
  for (VertexId v = 10; v < 19; ++v) adj[v] = {v + 1};
  adj[20] = {21};
  adj[40] = {63, 41};
  // Superstep 2 queues 4 of 128 vertices, still under 1/16.
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> oracle(n, kInf);
  oracle[0] = 0;
  for (std::deque<VertexId> q{0}; !q.empty(); q.pop_front())
    for (const VertexId u : adj[q.front()])
      if (oracle[u] == kInf) {
        oracle[u] = oracle[q.front()] + 1;
        q.push_back(u);
      }

  for (const int workers : {1, 2, 3}) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    IntEngine e(n, test::small_engine(workers));
    std::vector<int> dist(n, kInf);
    std::vector<std::vector<VertexId>> order;  // per superstep, 1 worker
    e.run([&](auto& ctx, VertexId v, std::span<const int> msgs) {
      if (workers == 1) {
        if (order.size() <= ctx.superstep()) order.resize(ctx.superstep() + 1);
        order[ctx.superstep()].push_back(v);
      }
      int best = ctx.superstep() == 0 && v == 0 ? 0 : kInf;
      for (const int m : msgs) best = std::min(best, m);
      if (best < dist[v]) {
        dist[v] = best;
        for (const VertexId u : adj[v]) ctx.send(u, best + 1);
      }
      ctx.vote_to_halt();
    });
    EXPECT_EQ(dist, oracle);
    if (workers != 1) continue;
    ASSERT_GE(order.size(), 3u);
    ASSERT_EQ(order[0].size(), n);
    EXPECT_TRUE(std::is_sorted(order[0].begin(), order[0].end()));
    EXPECT_EQ(order[1], (std::vector<VertexId>{40, 20, 10}));
    EXPECT_EQ(order[2], (std::vector<VertexId>{63, 41, 21, 11}));
  }
}

}  // namespace
}  // namespace deltav::pregel
