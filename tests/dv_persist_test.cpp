// Session persistence: snapshot round-trips, mid-convergence resume, and
// fault detection (dv/persist/).
//
// The load-bearing assertion style here is *bit-exactness*: a restored
// session must match the uninterrupted one on every state word — user
// fields, memoized accumulators (aggAccum), the three-field ×/&&/||
// treatment (nnAcc / aggNulls), and last-sent Δ-message memos all live in
// the state vector — and must make the same warm/cold, blocker and
// compaction decisions with the same superstep/message counts when the
// stream continues. Fault tests require every torn or flipped snapshot to
// be rejected with persist::SnapshotError, never silently restored.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "dv/persist/fault.h"
#include "dv/persist/snapshot.h"
#include "dv/streaming/stream_session.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::streaming::DvStreamSession;
using dv::streaming::SessionEpoch;
using dv::streaming::SessionOptions;
using dv::streaming::make_stream_session;
using graph::MutationBatch;
using test::compile_dv;
using test::small_engine;

SessionOptions session_opts(dv::ExecTier tier = dv::ExecTier::kVm) {
  SessionOptions o;
  o.run.engine = small_engine();
  o.run.tier = tier;
  return o;
}

/// 6-vertex directed graph; vertices 0 and 1 (the absorbing-mass seeds of
/// the ×/&&/|| programs below) both feed vertex 3.
graph::CsrGraph absorbing_graph() {
  graph::GraphBuilder b(6, /*directed=*/true);
  b.add_edge(0, 3);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  b.add_edge(2, 4);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  return b.build();
}

bool bits_equal(const dv::Value& a, const dv::Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case dv::Type::kInt: return a.i == b.i;
    case dv::Type::kBool: return a.b == b.b;
    case dv::Type::kFloat:
      return std::bit_cast<std::uint64_t>(a.f) ==
             std::bit_cast<std::uint64_t>(b.f);
    default: return true;
  }
}

/// Whole state vector, bit for bit — internal accumulator fields included.
void expect_state_bits_equal(const dv::DvRunResult& got,
                             const dv::DvRunResult& want,
                             const std::string& context) {
  ASSERT_EQ(got.state.size(), want.state.size()) << context;
  for (std::size_t i = 0; i < want.state.size(); ++i)
    ASSERT_TRUE(bits_equal(got.state[i], want.state[i]))
        << context << ": state word " << i << " diverged";
}

void expect_epoch_equal(const SessionEpoch& got, const SessionEpoch& want,
                        const std::string& context) {
  EXPECT_EQ(got.warm, want.warm) << context;
  EXPECT_STREQ(got.blocker ? got.blocker : "<warm>",
               want.blocker ? want.blocker : "<warm>")
      << context;
  EXPECT_EQ(got.compacted, want.compacted) << context;
  EXPECT_EQ(got.stats.supersteps, want.stats.supersteps) << context;
  EXPECT_EQ(got.stats.messages, want.stats.messages) << context;
  EXPECT_EQ(got.stats.deltas_applied, want.stats.deltas_applied) << context;
  EXPECT_EQ(got.stats.woken, want.stats.woken) << context;
}

/// Reference trajectory, then a kill-point sweep: restore the epoch-k
/// snapshot and replay the remaining batches, requiring bit-identical
/// state and identical epoch decisions throughout.
void sweep_boundaries(const dv::CompiledProgram& cp,
                      const graph::CsrGraph& base,
                      const std::vector<MutationBatch>& batches,
                      const SessionOptions& opts,
                      const SessionOptions& restore_opts,
                      const std::string& context) {
  const auto ref = make_stream_session(cp, base, opts);
  ref->converge();
  std::vector<std::vector<std::uint8_t>> boundary{ref->save_bytes()};
  std::vector<dv::DvRunResult> ref_state{ref->result()};
  std::vector<SessionEpoch> ref_epochs;
  for (const MutationBatch& b : batches) {
    ref_epochs.push_back(ref->apply(b));
    boundary.push_back(ref->save_bytes());
    ref_state.push_back(ref->result());
  }

  for (std::size_t k = 0; k < boundary.size(); ++k) {
    const std::string who =
        context + ", restore at epoch " + std::to_string(k);
    const auto s =
        DvStreamSession::restore_bytes(cp, boundary[k], restore_opts);
    EXPECT_TRUE(s->converged()) << who;
    EXPECT_EQ(s->epoch(), k) << who;
    expect_state_bits_equal(s->result(), ref_state[k], who);
    for (std::size_t bi = k; bi < batches.size(); ++bi) {
      const SessionEpoch ep = s->apply(batches[bi]);
      const std::string tag =
          who + ", replayed epoch " + std::to_string(bi + 1);
      expect_epoch_equal(ep, ref_epochs[bi], tag);
      expect_state_bits_equal(s->result(), ref_state[bi + 1], tag);
    }
  }
}

// ------------------------------------------- six-operator battery

struct OpCase {
  const char* name;
  const char* source;
  bool removals_ok;  // min/max cannot retract; use insert-only streams
};

const OpCase kOpCases[] = {
    {"sum", R"(
init { local mass : float = 0.5 + vertexId; local out : float = 0.0 };
iter i { out = + [ u.mass | u <- #in ] } until { i >= 1 }
)",
     true},
    {"prod", R"(
init {
  local mass : float = if vertexId < 2 then 0.0
                       else 1.0 + 1.0 / (2.0 + vertexId);
  local out : float = 1.0
};
iter i { out = * [ u.mass | u <- #in ] } until { i >= 1 }
)",
     true},
    {"and", R"(
init { local mass : bool = vertexId >= 2; local out : bool = true };
iter i { out = && [ u.mass | u <- #in ] } until { i >= 1 }
)",
     true},
    {"or", R"(
init { local mass : bool = vertexId < 2; local out : bool = false };
iter i { out = || [ u.mass | u <- #in ] } until { i >= 1 }
)",
     true},
    {"min", R"(
init { local mass : float = 0.5 + vertexId; local out : float = infty };
iter i { out = min [ u.mass | u <- #in ] } until { i >= 1 }
)",
     false},
    {"max", R"(
init { local mass : int = vertexId; local out : int = 0 };
iter i { out = max [ u.mass | u <- #in ] } until { i >= 1 }
)",
     false},
};

/// For the retractable operators, the stream walks vertex 3's accumulator
/// through the §6.4.1 absorbing-element transitions: batch 1 removes one
/// of its two absorbing contributors (null count 2 → 1, still absorbed),
/// batch 2 removes the other (1 → 0: the memoized non-null accumulator
/// surfaces) and gives vertex 4 a *new* absorbing contributor (0 → 1).
std::vector<MutationBatch> stream_for(const OpCase& oc) {
  std::vector<MutationBatch> batches(2);
  if (oc.removals_ok) {
    batches[0].remove_edge(0, 3);
    batches[1].remove_edge(1, 3);
    batches[1].insert_edge(0, 4);
  } else {
    batches[0].insert_edge(0, 4);
    batches[0].insert_edge(5, 3);
    batches[1].insert_edge(1, 4);
  }
  return batches;
}

TEST(PersistRoundTrip, SixOpsAbsorbingTransitionsBothTiers) {
  for (const OpCase& oc : kOpCases) {
    const auto cp = compile_dv(oc.source);
    const graph::CsrGraph base = absorbing_graph();
    const auto batches = stream_for(oc);
    for (const dv::ExecTier tier :
         {dv::ExecTier::kVm, dv::ExecTier::kTree}) {
      sweep_boundaries(cp, base, batches, session_opts(tier),
                       session_opts(tier),
                       std::string(oc.name) + "/" +
                           dv::exec_tier_name(tier));
    }
    // Cross-tier: a VM-written snapshot restores onto the tree
    // interpreter (tiers are bit-identical by contract).
    sweep_boundaries(cp, base, batches, session_opts(dv::ExecTier::kVm),
                     session_opts(dv::ExecTier::kTree),
                     std::string(oc.name) + "/vm-to-tree");
  }
}

TEST(PersistRoundTrip, FileSaveRestore) {
  const auto cp = compile_dv(kOpCases[0].source);
  const std::string path = ::testing::TempDir() + "dv_persist_rt.snap";
  const auto s = make_stream_session(cp, absorbing_graph(), session_opts());
  s->converge();
  MutationBatch b;
  b.insert_edge(5, 3);
  s->apply(b);
  s->save(path);
  const auto r = DvStreamSession::restore(cp, path, session_opts());
  EXPECT_EQ(r->epoch(), 1u);
  expect_state_bits_equal(r->result(), s->result(), "file round-trip");
  std::remove(path.c_str());
}

TEST(PersistRoundTrip, FactoryMatchesDirectConstruction) {
  const auto cp = compile_dv(kOpCases[0].source);
  const auto a = make_stream_session(cp, absorbing_graph(), session_opts());
  DvStreamSession b(cp, absorbing_graph(), session_opts());
  a->converge();
  b.converge();
  expect_state_bits_equal(a->result(), b.result(), "factory vs direct");
}

// ------------------------------------------- mid-convergence resume

/// Damped feedback recurrence: convergence takes `bound` body supersteps,
/// giving checkpoint_every=1 several distinct mid-run kill-points.
constexpr const char* kFeedback = R"(
init { local rank : float = 1.0 };
iter i {
  let s : float = + [ u.rank | u <- #in ] in
  rank = 0.15 + 0.85 * (s / graphSize)
} until { i >= 6 }
)";

TEST(PersistResume, MidConvergeResumeMatchesUninterrupted) {
  const auto cp = compile_dv(kFeedback);
  std::vector<std::vector<std::uint8_t>> mid;
  SessionOptions so = session_opts();
  so.checkpoint_every = 1;
  so.checkpoint_sink = [&mid](const std::vector<std::uint8_t>& b) {
    mid.push_back(b);
  };
  const auto ref = make_stream_session(cp, absorbing_graph(), so);
  const dv::DvRunResult done = ref->converge();
  ASSERT_GE(mid.size(), 3u) << "expected several mid-run checkpoints";

  for (std::size_t i = 0; i < mid.size(); ++i) {
    const std::string who = "mid-run checkpoint " + std::to_string(i);
    const auto s =
        DvStreamSession::restore_bytes(cp, mid[i], session_opts());
    EXPECT_FALSE(s->converged()) << who;
    EXPECT_EQ(s->epoch(), 0u) << who;
    const dv::DvRunResult r = s->converge();
    EXPECT_TRUE(s->converged()) << who;
    // The resumed run's cumulative counters continue the saved history:
    // totals match an uninterrupted run exactly.
    EXPECT_EQ(r.supersteps, done.supersteps) << who;
    EXPECT_EQ(r.stats.total_messages_sent(), done.stats.total_messages_sent())
        << who;
    expect_state_bits_equal(r, done, who);
  }
}

TEST(PersistResume, MidColdEpochResumeReplaysCompactionAndStream) {
  // The feedback recurrence is warm-blocked (its iteration bound is
  // semantic), so each apply() rebuilds cold — and with
  // checkpoint_every=1 the rebuild emits mid-run kill-points *inside
  // epoch 1*.
  const auto cp = compile_dv(kFeedback);
  std::vector<std::vector<std::uint8_t>> mid;
  SessionOptions so = session_opts();
  so.checkpoint_every = 1;
  so.checkpoint_sink = [&mid](const std::vector<std::uint8_t>& b) {
    mid.push_back(b);
  };
  const auto ref = make_stream_session(cp, absorbing_graph(), so);
  ref->converge();
  mid.clear();  // keep only epoch-1 checkpoints

  MutationBatch b1;
  b1.remove_edge(0, 3);
  const SessionEpoch e1 = ref->apply(b1);
  EXPECT_FALSE(e1.warm);
  const std::vector<std::vector<std::uint8_t>> mid_e1 = mid;  // epoch 1 only
  ASSERT_FALSE(mid_e1.empty()) << "cold rebuild produced no checkpoints";

  MutationBatch b2;
  b2.remove_edge(1, 3);
  const SessionEpoch e2 = ref->apply(b2);

  for (std::size_t i = 0; i < mid_e1.size(); ++i) {
    const std::string who =
        "epoch-1 mid-run checkpoint " + std::to_string(i);
    const auto s =
        DvStreamSession::restore_bytes(cp, mid_e1[i], session_opts());
    EXPECT_FALSE(s->converged()) << who;
    EXPECT_EQ(s->epoch(), 1u) << who;
    s->converge();
    const SessionEpoch ep = s->apply(b2);
    expect_epoch_equal(ep, e2, who);
    expect_state_bits_equal(s->result(), ref->result(), who);
  }
}

TEST(PersistResume, ApplyOnUnresumedSnapshotIsRefused) {
  const auto cp = compile_dv(kFeedback);
  std::vector<std::vector<std::uint8_t>> mid;
  SessionOptions so = session_opts();
  so.checkpoint_every = 1;
  so.checkpoint_sink = [&mid](const std::vector<std::uint8_t>& b) {
    mid.push_back(b);
  };
  make_stream_session(cp, absorbing_graph(), so)->converge();
  ASSERT_FALSE(mid.empty());
  const auto s =
      DvStreamSession::restore_bytes(cp, mid.front(), session_opts());
  MutationBatch b;
  b.insert_edge(0, 4);
  EXPECT_THROW(s->apply(b), CheckError);
}

TEST(PersistResume, CheckpointPathWritesRestorableFile) {
  const auto cp = compile_dv(kFeedback);
  const std::string path = ::testing::TempDir() + "dv_persist_ckpt.snap";
  SessionOptions so = session_opts();
  so.checkpoint_every = 2;
  so.checkpoint_path = path;
  const auto ref = make_stream_session(cp, absorbing_graph(), so);
  const dv::DvRunResult done = ref->converge();

  const auto s = DvStreamSession::restore(cp, path, session_opts());
  EXPECT_FALSE(s->converged());
  const dv::DvRunResult r = s->converge();
  EXPECT_EQ(r.supersteps, done.supersteps);
  expect_state_bits_equal(r, done, "checkpoint file resume");
  std::remove(path.c_str());
}

// ------------------------------------------- fault injection

std::vector<std::uint8_t> small_snapshot(const dv::CompiledProgram& cp) {
  const auto s = make_stream_session(cp, absorbing_graph(), session_opts());
  s->converge();
  return s->save_bytes();
}

TEST(PersistFault, EveryTruncationDetected) {
  const auto cp = compile_dv(kOpCases[0].source);
  const std::vector<std::uint8_t> good = small_snapshot(cp);
  // Sanity: the pristine bytes restore.
  (void)DvStreamSession::restore_bytes(cp, good, session_opts());
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const auto bad = dv::persist::apply_fault(
        good, dv::persist::FaultPlan::truncate_at(cut));
    EXPECT_THROW((void)DvStreamSession::restore_bytes(cp, bad,
                                                      session_opts()),
                 dv::persist::SnapshotError)
        << "torn snapshot (" << cut << "/" << good.size()
        << " bytes) restored without an error";
  }
}

TEST(PersistFault, EveryByteFlipDetected) {
  const auto cp = compile_dv(kOpCases[0].source);
  const std::vector<std::uint8_t> good = small_snapshot(cp);
  for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
    for (std::size_t at = 0; at < good.size(); ++at) {
      const auto bad = dv::persist::apply_fault(
          good, dv::persist::FaultPlan::flip_byte(at, mask));
      EXPECT_THROW((void)DvStreamSession::restore_bytes(cp, bad,
                                                        session_opts()),
                   dv::persist::SnapshotError)
          << "flip at byte " << at << " mask " << int(mask)
          << " restored without an error";
    }
  }
}

TEST(PersistFault, TrailingGarbageRejected) {
  const auto cp = compile_dv(kOpCases[0].source);
  std::vector<std::uint8_t> bad = small_snapshot(cp);
  bad.push_back(0);
  EXPECT_THROW(
      (void)DvStreamSession::restore_bytes(cp, bad, session_opts()),
      dv::persist::SnapshotError);
}

TEST(PersistFault, MismatchedProgramRejected) {
  const auto cp = compile_dv(kOpCases[0].source);
  const std::vector<std::uint8_t> bytes = small_snapshot(cp);
  const auto other = compile_dv(kOpCases[5].source);
  try {
    (void)DvStreamSession::restore_bytes(other, bytes, session_opts());
    FAIL() << "restore under a different program succeeded";
  } catch (const dv::persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("different compiled program"),
              std::string::npos)
        << e.what();
  }
}

TEST(PersistFault, MismatchedEngineConfigRejected) {
  const auto cp = compile_dv(kOpCases[0].source);
  const std::vector<std::uint8_t> bytes = small_snapshot(cp);

  SessionOptions workers = session_opts();
  workers.run.engine.num_workers += 1;
  EXPECT_THROW((void)DvStreamSession::restore_bytes(cp, bytes, workers),
               dv::persist::SnapshotError);

  SessionOptions partition = session_opts();
  partition.run.engine.partition =
      partition.run.engine.partition == pregel::PartitionScheme::kBlock
          ? pregel::PartitionScheme::kHash
          : pregel::PartitionScheme::kBlock;
  EXPECT_THROW((void)DvStreamSession::restore_bytes(cp, bytes, partition),
               dv::persist::SnapshotError);

  SessionOptions params = session_opts();
  params.run.params["ghost"] = dv::Value::of_int(7);
  EXPECT_THROW((void)DvStreamSession::restore_bytes(cp, bytes, params),
               dv::persist::SnapshotError);
}

/// Recomputes every frame CRC and the end marker's file CRC, so a test can
/// plant a payload inconsistency that the checksums no longer catch.
void reseal(std::vector<std::uint8_t>& b) {
  std::size_t off = 8;  // past the magic
  while (off < b.size()) {
    std::uint32_t tag;
    std::uint64_t len;
    std::memcpy(&tag, b.data() + off, 4);
    std::memcpy(&len, b.data() + off + 4, 8);
    const std::size_t frame = 12 + static_cast<std::size_t>(len);
    if (tag == dv::persist::kSecEnd) {
      const std::uint32_t file_crc = dv::persist::crc32(b.data(), off);
      std::memcpy(b.data() + off + 12 + 8, &file_crc, 4);
    }
    const std::uint32_t crc = dv::persist::crc32(b.data() + off, frame);
    std::memcpy(b.data() + off + frame, &crc, 4);
    off += frame + 4;
  }
}

/// Offset of the first payload byte of the section tagged `tag`.
std::size_t section_begin(const std::vector<std::uint8_t>& b,
                          std::uint32_t tag) {
  std::size_t off = 8;
  while (off < b.size()) {
    std::uint32_t t;
    std::uint64_t len;
    std::memcpy(&t, b.data() + off, 4);
    std::memcpy(&len, b.data() + off + 4, 8);
    if (t == tag) return off + 12;
    off += 16 + static_cast<std::size_t>(len);
  }
  ADD_FAILURE() << "section not found";
  return 0;
}

/// Offset one past the payload of the section tagged `tag`.
std::size_t section_end(const std::vector<std::uint8_t>& b,
                        std::uint32_t tag) {
  const std::size_t at = section_begin(b, tag);
  if (at == 0) return 0;  // not found (already reported)
  std::uint64_t len;
  std::memcpy(&len, b.data() + at - 8, 8);
  return at + static_cast<std::size_t>(len);
}

TEST(PersistFault, StatsHistoryOverrunRejected) {
  // The engine section ends with the per-superstep stats history: a u64
  // count, then 96 bytes per superstep. A count far past the section end
  // (its byte size even wraps 64 bits) must be refused by name before
  // anything is sized from it — a bad_alloc or length_error here would
  // mean the history was allocated first.
  const auto cp = compile_dv(kFeedback);
  const auto s = make_stream_session(cp, absorbing_graph(), session_opts());
  s->converge();
  std::vector<std::uint8_t> bytes = s->save_bytes();
  const std::size_t steps = s->result().stats.supersteps.size();
  ASSERT_GT(steps, 0u);
  const std::size_t at =
      section_end(bytes, dv::persist::kSecEngine) - steps * 96 - 8;
  std::uint64_t count;
  std::memcpy(&count, bytes.data() + at, 8);
  ASSERT_EQ(count, steps) << "stats history not where the layout puts it";

  reseal(bytes);  // control: resealing alone changes nothing
  (void)DvStreamSession::restore_bytes(cp, bytes, session_opts());

  count = std::uint64_t{1} << 59;
  std::memcpy(bytes.data() + at, &count, 8);
  reseal(bytes);
  try {
    (void)DvStreamSession::restore_bytes(cp, bytes, session_opts());
    FAIL() << "overrunning stats history restored";
  } catch (const dv::persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'ENGN'"), std::string::npos)
        << e.what();
  }
}

TEST(PersistFault, UnqueuedLiveVertexRejected) {
  // The engine section opens with the superstep (u64), then the halted
  // and deleted flag arrays (u64 count + one byte per vertex). A halted,
  // undeleted vertex is never queued, so clearing its halted byte plants
  // a live vertex that no work queue holds. It would never compute;
  // restore must refuse the checkpoint by name instead.
  const auto cp = compile_dv(kFeedback);
  const auto s = make_stream_session(cp, absorbing_graph(), session_opts());
  s->converge();
  std::vector<std::uint8_t> bytes = s->save_bytes();
  const std::size_t at = section_begin(bytes, dv::persist::kSecEngine) + 8;
  std::uint64_t n;
  std::memcpy(&n, bytes.data() + at, 8);
  ASSERT_EQ(n, 6u) << "halted flags not where the layout puts them";
  const std::uint8_t* halted = bytes.data() + at + 8;
  const std::uint8_t* deleted = halted + n + 8;
  std::size_t v = 0;
  while (v < n && !(halted[v] && !deleted[v])) ++v;
  ASSERT_LT(v, n) << "no halted vertex to wake";
  bytes[at + 8 + v] = 0;
  reseal(bytes);
  try {
    (void)DvStreamSession::restore_bytes(cp, bytes, session_opts());
    FAIL() << "a live vertex outside every work queue restored";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unqueued"), std::string::npos)
        << e.what();
  }
}

TEST(PersistFault, MissingFileThrows) {
  const auto cp = compile_dv(kOpCases[0].source);
  EXPECT_THROW((void)DvStreamSession::restore(
                   cp, ::testing::TempDir() + "dv_persist_nope.snap",
                   session_opts()),
               dv::persist::SnapshotError);
}

// ------------------------------------------- codec

/// Bit-at-a-time CRC-32: the definition the table-driven code must match.
std::uint32_t crc32_reference(const std::uint8_t* p, std::size_t n,
                              std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ 0xedb88320u : c >> 1;
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(PersistCodec, Crc32KnownAnswers) {
  using dv::persist::crc32;
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
  // Every length around the 16-byte stride, at every alignment, from a
  // zero and a running seed.
  const std::vector<std::uint8_t> buf = random_bytes(64, 3);
  for (std::size_t align = 0; align < 4; ++align)
    for (std::size_t len = 0; len <= 40; ++len)
      for (const std::uint32_t seed : {0u, 0x9e3779b9u}) {
        const std::uint8_t* p = buf.data() + align;
        EXPECT_EQ(crc32(p, len, seed), crc32_reference(p, len, seed))
            << "len " << len << " align " << align << " seed " << seed;
      }
}

TEST(PersistCodec, Crc32CombineMatchesConcatenation) {
  using dv::persist::crc32;
  using dv::persist::crc32_combine;
  const std::vector<std::uint8_t> buf = random_bytes(300, 5);
  std::mt19937 rng(7);
  std::vector<std::size_t> cuts = {0, 1, 15, 16, 17, buf.size()};
  for (int i = 0; i < 50; ++i) cuts.push_back(rng() % (buf.size() + 1));
  for (const std::size_t cut : cuts) {
    const std::uint32_t a = crc32(buf.data(), cut);
    const std::uint32_t b = crc32(buf.data() + cut, buf.size() - cut);
    EXPECT_EQ(crc32_combine(a, b, buf.size() - cut),
              crc32(buf.data(), buf.size()))
        << "cut at " << cut;
  }
  // A long second half exercises the high bits of the length.
  const std::vector<std::uint8_t> big = random_bytes(1 << 20, 9);
  EXPECT_EQ(crc32_combine(crc32(buf.data(), buf.size()),
                          crc32(big.data(), big.size()), big.size()),
            crc32(big.data(), big.size(), crc32(buf.data(), buf.size())));
}

/// One writer sequence over every primitive, pinned to the DVSNAP01 bytes
/// it must produce (an independent zlib/struct encoder agrees). Any codec
/// change that moves a byte here breaks snapshots across builds.
const std::uint8_t kGoldenSnapshot[] = {
    0x44, 0x56, 0x53, 0x4e, 0x41, 0x50, 0x30, 0x31, 0x4d, 0x45, 0x54, 0x41,
    0x57, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa5, 0x01, 0xef, 0xbe,
    0xad, 0xde, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0xfe, 0xff,
    0xff, 0xff, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x23, 0x01, 0x00, 0x00, 0x00, 0x00,
    0xf8, 0x7f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0xf9,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x80, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x76, 0xdb,
    0x9a, 0xe5, 0x9e, 0x47, 0x52, 0x50, 0x48, 0x43, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff,
    0xff, 0xff, 0x07, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x7a, 0x13,
    0xff, 0x87, 0x45, 0x4e, 0x44, 0x21, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0xc2, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x91, 0xfb,
    0xfd, 0x81, 0xd2, 0xb8, 0x13, 0xf3,
};

constexpr std::uint64_t kNanBits = 0x7ff8000000000123ull;

TEST(PersistCodec, GoldenBytesPinFormat) {
  namespace ps = dv::persist;
  ps::SnapshotWriter w;
  w.begin_section(ps::kSecMeta);
  w.put_u8(0xa5);
  w.put_bool(true);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_i32(-2);
  w.put_i64(-3);
  w.put_f64(-0.0);
  w.put_f64(std::bit_cast<double>(kNanBits));
  w.put_f64(1.5);
  w.put_value(dv::Value::of_int(-7));
  w.put_value(dv::Value::of_float(-0.0));
  w.put_value(dv::Value::of_bool(true));
  w.put_string("dv");
  w.end_section();
  w.begin_section(ps::kSecGraph);
  w.put_u8_vec({1, 2, 3});
  w.put_u32_vec({});
  w.put_u64_vec({std::uint64_t{1} << 40});
  w.put_i32_vec({-1, 7});
  w.put_f64_vec({0.5});
  w.end_section();
  w.finish();

  const std::vector<std::uint8_t> golden(std::begin(kGoldenSnapshot),
                                         std::end(kGoldenSnapshot));
  ASSERT_EQ(w.bytes(), golden);
  std::uint32_t file_crc;
  std::memcpy(&file_crc, golden.data() + golden.size() - 8, 4);
  EXPECT_EQ(file_crc, 0x81fdfb91u);

  ps::SnapshotReader r(golden);
  r.open(ps::kSecMeta);
  EXPECT_EQ(r.get_u8(), 0xa5);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -2);
  EXPECT_EQ(r.get_i64(), -3);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.get_f64()), kNanBits);
  EXPECT_EQ(r.get_f64(), 1.5);
  EXPECT_TRUE(bits_equal(r.get_value(), dv::Value::of_int(-7)));
  EXPECT_TRUE(bits_equal(r.get_value(), dv::Value::of_float(-0.0)));
  EXPECT_TRUE(bits_equal(r.get_value(), dv::Value::of_bool(true)));
  EXPECT_EQ(r.get_string(), "dv");
  r.close();
  r.open(ps::kSecGraph);
  EXPECT_EQ(r.get_u8_vec(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.get_u32_vec().empty());
  EXPECT_EQ(r.get_u64_vec(),
            (std::vector<std::uint64_t>{std::uint64_t{1} << 40}));
  EXPECT_EQ(r.get_i32_vec(), (std::vector<std::int32_t>{-1, 7}));
  EXPECT_EQ(r.get_f64_vec(), (std::vector<double>{0.5}));
  r.close();
  r.finish();
}

}  // namespace
}  // namespace deltav
