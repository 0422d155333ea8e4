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
#include <string_view>
#include <vector>

#include "common/check.h"
#include "dv/obs/obs.h"
#include "dv/persist/fault.h"
#include "dv/persist/snapshot.h"
#include "dv/programs/programs.h"
#include "dv/streaming/stream_session.h"
#include "dv/testing/persist_check.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::streaming::DvStreamSession;
using dv::streaming::SessionEpoch;
using dv::streaming::SessionOptions;
using dv::streaming::make_stream_session;
using dv::testing::totals_diff;
using graph::MutationBatch;
using test::compile_dv;
using test::runnable_tiers;
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
    EXPECT_EQ(totals_diff(s->result().stats, ref_state[k].stats), "") << who;
    for (std::size_t bi = k; bi < batches.size(); ++bi) {
      const SessionEpoch ep = s->apply(batches[bi]);
      const std::string tag =
          who + ", replayed epoch " + std::to_string(bi + 1);
      expect_epoch_equal(ep, ref_epochs[bi], tag);
      const dv::DvRunResult got = s->result();
      expect_state_bits_equal(got, ref_state[bi + 1], tag);
      EXPECT_EQ(totals_diff(got.stats, ref_state[bi + 1].stats), "") << tag;
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

/// The one event named `name` on lane 0 (its name pointer may differ
/// from the literal's, so compare text).
obs::TraceEvent only_event(const obs::Collector& col, const char* name) {
  std::vector<obs::TraceEvent> hits;
  for (const obs::TraceEvent& e : col.trace.events(0))
    if (std::string_view(e.name) == name) hits.push_back(e);
  EXPECT_EQ(hits.size(), 1u) << name;
  return hits.empty() ? obs::TraceEvent{} : hits.front();
}

bool contains(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return outer.start_us <= inner.start_us &&
         inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us;
}

TEST(PersistRoundTrip, FileIoHasItsOwnSpans) {
  // A file save nests persist.write_file under persist.save, and a file
  // restore persist.read_file under persist.restore, so the parents'
  // self time is the codec alone.
  const auto cp = compile_dv(kOpCases[0].source);
  const std::string path = ::testing::TempDir() + "dv_persist_spans.snap";
  obs::Collector col;  // a lane per engine worker
  SessionOptions so = session_opts();
  so.run.collector = &col;
  const auto s = make_stream_session(cp, absorbing_graph(), so);
  s->converge();
  s->save(path);
  (void)DvStreamSession::restore(cp, path, so);
  std::remove(path.c_str());
  EXPECT_TRUE(contains(only_event(col, "persist.save"),
                       only_event(col, "persist.write_file")));
  EXPECT_TRUE(contains(only_event(col, "persist.restore"),
                       only_event(col, "persist.read_file")));
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

  // Every checkpoint resumes on every tier (the VM wrote them all).
  for (const dv::ExecTier tier : runnable_tiers())
    for (std::size_t i = 0; i < mid.size(); ++i) {
      const std::string who = std::string(dv::exec_tier_name(tier)) +
                              ", mid-run checkpoint " + std::to_string(i);
      const auto s =
          DvStreamSession::restore_bytes(cp, mid[i], session_opts(tier));
      EXPECT_FALSE(s->converged()) << who;
      EXPECT_EQ(s->epoch(), 0u) << who;
      const dv::DvRunResult r = s->converge();
      EXPECT_TRUE(s->converged()) << who;
      // The resumed run's counters continue the saved totals: they match
      // an uninterrupted run exactly, while the per-superstep log holds
      // only the supersteps run since the restore.
      EXPECT_EQ(r.supersteps, done.supersteps) << who;
      EXPECT_EQ(totals_diff(r.stats, done.stats), "") << who;
      EXPECT_LT(r.stats.supersteps.size(), done.stats.supersteps.size())
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

/// Recomputes every frame CRC and the end marker's size word and file
/// CRC, so a test can plant a payload inconsistency that the checksums no
/// longer catch.
void reseal(std::vector<std::uint8_t>& b) {
  std::size_t off = 8;  // past the magic
  while (off < b.size()) {
    std::uint32_t tag;
    std::uint64_t len;
    std::memcpy(&tag, b.data() + off, 4);
    std::memcpy(&len, b.data() + off + 4, 8);
    const std::size_t frame = 12 + static_cast<std::size_t>(len);
    if (tag == dv::persist::kSecEnd) {
      const std::uint64_t before = off;
      std::memcpy(b.data() + off + 12, &before, 8);
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

/// Inserts (grow > 0) or erases (grow < 0) bytes at the end of the
/// payload of the section tagged `tag`, fixing its length word; the
/// caller reseals.
void resize_section_tail(std::vector<std::uint8_t>& b, std::uint32_t tag,
                         std::ptrdiff_t grow) {
  const std::size_t begin = section_begin(b, tag);
  const std::size_t end = section_end(b, tag);
  if (grow > 0)
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(end),
             static_cast<std::size_t>(grow), std::uint8_t{0});
  else
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(end) + grow,
            b.begin() + static_cast<std::ptrdiff_t>(end));
  const std::uint64_t len = end - begin + static_cast<std::uint64_t>(grow);
  std::memcpy(b.data() + begin - 8, &len, 8);
}

/// Expects restore to throw a SnapshotError whose message holds `needle`.
void expect_refused(const dv::CompiledProgram& cp,
                    const std::vector<std::uint8_t>& bytes,
                    const std::string& needle, const std::string& who) {
  try {
    (void)DvStreamSession::restore_bytes(cp, bytes, session_opts());
    ADD_FAILURE() << who << ": restored";
  } catch (const dv::persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << who << ": " << e.what();
  }
}

TEST(PersistFault, StatsTotalsRecordDamagedRejected) {
  // The engine section ends with the stats totals: a u64 length, then a
  // 96-byte record (nine u64 counters, three f64 timings). A record of
  // any other length must be refused by name, and a length past the
  // section end before anything reads or sizes from it — a bad_alloc or
  // length_error here would mean something was.
  const auto cp = compile_dv(kFeedback);
  const auto s = make_stream_session(cp, absorbing_graph(), session_opts());
  s->converge();
  std::vector<std::uint8_t> good = s->save_bytes();
  const std::size_t at = section_end(good, dv::persist::kSecEngine) - 96 - 8;
  const auto length_at = [&](const std::vector<std::uint8_t>& b) {
    std::uint64_t len;
    std::memcpy(&len, b.data() + at, 8);
    return len;
  };
  const auto set_length = [&](std::vector<std::uint8_t>& b,
                              std::uint64_t len) {
    std::memcpy(b.data() + at, &len, 8);
  };
  ASSERT_EQ(length_at(good), 96u) << "totals record not where the layout "
                                     "puts it";
  std::uint64_t sent;
  std::memcpy(&sent, good.data() + at + 8, 8);
  EXPECT_EQ(sent, s->result().stats.total_messages_sent())
      << "the record does not open with messages_sent";

  reseal(good);  // control: resealing alone changes nothing
  (void)DvStreamSession::restore_bytes(cp, good, session_opts());

  {
    std::vector<std::uint8_t> b = good;  // short: 88 bytes, 88 declared
    resize_section_tail(b, dv::persist::kSecEngine, -8);
    set_length(b, 88);
    reseal(b);
    expect_refused(cp, b, "'ENGN' holds a 88-byte stats totals record",
                   "short record");
  }
  {
    std::vector<std::uint8_t> b = good;  // overlong: 104 bytes declared
    resize_section_tail(b, dv::persist::kSecEngine, 8);
    set_length(b, 104);
    reseal(b);
    expect_refused(cp, b, "'ENGN' holds a 104-byte stats totals record",
                   "overlong record");
  }
  {
    std::vector<std::uint8_t> b = good;  // 88 declared, 8 bytes left over
    set_length(b, 88);
    reseal(b);
    expect_refused(cp, b, "'ENGN' holds a 88-byte", "short length");
  }
  for (const std::uint64_t len :
       {std::uint64_t{104}, std::uint64_t{1} << 59, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> b = good;  // declared past the section end
    set_length(b, len);
    reseal(b);
    expect_refused(cp, b, "'ENGN' declares an oversized vector",
                   "length " + std::to_string(len));
  }
  {
    std::vector<std::uint8_t> b = good;  // record cut short, length intact
    resize_section_tail(b, dv::persist::kSecEngine, -8);
    reseal(b);
    expect_refused(cp, b, "'ENGN'", "truncated record");
  }
}

TEST(PersistFault, OldFormatVersionRefusedByName) {
  // The meta section opens with the u32 format version. Version 4 ended
  // the engine section with the per-superstep history; this build must
  // refuse such a file by its version, not misparse it.
  const auto cp = compile_dv(kOpCases[0].source);
  std::vector<std::uint8_t> bytes = small_snapshot(cp);
  const std::size_t at = section_begin(bytes, dv::persist::kSecMeta);
  std::uint32_t version;
  std::memcpy(&version, bytes.data() + at, 4);
  ASSERT_EQ(version, 5u) << "format version not where the layout puts it";
  version = 4;
  std::memcpy(bytes.data() + at, &version, 4);
  reseal(bytes);
  expect_refused(cp, bytes,
                 "snapshot format version 4, this build reads version 5",
                 "v4 snapshot");
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

// ------------------------------------------- size vs uptime

TEST(PersistSize, EngineSectionDoesNotGrowWithEpochs) {
  // A retraction-memo SSSP session on a fixed graph: each pair of warm
  // epochs deletes a shortcut arc and puts it back. The engine section
  // holds per-vertex flags, queues, pending messages and one stats totals
  // record, and the runner section per-vertex state and one iteration
  // count per statement, so after any even number of epochs each has the
  // same length.
  graph::GraphBuilder gb(32, /*directed=*/true);
  gb.keep_weights(true);
  for (graph::VertexId v = 0; v + 1 < 32; ++v) gb.add_edge(v, v + 1, 1.0);
  for (graph::VertexId v = 0; v + 3 < 32; v += 2) gb.add_edge(v, v + 3, 2.5);
  const auto cp = compile_dv(dv::programs::kSsspRetract);
  SessionOptions so = session_opts();
  so.run.params = {{"source", dv::Value::of_int(0)}};
  const auto s = make_stream_session(cp, gb.build(), so);
  s->converge();
  // The engine and runner sections' lengths. The runner section keeps one
  // iteration count per statement, not one per epoch.
  const auto section_bytes = [&] {
    const std::vector<std::uint8_t> b = s->save_bytes();
    return std::pair{section_end(b, dv::persist::kSecEngine) -
                         section_begin(b, dv::persist::kSecEngine),
                     section_end(b, dv::persist::kSecRunner) -
                         section_begin(b, dv::persist::kSecRunner)};
  };
  std::size_t warm = 0, epochs = 0;
  std::pair<std::size_t, std::size_t> at_10;
  const std::size_t steps_at_converge = s->result().stats.num_supersteps();
  while (epochs < 2000) {
    MutationBatch del;
    del.remove_edge(10, 13);
    warm += s->apply(del).warm ? 1 : 0;
    MutationBatch ins;
    ins.insert_edge(10, 13, 2.5);
    warm += s->apply(ins).warm ? 1 : 0;
    epochs += 2;
    if (epochs == 10) at_10 = section_bytes();
  }
  EXPECT_EQ(warm, epochs) << "an epoch fell back to a cold rebuild";
  EXPECT_GE(s->result().stats.num_supersteps(), steps_at_converge + epochs)
      << "the epochs ran fewer supersteps than the test assumes";
  const auto [engine_at_end, runner_at_end] = section_bytes();
  EXPECT_EQ(engine_at_end, at_10.first);
  EXPECT_EQ(runner_at_end, at_10.second);
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
