#include "dv/testing/persist_check.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dv/compiler.h"
#include "dv/persist/fault.h"
#include "dv/persist/snapshot.h"
#include "dv/streaming/stream_session.h"

namespace deltav::dv::testing {

namespace {

bool value_bits_equal(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case Type::kInt: return a.i == b.i;
    case Type::kBool: return a.b == b.b;
    case Type::kFloat:
      return std::bit_cast<std::uint64_t>(a.f) ==
             std::bit_cast<std::uint64_t>(b.f);
    default: return true;
  }
}

std::string show(const Value& v) {
  std::ostringstream os;
  switch (v.type) {
    case Type::kInt: os << v.i; break;
    case Type::kBool: os << (v.b ? "true" : "false"); break;
    case Type::kFloat: os << v.f; break;
    default: os << "<unit>"; break;
  }
  return os.str();
}

/// Bit-exact comparison of the complete state vector (every field,
/// including compiler-internal accumulators and memos — restore
/// equivalence is stronger than user-visible value agreement).
std::string state_diff(const DvRunResult& got, const DvRunResult& want) {
  if (got.state.size() != want.state.size())
    return "state sizes differ: " + std::to_string(got.state.size()) +
           " vs " + std::to_string(want.state.size());
  for (std::size_t i = 0; i < want.state.size(); ++i)
    if (!value_bits_equal(got.state[i], want.state[i]))
      return "state word " + std::to_string(i) + ": " + show(got.state[i]) +
             " vs reference " + show(want.state[i]);
  return {};
}

/// What the reference session observed for one epoch.
struct EpochRecord {
  bool warm = false;
  const char* blocker = nullptr;
  bool compacted = false;
  EpochStats stats;
};

EpochRecord record_of(const streaming::SessionEpoch& ep) {
  EpochRecord r;
  r.warm = ep.warm;
  r.blocker = ep.blocker;
  r.compacted = ep.compacted;
  r.stats = ep.stats;
  return r;
}

std::string epoch_diff(const streaming::SessionEpoch& got,
                       const EpochRecord& want) {
  const auto sv = [](const char* s) {
    return s == nullptr ? std::string_view("<warm>") : std::string_view(s);
  };
  if (got.warm != want.warm)
    return std::string("warm/cold decision diverged: replay went ") +
           (got.warm ? "warm" : "cold") + ", reference went " +
           (want.warm ? "warm" : "cold");
  if (sv(got.blocker) != sv(want.blocker))
    return "blocker diverged: \"" + std::string(sv(got.blocker)) +
           "\" vs reference \"" + std::string(sv(want.blocker)) + "\"";
  if (got.compacted != want.compacted)
    return std::string("compaction decision diverged: replay ") +
           (got.compacted ? "compacted" : "did not compact") +
           ", reference did the opposite";
  const EpochStats& a = got.stats;
  const EpochStats& b = want.stats;
  if (a.supersteps != b.supersteps)
    return "supersteps diverged: " + std::to_string(a.supersteps) + " vs " +
           std::to_string(b.supersteps);
  if (a.messages != b.messages)
    return "message counts diverged: " + std::to_string(a.messages) +
           " vs " + std::to_string(b.messages);
  if (a.deltas_applied != b.deltas_applied)
    return "Δ-application counts diverged: " +
           std::to_string(a.deltas_applied) + " vs " +
           std::to_string(b.deltas_applied);
  if (a.woken != b.woken)
    return "woken-frontier sizes diverged: " + std::to_string(a.woken) +
           " vs " + std::to_string(b.woken);
  return {};
}

}  // namespace

std::string totals_diff(const pregel::RunStats& got,
                        const pregel::RunStats& want) {
  const auto differ = [](const char* what, std::uint64_t a,
                         std::uint64_t b) {
    return std::string("total ") + what + " diverged: " + std::to_string(a) +
           " vs reference " + std::to_string(b);
  };
  if (got.num_supersteps() != want.num_supersteps())
    return differ("supersteps", got.num_supersteps(), want.num_supersteps());
  using S = pregel::SuperstepStats;
  static constexpr std::pair<const char*, std::uint64_t S::*> kCounts[] = {
      {"messages_sent", &S::messages_sent},
      {"messages_delivered", &S::messages_delivered},
      {"messages_dropped", &S::messages_dropped},
      {"bytes_sent", &S::bytes_sent},
      {"bytes_delivered", &S::bytes_delivered},
      {"cross_machine_bytes", &S::cross_machine_bytes},
      {"active_vertices", &S::active_vertices},
      {"vertices_halted", &S::vertices_halted},
      {"vertices_woken", &S::vertices_woken},
  };
  for (const auto& [what, field] : kCounts)
    if (got.totals.*field != want.totals.*field)
      return differ(what, got.totals.*field, want.totals.*field);
  return {};
}

std::optional<DiffFailure> check_persist_case(const StreamCase& sc, Rng& rng,
                                              const PersistCheckOptions& opts) {
  try {
    CompileOptions inc;
    inc.incrementalize = true;
    const CompiledProgram cp = compile(sc.source, inc);
    const graph::CsrGraph base = sc.graph.build();

    const auto session_options = [&](ExecTier tier) {
      streaming::SessionOptions so;
      so.run.engine = fuzz_engine_options(opts.workers);
      so.run.tier = tier;
      so.run.params = sc.params;
      return so;
    };

    // ----- Reference trajectory (uninterrupted, VM tier). ---------------
    std::vector<std::vector<std::uint8_t>> mid;  // mid-convergence bytes
    streaming::SessionOptions ref_so = session_options(ExecTier::kVm);
    ref_so.checkpoint_every = opts.checkpoint_every;
    ref_so.checkpoint_sink = [&mid](const std::vector<std::uint8_t>& b) {
      mid.push_back(b);
    };
    const auto ref = streaming::make_stream_session(cp, base, ref_so);
    ref->converge();

    // boundary[k] / ref_state[k]: snapshot and state after k batches.
    std::vector<std::vector<std::uint8_t>> boundary;
    std::vector<DvRunResult> ref_state;
    std::vector<EpochRecord> epochs;
    boundary.push_back(ref->save_bytes());
    ref_state.push_back(ref->result());
    for (const graph::MutationBatch& batch : sc.batches) {
      epochs.push_back(record_of(ref->apply(batch)));
      boundary.push_back(ref->save_bytes());
      ref_state.push_back(ref->result());
    }

    // Replays the remaining batches on a restored session, comparing every
    // epoch against the reference records, then the final stats totals.
    const auto replay_tail =
        [&](streaming::DvStreamSession& s, std::size_t from,
            const std::string& who) -> std::optional<DiffFailure> {
      for (std::size_t bi = from; bi < sc.batches.size(); ++bi) {
        const streaming::SessionEpoch ep = s.apply(sc.batches[bi]);
        const std::string tag =
            who + ", replayed epoch " + std::to_string(bi + 1) + ": ";
        if (std::string d = epoch_diff(ep, epochs[bi]); !d.empty())
          return DiffFailure{"persist-epoch", tag + d};
        if (std::string d = state_diff(s.result(), ref_state[bi + 1]);
            !d.empty())
          return DiffFailure{"persist-state", tag + d};
      }
      if (std::string d =
              totals_diff(s.result().stats, ref_state.back().stats);
          !d.empty())
        return DiffFailure{"persist-totals", who + ", after the replay: " + d};
      return std::nullopt;
    };

    // ----- Boundary sweep: every epoch boundary is a kill-point. --------
    for (std::size_t k = 0; k < boundary.size(); ++k) {
      const std::string who = "boundary snapshot after epoch " +
                              std::to_string(k);
      const auto s = streaming::DvStreamSession::restore_bytes(
          cp, boundary[k], session_options(ExecTier::kVm));
      if (!s->converged())
        return DiffFailure{"persist-state",
                           who + ": restored as unconverged"};
      if (s->epoch() != k)
        return DiffFailure{"persist-state",
                           who + ": restored epoch counter " +
                               std::to_string(s->epoch())};
      if (std::string d = state_diff(s->result(), ref_state[k]); !d.empty())
        return DiffFailure{"persist-state", who + ": " + d};
      if (auto f = replay_tail(*s, k, who)) return f;
    }

    // ----- Cross-tier restore: VM-written snapshot, tree resume. --------
    {
      const std::size_t k = boundary.size() / 2;
      const std::string who = "tree-tier restore of the epoch-" +
                              std::to_string(k) + " snapshot";
      const auto s = streaming::DvStreamSession::restore_bytes(
          cp, boundary[k], session_options(ExecTier::kTree));
      if (std::string d = state_diff(s->result(), ref_state[k]); !d.empty())
        return DiffFailure{"persist-tiers", who + ": " + d};
      if (auto f = replay_tail(*s, k, who)) return f;
    }

    // ----- Mid-convergence kill-points (sampled). -----------------------
    std::vector<std::size_t> picks;
    if (mid.size() <= opts.max_mid_resumes) {
      for (std::size_t i = 0; i < mid.size(); ++i) picks.push_back(i);
    } else {
      for (std::size_t i = 0; i < opts.max_mid_resumes; ++i)
        picks.push_back(rng.next_below(mid.size()));
    }
    for (const std::size_t mi : picks) {
      const std::string who = "mid-run checkpoint " + std::to_string(mi);
      const auto s = streaming::DvStreamSession::restore_bytes(
          cp, mid[mi], session_options(ExecTier::kVm));
      if (s->converged())
        return DiffFailure{"persist-midrun",
                           who + ": restored as already converged"};
      s->converge();
      const std::size_t e = s->epoch();  // batches [0, e) were applied
      if (e >= ref_state.size())
        return DiffFailure{"persist-midrun",
                           who + ": implausible epoch counter " +
                               std::to_string(e)};
      if (std::string d = state_diff(s->result(), ref_state[e]); !d.empty())
        return DiffFailure{"persist-midrun",
                           who + ", after resuming converge(): " + d};
      if (auto f = replay_tail(*s, e, who)) return f;
    }

    // ----- Corruption sweep: every fault must be detected. --------------
    const std::vector<std::uint8_t>& victim =
        boundary[rng.next_below(boundary.size())];
    const auto expect_rejected =
        [&](const persist::FaultPlan& plan) -> std::optional<DiffFailure> {
      const std::vector<std::uint8_t> bad =
          persist::apply_fault(victim, plan);
      try {
        (void)streaming::DvStreamSession::restore_bytes(
            cp, bad, session_options(ExecTier::kVm));
      } catch (const persist::SnapshotError&) {
        return std::nullopt;  // detected, as promised
      }
      return DiffFailure{"persist-corruption",
                         "corrupted snapshot (" + persist::describe(plan) +
                             ") restored without an error"};
    };
    std::vector<persist::FaultPlan> plans;
    plans.push_back(persist::FaultPlan::truncate_at(0));
    plans.push_back(persist::FaultPlan::truncate_at(victim.size() - 1));
    plans.push_back(persist::FaultPlan::flip_byte(0));
    plans.push_back(persist::FaultPlan::flip_byte(victim.size() - 1));
    for (std::size_t i = 0; i < opts.corruptions; ++i) {
      const std::size_t at = rng.next_below(victim.size());
      if (rng.next_bool())
        plans.push_back(persist::FaultPlan::truncate_at(at));
      else
        plans.push_back(persist::FaultPlan::flip_byte(
            at, static_cast<std::uint8_t>(1 + rng.next_below(255))));
    }
    for (const persist::FaultPlan& plan : plans)
      if (auto f = expect_rejected(plan)) return f;

    // Sanity: the unfaulted bytes still restore (the sweep above would
    // pass vacuously if restore rejected everything).
    (void)streaming::DvStreamSession::restore_bytes(
        cp, victim, session_options(ExecTier::kVm));
  } catch (const std::exception& e) {
    return DiffFailure{"exception", e.what()};
  }
  return std::nullopt;
}

}  // namespace deltav::dv::testing
