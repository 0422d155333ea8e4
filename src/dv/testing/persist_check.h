// Persistence differential fuzzing: restore-equivalence over kill-points.
//
// For each (program, graph, mutation-stream) triple — the same StreamCase
// population the streaming tier draws from — an uninterrupted reference
// session records its full trajectory: a snapshot and the state bits at
// every epoch boundary, every epoch's warm/cold decision, blocker,
// compaction flag and cost counters, plus mid-convergence checkpoints
// collected through the session's checkpoint hook. The checker then
// proves three properties the snapshot subsystem promises:
//
//   boundary    restoring the epoch-k snapshot yields bit-identical state
//               and replaying the remaining batches reproduces every
//               subsequent epoch exactly — same warm/cold decisions and
//               blockers, same superstep/message/Δ/woken counts, same
//               compaction points, bit-identical state after each epoch
//               (also exercised cross-tier: a VM-written snapshot resumed
//               on the tree interpreter must match the same trajectory);
//   mid-run     a checkpoint taken between supersteps restores to an
//               unconverged session whose converge() finishes the
//               interrupted run onto the reference trajectory;
//   corruption  any truncation or byte flip of a snapshot makes restore
//               throw SnapshotError — never a silent, wrong session.
//
// Every restored-and-replayed session must also end with the reference's
// stats totals (totals_diff): the snapshot carries them, not the
// per-superstep log.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/rng.h"
#include "dv/testing/stream_gen.h"
#include "pregel/stats.h"

namespace deltav::dv::testing {

struct PersistCheckOptions {
  /// Engine worker count (fuzz_engine_options' worker ↔ partition pairing).
  int workers = 4;
  /// Mid-convergence checkpoint cadence for the reference session.
  std::size_t checkpoint_every = 2;
  /// At most this many mid-run checkpoints are resumed per case (they are
  /// sampled; every boundary snapshot is always swept).
  std::size_t max_mid_resumes = 3;
  /// Random fault injections (truncate / byte flip) per case, on top of
  /// a handful of deterministic edge cases.
  std::size_t corruptions = 6;
};

/// Empty when `got` and `want` agree on the superstep count and on every
/// count-valued stats total, else the first difference. Wall-time totals
/// are not compared: they are not reproducible.
std::string totals_diff(const pregel::RunStats& got,
                        const pregel::RunStats& want);

/// Runs the full kill-point sweep for one case; returns the first failure
/// or nullopt. `rng` drives fault placement and mid-run sampling only —
/// the case itself is fixed by `sc`.
std::optional<DiffFailure> check_persist_case(
    const StreamCase& sc, Rng& rng, const PersistCheckOptions& opts = {});

}  // namespace deltav::dv::testing
