// Streamed differential fuzzing: (program, graph, mutation-stream) triples
// whose warm incremental re-execution is cross-checked per batch against a
// from-scratch ΔV* run on the mutated graph, and bit-for-bit across
// execution tiers.
//
// Warm resume is exactly value-preserving only when the program's
// converged state is a function of the graph (a fixpoint) rather than of
// the execution path that reached it. The generator therefore draws from
// warm-exact families and matches each mutation stream to its program's
// retraction capability:
//
//   publish-fold      static per-vertex masses folded by one of the six
//                     operators; arbitrary insert/delete/addv/delv streams
//                     for +/×/&&/|| (the ×/&&/|| streams deliberately walk
//                     through absorbing-element transitions), insert-only
//                     for min/max (retraction blocker);
//   guarded-monotone  SSSP / CC / max-gossip / reachability relaxations;
//                     insert-only streams (removals would need retraction
//                     of a monotone self-referencing fold);
//   multi-site        two independent publish sites in one statement,
//                     stream restricted by the weaker of the two ops;
//   blocked           min/max publishes paired with removal streams under
//                     minmax_memo_k = 0 (the memo disabled restores the
//                     legacy retraction blocker), and feedback recurrences
//                     under `until { i >= K }` (the loop count is
//                     semantic, so warm resume would replay the recurrence
//                     past the from-scratch answer) — every batch must
//                     fall back cold and still agree with the oracle
//                     (expect_warm = false);
//   retract           the retraction-memo families (DESIGN.md §11):
//                     min/max publishes whose streams target the current
//                     extremum supplier for deletion (driving the k-best
//                     buffer through eviction, retraction and underflow
//                     refold), a max-of-min capacity shape, and the pure
//                     (unguarded) SSSP form on forward-edge DAGs with
//                     strictly positive weights — all with rotating small
//                     memo_k so underflow actually fires, and every batch
//                     expected warm.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dv/testing/differential.h"
#include "dv/testing/program_gen.h"
#include "graph/dynamic_graph.h"

namespace deltav::dv::testing {

struct StreamCase {
  std::string source;
  std::map<std::string, Value> params;
  GraphSpec graph;
  std::vector<graph::MutationBatch> batches;
  std::string family;       // diagnostics only
  bool expect_warm = true;  // generator promises every batch resumes warm
  /// Retraction-memo capacity for the sessions (SessionOptions::
  /// minmax_memo_k). The blocked min/max family pins 0 so the legacy
  /// blocker still fires; the retract families rotate small values so
  /// buffer underflow and targeted refolds are actually exercised.
  std::size_t memo_k = 8;
  /// Oracle variant: from-scratch ΔV* by default. The retract-sssp
  /// family flips to a from-scratch incremental (ΔV) run — its dense
  /// reassign under `until { stable }` never reaches message quiescence
  /// in ΔV* (the kKCore asymmetry: on-assign pushes re-fire every
  /// superstep), while memoized ΔV folds suppress the no-change sends.
  bool oracle_star = true;
};

/// Draws a random warm-exact (or deliberately blocked) stream case.
StreamCase generate_stream_case(Rng& rng);

/// Renders the case for failure reports / saved repros: source, graph
/// spec, and the mutation stream in mutation_io format.
std::string describe(const StreamCase& sc);

struct StreamDiffOptions {
  double float_tol = 1e-6;
  /// Engine worker count for the sessions (fuzz_engine_options' worker ↔
  /// partition pairing applies).
  int workers = 4;
  /// Also run a tree-interpreter session and require bit-identical state
  /// and equal superstep counts after every batch.
  bool check_tiers = true;
  /// Also run a native-tier session, held to the same checks as the tree
  /// session. Off by default: each session compiles an object, so callers
  /// turn it on for a sample of cases.
  bool check_native = false;
  /// Fold-path axis: also run a forced-buffered session and require it to
  /// match the default (atomic-where-proven) session after every batch —
  /// same state (ints/bools bit-exact, floats exact up to ±0.0), same
  /// superstep count, same warm/cold decision. A float + opt-in session
  /// (atomic_float) rides along held only to float_tol.
  bool check_fold_path = true;
};

/// Runs the case end-to-end; returns the first failure or nullopt.
/// Checks, after every batch: the epoch resumed warm iff promised, the
/// session state is value-close to a from-scratch ΔV* run on the
/// materialized mutated graph, (check_tiers) the vm/tree sessions
/// agree bit-for-bit, and every session's take_changed set covers each
/// user-field row that differs from the previous epoch ("changed_set").
std::optional<DiffFailure> check_stream_case(
    const StreamCase& sc, const StreamDiffOptions& opts = {});

}  // namespace deltav::dv::testing
