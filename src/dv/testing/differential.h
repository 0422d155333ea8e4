// Differential execution harness: one FuzzCase in, one verdict out.
//
// For each case the harness compiles the program twice (ΔV and ΔV*), runs
// both on the case's graph across the worker-count axis, and checks the
// properties the paper claims for the incrementalizing pipeline:
//
//   compile      both variants compile; the final-stage verifier accepts
//                both ASTs
//   values       user-visible vertex state agrees between ΔV and ΔV*
//                (and between worker counts, for the ΔV variant)
//   meaningful   every live ΔV message is meaningful (Definition 1):
//                never an identity payload with zero transition counters
//   eq11         folding the live ΔV message stream per (receiver, site)
//                with apply_delta reproduces the final memoized
//                accumulator state (Eq. 11 checked end-to-end)
//   messages     messages(ΔV) ≤ messages(ΔV*)
//   determinism  two identical ΔV runs produce bit-identical state
//   tiers        re-running both variants on the tree-interpreter tier
//                reproduces the bytecode VM's state bit-for-bit, with
//                identical message/byte counts and an identical replayed
//                Eq. 11 message stream
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "dv/testing/program_gen.h"
#include "pregel/engine.h"

namespace deltav::dv::testing {

struct DiffOptions {
  /// Relative/absolute tolerance for float comparisons. Reassociation is
  /// expected: combiners and worker counts reorder float folds, and the
  /// ΔV product accumulator multiplies ratios instead of raw values.
  double float_tol = 1e-6;
  std::size_t max_supersteps = 5000;
  bool check_eq11 = true;
  bool check_message_counts = true;
  bool check_determinism = true;
  /// Cross-check the bytecode VM against the tree interpreter (the
  /// reference semantics): bit-exact state, equal message/byte counts,
  /// bit-exact Eq. 11 stream replay.
  bool check_tiers = true;
  /// Third tier axis: AOT-compile both variants (--tier=native) and hold
  /// them to the same bit-exact contract as vm↔tree — and fail outright
  /// if the native build silently fell back to the VM. Checked only when
  /// native::native_unavailable_reason() is empty (no host compiler →
  /// the axis is skipped, and callers should say so).
  bool check_native = true;
  /// Fold-path axis: re-run ΔV with fold_path = kAuto on every tier and
  /// require the lock-free pending-slot path to reproduce the buffered
  /// run exactly — same state (bit-exact for ints/bools; floats compare
  /// exactly up to ±0.0, since CAS-min tie order can flip a zero's sign)
  /// and the same superstep count. A second run with the float + opt-in
  /// (atomic_float) is held only to float_tol: concurrent fetch order
  /// re-associates the sum by design.
  bool check_fold_path = true;
};

struct DiffFailure {
  std::string check;   // which property failed (names above)
  std::string detail;  // human-readable evidence
};

/// Engine configuration for a fuzz run with `workers` workers. The
/// worker-count axis doubles as the partition axis — even counts hash,
/// odd counts block — so one case covers both schemes deterministically
/// (the pairing is a pure function of the count, which keeps saved corpus
/// cases replayable). Every fuzz family uses it.
pregel::EngineOptions fuzz_engine_options(int workers);

/// Runs every check; returns the first failure, or nullopt when the case
/// passes. Never throws for program-level misbehaviour — compile/run
/// exceptions are converted into failures.
std::optional<DiffFailure> check_case(const FuzzCase& fc,
                                      const DiffOptions& opts = {});

}  // namespace deltav::dv::testing
