// Seeded random generator + differential harness for remote-read programs.
//
// The classic program generator (program_gen.h) cannot express
// `remote(u).f`, and the classic harness's properties (Eq. 11 replay,
// message-count inequality) do not apply to request/reply channel traffic.
// This family generates (program, graph, worker-sweep) triples whose iter
// statements chase remote reads, and checks the one property the lowering
// owes the language: the 3-phase request/reply pipeline is observationally
// identical to the direct reference interpretation of kRemoteRead.
//
// Generated programs are total by construction: every remote iter is
// bounded (`until { i >= K }`, K in 1..4), targets are wrapped modulo the
// vertex count by the runtime, and updates stay in int space, so every
// tier comparison is bit-exact — there is no float tolerance here.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dv/testing/differential.h"
#include "dv/testing/program_gen.h"

namespace deltav::dv::testing {

/// One remote-read differential case.
struct RemoteCase {
  std::string source;
  GraphSpec graph;
  std::vector<int> worker_counts{1, 4};
};

/// Draws a random well-typed, terminating remote-read program (1–2 int
/// fields, optional aggregation seed statement, 1–2 bounded remote iters)
/// plus a compatible graph.
RemoteCase generate_remote_case(Rng& rng);

struct RemoteDiffOptions {
  std::size_t max_supersteps = 5000;
  /// Also run both lowered variants on the native tier, held to the vm
  /// tier's full bit-level contract. Off by default: each variant
  /// compiles an object, so callers turn it on for a sample of cases.
  bool check_native = false;
};

/// Checks, for every worker count in the sweep:
///   compile   lowered (ΔV, ΔV*) and reference (lower_remote = false)
///             variants all compile and verify
///   tiers     lowered tree ≡ lowered vm, bit-exact (state words,
///             supersteps, message/byte counts), both variants
///   native    (check_native) lowered native ≡ lowered vm, the same way
///   lowering  lowered ≡ reference interpretation on the tree tier:
///             user-visible state bit-exact (the tentpole contract)
///   variants  ΔV ≡ ΔV* user-visible state, bit-exact
///   workers   user-visible state identical across the worker sweep
/// Returns the first failure, or nullopt. Compile/run exceptions become
/// failures, never escapes.
std::optional<DiffFailure> check_remote_case(const RemoteCase& rc,
                                             const RemoteDiffOptions& opts = {});

}  // namespace deltav::dv::testing
