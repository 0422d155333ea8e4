// Executes a compiled ΔV program over a graph on the Pregel engine.
//
// The compiled program is a state machine over supersteps:
//
//   superstep 0        — run the init block on every vertex, then push the
//                        initial full values for statement 0's aggregation
//                        sites (§6.1 "at the first superstep ... send the
//                        data from the neighbors' perspective").
//   statement k        — one superstep per body execution. The body gathers
//                        messages (folds), computes, sends (full values for
//                        ΔV*, Δ-messages for ΔV), and — for ΔV — halts.
//                        `iter` statements repeat until their until clause
//                        holds; the runner evaluates until clauses globally
//                        (they are restricted to globally-evaluable forms,
//                        with `stable` bound to engine quiescence).
//   transition k→k+1   — reactivate all vertices and run one priming
//                        superstep that pushes initial values for statement
//                        k+1's sites.
//
// Send suppression: when the runner can prove a superstep is the last
// execution of its statement (step statements; iter statements with a
// stable-free until), that superstep's own-site sends are suppressed —
// they could never be folded.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dv/compiler.h"
#include "dv/obs/obs.h"
#include "dv/runtime/atomic_fold.h"
#include "dv/runtime/interpreter.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_view.h"
#include "pregel/engine.h"

namespace deltav::dv::persist {
class SnapshotReader;
class SnapshotWriter;
}  // namespace deltav::dv::persist

namespace deltav::dv {

/// A scheduled vertex removal (§9 future work): at the given body
/// iteration of the given statement, the vertices broadcast retraction
/// Δ-messages that restore their contribution to the aggregation identity
/// ("a message that zeros out the value of the vertex to its neighbors"),
/// then leave the computation permanently.
struct VertexDeletion {
  std::size_t stmt_index = 0;
  std::size_t iteration = 1;  // 1-based body execution count
  std::vector<graph::VertexId> vertices;
};

/// Which execution substrate evaluates compiled expression trees.
/// The tree interpreter is the reference semantics; the bytecode VM
/// (runtime/vm.h) is the default and is bit-identical by contract; the
/// native tier AOT-compiles the VM's bytecode, one function per chunk,
/// into a dlopen-ed shared object (codegen/native_module.h), so it runs
/// exactly the VM's chunks.
/// The differential fuzzer cross-checks all three on every generated
/// program. kNative falls back to kVm with a named reason (surfaced in
/// DvRunResult::native_fallback and the dv.native_fallbacks counter)
/// when the toolchain is missing, compilation fails, or the program
/// uses a construct the emitter does not cover — never a silent wrong
/// answer, never a silent wrong tier.
enum class ExecTier {
  kTree,    // recursive tree-walking interpreter
  kVm,      // register-based bytecode VM (default)
  kNative,  // AOT-compiled shared object behind a C ABI vtable
};

const char* exec_tier_name(ExecTier tier);
/// Parses "tree"/"vm"/"native" (CLI flags); throws CheckError otherwise.
ExecTier parse_exec_tier(const std::string& name);

const char* fold_path_name(FoldPath p);
/// Parses "auto"/"buffered" (CLI flags); throws CheckError otherwise.
FoldPath parse_fold_path(const std::string& name);

struct DvRunOptions {
  pregel::EngineOptions engine;
  bool use_combiner = true;
  /// Execution tier for all expression evaluation (init block, statement
  /// bodies, until clauses, send expressions).
  ExecTier tier = ExecTier::kVm;
  /// Program parameter bindings by name; must cover every `param`.
  std::map<std::string, Value> params;
  /// Hard cap guarding against non-terminating until clauses.
  std::size_t max_supersteps = 100000;
  /// Observability sink for the runner's evaluator lanes and the engine.
  /// nullptr falls back to the globally installed collector
  /// (obs::current()); null there too means zero instrumentation cost
  /// beyond one pointer test per superstep per lane.
  obs::Collector* collector = nullptr;
  /// Scheduled vertex removals. With incrementalization this requires all
  /// of the statement's aggregation operators to admit retraction
  /// (+, *, &&, ||); min/max accumulators cannot forget a contribution.
  std::vector<VertexDeletion> deletions;

  /// Fold-path selection (DESIGN.md "Fold paths"): kAuto routes every
  /// site the incrementalize pass proved commutative-associative through
  /// the lock-free pending-slot path (ineligible sites, and NaN payloads,
  /// still buffer); kBuffered forces the message path everywhere (the
  /// differential oracle). The runner's send sink applies the routing for
  /// every tier. A send_probe forces buffered regardless: a message probe
  /// has nothing to observe on a message-free path.
  FoldPath fold_path = FoldPath::kAuto;
  /// Retraction-memo capacity (DESIGN.md §11): with k > 0, every memo-
  /// eligible min/max site keeps the k best tagged contributions per
  /// vertex so deletion epochs can retract the extremum warm (falling
  /// back to a targeted in-neighbor refold on buffer underflow). 0
  /// disables the subsystem entirely — the legacy behavior where any
  /// min/max retraction forces a cold rebuild. Only meaningful under
  /// options.incrementalize; plain one-shot runs never pay for it.
  std::size_t minmax_memo_k = 0;
  /// Opt-in: admit float + sites to the atomic path. Concurrent fetch-
  /// order re-associates the sum, so results are only ε-close to the
  /// buffered path, not bit-exact; everything else keeps the bit-exact
  /// contract.
  bool atomic_float = false;

  /// Debug/verification hook: observes every message as it is sent
  /// (src, dst, message). Called from worker threads — the callee must be
  /// thread-safe. Tests use this to check the meaningful-messages policy
  /// (Definition 1) directly on live runs.
  std::function<void(graph::VertexId src, graph::VertexId dst,
                     const DvMessage&)>
      send_probe;

  /// Mid-convergence checkpointing: during converge(), after every
  /// checkpoint_every-th superstep whose statement is certain to continue,
  /// checkpoint_sink is invoked (between supersteps, single-threaded; the
  /// runner's save_state is safe to call from it). 0 disables. Warm
  /// epochs (apply_epoch) never fire the hook — they are short by
  /// construction, and a resume point inside apply() is not representable.
  std::size_t checkpoint_every = 0;
  std::function<void(std::size_t supersteps_done)> checkpoint_sink;
};

struct DvRunResult {
  pregel::RunStats stats;
  std::size_t supersteps = 0;
  std::vector<std::size_t> iterations;  // per statement
  /// Δ-contributions folded lock-free into receiver accumulators (the
  /// atomic fold path) over this runner's lifetime. Each stands in for a
  /// message that never enters the engine, so stats counts omit them.
  std::uint64_t atomic_folds = 0;

  /// The tier that actually executed. Equals the requested tier except
  /// when --tier=native fell back to the VM; `native_fallback` then names
  /// why (tools print it, tests assert on it).
  ExecTier tier_used = ExecTier::kVm;
  std::string native_fallback;

  /// Final vertex state: num_vertices × num_fields, field-major stride.
  std::vector<Value> state;
  std::vector<Field> fields;
  std::size_t num_vertices = 0;

  const Value& at(graph::VertexId v, int field_slot) const {
    return state[static_cast<std::size_t>(v) * fields.size() +
                 static_cast<std::size_t>(field_slot)];
  }

  int field_slot(const std::string& name) const;

  /// Extracts a field column as doubles (ints/bools widen).
  std::vector<double> field_as_double(const std::string& name) const;
  std::vector<std::int64_t> field_as_int(const std::string& name) const;
};

/// A read-only window onto a runner's live vertex state, in DvRunResult's
/// row layout: num_vertices rows of fields->size() values each. Valid
/// until the runner next runs, grows or is destroyed.
struct StateWindow {
  const Value* state = nullptr;
  const std::vector<Field>* fields = nullptr;
  std::size_t num_vertices = 0;

  const Value* row(graph::VertexId v) const {
    return state + static_cast<std::size_t>(v) * fields->size();
  }
};

/// Runs `cp` over `g` (a CsrGraph converts implicitly). Throws
/// CheckError/CompileError on misuse (missing params, #neighbors on a
/// directed graph, superstep cap exceeded).
DvRunResult run_program(const CompiledProgram& cp, graph::GraphView g,
                        const DvRunOptions& options = {});

/// What one streaming epoch cost (see DvRunner::apply_epoch and
/// DESIGN.md "streaming epochs").
struct EpochStats {
  std::size_t supersteps = 0;      // supersteps this epoch ran
  std::uint64_t messages = 0;      // engine messages sent this epoch
  std::size_t deltas_applied = 0;  // Δ-payloads folded directly into
                                   // receiver accumulators at epoch start
  std::size_t woken = 0;           // vertices activated at epoch start
  std::uint64_t atomic_folds = 0;  // contributions folded lock-free this
                                   // epoch (0 on the buffered path)
  bool atomic_path = false;        // any site routed through the atomic path
  // Retraction memos (DESIGN.md §11):
  std::uint64_t minmax_retractions = 0;  // worsened/removed contributions
                                         // retracted through the memo
  std::uint64_t minmax_refolds = 0;      // targeted in-neighbor refolds
  std::uint64_t minmax_underflows = 0;   // cells whose k survivors were
                                         // all retracted (triggers refold)
  bool warm_aborted = false;       // the epoch hit the repair cap mid-
                                   // reconvergence (count-to-infinity
                                   // guard); state is unusable and the
                                   // session must rebuild cold
};

/// A resumable program execution: the §9 dynamic-graph story. After
/// converge(), apply_epoch() patches the memoized aggregation state for a
/// batch of graph mutations — synthesizing per-operator retraction and
/// injection Δ-messages against the old and new topology — wakes only the
/// mutation frontier, and re-converges incrementally. Works on both
/// execution tiers (the tier is picked via DvRunOptions::tier).
///
/// Intended use is through dv::streaming::DvStreamSession, which owns the
/// DynamicGraph, falls back to a cold rebuild when warm_blocker() fires,
/// and handles overlay compaction.
class DvRunner {
 public:
  /// The view must outlive the runner; for warm epochs it must view the
  /// DynamicGraph later passed to apply_epoch.
  DvRunner(const CompiledProgram& cp, graph::GraphView g,
           DvRunOptions options);
  ~DvRunner();
  DvRunner(DvRunner&&) noexcept;
  DvRunner& operator=(DvRunner&&) noexcept;

  /// Cold run to convergence (exactly run_program's semantics). Must be
  /// called once, before any apply_epoch — except after restoring a
  /// mid-run checkpoint, where it resumes the interrupted convergence from
  /// the saved superstep and finishes bit-exactly with an uninterrupted
  /// run.
  DvRunResult converge();

  /// True once converge() has completed (a restored mid-run checkpoint
  /// starts false and needs a resuming converge()).
  bool converged() const;

  /// Serializes the complete execution state — vertex values (aggAccum /
  /// nnAcc / aggNulls / last-sent memos live in the state rows), the
  /// statement/iteration cursor, the engine checkpoint (halt bits, work
  /// queues, pending messages) and the running stats totals (per-epoch
  /// stats are diffs against them) — as the kSecRunner + kSecEngine
  /// sections. The per-superstep stats log is not saved, so the size does
  /// not grow with uptime. Call between supersteps only (always true from
  /// checkpoint_sink or after converge()).
  void save_state(persist::SnapshotWriter& w) const;

  /// Restores save_state output into a freshly-constructed runner over
  /// the same program, graph snapshot and engine configuration. Throws
  /// persist::SnapshotError when the decoded state does not fit them.
  void restore_state(persist::SnapshotReader& r);

  /// Why `cp` cannot resume warm across `delta` — a static human-readable
  /// reason — or nullptr if it can. Warm resume requires the incremental
  /// pipeline (memoized accumulators), a single statement, retractable
  /// operators for the kinds of change in `delta` (min/max admit
  /// insert-only streams), no graphSize dependence when |V| changes, and
  /// an iteration-independent body. With minmax_memo_k > 0 the min/max
  /// retraction clauses are waived per-site for memo-eligible sites
  /// (AggSite::memo_ok) — the retraction subsystem keeps those warm.
  static const char* warm_blocker(const CompiledProgram& cp,
                                  const graph::GraphDelta& delta,
                                  std::size_t minmax_memo_k = 0);

  /// Data-dependent warm blockers the static analysis cannot see:
  /// currently only the positive-edge-weight guard for memoized min-plus
  /// feedback sites (a non-positive weight would let the retraction
  /// repair cycle without progress and converge to a wrong fixpoint).
  /// Checked against the weight lower bound tracked since construction
  /// plus `delta`'s new arcs. Returns a reason or nullptr.
  const char* warm_runtime_blocker(const graph::GraphDelta& delta) const;

  /// True when at least one min/max site routes through the retraction
  /// memo under this runner's options (labels bench/tool output).
  bool memo_path() const;

  /// Warm epoch: Phase A records the frontier's old contributions against
  /// the pre-mutation topology, `delta` is committed into `dyn`, and Phase
  /// B folds synthesized Δ-messages (retraction / injection / old→new)
  /// into every affected accumulator — including the three-field
  /// nnAcc/aggNulls/aggAccum treatment for ×/&&/|| — before the engine
  /// re-converges over the woken frontier.
  /// Preconditions: converge() ran; warm_blocker(cp, delta) == nullptr;
  /// delta came from dyn.plan() on the current snapshot; the runner's view
  /// is over `dyn`; no scheduled deletions.
  EpochStats apply_epoch(graph::DynamicGraph& dyn,
                         const graph::GraphDelta& delta);

  /// Snapshot of the current converged state (same shape as converge()'s
  /// result). The stats totals and num_supersteps() cover everything
  /// since construction, saved-and-restored runs included; the
  /// per-superstep log `stats.supersteps` covers only what ran since
  /// construction or since the last restore_state.
  DvRunResult result() const;

  /// The live state, uncopied (see StateWindow for its lifetime).
  StateWindow state_window() const;

  /// Replaces `out` with the vertices whose user fields may differ from
  /// the previous call: every vertex whose compute assigned a user field
  /// since then, plus every vertex apply_epoch's growth created. Returns
  /// false when the set is not exact and every row must be treated as
  /// changed — always so on a runner's first call, which only starts the
  /// recording (runs nobody reads this way never record). Requires
  /// converged().
  bool take_changed(std::vector<graph::VertexId>& out);

  /// True when at least one aggregation site routes through the lock-free
  /// fold path under this runner's options (labels bench/tool output).
  bool atomic_path() const;

  /// Implementation; public so run_program can drive it directly.
  class Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace deltav::dv
