// Tree-walking evaluator for compiled ΔV expression trees.
//
// One evaluator serves three contexts: per-vertex body execution during a
// superstep (fields, messages, sends available), init-block execution, and
// global `until` evaluation (no vertex bound). The compiled program is a
// state machine over supersteps; this file is the per-superstep step
// function, and runtime/runner.h drives it over the Pregel engine.
#pragma once

#include <span>

#include "dv/ast.h"
#include "dv/obs/metrics.h"
#include "dv/runtime/message.h"
#include "dv/runtime/value.h"
#include "graph/graph_view.h"

namespace deltav::dv {

/// Where send loops deliver their contributions. The runner adapts this
/// onto the Pregel engine context and decides there, per send, whether a
/// Δ is recorded into a retraction memo (retract_memo.h), folds lock-free
/// into a pending slot (atomic_fold.h) or travels as a message; tests use
/// recording sinks. Both calls return how many of the contributions were
/// buffered as messages — the tiers count exactly those as sent messages,
/// so a folded or memo-kept Δ is never counted twice.
class SendSink {
 public:
  virtual ~SendSink() = default;
  virtual std::uint64_t send(graph::VertexId dst, const DvMessage& msg) = 0;
  /// Sends one identical message to every destination in `dsts`, in order.
  /// Equivalent to dsts.size() send() calls (the default does exactly
  /// that); sinks on the engine hot path override it to amortize
  /// per-message bookkeeping for span-invariant broadcasts.
  virtual std::uint64_t send_span(std::span<const graph::VertexId> dsts,
                                  const DvMessage& msg) {
    std::uint64_t buffered = 0;
    for (const graph::VertexId dst : dsts) buffered += send(dst, msg);
    return buffered;
  }
};

struct EvalContext {
  const Program* prog = nullptr;
  // Points at a view owned by the runner lane; views either an immutable
  // CSR (cold runs) or the streaming overlay (warm epochs).
  const graph::GraphView* graph = nullptr;

  // Per-vertex views (empty/unused for global until evaluation).
  std::span<Value> fields;
  std::span<Value> scratch;
  std::span<const DvMessage> msgs;
  graph::VertexId vertex = 0;
  bool has_vertex = false;

  // Program-wide bindings.
  std::span<const Value> params;
  std::int64_t iter = 1;   // 1-based iteration count of the current iter
  bool stable = false;     // quiescence, for `stable` in until clauses

  // Send machinery.
  SendSink* sink = nullptr;
  const std::vector<std::uint8_t>* site_wire = nullptr;  // bytes per site
  std::uint64_t suppress_sites = 0;  // bitmask: skip sends for these sites

  // bitmask: memo-routed sites, whose no-op Δs still reach the sink (a
  // retraction memo stores an identity total as the sender's removal).
  // Such a no-op still counts as suppressed.
  std::uint64_t record_sites = 0;

  // Reference interpretation of remote reads (CompileOptions::lower_remote
  // = false; tree tier only). Points at an iteration-start snapshot of the
  // full field matrix, row-major [vertex][field slot] with `prev_stride`
  // slots per vertex. kRemoteRead evaluates its target against this
  // vertex's snapshot row (mirroring the lowered pipeline's request phase,
  // which runs before any body assignment) and reads the target row
  // directly. Null in lowered mode — kRemoteRead then never reaches eval.
  Value* prev_state = nullptr;
  std::size_t prev_stride = 0;

  // Observability. Null when no collector is installed: the evaluator then
  // pays one predictable branch per fold/send-loop, nothing per message.
  obs::MetricsShard* obs = nullptr;

  // Out-flags.
  bool halt_requested = false;
  bool any_field_assign = false;

  // Transient: weight of the edge being broadcast over (u.edge).
  double cur_edge_weight = 1.0;
};

/// Evaluates `e`, returning its value (unit expressions return a zero int).
/// Throws CheckError on internal invariant violations (e.g. unconverted
/// aggregation nodes — those indicate a compiler bug, not a user error).
Value eval(const Expr& e, EvalContext& ctx);

}  // namespace deltav::dv
