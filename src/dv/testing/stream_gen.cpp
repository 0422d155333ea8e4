#include "dv/testing/stream_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>

#include "dv/compiler.h"
#include "dv/streaming/mutation_io.h"
#include "dv/streaming/stream_session.h"
#include "dv/programs/programs.h"

namespace deltav::dv::testing {

namespace {

// ---------------------------------------------------------------- sources

/// One-site publish-fold: static per-vertex masses, one aggregation.
///
/// `until { i >= 1 }`, not 2: the masses are assigned only in init, so
/// under ΔV*'s kOnAssign policy they are pushed exactly once. A second
/// fold iteration would see zero messages and collapse to the identity,
/// while incremental ΔV keeps its memoized accumulators — the programs
/// only agree (and the ΔV* oracle is only meaningful) with a single fold.
std::string publish_source(AggOp op, const std::string& dir, bool use_edge,
                           int absorbing_below) {
  std::ostringstream os;
  os << "init {\n";
  switch (op) {
    case AggOp::kSum:
      os << "  local mass : float = 0.5 + vertexId;\n"
         << "  local out : float = 0.0\n};\n"
         << "iter i { out = + [ u.mass"
         << (use_edge ? " * u.edge" : "") << " | u <- " << dir << " ] }";
      break;
    case AggOp::kProd:
      // Masses in {0} ∪ (1, 1.5]: the absorbing-zero seeds make mutation
      // streams walk the §6.4.1 null-counter transitions.
      os << "  local mass : float = if vertexId < " << absorbing_below
         << " then 0.0 else 1.0 + 1.0 / (2.0 + vertexId);\n"
         << "  local out : float = 1.0\n};\n"
         << "iter i { out = * [ u.mass | u <- " << dir << " ] }";
      break;
    case AggOp::kMin:
      os << "  local mass : float = 0.5 + vertexId;\n"
         << "  local out : float = infty\n};\n"
         << "iter i { out = min [ u.mass | u <- " << dir << " ] }";
      break;
    case AggOp::kMax:
      os << "  local mass : int = vertexId;\n"
         << "  local out : int = 0\n};\n"
         << "iter i { out = max [ u.mass | u <- " << dir << " ] }";
      break;
    case AggOp::kAnd:
      os << "  local mass : bool = vertexId >= " << absorbing_below << ";\n"
         << "  local out : bool = true\n};\n"
         << "iter i { out = && [ u.mass | u <- " << dir << " ] }";
      break;
    case AggOp::kOr:
      os << "  local mass : bool = vertexId < " << absorbing_below << ";\n"
         << "  local out : bool = false\n};\n"
         << "iter i { out = || [ u.mass | u <- " << dir << " ] }";
      break;
  }
  os << " until { i >= 1 }\n";
  return os.str();
}

/// Max-of-min "capacity" publish: each receiver keeps the best bottleneck
/// min(u.cap, u.edge) over its in-edges — a max-flow-ish shape whose
/// payload is static (cap is init-only), so the max site is a Class A
/// retraction-memo candidate and deletion streams stay warm.
std::string capacity_source() {
  return "init {\n"
         "  local cap : float = 0.5 + vertexId;\n"
         "  local out : float = 0.0\n};\n"
         "iter i {\n"
         "  out = max [ if u.cap < u.edge then u.cap else u.edge"
         " | u <- #in ]\n"
         "} until { i >= 1 }\n";
}

/// Damped feedback fold under an iteration-bounded until: the loop count
/// is semantic (the recurrence is not at a fixpoint when the bound
/// fires), so a warm resume — which restarts iter at 1 and replays the
/// loop from the old converged state — would run the recurrence past the
/// from-scratch answer. Every batch must refuse warm and rebuild cold.
std::string feedback_bounded_source(const std::string& dir, int bound) {
  std::ostringstream os;
  os << "init { local rank : float = 1.0 };\n"
     << "iter i {\n"
     << "  let s : float = + [ u.rank | u <- " << dir << " ] in\n"
     << "  rank = 0.15 + 0.85 * (s / graphSize)\n"
     << "} until { i >= " << bound << " }\n";
  return os.str();
}

/// Two independent publish sites in one statement.
std::string multi_site_source(bool second_is_max, const std::string& d1,
                              const std::string& d2) {
  std::ostringstream os;
  os << "init {\n"
     << "  local ma : float = 0.5 + vertexId;\n"
     << "  local mb : int = vertexId;\n"
     << "  local oa : float = 0.0;\n"
     << "  local ob : int = 0\n};\n"
     << "iter i {\n"
     << "  oa = + [ u.ma | u <- " << d1 << " ];\n"
     << "  ob = " << (second_is_max ? "max" : "+") << " [ u.mb | u <- "
     << d2 << " ]\n} until { i >= 1 }\n";
  return os.str();
}

// ------------------------------------------------------- stream generation

struct StreamShape {
  bool allow_removals = true;
  bool allow_vertex_ops = true;   // addv / delv
  bool only_new_inserts = false;  // never re-insert an existing edge
  bool weighted = false;
  int absorbing_below = 0;        // bias some edits to absorbing senders
};

std::vector<graph::MutationBatch> random_stream(Rng& rng,
                                                const graph::CsrGraph& base,
                                                const StreamShape& shape) {
  std::size_t n = base.num_vertices();
  std::set<std::pair<graph::VertexId, graph::VertexId>> present;
  const bool undirected = !base.directed();
  auto key = [&](graph::VertexId a, graph::VertexId b) {
    if (undirected && b < a) std::swap(a, b);
    return std::make_pair(a, b);
  };
  if (shape.only_new_inserts)
    for (std::size_t v = 0; v < n; ++v)
      for (const graph::VertexId u : base.out_neighbors(
               static_cast<graph::VertexId>(v)))
        present.insert(key(static_cast<graph::VertexId>(v), u));

  std::vector<graph::MutationBatch> batches;
  const std::size_t num_batches = 3 + rng.next_below(3);
  for (std::size_t bi = 0; bi < num_batches; ++bi) {
    graph::MutationBatch b;
    const std::size_t edits = 1 + rng.next_below(6);
    for (std::size_t e = 0; e < edits; ++e) {
      auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto v = static_cast<graph::VertexId>(rng.next_below(n));
      // Bias toward absorbing-mass senders so ×/&&/|| streams actually
      // cross the absorbing-element boundary.
      if (shape.absorbing_below > 0 && rng.next_bool(0.35))
        u = static_cast<graph::VertexId>(
            rng.next_below(static_cast<std::uint64_t>(
                shape.absorbing_below)));
      const bool removal = shape.allow_removals && rng.next_bool(0.4);
      if (removal) {
        b.remove_edge(u, v);
        present.erase(key(u, v));
      } else {
        if (shape.only_new_inserts &&
            (u == v || present.count(key(u, v)))) {
          continue;  // would be a weight rewrite; skip for this family
        }
        const double w =
            shape.weighted ? 0.1 + rng.next_double() * 2.0 : 1.0;
        b.insert_edge(u, v, w);
        if (u != v) present.insert(key(u, v));
      }
    }
    if (shape.allow_vertex_ops && rng.next_bool(0.25)) {
      b.add_vertices = 1 + rng.next_below(2);
      n += b.add_vertices;
    }
    if (shape.allow_vertex_ops && shape.allow_removals &&
        rng.next_bool(0.15)) {
      const auto victim = static_cast<graph::VertexId>(rng.next_below(n));
      b.detach_vertices.push_back(victim);
      if (shape.only_new_inserts) {
        // Keep the presence set honest (unused in this configuration,
        // since only_new_inserts families never allow removals).
        for (auto it = present.begin(); it != present.end();)
          it = (it->first == victim || it->second == victim)
                   ? present.erase(it)
                   : std::next(it);
      }
    }
    if (!b.empty()) batches.push_back(std::move(b));
  }
  return batches;
}

/// Stream that hunts the extremum: each batch deletes, for a few random
/// receivers, the in-edge from the sender currently supplying the fold's
/// best contribution (mass is monotone in vertex id, so the structural
/// extremum is the smallest/largest-id in-neighbor — no program run
/// needed). Repeated hits on the same receiver strip its k-best buffer
/// one survivor per batch until it underflows and the targeted refold
/// fires. Random inserts are mixed in so buffers also refill.
std::vector<graph::MutationBatch> extremum_hunting_stream(
    Rng& rng, const graph::CsrGraph& base, bool hunt_min, bool weighted) {
  const std::size_t n = base.num_vertices();
  // dst -> present in-senders, maintained across batches.
  std::vector<std::set<graph::VertexId>> in_of(n);
  for (std::size_t v = 0; v < n; ++v)
    for (const graph::VertexId u :
         base.in_neighbors(static_cast<graph::VertexId>(v)))
      in_of[v].insert(u);

  std::vector<graph::MutationBatch> batches;
  const std::size_t num_batches = 4 + rng.next_below(3);
  for (std::size_t bi = 0; bi < num_batches; ++bi) {
    graph::MutationBatch b;
    const std::size_t hunts = 1 + rng.next_below(4);
    for (std::size_t h = 0; h < hunts; ++h) {
      const auto dst = static_cast<graph::VertexId>(rng.next_below(n));
      if (in_of[dst].empty()) continue;
      const graph::VertexId src =
          hunt_min ? *in_of[dst].begin() : *in_of[dst].rbegin();
      b.remove_edge(src, dst);
      in_of[dst].erase(src);
    }
    const std::size_t inserts = rng.next_below(3);
    for (std::size_t e = 0; e < inserts; ++e) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(n));
      const auto v = static_cast<graph::VertexId>(rng.next_below(n));
      const double w = weighted ? 0.1 + rng.next_double() * 2.0 : 1.0;
      b.insert_edge(u, v, w);
      in_of[v].insert(u);
    }
    if (!b.empty()) batches.push_back(std::move(b));
  }
  return batches;
}

/// Stream over a forward-edge DAG that stays acyclic: removals anywhere,
/// inserts only src < dst (strictly positive weights — the Class B memo's
/// runtime guard refuses non-positive min-plus edges), vertex adds only
/// (new ids are larger, so later forward inserts cannot close a cycle).
std::vector<graph::MutationBatch> dag_stream(Rng& rng,
                                             const graph::CsrGraph& base) {
  std::size_t n = base.num_vertices();
  std::vector<graph::MutationBatch> batches;
  const std::size_t num_batches = 3 + rng.next_below(3);
  for (std::size_t bi = 0; bi < num_batches; ++bi) {
    graph::MutationBatch b;
    const std::size_t edits = 1 + rng.next_below(5);
    for (std::size_t e = 0; e < edits; ++e) {
      auto u = static_cast<graph::VertexId>(rng.next_below(n));
      auto v = static_cast<graph::VertexId>(rng.next_below(n));
      if (rng.next_bool(0.5)) {
        b.remove_edge(u, v);
      } else {
        if (u == v) continue;
        if (v < u) std::swap(u, v);
        b.insert_edge(u, v, 0.1 + rng.next_double() * 2.0);
      }
    }
    if (rng.next_bool(0.2)) {
      b.add_vertices = 1 + rng.next_below(2);
      n += b.add_vertices;
    }
    if (!b.empty()) batches.push_back(std::move(b));
  }
  return batches;
}

GraphSpec small_graph(Rng& rng, bool directed, bool weighted) {
  GraphSpec gs;
  gs.kind = GraphSpec::Kind::kRmat;
  gs.n = 12 + rng.next_below(28);
  gs.m = gs.n * (2 + rng.next_below(3));
  gs.seed = rng.next_u64() | 1;
  gs.directed = directed;
  gs.weighted = weighted;
  return gs;
}

std::string dir_token(Rng& rng, bool directed) {
  if (!directed) return "#neighbors";
  return rng.next_bool() ? "#in" : "#out";
}

// ----------------------------------------------------------- value compare

bool value_close(const Value& a, const Value& b, double tol) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case Type::kInt: return a.i == b.i;
    case Type::kBool: return a.b == b.b;
    case Type::kFloat: {
      if (std::isnan(a.f) || std::isnan(b.f)) return false;
      if (std::isinf(a.f) || std::isinf(b.f)) return a.f == b.f;
      const double scale = std::max({1.0, std::fabs(a.f), std::fabs(b.f)});
      return std::fabs(a.f - b.f) <= tol * scale;
    }
    default: return false;
  }
}

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

/// User-visible fields of `got` vs `want`, matched by name.
std::string compare_user_fields(const DvRunResult& got,
                                const DvRunResult& want, double tol) {
  if (got.num_vertices != want.num_vertices)
    return "vertex counts differ: " + std::to_string(got.num_vertices) +
           " vs " + std::to_string(want.num_vertices);
  for (std::size_t fi = 0; fi < want.fields.size(); ++fi) {
    const Field& f = want.fields[fi];
    if (f.origin != Field::Origin::kUser) continue;
    const int gslot = got.field_slot(f.name);
    for (std::size_t v = 0; v < want.num_vertices; ++v) {
      const Value& a = got.at(static_cast<graph::VertexId>(v), gslot);
      const Value& b =
          want.at(static_cast<graph::VertexId>(v), static_cast<int>(fi));
      if (!value_close(a, b, tol))
        return "field " + f.name + " at vertex " + std::to_string(v) +
               ": " + show(a) + " vs oracle " + show(b);
    }
  }
  return {};
}

/// The change-set contract of DvStreamSession::take_changed: every vertex
/// whose user-field row differs between consecutive epochs' states (a
/// vertex growth created counts as differing) is in `changed`, unless the
/// set was reported inexact. Empty when it holds.
std::string check_change_set(const DvRunResult& before,
                             const DvRunResult& after,
                             const std::vector<graph::VertexId>& changed,
                             bool exact) {
  if (!exact) return {};
  std::vector<std::uint8_t> listed(after.num_vertices, 0);
  for (const graph::VertexId v : changed) {
    if (v >= after.num_vertices)
      return "listed vertex " + std::to_string(v) + " is out of range";
    listed[v] = 1;
  }
  for (std::size_t v = 0; v < after.num_vertices; ++v) {
    if (listed[v]) continue;
    if (v >= before.num_vertices)
      return "new vertex " + std::to_string(v) + " is not listed";
    for (std::size_t fi = 0; fi < after.fields.size(); ++fi) {
      if (after.fields[fi].origin != Field::Origin::kUser) continue;
      const auto vid = static_cast<graph::VertexId>(v);
      const Value& a = before.at(vid, static_cast<int>(fi));
      const Value& b = after.at(vid, static_cast<int>(fi));
      if (!value_bits_equal(a, b))
        return "field " + after.fields[fi].name + " at vertex " +
               std::to_string(v) + " changed " + show(a) + " -> " +
               show(b) + " but is not listed";
    }
  }
  return {};
}

}  // namespace

StreamCase generate_stream_case(Rng& rng) {
  StreamCase sc;
  const int family = static_cast<int>(rng.next_below(14));
  static constexpr std::size_t kMemoKs[] = {1, 2, 4, 8};
  if (family < 5) {
    // Publish-fold over one of the six operators.
    static constexpr AggOp kOps[] = {AggOp::kSum,  AggOp::kProd,
                                     AggOp::kMin,  AggOp::kMax,
                                     AggOp::kOr,   AggOp::kAnd};
    const AggOp op = kOps[rng.next_below(6)];
    const bool directed = rng.next_bool(0.7);
    const bool use_edge = op == AggOp::kSum && rng.next_bool(0.4);
    const int absorbing_below = static_cast<int>(1 + rng.next_below(3));
    sc.family = std::string("publish-") + agg_op_name(op);
    sc.source =
        publish_source(op, dir_token(rng, directed), use_edge,
                       absorbing_below);
    sc.graph = small_graph(rng, directed, use_edge);
    StreamShape shape;
    shape.allow_removals = !is_idempotent(op);
    shape.weighted = use_edge;
    shape.absorbing_below = is_multiplicative(op) ? absorbing_below : 0;
    sc.batches = random_stream(rng, sc.graph.build(), shape);
  } else if (family < 8) {
    // Guarded-monotone relaxations; insert-only streams.
    const int which = static_cast<int>(rng.next_below(4));
    StreamShape shape;
    shape.allow_removals = false;
    switch (which) {
      case 0:
        sc.family = "relax-sssp";
        sc.source = programs::kSssp;
        sc.params = {{"source", Value::of_int(0)}};
        sc.graph = small_graph(rng, /*directed=*/true, /*weighted=*/true);
        shape.weighted = true;
        shape.only_new_inserts = true;  // a weight rewrite is a removal
        break;
      case 1:
        sc.family = "relax-cc";
        sc.source = programs::kConnectedComponents;
        sc.graph = small_graph(rng, /*directed=*/false, false);
        break;
      case 2:
        sc.family = "relax-gossip";
        sc.source = programs::kMaxGossip;
        sc.graph = small_graph(rng, /*directed=*/false, false);
        break;
      default:
        sc.family = "relax-reach";
        sc.source = programs::kReachability;
        sc.params = {{"source", Value::of_int(0)}};
        sc.graph = small_graph(rng, /*directed=*/true, false);
        break;
    }
    sc.batches = random_stream(rng, sc.graph.build(), shape);
  } else if (family == 8) {
    // Two independent sites; stream restricted by the weaker op.
    const bool second_is_max = rng.next_bool();
    sc.family = second_is_max ? "multi-site-max" : "multi-site-sum";
    sc.source = multi_site_source(second_is_max, dir_token(rng, true),
                                  dir_token(rng, true));
    sc.graph = small_graph(rng, /*directed=*/true, false);
    StreamShape shape;
    shape.allow_removals = !second_is_max;
    sc.batches = random_stream(rng, sc.graph.build(), shape);
  } else if (family == 9) {
    // Deliberately blocked: min/max publish + removals with the
    // retraction memo pinned off, so the legacy blocker still fires.
    // Every batch that removes must rebuild cold and still match the
    // oracle.
    const AggOp op = rng.next_bool() ? AggOp::kMin : AggOp::kMax;
    sc.family = std::string("blocked-") + agg_op_name(op);
    sc.source = publish_source(op, "#in", false, 0);
    sc.graph = small_graph(rng, /*directed=*/true, false);
    sc.expect_warm = false;
    sc.memo_k = 0;
    StreamShape shape;  // removals allowed against an idempotent op
    sc.batches = random_stream(rng, sc.graph.build(), shape);
  } else if (family == 11) {
    // Retraction memo, Class A: min/max publish whose stream deletes the
    // current extremum supplier — warm under any memo_k >= 1, with small
    // capacities rotated in so eviction/underflow/refold all fire.
    const bool hunt_min = rng.next_bool();
    const AggOp op = hunt_min ? AggOp::kMin : AggOp::kMax;
    sc.family = std::string("retract-") + agg_op_name(op);
    sc.source = publish_source(op, "#in", false, 0);
    sc.graph = small_graph(rng, /*directed=*/true, false);
    sc.memo_k = kMemoKs[rng.next_below(4)];
    sc.batches = extremum_hunting_stream(rng, sc.graph.build(), hunt_min,
                                         /*weighted=*/false);
  } else if (family == 12) {
    // Retraction memo, Class A with an edge-dependent payload: max of
    // min(u.cap, u.edge) bottlenecks. The extremum hunter still targets
    // by id (cap is monotone in id), which is wrong often enough under
    // random weights to mix targeted and untargeted deletions.
    sc.family = "retract-capacity";
    sc.source = capacity_source();
    sc.graph = small_graph(rng, /*directed=*/true, /*weighted=*/true);
    sc.memo_k = kMemoKs[rng.next_below(4)];
    sc.batches = extremum_hunting_stream(rng, sc.graph.build(),
                                         /*hunt_min=*/false,
                                         /*weighted=*/true);
  } else if (family == 13) {
    // Retraction memo, Class B: the pure (unguarded) SSSP form feeds its
    // min-plus fold back to itself. Forward-edge DAGs keep stale state
    // draining in bounded supersteps after a deletion, so every epoch —
    // deletions included — must stay warm.
    sc.family = "retract-sssp";
    sc.source = programs::kSsspRetract;
    sc.params = {{"source", Value::of_int(0)}};
    sc.graph = small_graph(rng, /*directed=*/true, /*weighted=*/true);
    sc.graph.kind = GraphSpec::Kind::kDag;
    sc.memo_k = kMemoKs[rng.next_below(4)];
    sc.oracle_star = false;  // dense reassign: ΔV* never quiesces
    sc.batches = dag_stream(rng, sc.graph.build());
  } else {
    // Deliberately blocked: feedback recurrence under `until { i >= K }`,
    // K > 1. The iteration count is semantic, so warm resume must be
    // refused for every batch (edge edits only — vertex ops would trip
    // the graphSize blocker instead of the feedback one).
    const bool directed = rng.next_bool(0.7);
    const int bound = static_cast<int>(2 + rng.next_below(3));
    sc.family = "feedback-bounded";
    sc.source = feedback_bounded_source(dir_token(rng, directed), bound);
    sc.graph = small_graph(rng, directed, false);
    sc.expect_warm = false;
    StreamShape shape;
    shape.allow_vertex_ops = false;
    sc.batches = random_stream(rng, sc.graph.build(), shape);
  }
  return sc;
}

std::string describe(const StreamCase& sc) {
  std::ostringstream os;
  os << "family: " << sc.family << "\nmemo_k: " << sc.memo_k
     << "\ngraph: " << sc.graph.describe()
     << "\nsource:\n" << sc.source << "stream:\n";
  streaming::write_mutation_stream(sc.batches, os);
  return os.str();
}

std::optional<DiffFailure> check_stream_case(const StreamCase& sc,
                                             const StreamDiffOptions& opts) {
  try {
    CompileOptions inc;
    inc.incrementalize = true;
    const CompiledProgram cp = compile(sc.source, inc);
    CompileOptions star;
    star.incrementalize = false;
    const CompiledProgram cp_star =
        sc.oracle_star ? compile(sc.source, star) : compile(sc.source, inc);

    const graph::CsrGraph base = sc.graph.build();
    const auto opts_for = [&](ExecTier tier) {
      streaming::SessionOptions so;
      so.run.engine = fuzz_engine_options(opts.workers);
      so.run.tier = tier;
      so.run.params = sc.params;
      so.minmax_memo_k = sc.memo_k;
      return so;
    };
    const auto vm =
        streaming::make_stream_session(cp, base, opts_for(ExecTier::kVm));
    vm->converge();
    std::unique_ptr<streaming::DvStreamSession> tree;
    if (opts.check_tiers) {
      tree =
          streaming::make_stream_session(cp, base, opts_for(ExecTier::kTree));
      tree->converge();
    }
    std::unique_ptr<streaming::DvStreamSession> native;
    if (opts.check_native) {
      native = streaming::make_stream_session(cp, base,
                                              opts_for(ExecTier::kNative));
      const DvRunResult cold = native->converge();
      if (cold.tier_used != ExecTier::kNative)
        return DiffFailure{"native", "native session ran on the " +
                                         std::string(exec_tier_name(
                                             cold.tier_used)) +
                                         ": " + cold.native_fallback};
    }
    // Fold-path axis: the default sessions above route proven sites
    // through the lock-free pending slots; these force the buffered
    // message path (the oracle) and the float + opt-in respectively.
    std::unique_ptr<streaming::DvStreamSession> buffered;
    std::unique_ptr<streaming::DvStreamSession> afloat;
    if (opts.check_fold_path) {
      auto bo = opts_for(ExecTier::kVm);
      bo.run.fold_path = FoldPath::kBuffered;
      buffered = streaming::make_stream_session(cp, base, bo);
      buffered->converge();
      auto fo = opts_for(ExecTier::kVm);
      fo.run.fold_path = FoldPath::kAuto;
      fo.run.atomic_float = true;
      afloat = streaming::make_stream_session(cp, base, fo);
      afloat->converge();
    }

    // Change-set axis: every session reports which rows its epochs
    // changed (the serving view patches exactly those). Each is checked
    // against its own previous state, so a tier that misses a user-field
    // store fails under its own name.
    struct Tracked {
      const char* name;
      streaming::DvStreamSession* session;
      DvRunResult prev;
    };
    std::vector<Tracked> tracked;
    std::vector<graph::VertexId> changed;
    const auto track = [&](const char* name,
                           streaming::DvStreamSession* s) {
      if (s == nullptr) return;
      s->take_changed(changed);  // arms the recording
      tracked.push_back({name, s, s->result()});
    };
    track("vm", vm.get());
    track("tree", tree.get());
    track("native", native.get());
    track("vm/buffered", buffered.get());
    track("vm/atomic_float", afloat.get());

    const auto oracle_state = [&](const streaming::DvStreamSession& s,
                                  ExecTier tier) {
      DvRunOptions o;
      o.engine = fuzz_engine_options(opts.workers);
      o.tier = tier;
      o.params = sc.params;
      return run_program(cp_star, s.graph().materialize(), o);
    };

    for (std::size_t bi = 0; bi < sc.batches.size(); ++bi) {
      const auto tag = [&](const std::string& what) {
        return "batch " + std::to_string(bi) + ": " + what;
      };
      const streaming::SessionEpoch ev = vm->apply(sc.batches[bi]);
      if (sc.expect_warm && !ev.warm)
        return DiffFailure{"warm",
                           tag(std::string("expected a warm epoch, got "
                                           "cold: ") +
                               (ev.blocker ? ev.blocker : "?"))};

      const DvRunResult rv = vm->result();
      const std::string diff =
          compare_user_fields(rv, oracle_state(*vm, ExecTier::kVm),
                              opts.float_tol);
      if (!diff.empty()) return DiffFailure{"values", tag(diff)};

      // Tier axes: the same decisions, superstep counts and state bits as
      // the VM session.
      for (const auto& [name, session] :
           {std::pair{"tree", tree.get()}, {"native", native.get()}}) {
        if (session == nullptr) continue;
        const std::string vs = std::string(" vs ") + name + " ";
        const streaming::SessionEpoch et = session->apply(sc.batches[bi]);
        if (ev.warm != et.warm)
          return DiffFailure{
              "tiers", tag(std::string("warm/cold disagreement: vm vs ") +
                           name)};
        if (ev.stats.supersteps != et.stats.supersteps)
          return DiffFailure{
              "tiers", tag("superstep counts diverge: vm " +
                           std::to_string(ev.stats.supersteps) + vs +
                           std::to_string(et.stats.supersteps))};
        const DvRunResult rt = session->result();
        if (rv.state.size() != rt.state.size())
          return DiffFailure{"tiers", tag("state sizes diverge")};
        for (std::size_t i = 0; i < rv.state.size(); ++i)
          if (!value_bits_equal(rv.state[i], rt.state[i]))
            return DiffFailure{
                "tiers", tag("state word " + std::to_string(i) + ": vm " +
                             show(rv.state[i]) + vs + show(rt.state[i]))};
      }

      if (buffered) {
        // Forced-buffered oracle session: identical decisions, superstep
        // counts and state. Ints/bools bit-exact; floats numerically
        // exact up to ±0.0 (CAS-min tie order can flip a zero's sign).
        const streaming::SessionEpoch eb = buffered->apply(sc.batches[bi]);
        if (ev.warm != eb.warm)
          return DiffFailure{
              "fold_path", tag("warm/cold disagreement vs buffered")};
        if (ev.stats.supersteps != eb.stats.supersteps)
          return DiffFailure{
              "fold_path",
              tag("superstep counts diverge: atomic " +
                  std::to_string(ev.stats.supersteps) + " vs buffered " +
                  std::to_string(eb.stats.supersteps))};
        const DvRunResult rb = buffered->result();
        if (rv.state.size() != rb.state.size())
          return DiffFailure{"fold_path", tag("state sizes diverge")};
        for (std::size_t i = 0; i < rv.state.size(); ++i) {
          const bool ok = rv.state[i].type == Type::kFloat
                              ? value_close(rv.state[i], rb.state[i], 0.0)
                              : value_bits_equal(rv.state[i], rb.state[i]);
          if (!ok)
            return DiffFailure{
                "fold_path", tag("state word " + std::to_string(i) +
                                 ": default " + show(rv.state[i]) +
                                 " vs buffered " + show(rb.state[i]))};
        }
      }
      if (afloat) {
        // Float + opt-in: fetch order re-associates the sum, so only
        // ε-closeness of the user-visible fields is required.
        const streaming::SessionEpoch ef = afloat->apply(sc.batches[bi]);
        if (ev.warm != ef.warm)
          return DiffFailure{
              "fold_path", tag("warm/cold disagreement vs atomic_float")};
        const std::string fdiff = compare_user_fields(
            afloat->result(), vm->result(), opts.float_tol);
        if (!fdiff.empty())
          return DiffFailure{"fold_path", tag("atomic_float: " + fdiff)};
      }

      for (Tracked& t : tracked) {
        const bool exact = t.session->take_changed(changed);
        DvRunResult now = t.session->result();
        const std::string cdiff = check_change_set(t.prev, now, changed, exact);
        if (!cdiff.empty())
          return DiffFailure{"changed_set",
                             tag(std::string(t.name) + " session: " + cdiff)};
        t.prev = std::move(now);
      }
    }
  } catch (const std::exception& e) {
    return DiffFailure{"exception", e.what()};
  }
  return std::nullopt;
}

}  // namespace deltav::dv::testing
