#include "dv/testing/remote_gen.h"

#include <sstream>

#include "dv/compiler.h"
#include "dv/runtime/runner.h"

namespace deltav::dv::testing {

namespace {

// ---------------------------------------------------------------------------
// Generation. Programs are rendered directly to text: the remote family has
// no reducer, so there is no spec indirection to preserve.

/// A request-phase-evaluable int target expression. `two_fields` unlocks
/// the shapes that read the second field.
std::string random_target(Rng& rng, bool two_fields) {
  switch (rng.next_below(two_fields ? 6 : 4)) {
    case 0: return "f";
    case 1: return "vertexId + 1";
    case 2: return "f + 1";
    case 3: return "i + vertexId";
    case 4: return "f + g";
    default: return "if f < g then f else g";
  }
}

/// The consume-phase update applied to the fetched value `p`.
std::string random_update(Rng& rng, bool two_fields) {
  switch (rng.next_below(two_fields ? 5 : 4)) {
    case 0: return "f = p";
    case 1: return "if p < f then f = p";
    case 2: return "if p > f then f = p";
    case 3: return "f = f + p";
    default: return "g = p";
  }
}

std::string remote_iter(Rng& rng, bool two_fields) {
  const char* field = two_fields && rng.next_bool(0.4) ? "g" : "f";
  const auto bound = 1 + rng.next_below(4);  // K in 1..4: always terminates
  std::ostringstream os;
  os << "iter i {\n  let p : int = remote(" << random_target(rng, two_fields)
     << ")." << field << " in\n  " << random_update(rng, two_fields)
     << "\n} until { i >= " << bound << " }";
  return os.str();
}

}  // namespace

RemoteCase generate_remote_case(Rng& rng) {
  const bool two_fields = rng.next_bool(0.5);

  std::vector<std::string> blocks;
  {
    std::ostringstream init;
    init << "init {\n  local f : int = ";
    switch (rng.next_below(3)) {
      case 0: init << "vertexId"; break;
      case 1: init << "vertexId * 3 + 1"; break;
      default: init << "7"; break;
    }
    if (two_fields) init << ";\n  local g : int = vertexId";
    init << "\n}";
    blocks.push_back(init.str());
  }

  // Optional guarded-monotone aggregation seed, so the remote phases run
  // against sites/memoization machinery left armed by a real ⊞ statement.
  if (rng.next_bool(0.5)) {
    const char* dir = rng.next_bool() ? "#in" : "#out";
    if (rng.next_bool()) {
      blocks.push_back(std::string("step {\n  let m : int = min [ u.f | u <- ") +
                       dir + " ] in\n  if m < f then f = m\n}");
    } else {
      blocks.push_back(std::string("step {\n  let m : int = max [ u.f | u <- ") +
                       dir + " ] in\n  if m > f then f = m\n}");
    }
  }

  blocks.push_back(remote_iter(rng, two_fields));
  if (rng.next_bool(0.3)) blocks.push_back(remote_iter(rng, two_fields));

  std::ostringstream src;
  for (std::size_t i = 0; i < blocks.size(); ++i)
    src << blocks[i] << (i + 1 < blocks.size() ? ";\n" : "\n");

  RemoteCase rc;
  rc.source = src.str();

  // Minimum sizes track the generator preconditions (graph/generators.cpp:
  // path ≥ 1, cycle ≥ 3, star ≥ 1 leaf, complete/rmat ≥ 2 vertices).
  rc.graph.directed = true;
  rc.graph.weighted = false;
  rc.graph.seed = rng.next_u64();
  switch (rng.next_below(5)) {
    case 0:
      rc.graph.kind = GraphSpec::Kind::kPath;
      rc.graph.n = 1 + rng.next_below(40);
      break;
    case 1:
      rc.graph.kind = GraphSpec::Kind::kCycle;
      rc.graph.n = 3 + rng.next_below(38);
      break;
    case 2:
      rc.graph.kind = GraphSpec::Kind::kStar;
      rc.graph.n = 2 + rng.next_below(39);
      break;
    case 3:
      rc.graph.kind = GraphSpec::Kind::kComplete;
      rc.graph.n = 2 + rng.next_below(11);  // complete graphs stay small
      break;
    default:
      rc.graph.kind = GraphSpec::Kind::kRmat;
      rc.graph.n = 2 + rng.next_below(39);
      rc.graph.m = rc.graph.n * 3;
      break;
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Checking.

namespace {

bool value_bits_equal(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case Type::kInt: return a.i == b.i;
    case Type::kBool: return a.b == b.b;
    case Type::kFloat: return a.f == b.f;  // generated programs are int-only
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

/// Bit-level equivalence of two runs of the same compiled program.
std::string diff_runs(const DvRunResult& a, const DvRunResult& b) {
  if (a.supersteps != b.supersteps)
    return "supersteps " + std::to_string(a.supersteps) + " vs " +
           std::to_string(b.supersteps);
  if (a.stats.total_messages_sent() != b.stats.total_messages_sent())
    return "messages " + std::to_string(a.stats.total_messages_sent()) +
           " vs " + std::to_string(b.stats.total_messages_sent());
  if (a.state.size() != b.state.size()) return "state shape differs";
  for (std::size_t i = 0; i < a.state.size(); ++i)
    if (!value_bits_equal(a.state[i], b.state[i]))
      return "state word " + std::to_string(i) + ": " + show(a.state[i]) +
             " vs " + show(b.state[i]);
  return {};
}

/// User-visible field equivalence between runs of *different* compiled
/// programs (slot layouts may differ).
std::string diff_user_fields(const DvRunResult& a, const DvRunResult& b,
                             std::size_t n) {
  for (std::size_t slot = 0; slot < a.fields.size(); ++slot) {
    const Field& f = a.fields[slot];
    if (f.origin != Field::Origin::kUser) continue;
    const int bslot = b.field_slot(f.name);
    if (bslot < 0) return "field " + f.name + " missing";
    for (std::size_t v = 0; v < n; ++v) {
      const Value& av =
          a.at(static_cast<graph::VertexId>(v), static_cast<int>(slot));
      const Value& bv = b.at(static_cast<graph::VertexId>(v), bslot);
      if (!value_bits_equal(av, bv))
        return "field " + f.name + " vertex " + std::to_string(v) + ": " +
               show(av) + " vs " + show(bv);
    }
  }
  return {};
}

}  // namespace

std::optional<DiffFailure> check_remote_case(const RemoteCase& rc,
                                             const RemoteDiffOptions& opts) {
  CompiledProgram low_dv, low_st, ref_dv, ref_st;
  try {
    low_dv = compile(rc.source, CompileOptions{});
    CompileOptions o;
    o.incrementalize = false;
    low_st = compile(rc.source, o);
    CompileOptions r;
    r.lower_remote = false;
    ref_dv = compile(rc.source, r);
    r.incrementalize = false;
    ref_st = compile(rc.source, r);
  } catch (const std::exception& e) {
    return DiffFailure{"compile", e.what()};
  }

  const graph::CsrGraph g = rc.graph.build();
  const std::size_t n = g.num_vertices();

  const auto run = [&](const CompiledProgram& cp, ExecTier tier, int workers,
                       DvRunResult& out) -> std::string {
    DvRunOptions ro;
    ro.engine = fuzz_engine_options(workers);
    ro.max_supersteps = opts.max_supersteps;
    ro.tier = tier;
    try {
      out = run_program(cp, g, ro);
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  };

  std::optional<DvRunResult> first;  // cross-worker-count anchor (ΔV tree)
  int first_workers = 0;

  for (const int workers : rc.worker_counts) {
    const std::string tag = " (" + std::to_string(workers) + " workers)";
    DvRunResult dv_tree, dv_vm, st_tree, st_vm, rdv, rst;
    if (auto e = run(low_dv, ExecTier::kTree, workers, dv_tree); !e.empty())
      return DiffFailure{"run", "ΔV lowered tree: " + e + tag};
    if (auto e = run(low_dv, ExecTier::kVm, workers, dv_vm); !e.empty())
      return DiffFailure{"run", "ΔV lowered vm: " + e + tag};
    if (auto e = run(low_st, ExecTier::kTree, workers, st_tree); !e.empty())
      return DiffFailure{"run", "ΔV* lowered tree: " + e + tag};
    if (auto e = run(low_st, ExecTier::kVm, workers, st_vm); !e.empty())
      return DiffFailure{"run", "ΔV* lowered vm: " + e + tag};
    if (auto e = run(ref_dv, ExecTier::kTree, workers, rdv); !e.empty())
      return DiffFailure{"run", "ΔV reference: " + e + tag};
    if (auto e = run(ref_st, ExecTier::kTree, workers, rst); !e.empty())
      return DiffFailure{"run", "ΔV* reference: " + e + tag};

    // Lowered tree ≡ lowered vm, full bit-level contract, both variants.
    if (auto d = diff_runs(dv_vm, dv_tree); !d.empty())
      return DiffFailure{"tiers", "ΔV vm vs tree: " + d + tag};
    if (auto d = diff_runs(st_vm, st_tree); !d.empty())
      return DiffFailure{"tiers", "ΔV* vm vs tree: " + d + tag};

    // The tentpole contract: the 3-phase lowering is observationally the
    // reference interpretation.
    if (auto d = diff_user_fields(dv_tree, rdv, n); !d.empty())
      return DiffFailure{"lowering", "ΔV lowered vs reference: " + d + tag};
    if (auto d = diff_user_fields(st_tree, rst, n); !d.empty())
      return DiffFailure{"lowering", "ΔV* lowered vs reference: " + d + tag};

    // ΔV ≡ ΔV*, lowered and reference.
    if (auto d = diff_user_fields(dv_tree, st_tree, n); !d.empty())
      return DiffFailure{"variants", "lowered ΔV vs ΔV*: " + d + tag};
    if (auto d = diff_user_fields(rdv, rst, n); !d.empty())
      return DiffFailure{"variants", "reference ΔV vs ΔV*: " + d + tag};

    // Worker-count independence.
    if (first) {
      if (auto d = diff_user_fields(dv_tree, *first, n); !d.empty())
        return DiffFailure{"workers",
                           std::to_string(workers) + " vs " +
                               std::to_string(first_workers) +
                               " workers: " + d};
    } else {
      first = std::move(dv_tree);
      first_workers = workers;
    }
  }

  return std::nullopt;
}

}  // namespace deltav::dv::testing
