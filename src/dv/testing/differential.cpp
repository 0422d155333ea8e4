#include "dv/testing/differential.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <vector>

#include "dv/codegen/native_module.h"
#include "dv/compiler.h"
#include "dv/passes/verifier.h"
#include "dv/runtime/delta.h"
#include "dv/runtime/runner.h"

namespace deltav::dv::testing {

namespace {

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

/// Reconstructed receiver state for one (vertex, site) message stream.
struct StreamAcc {
  Value acc;
  Value nn;
  Value nulls;
};

struct ProbeState {
  std::mutex mu;
  std::vector<StreamAcc> streams;  // num_vertices × num_sites
  std::vector<std::string> errors;
};

DvRunOptions base_run_options(const FuzzCase& fc, const DiffOptions& opts,
                              int workers) {
  DvRunOptions ro;
  ro.engine = fuzz_engine_options(workers);
  ro.params = fc.params;
  ro.max_supersteps = opts.max_supersteps;
  return ro;
}

/// Bit-level equivalence of two runs of the *same* compiled program on
/// different execution tiers: identical shape, state words, and
/// message/byte counts. Returns a human-readable mismatch, or empty.
std::string diff_runs(const DvRunResult& vm, const DvRunResult& tree) {
  if (vm.supersteps != tree.supersteps)
    return "supersteps " + std::to_string(vm.supersteps) + " vs " +
           std::to_string(tree.supersteps);
  if (vm.stats.total_messages_sent() != tree.stats.total_messages_sent())
    return "messages " + std::to_string(vm.stats.total_messages_sent()) +
           " vs " + std::to_string(tree.stats.total_messages_sent());
  if (vm.stats.total_bytes_sent() != tree.stats.total_bytes_sent())
    return "bytes " + std::to_string(vm.stats.total_bytes_sent()) + " vs " +
           std::to_string(tree.stats.total_bytes_sent());
  if (vm.state.size() != tree.state.size()) return "state shape differs";
  for (std::size_t i = 0; i < vm.state.size(); ++i)
    if (!value_bits_equal(vm.state[i], tree.state[i]))
      return "state word " + std::to_string(i) + ": " + show(vm.state[i]) +
             " vs " + show(tree.state[i]);
  return {};
}

}  // namespace

pregel::EngineOptions fuzz_engine_options(int workers) {
  pregel::EngineOptions o;
  o.num_workers = workers;
  o.partition = workers % 2 == 0 ? pregel::PartitionScheme::kHash
                                 : pregel::PartitionScheme::kBlock;
  o.cluster.machines = 2;
  o.cluster.workers_per_machine = 2;
  return o;
}

std::optional<DiffFailure> check_case(const FuzzCase& fc,
                                      const DiffOptions& opts) {
  CompiledProgram dv_cp, star_cp;
  try {
    dv_cp = compile(fc.source, CompileOptions{});
    CompileOptions star_opts;
    star_opts.incrementalize = false;
    star_cp = compile(fc.source, star_opts);
  } catch (const std::exception& e) {
    return DiffFailure{"compile", e.what()};
  }

  // compile() runs the verifier after every pass; re-running the final
  // stage here also covers the stored AST the runner will interpret.
  try {
    verify_program(dv_cp.program, VerifyStage::kFinal);
    verify_program(star_cp.program, VerifyStage::kFinal);
  } catch (const std::exception& e) {
    return DiffFailure{"verifier", e.what()};
  }

  const graph::CsrGraph g = fc.graph.build();
  const std::size_t n = g.num_vertices();
  const std::size_t num_sites = dv_cp.num_sites();

  std::optional<DvRunResult> first_dv;  // for the cross-worker-count check
  int first_workers = 0;

  // Native axis availability is probed once per process; without a host
  // compiler the axis is skipped (callers report the skip count).
  const bool native_axis =
      opts.check_native && native::native_unavailable_reason().empty();

  for (const int workers : fc.worker_counts) {
    // --- ΔV* reference run -------------------------------------------
    DvRunResult star;
    try {
      star = run_program(star_cp, g, base_run_options(fc, opts, workers));
    } catch (const std::exception& e) {
      return DiffFailure{"run", std::string("ΔV* (") +
                                    std::to_string(workers) +
                                    " workers): " + e.what()};
    }

    // --- ΔV run with the live-stream probe ---------------------------
    const auto init_streams = [&](ProbeState& p) {
      p.streams.assign(n * num_sites, StreamAcc{});
      for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t s = 0; s < num_sites; ++s) {
          auto& st = p.streams[v * num_sites + s];
          const AggOp op = dv_cp.site_ops.ops[s];
          const Type t = dv_cp.site_ops.types[s];
          st.acc = agg_identity(op, t);
          st.nn = agg_identity(op, t);
          st.nulls = Value::of_int(0);
        }
      }
    };
    ProbeState probe;
    init_streams(probe);

    DvRunOptions dv_ro = base_run_options(fc, opts, workers);
    dv_ro.send_probe = [&](graph::VertexId, graph::VertexId dst,
                           const DvMessage& m) {
      std::lock_guard<std::mutex> lock(probe.mu);
      const auto s = static_cast<std::size_t>(m.site);
      const AggOp op = dv_cp.site_ops.ops[s];
      const Type t = dv_cp.site_ops.types[s];
      if (is_identity(op, m.payload) && m.nulls == 0 && m.denulls == 0 &&
          probe.errors.size() < 8) {
        probe.errors.push_back("meaningless message to vertex " +
                               std::to_string(dst) + " site " +
                               std::to_string(s) + " payload " +
                               show(m.payload));
      }
      auto& st = probe.streams[static_cast<std::size_t>(dst) * num_sites + s];
      apply_delta(op, t, AccumRef{&st.acc, &st.nn, &st.nulls}, m.payload,
                  m.nulls, m.denulls);
    };

    DvRunResult dv;
    try {
      dv = run_program(dv_cp, g, dv_ro);
    } catch (const std::exception& e) {
      return DiffFailure{"run", std::string("ΔV (") +
                                    std::to_string(workers) +
                                    " workers): " + e.what()};
    }

    if (!probe.errors.empty())
      return DiffFailure{"meaningful", probe.errors.front() + " (" +
                                           std::to_string(workers) +
                                           " workers)"};

    // --- Eq. 11: replayed stream vs. final memoized accumulators ------
    if (opts.check_eq11) {
      for (const auto& site : dv_cp.program.sites) {
        if (site.acc_slot < 0) continue;
        const auto s = static_cast<std::size_t>(site.id);
        for (std::size_t v = 0; v < n; ++v) {
          const auto& st = probe.streams[v * num_sites + s];
          const Value& acc = dv.at(static_cast<graph::VertexId>(v),
                                   site.acc_slot);
          if (!value_close(acc, st.acc, opts.float_tol))
            return DiffFailure{
                "eq11", "site " + std::to_string(site.id) + " vertex " +
                            std::to_string(v) + ": accumulator " +
                            show(acc) + " != replayed stream fold " +
                            show(st.acc) + " (" + std::to_string(workers) +
                            " workers)"};
          if (site.multiplicative()) {
            const Value& nn = dv.at(static_cast<graph::VertexId>(v),
                                    site.nn_slot);
            const Value& nulls = dv.at(static_cast<graph::VertexId>(v),
                                       site.nulls_slot);
            if (!value_close(nn, st.nn, opts.float_tol) ||
                nulls.i != st.nulls.i)
              return DiffFailure{
                  "eq11", "site " + std::to_string(site.id) + " vertex " +
                              std::to_string(v) + ": nn/nulls " + show(nn) +
                              "/" + show(nulls) + " != replayed " +
                              show(st.nn) + "/" + show(st.nulls) + " (" +
                              std::to_string(workers) + " workers)"};
          }
        }
      }
    }

    // --- user-visible state equivalence -------------------------------
    for (std::size_t slot = 0; slot < dv.fields.size(); ++slot) {
      const Field& f = dv.fields[slot];
      if (f.origin != Field::Origin::kUser) continue;
      const int star_slot = star.field_slot(f.name);
      if (star_slot < 0)
        return DiffFailure{"values", "field " + f.name + " missing in ΔV*"};
      for (std::size_t v = 0; v < n; ++v) {
        const Value& a = dv.at(static_cast<graph::VertexId>(v),
                               static_cast<int>(slot));
        const Value& b =
            star.at(static_cast<graph::VertexId>(v), star_slot);
        if (!value_close(a, b, opts.float_tol))
          return DiffFailure{
              "values", "field " + f.name + " vertex " + std::to_string(v) +
                            ": ΔV " + show(a) + " != ΔV* " + show(b) +
                            " (" + std::to_string(workers) + " workers)"};
      }
      if (first_dv) {
        const int prev_slot = first_dv->field_slot(f.name);
        for (std::size_t v = 0; v < n; ++v) {
          const Value& a = dv.at(static_cast<graph::VertexId>(v),
                                 static_cast<int>(slot));
          const Value& b =
              first_dv->at(static_cast<graph::VertexId>(v), prev_slot);
          if (!value_close(a, b, opts.float_tol))
            return DiffFailure{
                "values", "field " + f.name + " vertex " +
                              std::to_string(v) + ": " +
                              std::to_string(workers) + " workers " +
                              show(a) + " != " +
                              std::to_string(first_workers) + " workers " +
                              show(b)};
        }
      }
    }

    // --- the paper's headline inequality ------------------------------
    if (opts.check_message_counts &&
        dv.stats.total_messages_sent() > star.stats.total_messages_sent())
      return DiffFailure{
          "messages", "ΔV sent " +
                          std::to_string(dv.stats.total_messages_sent()) +
                          " > ΔV* " +
                          std::to_string(star.stats.total_messages_sent()) +
                          " (" + std::to_string(workers) + " workers)"};

    // --- bit-exact determinism ----------------------------------------
    if (opts.check_determinism) {
      DvRunResult again;
      try {
        again = run_program(dv_cp, g, base_run_options(fc, opts, workers));
      } catch (const std::exception& e) {
        return DiffFailure{"determinism", e.what()};
      }
      if (again.supersteps != dv.supersteps ||
          again.state.size() != dv.state.size())
        return DiffFailure{"determinism",
                           "superstep/state shape differs between runs (" +
                               std::to_string(workers) + " workers)"};
      for (std::size_t i = 0; i < dv.state.size(); ++i) {
        if (!value_bits_equal(dv.state[i], again.state[i]))
          return DiffFailure{
              "determinism",
              "state word " + std::to_string(i) + " differs: " +
                  show(dv.state[i]) + " vs " + show(again.state[i]) + " (" +
                  std::to_string(workers) + " workers)"};
      }
    }

    // --- execution-tier equivalence -----------------------------------
    // The reference tree interpreter must reproduce the bytecode VM runs
    // above (the tier default) bit-for-bit — state words, message and
    // byte counts — for both variants, and replay an equivalent Eq. 11
    // stream. With one worker the send order is deterministic, so the
    // replayed stream folds are compared bit-exactly; with more workers
    // thread interleaving reassociates the float folds and the comparison
    // falls back to the harness tolerance.
    if (opts.check_tiers) {
      ProbeState tree_probe;
      init_streams(tree_probe);
      DvRunOptions tree_ro = base_run_options(fc, opts, workers);
      tree_ro.tier = ExecTier::kTree;
      tree_ro.send_probe = [&](graph::VertexId, graph::VertexId dst,
                               const DvMessage& m) {
        std::lock_guard<std::mutex> lock(tree_probe.mu);
        const auto s = static_cast<std::size_t>(m.site);
        auto& st =
            tree_probe.streams[static_cast<std::size_t>(dst) * num_sites + s];
        apply_delta(dv_cp.site_ops.ops[s], dv_cp.site_ops.types[s],
                    AccumRef{&st.acc, &st.nn, &st.nulls}, m.payload, m.nulls,
                    m.denulls);
      };
      DvRunResult tree_dv;
      try {
        tree_dv = run_program(dv_cp, g, tree_ro);
      } catch (const std::exception& e) {
        return DiffFailure{"tiers", std::string("ΔV tree tier (") +
                                        std::to_string(workers) +
                                        " workers): " + e.what()};
      }
      if (std::string d = diff_runs(dv, tree_dv); !d.empty())
        return DiffFailure{"tiers", "ΔV vm vs tree: " + d + " (" +
                                        std::to_string(workers) +
                                        " workers)"};
      const bool exact_stream = workers == 1;
      for (std::size_t i = 0; i < probe.streams.size(); ++i) {
        const StreamAcc& a = probe.streams[i];
        const StreamAcc& b = tree_probe.streams[i];
        const bool ok =
            a.nulls.i == b.nulls.i &&
            (exact_stream
                 ? value_bits_equal(a.acc, b.acc) &&
                       value_bits_equal(a.nn, b.nn)
                 : value_close(a.acc, b.acc, opts.float_tol) &&
                       value_close(a.nn, b.nn, opts.float_tol));
        if (!ok)
          return DiffFailure{
              "tiers", "Eq. 11 stream " + std::to_string(i) +
                           " differs between tiers: vm " + show(a.acc) +
                           " vs tree " + show(b.acc) + " (" +
                           std::to_string(workers) + " workers)"};
      }

      DvRunOptions star_tree_ro = base_run_options(fc, opts, workers);
      star_tree_ro.tier = ExecTier::kTree;
      DvRunResult tree_star;
      try {
        tree_star = run_program(star_cp, g, star_tree_ro);
      } catch (const std::exception& e) {
        return DiffFailure{"tiers", std::string("ΔV* tree tier (") +
                                        std::to_string(workers) +
                                        " workers): " + e.what()};
      }
      if (std::string d = diff_runs(star, tree_star); !d.empty())
        return DiffFailure{"tiers", "ΔV* vm vs tree: " + d + " (" +
                                        std::to_string(workers) +
                                        " workers)"};
    }

    // --- native-tier equivalence --------------------------------------
    // The AOT-compiled object must reproduce the VM runs bit-for-bit
    // under the same contract as the tree tier: state words, message and
    // byte counts, supersteps, and a replayed Eq. 11 stream. fold_path
    // is forced buffered to match the probe-carrying baselines above
    // (the probe run disables atomic routing), and a silent fallback to
    // the VM is itself a failure — the fuzzer must exercise the native
    // tier, not a lookalike.
    if (native_axis) {
      ProbeState nat_probe;
      init_streams(nat_probe);
      DvRunOptions nat_ro = base_run_options(fc, opts, workers);
      nat_ro.tier = ExecTier::kNative;
      nat_ro.fold_path = FoldPath::kBuffered;
      nat_ro.send_probe = [&](graph::VertexId, graph::VertexId dst,
                              const DvMessage& m) {
        std::lock_guard<std::mutex> lock(nat_probe.mu);
        const auto s = static_cast<std::size_t>(m.site);
        auto& st =
            nat_probe.streams[static_cast<std::size_t>(dst) * num_sites + s];
        apply_delta(dv_cp.site_ops.ops[s], dv_cp.site_ops.types[s],
                    AccumRef{&st.acc, &st.nn, &st.nulls}, m.payload, m.nulls,
                    m.denulls);
      };
      DvRunResult nat_dv;
      try {
        nat_dv = run_program(dv_cp, g, nat_ro);
      } catch (const std::exception& e) {
        return DiffFailure{"native", std::string("ΔV native tier (") +
                                         std::to_string(workers) +
                                         " workers): " + e.what()};
      }
      if (nat_dv.tier_used != ExecTier::kNative)
        return DiffFailure{"native",
                           "ΔV fell back to the VM: " +
                               nat_dv.native_fallback};
      if (std::string d = diff_runs(dv, nat_dv); !d.empty())
        return DiffFailure{"native", "ΔV vm vs native: " + d + " (" +
                                         std::to_string(workers) +
                                         " workers)"};
      const bool exact_stream = workers == 1;
      for (std::size_t i = 0; i < probe.streams.size(); ++i) {
        const StreamAcc& a = probe.streams[i];
        const StreamAcc& b = nat_probe.streams[i];
        const bool ok =
            a.nulls.i == b.nulls.i &&
            (exact_stream
                 ? value_bits_equal(a.acc, b.acc) &&
                       value_bits_equal(a.nn, b.nn)
                 : value_close(a.acc, b.acc, opts.float_tol) &&
                       value_close(a.nn, b.nn, opts.float_tol));
        if (!ok)
          return DiffFailure{
              "native", "Eq. 11 stream " + std::to_string(i) +
                            " differs between tiers: vm " + show(a.acc) +
                            " vs native " + show(b.acc) + " (" +
                            std::to_string(workers) + " workers)"};
      }

      DvRunOptions star_nat_ro = base_run_options(fc, opts, workers);
      star_nat_ro.tier = ExecTier::kNative;
      star_nat_ro.fold_path = FoldPath::kBuffered;
      DvRunResult nat_star;
      try {
        nat_star = run_program(star_cp, g, star_nat_ro);
      } catch (const std::exception& e) {
        return DiffFailure{"native", std::string("ΔV* native tier (") +
                                         std::to_string(workers) +
                                         " workers): " + e.what()};
      }
      if (nat_star.tier_used != ExecTier::kNative)
        return DiffFailure{"native",
                           "ΔV* fell back to the VM: " +
                               nat_star.native_fallback};
      if (std::string d = diff_runs(star, nat_star); !d.empty())
        return DiffFailure{"native", "ΔV* vm vs native: " + d + " (" +
                                         std::to_string(workers) +
                                         " workers)"};
    }

    // --- fold-path axis -----------------------------------------------
    // The lock-free pending-slot path must be observationally identical
    // to the buffered message path (the probe run above forces buffered):
    // same fixpoint, same superstep count, never more messages. Checked
    // on both tiers. Ints and bools compare bit-exactly; floats compare
    // numerically exact (±0.0 only — CAS-min tie order can flip a zero's
    // sign where the buffered fold keeps its first candidate).
    if (opts.check_fold_path) {
      const auto fold_equal = [](const Value& a, const Value& b) {
        return a.type == Type::kFloat ? value_close(a, b, 0.0)
                                      : value_bits_equal(a, b);
      };
      for (const ExecTier tier :
           {ExecTier::kVm, ExecTier::kTree, ExecTier::kNative}) {
        if (tier == ExecTier::kTree && !opts.check_tiers) continue;
        if (tier == ExecTier::kNative && !native_axis) continue;
        DvRunOptions aro = base_run_options(fc, opts, workers);
        aro.tier = tier;
        aro.fold_path = FoldPath::kAuto;
        DvRunResult atomic;
        try {
          atomic = run_program(dv_cp, g, aro);
        } catch (const std::exception& e) {
          return DiffFailure{"fold_path",
                             std::string(exec_tier_name(tier)) + " (" +
                                 std::to_string(workers) +
                                 " workers): " + e.what()};
        }
        if (atomic.tier_used != tier)
          return DiffFailure{"fold_path",
                             std::string(exec_tier_name(tier)) +
                                 ": fell back to " +
                                 exec_tier_name(atomic.tier_used) + ": " +
                                 atomic.native_fallback};
        if (atomic.supersteps != dv.supersteps)
          return DiffFailure{
              "fold_path",
              std::string(exec_tier_name(tier)) + ": atomic ran " +
                  std::to_string(atomic.supersteps) + " supersteps vs " +
                  std::to_string(dv.supersteps) + " buffered (" +
                  std::to_string(workers) + " workers)"};
        if (atomic.stats.total_messages_sent() >
            dv.stats.total_messages_sent())
          return DiffFailure{
              "fold_path",
              std::string(exec_tier_name(tier)) + ": atomic sent " +
                  std::to_string(atomic.stats.total_messages_sent()) +
                  " messages > buffered " +
                  std::to_string(dv.stats.total_messages_sent()) + " (" +
                  std::to_string(workers) + " workers)"};
        if (atomic.state.size() != dv.state.size())
          return DiffFailure{"fold_path", "state shape differs"};
        for (std::size_t i = 0; i < dv.state.size(); ++i)
          if (!fold_equal(atomic.state[i], dv.state[i]))
            return DiffFailure{
                "fold_path",
                std::string(exec_tier_name(tier)) + ": state word " +
                    std::to_string(i) + ": atomic " + show(atomic.state[i]) +
                    " vs buffered " + show(dv.state[i]) + " (" +
                    std::to_string(workers) + " workers)"};
      }

      // Float + opt-in: concurrent fetch order re-associates the sum by
      // design, so only ε-closeness is required (and superstep counts may
      // legitimately drift where a change check sees a tiny residue).
      DvRunOptions fro = base_run_options(fc, opts, workers);
      fro.fold_path = FoldPath::kAuto;
      fro.atomic_float = true;
      DvRunResult afloat;
      try {
        afloat = run_program(dv_cp, g, fro);
      } catch (const std::exception& e) {
        return DiffFailure{"fold_path",
                           std::string("atomic_float (") +
                               std::to_string(workers) +
                               " workers): " + e.what()};
      }
      if (afloat.state.size() != dv.state.size())
        return DiffFailure{"fold_path", "atomic_float state shape differs"};
      for (std::size_t i = 0; i < dv.state.size(); ++i)
        if (!value_close(afloat.state[i], dv.state[i], opts.float_tol))
          return DiffFailure{
              "fold_path",
              "atomic_float state word " + std::to_string(i) + ": " +
                  show(afloat.state[i]) + " vs buffered " +
                  show(dv.state[i]) + " (" + std::to_string(workers) +
                  " workers)"};
    }

    if (!first_dv) {
      first_dv = std::move(dv);
      first_workers = workers;
    }
  }

  return std::nullopt;
}

}  // namespace deltav::dv::testing
