// Long-soak differential fuzzer for the ΔV compiler pipeline.
//
//   dv_fuzz --seed=1 --programs=10000            # soak
//   dv_fuzz --seed=1 --programs=10000 --save     # persist reduced failures
//   dv_fuzz --replay=tests/corpus                # re-run saved failures
//   dv_fuzz --stream --programs=500              # streaming-epoch tier:
//                                                # (program, graph, mutation
//                                                # stream) triples, warm
//                                                # sessions vs ΔV* rebuilds
//   dv_fuzz --persist --programs=300             # persistence tier: the same
//                                                # triples swept over snapshot
//                                                # kill-points — bit-exact
//                                                # restores, corrupted
//                                                # snapshots always detected
//   dv_fuzz --remote --programs=300              # remote-read tier: bounded
//                                                # remote(u).f programs; the
//                                                # request/reply lowering held
//                                                # bit-exact against the
//                                                # reference interpretation,
//                                                # across tiers and variants
//
// Each program is generated from an independent split of the base seed, so
// any failure reproduces from (--seed, reported index) alone. Failures are
// greedily reduced (same failing check, smaller program/graph) before being
// reported or saved.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/args.h"
#include "common/rng.h"
#include "dv/codegen/native_module.h"
#include "dv/obs/report.h"
#include "dv/testing/corpus.h"
#include "dv/testing/differential.h"
#include "dv/testing/program_gen.h"
#include "dv/testing/reducer.h"
#include "dv/testing/persist_check.h"
#include "dv/testing/remote_gen.h"
#include "dv/testing/stream_gen.h"

namespace {

using namespace deltav;
using namespace deltav::dv::testing;

/// The stream and remote soaks run the native axis on every
/// kNativeEvery-th case. Each compiles an object (about 0.17 s), so 500
/// stream cases add about 63 compiles.
constexpr std::int64_t kNativeEvery = 8;

/// One line saying the native axis was skipped on `cases` cases (nothing
/// when the axis actually ran or was turned off by flag).
void report_native_skip(bool requested, long long cases) {
  if (!requested) return;
  const std::string& reason = dv::native::native_unavailable_reason();
  if (reason.empty()) return;
  std::printf("native axis skipped on %lld cases: %s\n", cases,
              reason.c_str());
}

/// Picks every kNativeEvery-th case of a soak for the native axis, and
/// reports at the end how many ran it or were skipped and why.
struct NativeSample {
  bool requested;
  bool available = dv::native::native_unavailable_reason().empty();
  long long cases = 0;

  bool take(std::int64_t k) {
    if (k % kNativeEvery != 0) return false;
    ++cases;
    return requested && available;
  }
  void report() const {
    if (requested && available)
      std::printf("native axis ran on %lld cases\n", cases);
    report_native_skip(requested, cases);
  }
};

int replay_corpus(const std::string& dir, const DiffOptions& opts) {
  // An empty directory is a legitimate corpus (no outstanding
  // regressions); a missing one is a typo'd path that must not read as
  // a clean replay.
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    std::fprintf(stderr, "error: corpus %s is not a directory\n",
                 dir.c_str());
    return 2;
  }
  const auto entries = load_corpus_dir(dir);
  if (entries.empty()) {
    std::printf("corpus %s: no entries\n", dir.c_str());
    return 0;
  }
  int failures = 0;
  for (const auto& [path, fc] : entries) {
    const auto fail = check_case(fc, opts);
    if (fail) {
      ++failures;
      std::printf("FAIL %s [%s] %s\n", path.c_str(), fail->check.c_str(),
                  fail->detail.c_str());
    } else {
      std::printf("ok   %s\n", path.c_str());
    }
  }
  report_native_skip(opts.check_native,
                     static_cast<long long>(entries.size()));
  std::printf("%zu entries, %d failing\n", entries.size(), failures);
  return failures == 0 ? 0 : 1;
}

int stream_soak(std::uint64_t seed, std::int64_t cases,
                std::int64_t max_failures, bool verbose,
                const StreamDiffOptions& opts) {
  Rng rng(seed);
  NativeSample native{opts.check_native};
  std::int64_t failures = 0, warm_cases = 0;
  for (std::int64_t k = 0; k < cases; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    warm_cases += sc.expect_warm ? 1 : 0;
    if (verbose)
      std::printf("--- case %lld\n%s", (long long)k, describe(sc).c_str());
    StreamDiffOptions case_opts = opts;
    case_opts.check_native = native.take(k);
    const auto fail = check_stream_case(sc, case_opts);
    if (!fail) continue;
    ++failures;
    std::printf("FAIL case %lld seed %llu [%s] %s\n%s", (long long)k,
                (unsigned long long)seed, fail->check.c_str(),
                fail->detail.c_str(), describe(sc).c_str());
    if (failures >= max_failures) {
      std::printf("stopping after %lld failures\n", (long long)failures);
      break;
    }
  }
  native.report();
  std::printf("%lld stream cases (%lld warm-family), %lld failing\n",
              (long long)cases, (long long)warm_cases, (long long)failures);
  return failures == 0 ? 0 : 1;
}

int remote_soak(std::uint64_t seed, std::int64_t cases,
                std::int64_t max_failures, bool verbose,
                const RemoteDiffOptions& opts) {
  Rng rng(seed);
  NativeSample native{opts.check_native};
  std::int64_t failures = 0;
  for (std::int64_t k = 0; k < cases; ++k) {
    Rng crng = rng.split();
    const RemoteCase rc = generate_remote_case(crng);
    if (verbose)
      std::printf("--- case %lld (graph %s)\n%s", (long long)k,
                  rc.graph.describe().c_str(), rc.source.c_str());
    RemoteDiffOptions case_opts = opts;
    case_opts.check_native = native.take(k);
    const auto fail = check_remote_case(rc, case_opts);
    if (!fail) continue;
    ++failures;
    std::printf("FAIL case %lld seed %llu [%s] %s\ngraph %s:\n%s",
                (long long)k, (unsigned long long)seed, fail->check.c_str(),
                fail->detail.c_str(), rc.graph.describe().c_str(),
                rc.source.c_str());
    if (failures >= max_failures) {
      std::printf("stopping after %lld failures\n", (long long)failures);
      break;
    }
  }
  native.report();
  std::printf("%lld remote cases, %lld failing\n", (long long)cases,
              (long long)failures);
  return failures == 0 ? 0 : 1;
}

int persist_soak(std::uint64_t seed, std::int64_t cases,
                 std::int64_t max_failures, bool verbose,
                 const PersistCheckOptions& opts) {
  Rng rng(seed);
  std::int64_t failures = 0;
  for (std::int64_t k = 0; k < cases; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    if (verbose)
      std::printf("--- case %lld\n%s", (long long)k, describe(sc).c_str());
    const auto fail = check_persist_case(sc, crng, opts);
    if (!fail) continue;
    ++failures;
    std::printf("FAIL case %lld seed %llu [%s] %s\n%s", (long long)k,
                (unsigned long long)seed, fail->check.c_str(),
                fail->detail.c_str(), describe(sc).c_str());
    if (failures >= max_failures) {
      std::printf("stopping after %lld failures\n", (long long)failures);
      break;
    }
  }
  std::printf("%lld persist cases, %lld failing\n", (long long)cases,
              (long long)failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    const auto seed = static_cast<std::uint64_t>(
        args.get_int("seed", 1, "base seed; each program splits from it"));
    const auto programs =
        args.get_int("programs", 1000, "number of programs to generate");
    const std::string corpus_dir = args.get_string(
        "corpus", "tests/corpus", "directory for saved failures");
    const bool save =
        args.get_bool("save", false, "save reduced failures to --corpus");
    const bool reduce =
        args.get_bool("reduce", true, "greedily shrink failing cases");
    const std::string replay = args.get_string(
        "replay", "", "replay a corpus directory instead of fuzzing");
    const bool stream = args.get_bool(
        "stream", false,
        "fuzz streaming epochs: mutation streams through warm sessions, "
        "cross-checked per batch against from-scratch ΔV* runs");
    const bool persist = args.get_bool(
        "persist", false,
        "fuzz session persistence: snapshot kill-point sweeps over stream "
        "triples — bit-exact restore-equivalence, fault detection");
    const bool remote = args.get_bool(
        "remote", false,
        "fuzz remote reads: bounded remote(u).f programs, the request/reply "
        "lowering held bit-exact against the reference interpretation");
    const auto workers = args.get_int(
        "workers", 4, "engine worker count for the stream/persist tiers");
    const bool verbose =
        args.get_bool("verbose", false, "print every generated program");
    const auto max_failures = args.get_int(
        "max_failures", 10, "stop after this many distinct failures");
    DiffOptions diff;
    diff.float_tol =
        args.get_double("tolerance", diff.float_tol, "float comparison tol");
    const bool fold_path = args.get_bool(
        "fold_path", true,
        "fold-path axis: cross-check the lock-free atomic path against "
        "the buffered oracle on every case (classic and stream tiers)");
    diff.check_fold_path = fold_path;
    diff.check_native = args.get_bool(
        "native", true,
        "native axis: AOT-compile both variants and hold them bit-exact "
        "against the VM (every 8th case of --stream and --remote); skipped "
        "(with a note) without a host compiler");
    obs::ReportOptions obs_opts;
    obs_opts.metrics_path = args.get_string(
        "metrics", "", "write an aggregate metrics JSON document on exit");
    obs_opts.trace_path = args.get_string(
        "trace", "", "write a span trace here (chrome://tracing / Perfetto)");
    obs_opts.trace_format = args.get_string(
        "trace_format", "chrome", "trace file format: chrome or jsonl");
    if (args.help_requested()) {
      std::printf("%s", args.help().c_str());
      return 0;
    }
    args.check_unused();

    // Inert by default: the differential contract (bit-exact tier
    // equivalence) is routinely soaked with no collector installed, and
    // counting must never perturb results — installing one only adds
    // bookkeeping, both tiers' runs land in the same registry.
    obs::ObsSession obs(obs_opts);

    if (!replay.empty()) return replay_corpus(replay, diff);
    if (remote) {
      RemoteDiffOptions ropts;
      ropts.check_native = diff.check_native;
      return remote_soak(seed, programs, max_failures, verbose, ropts);
    }
    if (persist) {
      PersistCheckOptions popts;
      popts.workers = static_cast<int>(workers);
      return persist_soak(seed, programs, max_failures, verbose, popts);
    }
    if (stream) {
      StreamDiffOptions sopts;
      sopts.float_tol = diff.float_tol;
      sopts.workers = static_cast<int>(workers);
      sopts.check_fold_path = fold_path;
      sopts.check_native = diff.check_native;
      return stream_soak(seed, programs, max_failures, verbose, sopts);
    }

    Rng rng(seed);
    GenOptions gen;
    std::int64_t failures = 0;
    for (std::int64_t k = 0; k < programs; ++k) {
      Rng prng = rng.split();
      const ProgramSpec spec = generate_spec(prng, gen);
      const GraphSpec gspec = random_graph_spec(prng, spec, gen);
      const FuzzCase fc = make_case(spec, gspec);
      if (verbose)
        std::printf("--- program %lld (graph %s)\n%s", (long long)k,
                    gspec.describe().c_str(), fc.source.c_str());
      const auto fail = check_case(fc, diff);
      if (!fail) continue;

      ++failures;
      std::printf("FAIL program %lld seed %llu [%s] %s\n", (long long)k,
                  (unsigned long long)seed, fail->check.c_str(),
                  fail->detail.c_str());
      FuzzCase to_report = fc;
      if (reduce) {
        const std::string kind = fail->check;
        const auto reduced = reduce_case(
            spec, gspec, fc.worker_counts,
            [&](const FuzzCase& candidate) {
              const auto f = check_case(candidate, diff);
              return f && f->check == kind;
            });
        to_report =
            make_case(reduced.spec, reduced.graph, reduced.workers);
        std::printf("reduced (%d attempts) to graph %s:\n%s",
                    reduced.attempts, reduced.graph.describe().c_str(),
                    to_report.source.c_str());
      } else {
        std::printf("graph %s:\n%s", gspec.describe().c_str(),
                    fc.source.c_str());
      }
      if (save) {
        const std::string note =
            "[" + fail->check + "] " + fail->detail + " (seed " +
            std::to_string(seed) + " program " + std::to_string(k) + ")";
        const std::string path = save_case(corpus_dir, to_report, note);
        std::printf("saved %s\n", path.c_str());
      }
      if (failures >= max_failures) {
        std::printf("stopping after %lld failures\n", (long long)failures);
        break;
      }
    }
    report_native_skip(diff.check_native, (long long)programs);
    std::printf("%lld programs, %lld failing\n", (long long)programs,
                (long long)failures);
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dv_fuzz: %s\n", e.what());
    return 2;
  }
}
