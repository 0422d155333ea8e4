#!/usr/bin/env python3
"""Builds and runs bench_e2e, the deltav end-to-end benchmark.

Run from the repository root:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      Builds bench/e2e (a standalone CMake project over src/) into
      $CARGO_TARGET_DIR, default .bench_build, then runs one workload.
      The last stdout line is the result object. Build output goes to
      stderr. Any other bench_e2e flags pass through; with no --workload
      every workload runs, each in its own process.

  python3 bench/e2e/run.py --compare A.json [A2.json ...] -- B.json [...]
      Compares two sets of `bench_e2e --json` reports (README.md,
      "Comparing runs").
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

# Bounds for the end-to-end metrics only some workloads report, which the
# BENCHMARK.json contract cannot list (it needs every metric on every
# workload). error_rate may not rise at all.
EXTRA_BOUNDS = {
    "read_us_p50": ("lower", 0.10),
    "read_us_p99": ("lower", 0.15),
    "error_rate": ("lower", 0.0),
}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def load_runs(paths):
    """Untraced and traced reports from --json files, by (workload, traced)."""
    runs = {}
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        for rep in doc.get("runs", [doc]):
            runs.setdefault((rep["workload"], rep["traced"]), []).append(rep)
    return runs


def contract_bounds():
    with open(ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    return bounds


def spread(values):
    """(median, interquartile range) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, q[2] - q[0]


def judge(a, b, better, bound):
    """Labels B against A: a gain needs ten pairs, nine in ten won, and a
    median gap wider than A's IQR; a spread wider than the bound leaves the
    pair unresolved unless every B run beats every A run."""
    ma, iqr_a = spread(a)
    mb, iqr_b = spread(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (mb - ma) / ma if ma else (0.0 if mb == ma else 1.0)
    noise = max(iqr_a / ma if ma else 0.0, iqr_b / mb if mb else 0.0)
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (worse < 0 and -worse * ma > iqr_a and len(pairs) >= 10
            and wins >= 0.9 * len(pairs)):
        return "improved", worse
    if noise > bound and not b_beats_all and bound > 0:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "agrees", worse


def compare(argv):
    if "--" not in argv:
        sys.exit("usage: run.py --compare A.json [...] -- B.json [...]")
    cut = argv.index("--")
    side_a, side_b = load_runs(argv[:cut]), load_runs(argv[cut + 1:])
    bounds = contract_bounds()
    print(f"{'workload':<16} {'metric':<18} {'A median':>12} {'A IQR':>10} "
          f"{'B median':>12} {'B IQR':>10} {'worse by':>8} {'bound':>6}  label")
    bad = 0
    for (workload, traced), reps_a in sorted(side_a.items()):
        reps_b = side_b.get((workload, traced))
        if traced or not reps_b:
            continue
        for name, (better, bound) in bounds.items():
            a = [r["end_to_end"][name]["value"] for r in reps_a
                 if name in r["end_to_end"]]
            b = [r["end_to_end"][name]["value"] for r in reps_b
                 if name in r["end_to_end"]]
            if not a or not b:
                continue
            label, worse = judge(a, b, better, bound)
            ma, iqr_a = spread(a)
            mb, iqr_b = spread(b)
            bad += label == "regressed"
            print(f"{workload:<16} {name:<18} {ma:>12.6g} {iqr_a:>10.3g} "
                  f"{mb:>12.6g} {iqr_b:>10.3g} {worse:>+8.1%} {bound:>6.0%}"
                  f"  {label}")
    return 1 if bad else 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        return compare(argv[1:])
    out = build_dir()
    build(out)
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "bench_e2e"), f"--workdir={work}"] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"run.py: {' '.join(e.cmd)} failed with status {e.returncode}",
              file=sys.stderr)
        sys.exit(2)
