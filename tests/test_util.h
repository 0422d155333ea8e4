// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dv/codegen/native_module.h"
#include "dv/compiler.h"
#include "dv/runtime/runner.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"

namespace deltav::test {

/// Base seed for randomized tests, read once from the DV_TEST_SEED env
/// var. 0 (the default) means "no override": tests use their built-in
/// seeds, so default runs are byte-for-byte reproducible across machines.
inline std::uint64_t test_seed_base() {
  static const std::uint64_t base = [] {
    const char* s = std::getenv("DV_TEST_SEED");
    return s ? std::strtoull(s, nullptr, 0) : 0ULL;
  }();
  return base;
}

/// The seed a randomized test should actually use: its built-in default
/// when DV_TEST_SEED is unset, otherwise a mix of the override and the
/// per-test default (so one env var re-seeds every test differently).
/// Always include seed_banner(effective_seed(...)) in failure messages so
/// a CI failure is reproducible locally.
inline std::uint64_t effective_seed(std::uint64_t test_default) {
  const std::uint64_t base = test_seed_base();
  if (base == 0) return test_default;
  std::uint64_t state = base ^ (test_default * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

inline std::string seed_banner(std::uint64_t effective) {
  return "[effective seed " + std::to_string(effective) +
         "; rerun with DV_TEST_SEED=<n> to override]";
}

/// Engine options sized for unit tests (small worker count, tiny cluster).
inline pregel::EngineOptions small_engine(int workers = 3) {
  pregel::EngineOptions o;
  o.num_workers = workers;
  o.cluster.machines = 2;
  o.cluster.workers_per_machine = 2;
  return o;
}

/// The tiers this host can run: tree and VM always, native where the
/// toolchain builds it.
inline std::vector<dv::ExecTier> runnable_tiers() {
  std::vector<dv::ExecTier> tiers = {dv::ExecTier::kTree, dv::ExecTier::kVm};
  if (dv::native::native_unavailable_reason().empty())
    tiers.push_back(dv::ExecTier::kNative);
  return tiers;
}

/// Compiles with defaults (ΔV) or as ΔV*.
inline dv::CompiledProgram compile_dv(const std::string& src,
                                      bool incremental = true) {
  dv::CompileOptions o;
  o.incrementalize = incremental;
  return dv::compile(src, o);
}

/// EXPECT element-wise closeness of two double vectors.
inline void expect_close(const std::vector<double>& a,
                         const std::vector<double>& b, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isinf(a[i]) || std::isinf(b[i])) {
      EXPECT_EQ(a[i], b[i]) << "at index " << i;
    } else {
      EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
    }
  }
}

/// A small battery of graphs exercising different shapes. Both honor
/// DV_TEST_SEED through effective_seed().
inline graph::CsrGraph small_directed(std::uint64_t seed = 7) {
  return graph::rmat(64, 256, effective_seed(seed));
}

inline graph::CsrGraph small_undirected(std::uint64_t seed = 7) {
  graph::RmatOptions o;
  o.directed = false;
  return graph::rmat(64, 200, effective_seed(seed), o);
}

}  // namespace deltav::test
