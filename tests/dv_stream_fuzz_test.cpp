// Bounded stream-differential fuzz smoke: generated (program, graph,
// mutation-stream) triples driven through warm streaming sessions and
// cross-checked per batch against from-scratch ΔV* runs on the mutated
// graph (stream_gen.h). The ≥500-triple acceptance soak lives in
// `tools/dv_fuzz --stream`.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "dv/compiler.h"
#include "dv/testing/stream_gen.h"
#include "test_util.h"

namespace deltav::dv::testing {
namespace {

constexpr int kSmokeCases = 60;

TEST(StreamFuzzGenerator, CoversFamiliesAndCompiles) {
  const std::uint64_t seed = test::effective_seed(0x57AE4A5E);
  Rng rng(seed);
  std::set<std::string> families;
  bool saw_blocked = false, saw_vertex_op = false, saw_removal = false;
  for (int k = 0; k < 200; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    SCOPED_TRACE(test::seed_banner(seed) + " case " + std::to_string(k) +
                 "\n" + describe(sc));
    ASSERT_NO_THROW(compile(sc.source));
    ASSERT_FALSE(sc.batches.empty() && sc.expect_warm == false);
    families.insert(sc.family);
    saw_blocked |= !sc.expect_warm;
    for (const auto& b : sc.batches) {
      saw_vertex_op |= b.add_vertices > 0 || !b.detach_vertices.empty();
      for (const auto& e : b.edges) saw_removal |= !e.insert;
    }
  }
  EXPECT_GE(families.size(), 8u) << "family mix collapsed";
  EXPECT_TRUE(saw_blocked) << "blocked family should appear";
  EXPECT_TRUE(saw_vertex_op);
  EXPECT_TRUE(saw_removal);
}

TEST(StreamFuzzSmoke, WarmSessionsMatchFromScratchRuns) {
  const std::uint64_t seed = test::effective_seed(0x57AE4D1F);
  Rng rng(seed);
  int checked = 0;
  for (int k = 0; k < kSmokeCases; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    const auto fail = check_stream_case(sc);
    ASSERT_FALSE(fail.has_value())
        << test::seed_banner(seed) << " case " << k << " [" << fail->check
        << "] " << fail->detail << "\n"
        << describe(sc);
    ++checked;
  }
  EXPECT_EQ(checked, kSmokeCases);
}

TEST(StreamFuzzSmoke, OddWorkerCountUsesBlockPartition) {
  const std::uint64_t seed = test::effective_seed(0x57AE0DD);
  Rng rng(seed);
  StreamDiffOptions opts;
  opts.workers = 3;  // odd count: kBlock partition
  for (int k = 0; k < 10; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    const auto fail = check_stream_case(sc, opts);
    ASSERT_FALSE(fail.has_value())
        << test::seed_banner(seed) << " case " << k << " [" << fail->check
        << "] " << fail->detail << "\n"
        << describe(sc);
  }
}

}  // namespace
}  // namespace deltav::dv::testing
