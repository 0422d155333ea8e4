// Bounded persistence fuzz smoke: generated (program, graph, stream)
// triples swept over kill-points — every epoch boundary restored and
// replayed, sampled mid-convergence checkpoints resumed, random faults
// injected (persist_check.h). The ≥300-triple acceptance soak lives in
// `tools/dv_fuzz --persist`.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "dv/testing/persist_check.h"
#include "test_util.h"

namespace deltav::dv::testing {
namespace {

constexpr int kSmokeCases = 25;

TEST(PersistFuzzSmoke, RestoredSessionsTrackUninterruptedRuns) {
  const std::uint64_t seed = test::effective_seed(0x5E55A9ED);
  Rng rng(seed);
  int checked = 0;
  for (int k = 0; k < kSmokeCases; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    const auto fail = check_persist_case(sc, crng);
    ASSERT_FALSE(fail.has_value())
        << test::seed_banner(seed) << " case " << k << " [" << fail->check
        << "] " << fail->detail << "\n"
        << describe(sc);
    ++checked;
  }
  EXPECT_EQ(checked, kSmokeCases);
}

TEST(PersistFuzzSmoke, OddWorkerCountUsesBlockPartition) {
  const std::uint64_t seed = test::effective_seed(0x5E55A0DD);
  Rng rng(seed);
  PersistCheckOptions opts;
  opts.workers = 3;  // odd count: kBlock partition
  for (int k = 0; k < 6; ++k) {
    Rng crng = rng.split();
    const StreamCase sc = generate_stream_case(crng);
    const auto fail = check_persist_case(sc, crng, opts);
    ASSERT_FALSE(fail.has_value())
        << test::seed_banner(seed) << " case " << k << " [" << fail->check
        << "] " << fail->detail << "\n"
        << describe(sc);
  }
}

}  // namespace
}  // namespace deltav::dv::testing
