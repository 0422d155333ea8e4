// End-to-end equivalence tests: for every benchmark program, the compiled
// ΔV and ΔV* variants must agree with the hand-written Pregel+ baseline and
// with a sequential oracle — and the paper's message-count relationships
// must hold (ΔV < ΔV* on PageRank/HITS; exact equality on SSSP/CC).
#include <gtest/gtest.h>

#include <cstdint>

#include "algorithms/connected_components.h"
#include "algorithms/hits.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "dv/programs/programs.h"
#include "test_util.h"

namespace deltav {
namespace {

using dv::Value;
using test::compile_dv;
using test::expect_close;
using test::small_engine;

dv::DvRunResult run(const dv::CompiledProgram& cp, const graph::CsrGraph& g,
                    std::map<std::string, Value> params = {},
                    int workers = 3) {
  dv::DvRunOptions o;
  o.engine = small_engine(workers);
  o.params = std::move(params);
  return dv::run_program(cp, g, o);
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

TEST(EndToEnd, PageRankMatchesOracleAndBaseline) {
  const auto g = test::small_directed();
  const int supersteps = 30;  // Figure-1 convention: 29 rank updates

  const auto oracle = algorithms::pagerank_oracle(g, supersteps);
  algorithms::PageRankOptions popt;
  popt.iterations = supersteps;
  popt.engine = small_engine();
  const auto hand = algorithms::pagerank_pregel(g, popt);
  expect_close(hand.rank, oracle, 1e-12);

  const auto params = std::map<std::string, Value>{
      {"steps", Value::of_int(supersteps - 1)}};
  const auto dv_star = run(compile_dv(dv::programs::kPageRank, false), g,
                           params);
  expect_close(dv_star.field_as_double("vl"), oracle, 1e-12);

  const auto dv_full = run(compile_dv(dv::programs::kPageRank, true), g,
                           params);
  expect_close(dv_full.field_as_double("vl"), oracle, 1e-9);
}

TEST(EndToEnd, PageRankIncrementalizationReducesMessages) {
  const auto g = graph::rmat(256, 2048, 21);
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(29)}};
  const auto dv_star =
      run(compile_dv(dv::programs::kPageRank, false), g, params);
  const auto dv_full =
      run(compile_dv(dv::programs::kPageRank, true), g, params);
  EXPECT_LT(dv_full.stats.total_messages_sent(),
            dv_star.stats.total_messages_sent());
  EXPECT_LT(dv_full.stats.total_bytes_sent(),
            dv_star.stats.total_bytes_sent());
}

TEST(EndToEnd, PageRankUndirectedVariant) {
  const auto g = test::small_undirected();
  const auto oracle = algorithms::pagerank_oracle(g, 20);
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(19)}};
  const auto dv_full =
      run(compile_dv(dv::programs::kPageRankUndirected, true), g, params);
  expect_close(dv_full.field_as_double("vl"), oracle, 1e-9);
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

TEST(EndToEnd, SsspMatchesDijkstraAndMessageCountsAreEqual) {
  graph::RmatOptions ro;
  ro.weighted = true;
  const auto g = graph::rmat(128, 512, 5, ro);
  const graph::VertexId source = 3;

  const auto oracle = algorithms::sssp_oracle(g, source);
  algorithms::SsspOptions sopt;
  sopt.source = source;
  sopt.engine = small_engine();
  sopt.use_combiner = false;  // count raw messages for exact comparison
  const auto hand = algorithms::sssp_pregel(g, sopt);
  expect_close(hand.distance, oracle, 1e-9);

  const auto params =
      std::map<std::string, Value>{{"source", Value::of_int(source)}};
  dv::DvRunOptions dopt;
  dopt.engine = small_engine();
  dopt.use_combiner = false;
  dopt.params = params;

  const auto dv_star =
      dv::run_program(compile_dv(dv::programs::kSssp, false), g, dopt);
  expect_close(dv_star.field_as_double("dist"), oracle, 1e-9);

  // The paper's message-count identity is a property of the buffered
  // message pipeline; under the default fold path SSSP's min-aggregation
  // is proven commutative and sends no messages at all. Pin the buffered
  // path for the §7.2 comparison, then check the atomic path separately.
  dopt.fold_path = dv::FoldPath::kBuffered;
  const auto dv_full =
      dv::run_program(compile_dv(dv::programs::kSssp, true), g, dopt);
  expect_close(dv_full.field_as_double("dist"), oracle, 1e-9);

  // §7.2: "ΔV* and ΔV in fact sending the exact same number of messages".
  EXPECT_EQ(dv_full.stats.total_messages_sent(),
            dv_star.stats.total_messages_sent());
  // And both match the hand-written Pregel+ algorithm.
  EXPECT_EQ(dv_full.stats.total_messages_sent(),
            hand.stats.total_messages_sent());

  // Lock-free fold path: identical distances, message-free exchange.
  dopt.fold_path = dv::FoldPath::kAuto;
  const auto dv_atomic =
      dv::run_program(compile_dv(dv::programs::kSssp, true), g, dopt);
  expect_close(dv_atomic.field_as_double("dist"), oracle, 1e-9);
  EXPECT_EQ(dv_atomic.stats.total_messages_sent(), 0u);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

TEST(EndToEnd, ConnectedComponentsMatchesUnionFind) {
  const auto g = test::small_undirected(11);
  const auto oracle = algorithms::connected_components_oracle(g);

  algorithms::CcOptions copt;
  copt.engine = small_engine();
  copt.use_combiner = false;
  const auto hand = algorithms::connected_components_pregel(g, copt);
  ASSERT_EQ(hand.component.size(), oracle.size());
  for (std::size_t v = 0; v < oracle.size(); ++v)
    EXPECT_EQ(hand.component[v], oracle[v]) << "vertex " << v;

  dv::DvRunOptions dopt;
  dopt.engine = small_engine();
  dopt.use_combiner = false;
  const auto dv_star = dv::run_program(
      compile_dv(dv::programs::kConnectedComponents, false), g, dopt);
  // Message counts compare the buffered pipeline (Figure 5 is about
  // messages); CC's int-min aggregation otherwise routes atomic and sends
  // none. The atomic variant is checked for result equality below.
  dopt.fold_path = dv::FoldPath::kBuffered;
  const auto dv_full = dv::run_program(
      compile_dv(dv::programs::kConnectedComponents, true), g, dopt);
  dopt.fold_path = dv::FoldPath::kAuto;
  const auto dv_atomic = dv::run_program(
      compile_dv(dv::programs::kConnectedComponents, true), g, dopt);
  const auto star_comp = dv_star.field_as_int("comp");
  const auto full_comp = dv_full.field_as_int("comp");
  const auto atomic_comp = dv_atomic.field_as_int("comp");
  for (std::size_t v = 0; v < oracle.size(); ++v) {
    EXPECT_EQ(star_comp[v], static_cast<std::int64_t>(oracle[v]));
    EXPECT_EQ(full_comp[v], static_cast<std::int64_t>(oracle[v]));
    EXPECT_EQ(atomic_comp[v], static_cast<std::int64_t>(oracle[v]));
  }

  // Figure 5 / §7.2: identical message counts across all three systems.
  EXPECT_EQ(dv_full.stats.total_messages_sent(),
            dv_star.stats.total_messages_sent());
  EXPECT_EQ(dv_full.stats.total_messages_sent(),
            hand.stats.total_messages_sent());
  // The lock-free fold path removes the message exchange entirely.
  EXPECT_EQ(dv_atomic.stats.total_messages_sent(), 0u);
}

// ---------------------------------------------------------------------------
// HITS
// ---------------------------------------------------------------------------

TEST(EndToEnd, HitsMatchesOracleAndBaseline) {
  const auto g = test::small_directed(13);
  const int rounds = 5;

  std::vector<double> oh, oa;
  algorithms::hits_oracle(g, rounds, oh, oa);

  algorithms::HitsOptions hopt;
  hopt.iterations = rounds;
  hopt.engine = small_engine();
  const auto hand = algorithms::hits_pregel(g, hopt);
  expect_close(hand.hub, oh, 1e-9);
  expect_close(hand.authority, oa, 1e-9);

  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(rounds)}};
  const auto dv_star =
      run(compile_dv(dv::programs::kHits, false), g, params);
  expect_close(dv_star.field_as_double("hub"), oh, 1e-9);
  expect_close(dv_star.field_as_double("auth"), oa, 1e-9);

  const auto dv_full = run(compile_dv(dv::programs::kHits, true), g, params);
  expect_close(dv_full.field_as_double("hub"), oh, 1e-6);
  expect_close(dv_full.field_as_double("auth"), oa, 1e-6);
}

TEST(EndToEnd, HitsIncrementalizationNeverSendsMore) {
  const auto g = graph::rmat(256, 1024, 31);
  const auto params =
      std::map<std::string, Value>{{"steps", Value::of_int(7)}};
  const auto dv_star =
      run(compile_dv(dv::programs::kHits, false), g, params);
  const auto dv_full = run(compile_dv(dv::programs::kHits, true), g, params);
  EXPECT_LE(dv_full.stats.total_messages_sent(),
            dv_star.stats.total_messages_sent());
}

// ---------------------------------------------------------------------------
// Multiplicative / idempotent operators
// ---------------------------------------------------------------------------

TEST(EndToEnd, ReachabilityMatchesBfs) {
  const auto g = test::small_directed(17);
  const graph::VertexId source = 0;

  // BFS truth over out-edges.
  std::vector<char> reach(g.num_vertices(), 0);
  std::vector<graph::VertexId> stack{source};
  reach[source] = 1;
  while (!stack.empty()) {
    const auto v = stack.back();
    stack.pop_back();
    for (auto u : g.out_neighbors(v))
      if (!reach[u]) {
        reach[u] = 1;
        stack.push_back(u);
      }
  }

  const auto params =
      std::map<std::string, Value>{{"source", Value::of_int(source)}};
  for (bool incremental : {false, true}) {
    const auto result =
        run(compile_dv(dv::programs::kReachability, incremental), g, params);
    const int slot = result.field_slot("reached");
    for (std::size_t v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(result.at(static_cast<graph::VertexId>(v), slot).as_b(),
                reach[v] != 0)
          << "vertex " << v << " incremental=" << incremental;
  }
}

TEST(EndToEnd, MaxGossipReachesComponentMaximum) {
  const auto g = test::small_undirected(23);
  const auto comp = algorithms::connected_components_oracle(g);
  std::vector<std::int64_t> expected(g.num_vertices());
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    std::int64_t best = -1;
    for (std::size_t u = 0; u < g.num_vertices(); ++u)
      if (comp[u] == comp[v])
        best = std::max<std::int64_t>(best, static_cast<std::int64_t>(u));
    expected[v] = best;
  }
  for (bool incremental : {false, true}) {
    const auto result =
        run(compile_dv(dv::programs::kMaxGossip, incremental), g);
    const auto big = result.field_as_int("big");
    for (std::size_t v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(big[v], expected[v]) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// Robustness across engine configurations
// ---------------------------------------------------------------------------

// Engine configuration × execution tier: the tree interpreter is the
// reference semantics, so half the matrix runs it and half the VM.
// gtest names each case after the raw bytes of its parameter, so the
// bytes after the trailing flag are a zeroed member rather than
// uninitialized padding, which keeps the test names the same from one
// build to the next.
struct EngineConfig {
  int workers;
  pregel::PartitionScheme partition;
  dv::ExecTier tier;
  bool combiner;
  std::uint8_t zeroed[3] = {};
};
static_assert(sizeof(EngineConfig) == 16,
              "EngineConfig must have no padding");

class EngineMatrixTest : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(EngineMatrixTest, PageRankAgreesEverywhere) {
  const auto& cfg = GetParam();
  const auto g = test::small_directed(29);
  const auto oracle = algorithms::pagerank_oracle(g, 20);

  dv::DvRunOptions o;
  o.engine.num_workers = cfg.workers;
  o.engine.partition = cfg.partition;
  o.tier = cfg.tier;
  o.use_combiner = cfg.combiner;
  o.params = {{"steps", Value::of_int(19)}};
  const auto result =
      dv::run_program(compile_dv(dv::programs::kPageRank, true), g, o);
  expect_close(result.field_as_double("vl"), oracle, 1e-9);
}

TEST_P(EngineMatrixTest, SsspAgreesEverywhere) {
  const auto& cfg = GetParam();
  graph::RmatOptions ro;
  ro.weighted = true;
  const auto g = graph::rmat(96, 400, 41, ro);
  const auto oracle = algorithms::sssp_oracle(g, 1);

  dv::DvRunOptions o;
  o.engine.num_workers = cfg.workers;
  o.engine.partition = cfg.partition;
  o.tier = cfg.tier;
  o.use_combiner = cfg.combiner;
  o.params = {{"source", Value::of_int(1)}};
  const auto result =
      dv::run_program(compile_dv(dv::programs::kSssp, true), g, o);
  expect_close(result.field_as_double("dist"), oracle, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineMatrixTest,
    ::testing::Values(
        EngineConfig{1, pregel::PartitionScheme::kBlock, dv::ExecTier::kTree,
                     true},
        EngineConfig{2, pregel::PartitionScheme::kBlock, dv::ExecTier::kTree,
                     false},
        EngineConfig{4, pregel::PartitionScheme::kHash, dv::ExecTier::kTree,
                     true},
        EngineConfig{4, pregel::PartitionScheme::kBlock, dv::ExecTier::kVm,
                     true},
        EngineConfig{3, pregel::PartitionScheme::kHash, dv::ExecTier::kVm,
                     false},
        EngineConfig{8, pregel::PartitionScheme::kHash, dv::ExecTier::kVm,
                     true}));

}  // namespace
}  // namespace deltav
