// Golden search counters: the exact cores and search-effort counters of
// GD-, BU- and TD-DCCS on two seeded R-MAT instances (format::GenerateMlg).
// The other search tests compare runs with each other (threads, lanes,
// injected or self-contained state, warm or cold), so a search that prunes
// more or less than Lemmas 2–7 allow still passes them; here any such
// change moves a number. Every execution path must reproduce the same row:
// the free function and an Engine, cold and warm, at 1 and 4 lanes.
//
// Regenerate a row only with a reason in CHANGES.md: a failing row prints
// its actual values in the table's format.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include "dccs/dccs.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/graph_builder.h"
#include "test_temp.h"

namespace mlcore {
namespace {

struct Instance {
  uint64_t seed;
  double layer_overlap;
  double rmat_a;  // b = c = (1 - a) / 3
};

// Sparse (two edge draws per vertex per layer) so that the per-layer
// d-cores differ and the pruning rules have something to cut.
MultiLayerGraph InstanceGraph(const Instance& instance) {
  format::MlgGenConfig config;
  config.num_vertices = 512;
  config.num_layers = 8;
  config.edges_per_layer = 1024;
  config.layer_overlap = instance.layer_overlap;
  config.rmat_a = instance.rmat_a;
  config.rmat_b = config.rmat_c = (1.0 - instance.rmat_a) / 3.0;
  config.seed = instance.seed;
  const std::string path = TestTempPath("golden.mlg");
  MultiLayerGraph graph;
  EXPECT_TRUE(format::GenerateMlg(config, path).ok());
  EXPECT_TRUE(format::LoadMlgGraph(path, &graph).ok());
  return graph;
}

// FNV-1a over every core's layers and vertices, in result order.
uint64_t CoresHash(const DccsResult& result) {
  uint64_t hash = 14695981039346656037ULL;
  auto mix = [&](int64_t value) {
    hash ^= static_cast<uint64_t>(value);
    hash *= 1099511628211ULL;
  };
  for (const ResultCore& core : result.cores) {
    mix(static_cast<int64_t>(core.layers.size()));
    for (LayerId layer : core.layers) mix(layer);
    mix(static_cast<int64_t>(core.vertices.size()));
    for (VertexId v : core.vertices) mix(v);
  }
  return hash;
}

struct Golden {
  uint64_t cores_hash;
  int64_t num_cores;
  int64_t cover;
  int64_t nodes_visited;
  int64_t pruned_eq1;
  int64_t pruned_order;
  int64_t pruned_layer;
  int64_t pruned_potential;
  int64_t updates_accepted;
  int64_t candidates_generated;

  bool operator==(const Golden&) const = default;
};

Golden Observe(const DccsResult& result) {
  const SearchStats& s = result.stats;
  return Golden{CoresHash(result),
                static_cast<int64_t>(result.cores.size()),
                result.CoverSize(),
                s.nodes_visited,
                s.pruned_eq1,
                s.pruned_order,
                s.pruned_layer,
                s.pruned_potential,
                s.updates_accepted,
                s.candidates_generated};
}

std::string Format(const Golden& g) {
  std::ostringstream out;
  out << "{" << g.cores_hash << "ULL, " << g.num_cores << ", " << g.cover
      << ", " << g.nodes_visited << ", " << g.pruned_eq1 << ", "
      << g.pruned_order << ", " << g.pruned_layer << ", "
      << g.pruned_potential << ", " << g.updates_accepted << ", "
      << g.candidates_generated << "}";
  return out.str();
}

struct Case {
  const char* name;
  Instance instance;
  int d, s, k;
  DccsAlgorithm algorithm;
  Golden expected;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Instance A: skewed R-MAT with 30% of each layer's draws shared by every
// layer. Instance B: flatter R-MAT with no shared draws.
constexpr Instance kA{1, 0.3, 0.57};
constexpr Instance kB{2, 0.0, 0.45};

const Case kCases[] = {
    {"A_GD", kA, 5, 4, 5, DccsAlgorithm::kGreedy,
     {7713925498615830992ULL, 5, 37, 0, 0, 0, 0, 0, 5, 70}},
    {"A_BU", kA, 5, 4, 5, DccsAlgorithm::kBottomUp,
     {10046645015539748774ULL, 5, 37, 104, 24, 0, 31, 0, 4, 109}},
    {"A_TD", kA, 5, 4, 5, DccsAlgorithm::kTopDown,
     {13900455098655061055ULL, 5, 37, 117, 3, 22, 0, 0, 4, 236}},
    {"B_GD", kB, 2, 4, 5, DccsAlgorithm::kGreedy,
     {16888231229937982304ULL, 5, 169, 0, 0, 0, 0, 0, 5, 70}},
    {"B_BU", kB, 2, 4, 5, DccsAlgorithm::kBottomUp,
     {2740647364808302212ULL, 5, 128, 150, 4, 0, 4, 0, 5, 155}},
    {"B_TD", kB, 2, 4, 5, DccsAlgorithm::kTopDown,
     {4876492337972433113ULL, 5, 149, 128, 16, 21, 0, 0, 6, 258}},
};

DccsResult RunFree(const MultiLayerGraph& graph, const DccsParams& params,
                   DccsAlgorithm algorithm, int lanes) {
  ThreadPool pool(lanes);
  DccsExecution exec;
  exec.pool = &pool;
  exec.search_threads = lanes;
  switch (algorithm) {
    case DccsAlgorithm::kGreedy:
      return GreedyDccs(graph, params, exec);
    case DccsAlgorithm::kBottomUp:
      return BottomUpDccs(graph, params, exec);
    default:
      return TopDownDccs(graph, params, exec);
  }
}

class GoldenSearchTest : public testing::TestWithParam<Case> {};

TEST_P(GoldenSearchTest, EveryPathReproducesTheGoldenRow) {
  const Case& c = GetParam();
  const MultiLayerGraph graph = InstanceGraph(c.instance);
  DccsParams params;
  params.d = c.d;
  params.s = c.s;
  params.k = c.k;

  auto expect_row = [&](const DccsResult& result, const std::string& path) {
    const Golden actual = Observe(result);
    EXPECT_TRUE(actual == c.expected)
        << c.name << " via " << path << ": actual " << Format(actual);
  };
  for (int lanes : {1, 4}) {
    const std::string at = " at " + std::to_string(lanes) + " lanes";
    expect_row(RunFree(graph, params, c.algorithm, lanes),
               "free function" + at);

    Engine::Options options;
    options.num_threads = lanes;
    options.search_threads = lanes;
    Engine engine(&graph, options);
    for (const char* phase : {"cold", "warm"}) {
      Expected<DccsResult> result =
          engine.Run(DccsRequest{params, c.algorithm});
      ASSERT_TRUE(result.ok()) << result.status().message;
      expect_row(*result, std::string("engine ") + phase + at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rmat, GoldenSearchTest, testing::ValuesIn(kCases),
                         [](const testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

// TD's Lemma 7 shortcut never fires on the R-MAT rows: by the time a node
// reaches it, InitTopK or an earlier subtree has usually offered R a
// size-s subset whose d-CC contains the node's. These rows start TD from a
// chosen top-k (DccsExecution::seeds) instead. The graph has 6 layers: a
// 4-clique {0..3} on layers {0, 1}, and a b-clique on vertices 4..3+b on
// every layer. With d = 3, s = 2, k = 1 and R seeded with the 4-clique on
// {0, 1}, Eq. (2) reads |U| < 16. At b = 10 the first eligible node has
// |U| = 14, so one random descendant stands for its subtree
// (pruned_potential 1). At b = 12 it has |U| = 16, which fails Eq. (2)
// exactly, so TD descends instead.
struct Lemma7Case {
  const char* name;
  int b;
  Golden expected;
};

void PrintTo(const Lemma7Case& c, std::ostream* os) { *os << c.name; }

const Lemma7Case kLemma7Cases[] = {
    {"b10", 10, {12370591661901827266ULL, 1, 10, 6, 0, 5, 0, 1, 1, 13}},
    {"b12", 12, {13369200341372418217ULL, 1, 12, 18, 0, 13, 0, 0, 1, 33}},
};

MultiLayerGraph TwoCliqueGraph(int b) {
  GraphBuilder builder(4 + b, 6);
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) builder.AddEdgeOnLayers({0, 1}, u, v);
  }
  for (VertexId u = 4; u < 4 + b; ++u) {
    for (VertexId v = u + 1; v < 4 + b; ++v) {
      builder.AddEdgeOnLayers({0, 1, 2, 3, 4, 5}, u, v);
    }
  }
  return builder.Build();
}

class GoldenLemma7Test : public testing::TestWithParam<Lemma7Case> {};

TEST_P(GoldenLemma7Test, SeededTopDownReproducesTheGoldenRow) {
  const Lemma7Case& c = GetParam();
  const MultiLayerGraph graph = TwoCliqueGraph(c.b);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 1;
  InitSeeds seeds;
  ASSERT_TRUE(seeds.topk.Update({0, 1, 2, 3}, {0, 1}));
  for (int lanes : {1, 4}) {
    ThreadPool pool(lanes);
    DccsExecution exec;
    exec.pool = &pool;
    exec.search_threads = lanes;
    exec.seeds = &seeds;
    const Golden actual = Observe(TopDownDccs(graph, params, exec));
    EXPECT_TRUE(actual == c.expected)
        << c.name << " at " << lanes << " lanes: actual " << Format(actual);
  }
}

INSTANTIATE_TEST_SUITE_P(TwoCliques, GoldenLemma7Test,
                         testing::ValuesIn(kLemma7Cases),
                         [](const testing::TestParamInfo<Lemma7Case>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mlcore
