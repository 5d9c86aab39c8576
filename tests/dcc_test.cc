#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/dcc.h"
#include "core/dcore.h"
#include "core/fds.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_temp.h"
#include "util/rng.h"

namespace mlcore {
namespace {

// Independent fixpoint reference for the d-CC definition.
VertexSet NaiveDcc(const MultiLayerGraph& graph, const LayerSet& layers,
                   int d, VertexSet scope) {
  std::vector<bool> in(static_cast<size_t>(graph.NumVertices()), false);
  for (VertexId v : scope) in[static_cast<size_t>(v)] = true;
  bool changed = true;
  while (changed) {
    changed = false;
    VertexSet next;
    for (VertexId v : scope) {
      bool keep = true;
      for (LayerId layer : layers) {
        int degree = 0;
        for (VertexId u : graph.Neighbors(layer, v)) {
          if (in[static_cast<size_t>(u)]) ++degree;
        }
        if (degree < d) {
          keep = false;
          break;
        }
      }
      if (keep) {
        next.push_back(v);
      } else {
        changed = true;
      }
    }
    for (VertexId v : scope) in[static_cast<size_t>(v)] = false;
    for (VertexId v : next) in[static_cast<size_t>(v)] = true;
    scope = std::move(next);
  }
  return scope;
}

MultiLayerGraph PaperStyleExample() {
  // Two communities: {0..5} dense on layers {0,1,2}; {4..9} dense on
  // layers {1,3}; sparse extras elsewhere.
  GraphBuilder builder(12, 4);
  auto add_clique = [&](const VertexSet& vs, const LayerSet& layers) {
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = i + 1; j < vs.size(); ++j) {
        for (LayerId layer : layers) builder.AddEdge(layer, vs[i], vs[j]);
      }
    }
  };
  add_clique({0, 1, 2, 3, 4, 5}, {0, 1, 2});
  add_clique({4, 5, 6, 7, 8, 9}, {1, 3});
  builder.AddEdge(0, 10, 11);
  builder.AddEdge(3, 10, 11);
  return builder.Build();
}

TEST(DccTest, SingleLayerEqualsDCore) {
  MultiLayerGraph graph = GenerateErdosRenyi(60, 3, 0.08, 31);
  DccSolver solver(graph);
  for (LayerId layer = 0; layer < 3; ++layer) {
    for (int d = 1; d <= 4; ++d) {
      EXPECT_EQ(solver.Compute({layer}, d, AllVertices(graph)),
                DCore(graph, layer, d));
    }
  }
}

TEST(DccTest, PaperExampleStructure) {
  MultiLayerGraph graph = PaperStyleExample();
  // 3-CC w.r.t. layers {0,1,2} is exactly the first clique.
  EXPECT_EQ(CoherentCore(graph, {0, 1, 2}, 3), (VertexSet{0, 1, 2, 3, 4, 5}));
  // 3-CC w.r.t. {1,3} is the second clique.
  EXPECT_EQ(CoherentCore(graph, {1, 3}, 3), (VertexSet{4, 5, 6, 7, 8, 9}));
  // On layer 1 both cliques are present.
  EXPECT_EQ(CoherentCore(graph, {1}, 3),
            (VertexSet{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // No 3-CC spans {0,3}.
  EXPECT_TRUE(CoherentCore(graph, {0, 3}, 3).empty());
}

TEST(DccTest, EnginesAgreeOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    MultiLayerGraph graph = GenerateErdosRenyi(70, 4, 0.08, 300 + seed);
    DccSolver solver(graph);
    for (int d = 1; d <= 4; ++d) {
      for (LayerSet layers :
           std::vector<LayerSet>{{0}, {1, 3}, {0, 1, 2}, {0, 1, 2, 3}}) {
        VertexSet queue_result =
            solver.Compute(layers, d, AllVertices(graph), DccEngine::kQueue);
        VertexSet bins_result =
            solver.Compute(layers, d, AllVertices(graph), DccEngine::kBins);
        EXPECT_EQ(queue_result, bins_result)
            << "seed=" << seed << " d=" << d;
        EXPECT_EQ(queue_result,
                  NaiveDcc(graph, layers, d, AllVertices(graph)))
            << "seed=" << seed << " d=" << d;
      }
    }
  }
}

TEST(DccTest, PlantedCommunityRecovered) {
  PlantedGraphConfig config;
  config.num_vertices = 400;
  config.num_layers = 5;
  config.num_communities = 2;
  config.community_size_min = 20;
  config.community_size_max = 25;
  config.internal_prob_min = 0.95;
  config.internal_prob_max = 1.0;
  config.background_avg_degree = 1.0;
  config.seed = 17;
  PlantedGraph planted = GeneratePlanted(config);
  for (const auto& community : planted.communities) {
    VertexSet core =
        CoherentCore(planted.graph, community.layers, /*d=*/8);
    // The community must survive inside its own d-CC.
    EXPECT_TRUE(IsSubsetSorted(community.vertices, core));
  }
}

TEST(DccTest, ScopedComputationMatchesGlobalWithinCandidates) {
  // Lemma 1 usage: computing within the intersection of per-layer d-cores
  // yields the same d-CC as computing over all vertices.
  MultiLayerGraph graph = GenerateErdosRenyi(80, 3, 0.09, 41);
  DccSolver solver(graph);
  for (int d = 2; d <= 4; ++d) {
    LayerSet layers = {0, 2};
    VertexSet scope = IntersectSorted(DCore(graph, 0, d), DCore(graph, 2, d));
    EXPECT_EQ(solver.Compute(layers, d, scope),
              solver.Compute(layers, d, AllVertices(graph)));
  }
}

TEST(DccTest, SolverReusableAcrossCalls) {
  MultiLayerGraph graph = GenerateErdosRenyi(50, 3, 0.1, 51);
  DccSolver solver(graph);
  VertexSet first = solver.Compute({0, 1}, 2, AllVertices(graph));
  // Interleave unrelated computations, then repeat the first.
  solver.Compute({2}, 3, AllVertices(graph));
  solver.Compute({0, 1, 2}, 1, AllVertices(graph), DccEngine::kBins);
  EXPECT_EQ(solver.Compute({0, 1}, 2, AllVertices(graph)), first);
  EXPECT_EQ(solver.num_calls(), 4);
}

TEST(DccTest, EmptyScopeAndHighThreshold) {
  MultiLayerGraph graph = GenerateErdosRenyi(30, 2, 0.1, 61);
  DccSolver solver(graph);
  EXPECT_TRUE(solver.Compute({0}, 2, {}).empty());
  EXPECT_TRUE(solver.Compute({0, 1}, 1000, AllVertices(graph)).empty());
  EXPECT_TRUE(
      solver.Compute({0, 1}, 1000, AllVertices(graph), DccEngine::kBins)
          .empty());
}

// --- The lazy-witness kQueue kernel against exact-degree references. ---
//
// kQueue peels against d witnesses per (layer, vertex) and switches a
// vertex to exact counting once a witness is peeled; kBins keeps exact
// Appendix B degrees. Both must equal the naive fixpoint on every input.

// A small R-MAT graph from format::GenerateMlg, loaded back from MLG1. R-MAT
// puts its hubs at low ids, i.e. at the front of every sorted list.
MultiLayerGraph GeneratedGraph(uint64_t seed) {
  format::MlgGenConfig config;
  config.num_vertices = 1 << 8;
  config.num_layers = 4;
  config.edges_per_layer = 1 << 11;
  config.seed = seed;
  const std::string path = TestTempPath("rmat.mlg");
  MultiLayerGraph graph;
  EXPECT_TRUE(format::GenerateMlg(config, path).ok());
  EXPECT_TRUE(format::LoadMlgGraph(path, &graph).ok());
  return graph;
}

// `graph` with its vertex ids relabelled by a seeded random permutation, so
// witnesses are no longer the hubs.
MultiLayerGraph PermutedIds(const MultiLayerGraph& graph, uint64_t seed) {
  std::vector<VertexId> perm(static_cast<size_t>(graph.NumVertices()));
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  GraphBuilder builder(graph.NumVertices(), graph.NumLayers());
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (v < u) {
          builder.AddEdge(layer, perm[static_cast<size_t>(v)],
                          perm[static_cast<size_t>(u)]);
        }
      }
    }
  }
  return builder.Build();
}

void ExpectEnginesMatchNaive(DccSolver& solver, const MultiLayerGraph& graph,
                             const LayerSet& layers, int d,
                             const VertexSet& scope, const std::string& what) {
  const VertexSet expected = NaiveDcc(graph, layers, d, scope);
  EXPECT_EQ(solver.Compute(layers, d, scope, DccEngine::kQueue), expected)
      << what;
  EXPECT_EQ(solver.Compute(layers, d, scope, DccEngine::kBins), expected)
      << what;
}

std::string LayerString(const LayerSet& layers) {
  std::string out;
  for (LayerId layer : layers) out += std::to_string(layer);
  return out;
}

TEST(DccKernelTest, QueueMatchesBinsAndNaiveOnGeneratedGraphs) {
  for (uint64_t seed : {3u, 4u}) {
    const MultiLayerGraph generated = GeneratedGraph(seed);
    const MultiLayerGraph permuted = PermutedIds(generated, seed + 100);
    for (const MultiLayerGraph* graph : {&generated, &permuted}) {
      const bool is_permuted = graph == &permuted;
      const VertexSet all = AllVertices(*graph);
      DccSolver solver(*graph);
      Rng rng(seed * 31 + (is_permuted ? 1 : 0));
      for (int d : {0, 1, 2, 4, 8}) {
        for (int size = 1; size <= graph->NumLayers(); ++size) {
          ForEachLayerCombination(
              graph->NumLayers(), size, [&](const LayerSet& layers) {
                VertexSet cores = all;
                for (LayerId layer : layers) {
                  cores = IntersectSorted(cores, DCore(*graph, layer, d));
                }
                VertexSet random;
                for (VertexId v : all) {
                  if (rng.Bernoulli(0.6)) random.push_back(v);
                }
                const std::string what =
                    "seed=" + std::to_string(seed) +
                    " permuted=" + std::to_string(is_permuted) +
                    " d=" + std::to_string(d) + " L=" + LayerString(layers);
                ExpectEnginesMatchNaive(solver, *graph, layers, d, all,
                                        what + " scope=all");
                ExpectEnginesMatchNaive(solver, *graph, layers, d, cores,
                                        what + " scope=cores");
                ExpectEnginesMatchNaive(solver, *graph, layers, d, random,
                                        what + " scope=random");
              });
        }
      }
    }
  }
}

TEST(DccKernelTest, HubLosesAllWitnessesInOneCascade) {
  // Ids: witnesses [0, d), their leaves, a d-clique, and the hub last. The
  // hub's d lowest neighbours are exactly the witnesses. Each witness has
  // degree d (d-1 leaves plus the hub); each leaf has degree 1 < d, so the
  // leaves peel first and take every witness with them in one cascade. The
  // hub must then count its clique neighbours and survive with the clique.
  for (int d = 2; d <= 5; ++d) {
    const VertexId first_leaf = d;
    const VertexId first_clique = first_leaf + d * (d - 1);
    const VertexId hub = first_clique + d;
    GraphBuilder builder(hub + 1, 2);
    const LayerSet both = {0, 1};
    VertexSet expected;
    for (VertexId w = 0; w < d; ++w) {
      builder.AddEdgeOnLayers(both, w, hub);
      for (VertexId j = 0; j < d - 1; ++j) {
        builder.AddEdgeOnLayers(both, w, first_leaf + w * (d - 1) + j);
      }
    }
    for (VertexId a = first_clique; a <= hub; ++a) {
      expected.push_back(a);
      for (VertexId b = a + 1; b <= hub; ++b) {
        builder.AddEdgeOnLayers(both, a, b);
      }
    }
    const MultiLayerGraph graph = builder.Build();
    DccSolver solver(graph);
    for (const LayerSet& layers : {LayerSet{0}, LayerSet{1}, both}) {
      EXPECT_EQ(solver.Compute(layers, d, AllVertices(graph)), expected)
          << "d=" << d;
      ExpectEnginesMatchNaive(solver, graph, layers, d, AllVertices(graph),
                              "d=" + std::to_string(d));
    }
  }
}

TEST(DccKernelTest, VertexWithExactlyDNeighbours) {
  // In K_{d+1} every vertex has exactly d neighbours: the clique is its own
  // d-CC, and dropping one edge on one layer cascades it away there.
  for (int d = 1; d <= 5; ++d) {
    GraphBuilder builder(d + 1, 2);
    for (VertexId a = 0; a <= d; ++a) {
      for (VertexId b = a + 1; b <= d; ++b) {
        builder.AddEdge(0, a, b);
        if (a != 0 || b != d) builder.AddEdge(1, a, b);
      }
    }
    const MultiLayerGraph graph = builder.Build();
    const VertexSet all = AllVertices(graph);
    DccSolver solver(graph);
    for (DccEngine engine : {DccEngine::kQueue, DccEngine::kBins}) {
      EXPECT_EQ(solver.Compute({0}, d, all, engine), all) << "d=" << d;
      EXPECT_TRUE(solver.Compute({1}, d, all, engine).empty()) << "d=" << d;
      EXPECT_TRUE(solver.Compute({0, 1}, d, all, engine).empty())
          << "d=" << d;
      EXPECT_EQ(solver.Compute({0, 1}, d - 1, all, engine), all)
          << "d=" << d;
    }
  }
}

TEST(DccKernelTest, ThresholdAboveEveryDegree) {
  const MultiLayerGraph graph = GeneratedGraph(5);
  size_t max_degree = 0;
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      max_degree = std::max(max_degree, graph.Neighbors(layer, v).size());
    }
  }
  const int top = static_cast<int>(max_degree);
  DccSolver solver(graph);
  for (const LayerSet& layers : {LayerSet{0}, LayerSet{0, 1, 2, 3}}) {
    for (DccEngine engine : {DccEngine::kQueue, DccEngine::kBins}) {
      EXPECT_TRUE(
          solver.Compute(layers, top + 1, AllVertices(graph), engine).empty());
    }
    ExpectEnginesMatchNaive(solver, graph, layers, top, AllVertices(graph),
                            "d=max degree");
  }
}

TEST(DccKernelTest, EmptyAndSingleVertexScopes) {
  const MultiLayerGraph graph = GeneratedGraph(6);
  DccSolver solver(graph);
  for (DccEngine engine : {DccEngine::kQueue, DccEngine::kBins}) {
    for (int d : {0, 1, 2}) {
      EXPECT_TRUE(solver.Compute({0, 1}, d, {}, engine).empty());
    }
    // Vertex 0 is R-MAT's biggest hub, so only its scope keeps it out.
    EXPECT_EQ(solver.Compute({0, 1}, 0, {0}, engine), (VertexSet{0}));
    EXPECT_TRUE(solver.Compute({0, 1}, 1, {0}, engine).empty());
  }
}

// kQueue's witness scan prefetches 16 and 64 scope positions ahead; these
// sizes sit on either side of both lookahead guards. Each scope is built
// with capacity == size, so a guard that read scope[size] would be a heap
// overflow under ASan. Run on a mapped MLG1 graph and on an owned one.
TEST(DccKernelTest, PrefetchBoundaryScopes) {
  const MultiLayerGraph mapped = GeneratedGraph(7);
  ASSERT_GT(mapped.MappedBytes(), 0);
  const MultiLayerGraph owned = PermutedIds(mapped, 107);
  ASSERT_EQ(owned.MappedBytes(), 0);
  const auto n = static_cast<size_t>(mapped.NumVertices());
  for (const MultiLayerGraph* graph : {&mapped, &owned}) {
    DccSolver solver(*graph);
    Rng rng(graph == &mapped ? 1 : 2);
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t size : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                        size_t{17}, size_t{63}, size_t{64}, size_t{65}, n}) {
      std::shuffle(perm.begin(), perm.end(), rng.engine());
      VertexSet random(perm.begin(), perm.begin() + static_cast<long>(size));
      std::sort(random.begin(), random.end());
      // The highest ids: the last scope entry's row is the CSR's last.
      VertexSet tail(size);
      std::iota(tail.begin(), tail.end(), static_cast<VertexId>(n - size));
      for (const VertexSet* scope : {&random, &tail}) {
        for (int d : {0, 1, 2, 4}) {
          for (const LayerSet& layers :
               {LayerSet{0}, LayerSet{1, 3}, LayerSet{0, 1, 2, 3}}) {
            ExpectEnginesMatchNaive(
                solver, *graph, layers, d, *scope,
                "mapped=" + std::to_string(graph == &mapped) +
                    " size=" + std::to_string(size) +
                    " tail=" + std::to_string(scope == &tail) +
                    " d=" + std::to_string(d) + " L=" + LayerString(layers));
          }
        }
      }
    }
  }
}

TEST(DccKernelTest, SolverReuseAcrossGrowingAndShrinkingLayerSets) {
  // One solver, |L| growing to l and shrinking back, scopes and d varying,
  // engines interleaved: every answer must equal a fresh solver's.
  const MultiLayerGraph graph = PermutedIds(GeneratedGraph(7), 8);
  const VertexSet all = AllVertices(graph);
  const VertexSet cores =
      IntersectSorted(DCore(graph, 1, 2), DCore(graph, 3, 2));
  const std::vector<LayerSet> sequence = {
      {2}, {0, 3}, {0, 1, 3}, {0, 1, 2, 3}, {1, 2, 3}, {1, 3}, {0},
      {0, 1, 2, 3}, {3}};
  DccSolver reused(graph);
  int64_t calls = 0;
  for (size_t i = 0; i < sequence.size(); ++i) {
    const LayerSet& layers = sequence[i];
    const int d = 1 + static_cast<int>(i % 4);
    const VertexSet& scope = i % 2 == 0 ? all : cores;
    VertexSet out = {42};  // stale contents must be cleared
    reused.Compute(layers, d, scope, &out);
    DccSolver fresh(graph);
    EXPECT_EQ(out, fresh.Compute(layers, d, scope)) << "call " << i;
    EXPECT_EQ(reused.Compute(layers, d, scope, DccEngine::kBins), out)
        << "call " << i;
    calls += 2;
  }
  EXPECT_EQ(reused.num_calls(), calls);
}

// --- Paper §II properties as parameterized sweeps. ---

class DccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DccPropertyTest, UniquenessAcrossEnginesAndScopes) {
  // Property 1: the d-CC is unique — every sound computation path must
  // arrive at the same set.
  MultiLayerGraph graph = GenerateErdosRenyi(60, 4, 0.09, GetParam());
  DccSolver solver(graph);
  LayerSet layers = {0, 2, 3};
  for (int d = 1; d <= 3; ++d) {
    VertexSet a = solver.Compute(layers, d, AllVertices(graph));
    VertexSet b =
        solver.Compute(layers, d, AllVertices(graph), DccEngine::kBins);
    VertexSet scope = DCore(graph, 0, d);
    scope = IntersectSorted(scope, DCore(graph, 2, d));
    scope = IntersectSorted(scope, DCore(graph, 3, d));
    VertexSet c = solver.Compute(layers, d, scope);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
  }
}

TEST_P(DccPropertyTest, HierarchyInD) {
  // Property 2: C^d_L ⊆ C^{d-1}_L.
  MultiLayerGraph graph = GenerateErdosRenyi(60, 3, 0.1, GetParam() + 1000);
  DccSolver solver(graph);
  LayerSet layers = {0, 1};
  VertexSet previous = solver.Compute(layers, 0, AllVertices(graph));
  for (int d = 1; d <= 6; ++d) {
    VertexSet current = solver.Compute(layers, d, AllVertices(graph));
    EXPECT_TRUE(IsSubsetSorted(current, previous)) << "d=" << d;
    previous = std::move(current);
  }
}

TEST_P(DccPropertyTest, ContainmentInL) {
  // Property 3: L ⊆ L' ⇒ C^d_{L'} ⊆ C^d_L.
  MultiLayerGraph graph = GenerateErdosRenyi(60, 4, 0.1, GetParam() + 2000);
  DccSolver solver(graph);
  const int d = 2;
  VertexSet c0 = solver.Compute({0}, d, AllVertices(graph));
  VertexSet c01 = solver.Compute({0, 1}, d, AllVertices(graph));
  VertexSet c013 = solver.Compute({0, 1, 3}, d, AllVertices(graph));
  EXPECT_TRUE(IsSubsetSorted(c01, c0));
  EXPECT_TRUE(IsSubsetSorted(c013, c01));
}

TEST_P(DccPropertyTest, IntersectionBound) {
  // Lemma 1: C^d_{L1∪L2} ⊆ C^d_{L1} ∩ C^d_{L2}.
  MultiLayerGraph graph = GenerateErdosRenyi(60, 4, 0.1, GetParam() + 3000);
  DccSolver solver(graph);
  const int d = 2;
  VertexSet left = solver.Compute({0, 1}, d, AllVertices(graph));
  VertexSet right = solver.Compute({2, 3}, d, AllVertices(graph));
  VertexSet both = solver.Compute({0, 1, 2, 3}, d, AllVertices(graph));
  EXPECT_TRUE(IsSubsetSorted(both, IntersectSorted(left, right)));
}

TEST_P(DccPropertyTest, ResultIsMaximalAndDense) {
  // Definition check: the returned set is d-dense w.r.t. L, and no removed
  // vertex could be added back while preserving d-density.
  MultiLayerGraph graph = GenerateErdosRenyi(50, 3, 0.12, GetParam() + 4000);
  DccSolver solver(graph);
  LayerSet layers = {0, 1, 2};
  const int d = 2;
  VertexSet core = solver.Compute(layers, d, AllVertices(graph));
  for (VertexId v : core) {
    for (LayerId layer : layers) {
      int degree = 0;
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (std::binary_search(core.begin(), core.end(), u)) ++degree;
      }
      EXPECT_GE(degree, d);
    }
  }
  // Maximality: adding any single outside vertex breaks d-density for it.
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (std::binary_search(core.begin(), core.end(), v)) continue;
    VertexSet extended = core;
    extended.insert(std::upper_bound(extended.begin(), extended.end(), v), v);
    bool dense = true;
    for (LayerId layer : layers) {
      int degree = 0;
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (std::binary_search(extended.begin(), extended.end(), u)) {
          ++degree;
        }
      }
      if (degree < d) {
        dense = false;
        break;
      }
    }
    EXPECT_FALSE(dense) << "vertex " << v
                        << " could extend the d-CC — not maximal";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DccPropertyTest,
                         ::testing::Range<uint64_t>(0, 10));

TEST(FdsTest, BinomialCoefficient) {
  EXPECT_EQ(BinomialCoefficient(4, 2), 6);
  EXPECT_EQ(BinomialCoefficient(24, 3), 2024);
  EXPECT_EQ(BinomialCoefficient(10, 0), 1);
  EXPECT_EQ(BinomialCoefficient(10, 10), 1);
  EXPECT_EQ(BinomialCoefficient(5, 6), 0);
}

TEST(FdsTest, CombinationEnumerationCountsAndOrder) {
  std::vector<LayerSet> seen;
  ForEachLayerCombination(
      5, 3, [&](const LayerSet& layers) { seen.push_back(layers); });
  EXPECT_EQ(static_cast<int64_t>(seen.size()), BinomialCoefficient(5, 3));
  EXPECT_EQ(seen.front(), (LayerSet{0, 1, 2}));
  EXPECT_EQ(seen.back(), (LayerSet{2, 3, 4}));
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const auto& layers : seen) {
    EXPECT_TRUE(std::is_sorted(layers.begin(), layers.end()));
  }
}

TEST(FdsTest, EnumerateFdsMatchesDirectComputation) {
  MultiLayerGraph graph = GenerateErdosRenyi(50, 4, 0.1, 71);
  auto candidates = EnumerateFds(graph, 2, 2);
  EXPECT_EQ(static_cast<int64_t>(candidates.size()),
            BinomialCoefficient(4, 2));
  for (const auto& candidate : candidates) {
    EXPECT_EQ(candidate.vertices, CoherentCore(graph, candidate.layers, 2));
  }
}

}  // namespace
}  // namespace mlcore
