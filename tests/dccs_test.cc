#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/dcc.h"
#include "core/fds.h"
#include "dccs/dccs.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "test_temp.h"

namespace mlcore {
namespace {

// Validates the DCCS output contract: k or fewer cores, each being exactly
// the d-CC of its layer set, with |L| = s.
void ExpectValidResult(const MultiLayerGraph& graph, const DccsParams& params,
                       const DccsResult& result) {
  EXPECT_LE(static_cast<int>(result.cores.size()), params.k);
  for (const auto& core : result.cores) {
    EXPECT_EQ(static_cast<int>(core.layers.size()), params.s);
    EXPECT_TRUE(std::is_sorted(core.layers.begin(), core.layers.end()));
    EXPECT_TRUE(
        std::adjacent_find(core.layers.begin(), core.layers.end()) ==
        core.layers.end());
    for (LayerId layer : core.layers) {
      EXPECT_GE(layer, 0);
      EXPECT_LT(layer, graph.NumLayers());
    }
    EXPECT_FALSE(core.vertices.empty());
    EXPECT_EQ(core.vertices, CoherentCore(graph, core.layers, params.d))
        << "returned set is not the exact d-CC of its layer subset";
  }
}

MultiLayerGraph SmallPlanted(uint64_t seed, int32_t n = 120, int32_t l = 5) {
  PlantedGraphConfig config;
  config.num_vertices = n;
  config.num_layers = l;
  config.num_communities = 5;
  config.community_size_min = 8;
  config.community_size_max = 16;
  config.internal_prob_min = 0.8;
  config.internal_prob_max = 0.95;
  config.background_avg_degree = 1.5;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

class DccsAlgorithmTest
    : public ::testing::TestWithParam<std::tuple<DccsAlgorithm, uint64_t>> {};

TEST_P(DccsAlgorithmTest, ResultsAreValidDccs) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 4;
  DccsResult result = SolveDccs(graph, params, algorithm);
  ExpectValidResult(graph, params, result);
}

TEST_P(DccsAlgorithmTest, ApproximationBoundAgainstExact) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed, 80, 4);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 3;
  DccsResult exact = ExactDccs(graph, params);
  DccsResult approx = SolveDccs(graph, params, algorithm);
  ExpectValidResult(graph, params, approx);
  // GD guarantees 1−1/e ≈ 0.632, BU/TD guarantee 1/4; both imply ≥ 1/4.
  EXPECT_GE(4 * approx.CoverSize(), exact.CoverSize())
      << AlgorithmName(std::get<0>(GetParam()))
      << " violated its approximation bound";
  if (algorithm == DccsAlgorithm::kGreedy) {
    EXPECT_GE(static_cast<double>(approx.CoverSize()),
              (1.0 - 1.0 / 2.718281828) *
                  static_cast<double>(exact.CoverSize()));
  }
}

TEST_P(DccsAlgorithmTest, Deterministic) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed + 50);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 4;
  DccsResult a = SolveDccs(graph, params, algorithm);
  DccsResult b = SolveDccs(graph, params, algorithm);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].layers, b.cores[i].layers);
    EXPECT_EQ(a.cores[i].vertices, b.cores[i].vertices);
  }
}

TEST_P(DccsAlgorithmTest, SupportEqualsLayerCountEdgeCase) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed + 100, 100, 4);
  DccsParams params;
  params.d = 2;
  params.s = 4;  // s = l
  params.k = 3;
  DccsResult result = SolveDccs(graph, params, algorithm);
  ExpectValidResult(graph, params, result);
  // There is exactly one layer subset of size l, hence at most one core.
  EXPECT_LE(result.cores.size(), 1u);
  DccsResult exact = ExactDccs(graph, params);
  EXPECT_EQ(result.CoverSize(), exact.CoverSize());
}

TEST_P(DccsAlgorithmTest, SupportOneEdgeCase) {
  auto [algorithm, seed] = GetParam();
  if (std::get<0>(GetParam()) == DccsAlgorithm::kTopDown) {
    GTEST_SKIP() << "paper restricts TD-DCCS to s ≥ l/2";
  }
  MultiLayerGraph graph = SmallPlanted(seed + 150, 100, 4);
  DccsParams params;
  params.d = 2;
  params.s = 1;
  params.k = 2;
  DccsResult result = SolveDccs(graph, params, algorithm);
  ExpectValidResult(graph, params, result);
  EXPECT_GE(4 * result.CoverSize(), ExactDccs(graph, params).CoverSize());
}

TEST_P(DccsAlgorithmTest, SupportLargerThanLayersReturnsEmpty) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed + 200, 60, 3);
  DccsParams params;
  params.d = 2;
  params.s = 7;
  params.k = 2;
  DccsResult result = SolveDccs(graph, params, algorithm);
  EXPECT_TRUE(result.cores.empty());
}

TEST_P(DccsAlgorithmTest, AblationsPreserveValidity) {
  auto [algorithm, seed] = GetParam();
  MultiLayerGraph graph = SmallPlanted(seed + 250);
  for (int mask = 0; mask < 8; ++mask) {
    DccsParams params;
    params.d = 3;
    params.s = 2;
    params.k = 3;
    params.vertex_deletion = (mask & 1) != 0;
    params.sort_layers = (mask & 2) != 0;
    params.init_result = (mask & 4) != 0;
    DccsResult result = SolveDccs(graph, params, algorithm);
    ExpectValidResult(graph, params, result);
    EXPECT_GE(4 * result.CoverSize(), ExactDccs(graph, params).CoverSize())
        << "ablation mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DccsAlgorithmTest,
    ::testing::Combine(::testing::Values(DccsAlgorithm::kGreedy,
                                         DccsAlgorithm::kBottomUp,
                                         DccsAlgorithm::kTopDown),
                       ::testing::Range<uint64_t>(0, 5)),
    [](const auto& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(DccsTest, GreedyMatchesHandComputedExample) {
  // Two disjoint cliques on different layer pairs; with k=2 both must be
  // found and cover everything that is coverable.
  GraphBuilder builder(14, 4);
  auto add_clique = [&](VertexId first, VertexId last,
                        std::initializer_list<LayerId> layers) {
    for (VertexId u = first; u <= last; ++u) {
      for (VertexId v = u + 1; v <= last; ++v) {
        for (LayerId layer : layers) builder.AddEdge(layer, u, v);
      }
    }
  };
  add_clique(0, 5, {0, 1});
  add_clique(6, 11, {2, 3});
  MultiLayerGraph graph = builder.Build();

  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 2;
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
        DccsAlgorithm::kTopDown}) {
    DccsResult result = SolveDccs(graph, params, algorithm);
    EXPECT_EQ(result.CoverSize(), 12) << AlgorithmName(algorithm);
  }
}

// RefineC is the Lemma 8 stage scope peeled by the d-CC kernel; every core
// TD returns must be the exact d-CC of its layer set on either kernel engine
// and at any lane count, and the result must not depend on either.
void ExpectTopDownCoresExact(const MultiLayerGraph& graph, DccsParams params,
                             const std::string& label) {
  std::optional<DccsResult> first;
  for (DccEngine engine : {DccEngine::kQueue, DccEngine::kBins}) {
    for (int lanes : {1, 8}) {
      params.dcc_engine = engine;
      DccsResult result =
          TopDownDccs(graph, params, DccsExecution{.search_threads = lanes});
      ASSERT_FALSE(result.cores.empty()) << label;
      for (const auto& core : result.cores) {
        EXPECT_EQ(core.vertices, CoherentCore(graph, core.layers, params.d))
            << label << " lanes=" << lanes;
      }
      if (!first.has_value()) {
        first = std::move(result);
      } else {
        EXPECT_EQ(result.cores, first->cores) << label << " lanes=" << lanes;
      }
    }
  }
}

TEST(DccsTest, TopDownCoresAreExactDcc) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DccsParams params;
    params.d = 3;
    params.s = 4;
    params.k = 4;
    ExpectTopDownCoresExact(SmallPlanted(seed + 300, 140, 6), params,
                            "planted seed=" + std::to_string(seed));
  }
  // An R-MAT instance on which a level-by-level (Lemma 9) RefineC drops
  // vertices of two returned d-CCs.
  format::MlgGenConfig config;
  config.num_vertices = 128;
  config.num_layers = 5;
  config.edges_per_layer = 512;
  config.layer_overlap = 0.302;
  config.seed = 256910193;
  const std::string path = TestTempPath("rmat.mlg");
  MultiLayerGraph rmat;
  ASSERT_TRUE(format::GenerateMlg(config, path).ok());
  ASSERT_TRUE(format::LoadMlgGraph(path, &rmat).ok());
  DccsParams params;
  params.d = 4;
  params.s = 4;
  params.k = 8;
  ExpectTopDownCoresExact(rmat, params, "rmat");
}

TEST(DccsTest, BottomUpPrunesComparedToGreedy) {
  // The headline claim of §IV: BU searches far fewer candidates than GD.
  MultiLayerGraph graph = SmallPlanted(999, 400, 8);
  DccsParams params;
  params.d = 3;
  params.s = 3;
  params.k = 5;
  DccsResult greedy = GreedyDccs(graph, params);
  DccsResult bottom_up = BottomUpDccs(graph, params);
  EXPECT_GT(greedy.stats.candidates_generated, 0);
  EXPECT_LT(bottom_up.stats.nodes_visited,
            greedy.stats.candidates_generated)
      << "bottom-up search should explore fewer nodes than the full "
         "C(l, s) enumeration";
  // Quality stays within the approximation band in practice (paper Fig 16).
  EXPECT_GE(4 * bottom_up.CoverSize(), greedy.CoverSize());
}

TEST(DccsTest, RecommendedAlgorithmRule) {
  MultiLayerGraph graph = SmallPlanted(1, 60, 8);
  EXPECT_EQ(RecommendedAlgorithm(graph, 3), DccsAlgorithm::kBottomUp);
  EXPECT_EQ(RecommendedAlgorithm(graph, 4), DccsAlgorithm::kTopDown);
  EXPECT_EQ(RecommendedAlgorithm(graph, 7), DccsAlgorithm::kTopDown);
}

TEST(DccsTest, CoverHelpers) {
  DccsResult result;
  result.cores.push_back(ResultCore{{0, 1}, {1, 2, 3}});
  result.cores.push_back(ResultCore{{1, 2}, {3, 4}});
  EXPECT_EQ(result.Cover(), (VertexSet{1, 2, 3, 4}));
  EXPECT_EQ(result.CoverSize(), 4);
}

TEST(DccsTest, PlantedCommunitiesRecovered) {
  // End-to-end: on a planted instance the searches should cover the
  // vertices of communities recurring on ≥ s layers.
  PlantedGraphConfig config;
  config.num_vertices = 300;
  config.num_layers = 6;
  config.num_communities = 3;
  config.community_size_min = 15;
  config.community_size_max = 20;
  config.internal_prob_min = 0.95;
  config.internal_prob_max = 1.0;
  config.background_avg_degree = 1.0;
  config.community_layers_min = 3;
  config.seed = 4242;
  PlantedGraph planted = GeneratePlanted(config);

  DccsParams params;
  params.d = 5;
  params.s = 3;
  params.k = 6;
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp}) {
    DccsResult result = SolveDccs(planted.graph, params, algorithm);
    VertexSet cover = result.Cover();
    for (const auto& community : planted.communities) {
      if (static_cast<int>(community.layers.size()) < params.s) continue;
      VertexSet recovered = IntersectSorted(cover, community.vertices);
      EXPECT_GE(recovered.size(), community.vertices.size() * 8 / 10)
          << AlgorithmName(algorithm) << " missed a planted community";
    }
  }
}

TEST(DccsTest, StatsAccounting) {
  MultiLayerGraph graph = SmallPlanted(77, 200, 6);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 4;
  DccsResult bu = BottomUpDccs(graph, params);
  EXPECT_GT(bu.stats.candidates_generated, 0);
  EXPECT_GT(bu.stats.nodes_visited, 0);
  EXPECT_GE(bu.stats.total_seconds, bu.stats.search_seconds);
  DccsResult td = TopDownDccs(graph, params);
  EXPECT_GT(td.stats.nodes_visited, 0);
}

// The free functions run self-contained by default; a host (the Engine,
// perfbench's decomposed runs) injects the §IV-C preprocessing, the
// InitTopK seeds, the §V-C index and a solver it built itself. Both forms
// must give the same cores and the same search counters.
TEST(DccsTest, InjectedExecutionMatchesSelfContained) {
  MultiLayerGraph graph = SmallPlanted(91, 160, 6);
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
        DccsAlgorithm::kTopDown}) {
    for (int s : {2, 4}) {
      for (bool sort_layers : {true, false}) {
        for (bool init_result : {true, false}) {
          DccsParams params;
          params.d = 3;
          params.s = s;
          params.k = 4;
          params.sort_layers = sort_layers;
          params.init_result = init_result;
          const std::string label =
              AlgorithmName(algorithm) + " s=" + std::to_string(s) +
              " sort_layers=" + std::to_string(sort_layers) +
              " init_result=" + std::to_string(init_result);

          const PreprocessResult pre = Preprocess(
              graph, params.d, params.s, params.vertex_deletion);
          DccSolver solver(graph);
          const InitSeeds seeds =
              ComputeInitSeeds(graph, params, pre, solver);
          const VertexLevelIndex index(graph, params.d, pre.active);
          DccsExecution exec;
          exec.preprocess = &pre;
          exec.seeds =
              algorithm != DccsAlgorithm::kGreedy ? &seeds : nullptr;
          exec.index = &index;
          exec.solver = &solver;

          DccsResult self_contained;
          DccsResult injected;
          switch (algorithm) {
            case DccsAlgorithm::kGreedy:
              self_contained = GreedyDccs(graph, params);
              injected = GreedyDccs(graph, params, exec);
              break;
            case DccsAlgorithm::kBottomUp:
              self_contained = BottomUpDccs(graph, params);
              injected = BottomUpDccs(graph, params, exec);
              break;
            default:
              self_contained = TopDownDccs(graph, params);
              injected = TopDownDccs(graph, params, exec);
              break;
          }
          EXPECT_FALSE(self_contained.cores.empty()) << label;
          EXPECT_EQ(injected.cores, self_contained.cores) << label;
          EXPECT_EQ(injected.stats.candidates_generated,
                    self_contained.stats.candidates_generated)
              << label;
          EXPECT_EQ(injected.stats.nodes_visited,
                    self_contained.stats.nodes_visited)
              << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mlcore
