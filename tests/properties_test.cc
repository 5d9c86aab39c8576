#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "core/dcc.h"
#include "core/fds.h"
#include "dccs/dccs.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/generators.h"
#include "test_temp.h"
#include "util/rng.h"

namespace mlcore {
namespace {

// Cross-algorithm property sweep over a (d, s) grid on small planted
// instances where the exact optimum is computable. For every point:
//   - results are valid, distinct members of F_{d,s},
//   - GD meets its (1 − 1/e) bound, BU/TD meet their 1/4 bounds,
//   - the greedy cover is reproducible from the materialised F_{d,s}.

MultiLayerGraph GridGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 100;
  config.num_layers = 5;
  config.num_communities = 6;
  config.community_size_min = 8;
  config.community_size_max = 14;
  config.internal_prob_min = 0.75;
  config.internal_prob_max = 0.95;
  config.background_avg_degree = 1.2;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

class GridPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GridPropertyTest, AllAlgorithmsMeetBoundsAndContracts) {
  auto [d, s] = GetParam();
  MultiLayerGraph graph = GridGraph(static_cast<uint64_t>(d * 31 + s));
  DccsParams params;
  params.d = d;
  params.s = s;
  params.k = 3;

  DccsResult exact = ExactDccs(graph, params);
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
        DccsAlgorithm::kTopDown}) {
    DccsResult result = SolveDccs(graph, params, algorithm);

    // Contract: valid, distinct candidates.
    std::set<LayerSet> seen;
    for (const auto& core : result.cores) {
      EXPECT_EQ(static_cast<int>(core.layers.size()), s);
      EXPECT_TRUE(seen.insert(core.layers).second)
          << AlgorithmName(algorithm) << " returned a duplicate layer set";
      EXPECT_EQ(core.vertices, CoherentCore(graph, core.layers, d))
          << AlgorithmName(algorithm);
    }

    // Approximation bounds.
    EXPECT_GE(4 * result.CoverSize(), exact.CoverSize())
        << AlgorithmName(algorithm) << " d=" << d << " s=" << s;
    if (algorithm == DccsAlgorithm::kGreedy) {
      EXPECT_GE(static_cast<double>(result.CoverSize()) + 1e-9,
                (1.0 - 1.0 / 2.718281828) *
                    static_cast<double>(exact.CoverSize()))
          << "d=" << d << " s=" << s;
    }

    // Non-trivial instances must produce something whenever F is
    // non-empty.
    if (exact.CoverSize() > 0) {
      EXPECT_GT(result.CoverSize(), 0) << AlgorithmName(algorithm);
    }
  }
}

TEST_P(GridPropertyTest, GreedyIsReproducibleFromFds) {
  // GD-DCCS must equal a straightforward greedy max-cover over the
  // materialised F_{d,s} (same cover size; Fig 2 lines 8–10).
  auto [d, s] = GetParam();
  MultiLayerGraph graph = GridGraph(static_cast<uint64_t>(d * 131 + s));
  DccsParams params;
  params.d = d;
  params.s = s;
  params.k = 3;

  auto candidates = EnumerateFds(graph, d, s);
  std::set<VertexId> covered;
  for (int round = 0; round < params.k; ++round) {
    int64_t best_gain = 0;
    const CandidateCore* best = nullptr;
    for (const auto& candidate : candidates) {
      int64_t gain = 0;
      for (VertexId v : candidate.vertices) {
        if (covered.count(v) == 0) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = &candidate;
      }
    }
    if (best == nullptr) break;
    covered.insert(best->vertices.begin(), best->vertices.end());
  }

  DccsResult greedy = GreedyDccs(graph, params);
  EXPECT_EQ(greedy.CoverSize(), static_cast<int64_t>(covered.size()))
      << "d=" << d << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GridPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 3, 5)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// --- Seeded oracle sweep ---------------------------------------------------
//
// Random instances instead of the fixed grid: small R-MAT graphs from
// format::GenerateMlg and planted graphs, 4–6 layers, random (d, s, k),
// kernel engine and search lanes. Every other round draws s ≥ l/2, the
// top-down regime, so TD's RefineC runs at many lattice depths. Every
// answer is checked against ExactDccs. Each algorithm also runs with
// k ≥ C(l, s), so every d-CC it can return is checked to be exact, not just
// a small top-k: a RefineC that drops a few core vertices on some lattice
// nodes rarely shows in the top three.

MultiLayerGraph OracleRmat(Rng& rng, int32_t layers) {
  format::MlgGenConfig config;
  config.num_vertices = static_cast<int32_t>(1 << rng.Uniform(6, 8));
  config.num_layers = layers;
  config.edges_per_layer = config.num_vertices * rng.Uniform(2, 8);
  config.layer_overlap = 0.1 + 0.6 * rng.UniformReal();
  config.seed = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
  const std::string path = TestTempPath("oracle.mlg");
  MultiLayerGraph graph;
  EXPECT_TRUE(format::GenerateMlg(config, path).ok());
  EXPECT_TRUE(format::LoadMlgGraph(path, &graph).ok());
  return graph;
}

MultiLayerGraph OraclePlanted(Rng& rng, int32_t layers) {
  PlantedGraphConfig config;
  config.num_vertices = static_cast<int32_t>(rng.Uniform(60, 140));
  config.num_layers = layers;
  config.num_communities = static_cast<int>(rng.Uniform(3, 8));
  config.community_size_min = 6;
  config.community_size_max = static_cast<int>(rng.Uniform(8, 16));
  config.internal_prob_min = 0.6;
  config.internal_prob_max = 0.95;
  config.background_avg_degree = 2.0 * rng.UniformReal();
  config.seed = static_cast<uint64_t>(rng.Uniform(1, 1 << 30));
  return GeneratePlanted(config).graph;
}

class OracleSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleSweepTest, RandomInstancesMeetBoundsAgainstExact) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 11);
  for (int round = 0; round < 16; ++round) {
    const auto l = static_cast<int32_t>(rng.Uniform(4, 6));
    const bool rmat = round % 4 < 2;
    MultiLayerGraph graph = rmat ? OracleRmat(rng, l) : OraclePlanted(rng, l);
    DccsParams params;
    params.d = static_cast<int>(rng.Uniform(1, 5));
    params.s = static_cast<int>(round % 2 == 0 ? rng.Uniform(1, l)
                                               : rng.Uniform((l + 1) / 2, l));
    params.k = static_cast<int>(rng.Uniform(1, 3));
    params.dcc_engine =
        rng.Bernoulli(0.5) ? DccEngine::kQueue : DccEngine::kBins;
    const int lanes = rng.Bernoulli(0.5) ? 1 : 4;
    std::ostringstream where;
    where << "seed=" << GetParam() << " round=" << round
          << (rmat ? " rmat" : " planted") << " l=" << l << " d=" << params.d
          << " s=" << params.s << " k=" << params.k << " lanes=" << lanes;
    Engine engine(&graph,
                  Engine::Options{.query_workers = 0, .search_threads = lanes});
    auto solve = [&engine](const DccsParams& p, DccsAlgorithm algorithm) {
      Expected<DccsResult> response = engine.Run(DccsRequest{p, algorithm});
      EXPECT_TRUE(response.ok()) << response.status().message;
      return response.ok() ? std::move(response).value() : DccsResult{};
    };

    const double opt =
        static_cast<double>(ExactDccs(graph, params).CoverSize());
    DccsParams all_cores = params;
    all_cores.k = 20;  // C(6, 3), the most layer subsets at l ≤ 6
    for (DccsAlgorithm algorithm :
         {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
          DccsAlgorithm::kTopDown}) {
      DccsResult result = solve(params, algorithm);
      const double cover = static_cast<double>(result.CoverSize());
      const double ratio =
          algorithm == DccsAlgorithm::kGreedy ? 1.0 - 1.0 / 2.718281828 : 0.25;
      EXPECT_GE(cover + 1e-9, ratio * opt)
          << AlgorithmName(algorithm) << " " << where.str();
      for (const DccsResult& run :
           {result, solve(all_cores, algorithm)}) {
        for (const auto& core : run.cores) {
          ASSERT_EQ(static_cast<int>(core.layers.size()), params.s);
          EXPECT_EQ(core.vertices, CoherentCore(graph, core.layers, params.d))
              << AlgorithmName(algorithm) << " returned a non-d-CC set, "
              << where.str();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweepTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace mlcore
