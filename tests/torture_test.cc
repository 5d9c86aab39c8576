#include <gtest/gtest.h>

#include <algorithm>

#include "core/dcc.h"
#include "dccs/dccs.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace mlcore {
namespace {

// Randomized differential torture: many random (graph, d, s, k, flags)
// configurations, each validated against the exact solver and the output
// contract. Catches interaction bugs between preprocessing, pruning and
// the coverage bookkeeping that fixed-scenario tests can miss.
class TortureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TortureTest, RandomConfigurationsStaySound) {
  Rng rng(GetParam() * 2654435761ULL + 7);
  for (int round = 0; round < 6; ++round) {
    PlantedGraphConfig config;
    config.num_vertices = static_cast<int32_t>(rng.Uniform(40, 150));
    config.num_layers = static_cast<int32_t>(rng.Uniform(2, 6));
    config.num_communities = static_cast<int>(rng.Uniform(1, 6));
    config.community_size_min = 6;
    config.community_size_max = static_cast<int>(rng.Uniform(8, 18));
    config.internal_prob_min = 0.6;
    config.internal_prob_max = 0.95;
    config.background_avg_degree = rng.UniformReal() * 2.5;
    config.seed = rng.Uniform(0, 1 << 30);
    MultiLayerGraph graph = GeneratePlanted(config).graph;

    DccsParams params;
    params.d = static_cast<int>(rng.Uniform(1, 4));
    params.s = static_cast<int>(rng.Uniform(1, config.num_layers));
    params.k = static_cast<int>(rng.Uniform(1, 5));
    params.vertex_deletion = rng.Bernoulli(0.7);
    params.sort_layers = rng.Bernoulli(0.7);
    params.init_result = rng.Bernoulli(0.7);
    params.dcc_engine =
        rng.Bernoulli(0.5) ? DccEngine::kQueue : DccEngine::kBins;

    DccsResult exact = ExactDccs(graph, params);
    for (DccsAlgorithm algorithm :
         {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
          DccsAlgorithm::kTopDown}) {
      DccsResult result = SolveDccs(graph, params, algorithm);
      ASSERT_GE(4 * result.CoverSize(), exact.CoverSize())
          << AlgorithmName(algorithm) << " seed=" << GetParam()
          << " round=" << round << " d=" << params.d << " s=" << params.s
          << " k=" << params.k;
      for (const auto& core : result.cores) {
        ASSERT_EQ(static_cast<int>(core.layers.size()), params.s);
        ASSERT_EQ(core.vertices,
                  CoherentCore(graph, core.layers, params.d))
            << AlgorithmName(algorithm) << " produced a non-d-CC set";
      }
      // Distinctness of the returned layer subsets.
      std::vector<LayerSet> layer_sets;
      for (const auto& core : result.cores) layer_sets.push_back(core.layers);
      std::sort(layer_sets.begin(), layer_sets.end());
      ASSERT_TRUE(std::adjacent_find(layer_sets.begin(), layer_sets.end()) ==
                  layer_sets.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace mlcore
