#include <gtest/gtest.h>

#include "core/dcc.h"
#include "dccs/vertex_index.h"
#include "graph/generators.h"

namespace mlcore {
namespace {

TEST(VertexIndexTest, PartitionsAllActiveVertices) {
  // Every active vertex is removed at some stage h ∈ [1, l].
  MultiLayerGraph graph = GenerateErdosRenyi(100, 4, 0.08, 5);
  VertexLevelIndex index(graph, 2, AllVertices(graph));
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_GE(index.stage(v), 1) << "v=" << v;
    EXPECT_LE(index.stage(v), graph.NumLayers()) << "v=" << v;
  }
}

TEST(VertexIndexTest, Lemma8ScopeContainsCoherentCores) {
  // Lemma 8: C^d_{L'} ⊆ {v : stage(v) ≥ |L'|} for every layer subset L'.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    PlantedGraphConfig config;
    config.num_vertices = 150;
    config.num_layers = 5;
    config.num_communities = 4;
    config.seed = 500 + seed;
    MultiLayerGraph graph = GeneratePlanted(config).graph;
    const int d = 3;
    VertexLevelIndex index(graph, d, AllVertices(graph));
    DccSolver solver(graph);
    std::vector<LayerSet> subsets = {
        {0}, {0, 1}, {1, 2, 3}, {0, 2, 3, 4}, {0, 1, 2, 3, 4}};
    for (const LayerSet& layers : subsets) {
      VertexSet core = solver.Compute(layers, d, AllVertices(graph));
      for (VertexId v : core) {
        EXPECT_GE(index.stage(v), static_cast<int>(layers.size()))
            << "seed=" << seed;
      }
    }
  }
}

TEST(VertexIndexTest, VerticesOutsideActiveGetMinusOne) {
  MultiLayerGraph graph = GenerateErdosRenyi(40, 2, 0.1, 8);
  VertexSet active;
  for (VertexId v = 0; v < 20; ++v) active.push_back(v);
  VertexLevelIndex index(graph, 1, active);
  for (VertexId v = 20; v < 40; ++v) {
    EXPECT_EQ(index.stage(v), -1);
  }
}

}  // namespace
}  // namespace mlcore
