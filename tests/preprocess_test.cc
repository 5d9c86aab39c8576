#include <gtest/gtest.h>

#include "core/dcc.h"
#include "core/dcore.h"
#include "dccs/preprocess.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mlcore {
namespace {

TEST(PreprocessTest, VertexDeletionReachesFixpoint) {
  MultiLayerGraph graph = GenerateErdosRenyi(120, 4, 0.06, 7);
  const int d = 2, s = 3;
  PreprocessResult pre = Preprocess(graph, d, s, /*vertex_deletion=*/true);
  // Every surviving vertex is in ≥ s per-layer d-cores (computed within the
  // surviving set), per BU-DCCS lines 1–7.
  for (VertexId v : pre.active) {
    EXPECT_GE(pre.support[static_cast<size_t>(v)], s);
  }
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    EXPECT_EQ(pre.layer_cores[static_cast<size_t>(layer)],
              DCoreScoped(graph, layer, d, pre.active));
  }
}

TEST(PreprocessTest, DeletionPreservesAllCandidateCores) {
  // Vertex deletion must be lossless: every C^d_L with |L| = s is contained
  // in the surviving set.
  MultiLayerGraph graph = GenerateErdosRenyi(80, 4, 0.08, 17);
  const int d = 2, s = 2;
  PreprocessResult pre = Preprocess(graph, d, s, true);
  DccSolver solver(graph);
  for (LayerId a = 0; a < 4; ++a) {
    for (LayerId b = a + 1; b < 4; ++b) {
      VertexSet core = solver.Compute({a, b}, d, AllVertices(graph));
      EXPECT_TRUE(IsSubsetSorted(core, pre.active));
      // And recomputing inside the active set changes nothing.
      EXPECT_EQ(solver.Compute({a, b}, d, pre.active), core);
    }
  }
}

TEST(PreprocessTest, NoDeletionKeepsEverything) {
  MultiLayerGraph graph = GenerateErdosRenyi(50, 3, 0.1, 27);
  PreprocessResult pre = Preprocess(graph, 2, 2, /*vertex_deletion=*/false);
  EXPECT_EQ(pre.active.size(), 50u);
  for (LayerId layer = 0; layer < 3; ++layer) {
    EXPECT_EQ(pre.layer_cores[static_cast<size_t>(layer)],
              DCore(graph, layer, 2));
  }
}

TEST(PreprocessTest, SortedLayerOrder) {
  GraphBuilder builder(20, 3);
  // Layer 0: 6-clique (6-vertex 2-core); layer 1: 4-clique; layer 2: empty.
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) builder.AddEdge(0, u, v);
  }
  for (VertexId u = 10; u < 14; ++u) {
    for (VertexId v = u + 1; v < 14; ++v) builder.AddEdge(1, u, v);
  }
  MultiLayerGraph graph = builder.Build();
  PreprocessResult pre = Preprocess(graph, 2, 1, false);
  auto descending = SortedLayerOrder(pre, true, true);
  EXPECT_EQ(descending, (std::vector<LayerId>{0, 1, 2}));
  auto ascending = SortedLayerOrder(pre, false, true);
  EXPECT_EQ(ascending, (std::vector<LayerId>{2, 1, 0}));
  auto identity = SortedLayerOrder(pre, true, false);
  EXPECT_EQ(identity, (std::vector<LayerId>{0, 1, 2}));
}

TEST(PreprocessTest, InitTopKSeedsKResults) {
  PlantedGraphConfig config;
  config.num_vertices = 200;
  config.num_layers = 5;
  config.num_communities = 6;
  config.seed = 37;
  MultiLayerGraph graph = GeneratePlanted(config).graph;
  DccsParams params;
  params.d = 2;
  params.s = 2;
  params.k = 3;
  PreprocessResult pre = Preprocess(graph, params.d, params.s, true);
  DccSolver solver(graph);
  const CoverageIndex index =
      ComputeInitSeeds(graph, params, pre, solver).topk;
  EXPECT_EQ(index.size(), params.k);
  index.CheckInvariants();
  // Every seeded entry must be a genuine d-CC with |L| = s.
  for (const auto& entry : index.entries()) {
    EXPECT_EQ(static_cast<int>(entry.layers.size()), params.s);
    EXPECT_EQ(entry.vertices, CoherentCore(graph, entry.layers, params.d));
  }
}

TEST(PreprocessTest, InitTopKDisabled) {
  MultiLayerGraph graph = GenerateErdosRenyi(40, 3, 0.1, 57);
  DccsParams params;
  params.init_result = false;
  PreprocessResult pre = Preprocess(graph, params.d, params.s, true);
  DccSolver solver(graph);
  const CoverageIndex index =
      ComputeInitSeeds(graph, params, pre, solver).topk;
  EXPECT_EQ(index.size(), 0);
}

}  // namespace
}  // namespace mlcore
