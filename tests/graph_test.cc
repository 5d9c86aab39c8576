#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/io.h"
#include "graph/multilayer_graph.h"
#include "graph/sampling.h"
#include "test_temp.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace mlcore {
namespace {

MultiLayerGraph TwoLayerTriangle() {
  // Layer 0: triangle 0-1-2 plus pendant 3; layer 1: path 0-1-2.
  GraphBuilder builder(4, 2);
  builder.AddEdge(0, 0, 1);
  builder.AddEdge(0, 1, 2);
  builder.AddEdge(0, 0, 2);
  builder.AddEdge(0, 2, 3);
  builder.AddEdge(1, 0, 1);
  builder.AddEdge(1, 1, 2);
  return builder.Build();
}

TEST(GraphBuilderTest, BasicConstruction) {
  MultiLayerGraph graph = TwoLayerTriangle();
  EXPECT_EQ(graph.NumVertices(), 4);
  EXPECT_EQ(graph.NumLayers(), 2);
  EXPECT_EQ(graph.NumEdges(0), 4);
  EXPECT_EQ(graph.NumEdges(1), 2);
  EXPECT_EQ(graph.TotalEdges(), 6);
  EXPECT_EQ(graph.Degree(0, 2), 3);
  EXPECT_EQ(graph.Degree(1, 2), 1);
  EXPECT_TRUE(graph.HasEdge(0, 0, 2));
  EXPECT_FALSE(graph.HasEdge(1, 0, 2));
}

TEST(GraphBuilderTest, DeduplicatesAndIgnoresSelfLoops) {
  GraphBuilder builder(3, 1);
  builder.AddEdge(0, 0, 1);
  builder.AddEdge(0, 1, 0);  // duplicate in reverse orientation
  builder.AddEdge(0, 0, 1);  // duplicate
  builder.AddEdge(0, 2, 2);  // self loop
  MultiLayerGraph graph = builder.Build();
  EXPECT_EQ(graph.NumEdges(0), 1);
  EXPECT_EQ(graph.Degree(0, 2), 0);
}

TEST(GraphBuilderTest, NeighborListsSorted) {
  GraphBuilder builder(5, 1);
  builder.AddEdge(0, 2, 4);
  builder.AddEdge(0, 2, 0);
  builder.AddEdge(0, 2, 3);
  builder.AddEdge(0, 2, 1);
  MultiLayerGraph graph = builder.Build();
  auto nbrs = graph.Neighbors(0, 2);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(MultiLayerGraphTest, DistinctEdges) {
  MultiLayerGraph graph = TwoLayerTriangle();
  // Union of layers: {01, 12, 02, 23} = 4 distinct edges.
  EXPECT_EQ(graph.DistinctEdges(), 4);
}

TEST(MultiLayerGraphTest, InducedSubgraph) {
  MultiLayerGraph graph = TwoLayerTriangle();
  std::vector<VertexId> old_ids;
  MultiLayerGraph sub = graph.InducedSubgraph({0, 1, 2}, &old_ids);
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(0), 3);  // the triangle survives
  EXPECT_EQ(sub.NumEdges(1), 2);
  EXPECT_EQ(old_ids, (VertexSet{0, 1, 2}));

  MultiLayerGraph sub2 = graph.InducedSubgraph({2, 3}, nullptr);
  EXPECT_EQ(sub2.NumEdges(0), 1);  // edge (2,3) renumbered to (0,1)
  EXPECT_TRUE(sub2.HasEdge(0, 0, 1));
}

TEST(MultiLayerGraphTest, SelectLayers) {
  MultiLayerGraph graph = TwoLayerTriangle();
  MultiLayerGraph only_second = graph.SelectLayers({1});
  EXPECT_EQ(only_second.NumLayers(), 1);
  EXPECT_EQ(only_second.NumEdges(0), 2);
}

TEST(MultiLayerGraphTest, SetHelpers) {
  EXPECT_EQ(IntersectSorted({1, 2, 3}, {2, 3, 4}), (VertexSet{2, 3}));
  EXPECT_EQ(UnionSorted({1, 3}, {2, 3}), (VertexSet{1, 2, 3}));
  EXPECT_TRUE(IsSubsetSorted({2, 3}, {1, 2, 3, 4}));
  EXPECT_FALSE(IsSubsetSorted({2, 5}, {1, 2, 3, 4}));
  EXPECT_TRUE(IsSubsetSorted({}, {1}));
}

// FilterInto is how the searches build lattice scopes: with `bits` the
// bitmap of a sorted set b it must equal IntersectSorted(set, b), out of
// place (over a stale, differently sized buffer) and in place.
TEST(MultiLayerGraphTest, FilterIntoMatchesIntersectSorted) {
  Rng rng(17);
  for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                   size_t{300}}) {
    for (double set_p : {0.0, 0.3, 1.0}) {
      for (double bit_p : {0.0, 0.5, 1.0}) {
        VertexSet set;
        Bitset bits(n);
        for (size_t v = 0; v < n; ++v) {
          if (rng.Bernoulli(set_p)) set.push_back(static_cast<VertexId>(v));
          if (rng.Bernoulli(bit_p)) bits.Set(v);
        }
        const VertexSet expected = IntersectSorted(set, bits.ToVector());
        VertexSet out(static_cast<size_t>(rng.Uniform(0, 400)), -1);
        FilterInto(set, bits, &out);
        EXPECT_EQ(out, expected) << "n=" << n << " set_p=" << set_p
                                 << " bit_p=" << bit_p;
        FilterInto(set, bits, &set);
        EXPECT_EQ(set, expected) << "in place, n=" << n;
      }
    }
  }
}

TEST(IoTest, SaveLoadRoundTrip) {
  MultiLayerGraph graph = TwoLayerTriangle();
  const std::string path = TestTempPath("graph.txt");
  ASSERT_TRUE(SaveMultiLayerGraph(graph, path).ok());

  MultiLayerGraph loaded;
  Status status = LoadMultiLayerGraph(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(loaded.NumVertices(), graph.NumVertices());
  EXPECT_EQ(loaded.NumLayers(), graph.NumLayers());
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    EXPECT_EQ(loaded.NumEdges(layer), graph.NumEdges(layer));
  }
  EXPECT_TRUE(loaded.HasEdge(0, 2, 3));
}

TEST(IoTest, LoadRejectsMissingHeader) {
  const std::string path = TestTempPath("bad.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("0 1 2\n", f);
    std::fclose(f);
  }
  MultiLayerGraph graph;
  EXPECT_FALSE(LoadMultiLayerGraph(path, &graph).ok());
}

TEST(IoTest, LoadRejectsOutOfRangeIds) {
  const std::string path = TestTempPath("bad.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("n 3 1\n0 0 7\n", f);
    std::fclose(f);
  }
  MultiLayerGraph graph;
  EXPECT_FALSE(LoadMultiLayerGraph(path, &graph).ok());
}

/// Every neighbour list of `actual` equals the one of `expected`.
void ExpectSameAdjacency(const MultiLayerGraph& actual,
                         const MultiLayerGraph& expected) {
  ASSERT_EQ(actual.NumVertices(), expected.NumVertices());
  ASSERT_EQ(actual.NumLayers(), expected.NumLayers());
  for (LayerId layer = 0; layer < expected.NumLayers(); ++layer) {
    for (VertexId v = 0; v < expected.NumVertices(); ++v) {
      const auto a = actual.Neighbors(layer, v);
      const auto b = expected.Neighbors(layer, v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "layer " << layer << " vertex " << v;
    }
  }
}

TEST(DatasetsTest, SaveLoadRoundTrip) {
  Dataset dataset = MakeDataset("ppi", 0.5);
  const std::string path = TestTempPath("ds_cache");
  const Status saved = SaveDataset(dataset, path);
  ASSERT_TRUE(saved.ok()) << saved.message;
  Dataset loaded;
  const Status status = LoadDataset(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_EQ(loaded.name, dataset.name);
  EXPECT_EQ(loaded.graph.TotalEdges(), dataset.graph.TotalEdges());
  EXPECT_GT(loaded.graph.MappedBytes(), 0);  // zero-copy MLG1 mapping
  ExpectSameAdjacency(loaded.graph, dataset.graph);
  ASSERT_EQ(loaded.communities.size(), dataset.communities.size());
  for (size_t c = 0; c < loaded.communities.size(); ++c) {
    EXPECT_EQ(loaded.communities[c].vertices,
              dataset.communities[c].vertices);
    EXPECT_EQ(loaded.communities[c].layers, dataset.communities[c].layers);
  }
  ASSERT_EQ(loaded.complexes.size(), dataset.complexes.size());
  for (size_t c = 0; c < loaded.complexes.size(); ++c) {
    EXPECT_EQ(loaded.complexes[c], dataset.complexes[c]);
  }
}

// A figure binary may rewrite the cache while another one has it mapped.
// SaveDataset renames a fresh file into place, so the earlier mapping keeps
// its bytes; an in-place rewrite would show the reader the new graph, or
// SIGBUS it once the file shrinks. The second save writes a smaller graph
// so that either failure would show.
TEST(DatasetsTest, ResaveKeepsEarlierMappedLoadIntact) {
  const std::string path = TestTempPath("ds_cache");
  ASSERT_TRUE(SaveDataset(MakeDataset("ppi", 0.5), path).ok());
  Dataset first;
  ASSERT_TRUE(LoadDataset(path, &first).ok());
  ASSERT_GT(first.graph.MappedBytes(), 0);

  ASSERT_TRUE(SaveDataset(MakeDataset("ppi", 0.25), path).ok());
  ExpectSameAdjacency(first.graph, MakeDataset("ppi", 0.5).graph);

  Dataset second;
  ASSERT_TRUE(LoadDataset(path, &second).ok());
  ExpectSameAdjacency(second.graph, MakeDataset("ppi", 0.25).graph);
}

TEST(DatasetsTest, LoadDatasetFailsOnMissingFiles) {
  Dataset dataset;
  const Status status = LoadDataset(TestTempPath("no_such_cache"), &dataset);
  EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(status.message.find("no_such_cache.mlg"), std::string::npos)
      << status.message;
}

TEST(SamplingTest, VertexSampleShrinksGraph) {
  MultiLayerGraph graph = GenerateErdosRenyi(100, 3, 0.05, 11);
  MultiLayerGraph half = SampleVertices(graph, 0.5, 1);
  EXPECT_EQ(half.NumVertices(), 50);
  EXPECT_EQ(half.NumLayers(), 3);
  EXPECT_LT(half.TotalEdges(), graph.TotalEdges());
}

TEST(SamplingTest, LayerSampleKeepsVertices) {
  MultiLayerGraph graph = GenerateErdosRenyi(50, 10, 0.05, 12);
  MultiLayerGraph some = SampleLayers(graph, 0.4, 2);
  EXPECT_EQ(some.NumVertices(), 50);
  EXPECT_EQ(some.NumLayers(), 4);
}

TEST(SamplingTest, FullFractionIsIdentity) {
  MultiLayerGraph graph = GenerateErdosRenyi(30, 2, 0.1, 13);
  EXPECT_EQ(SampleVertices(graph, 1.0, 5).NumVertices(), 30);
  EXPECT_EQ(SampleLayers(graph, 1.0, 5).NumLayers(), 2);
}

TEST(SamplingTest, DeterministicForSeed) {
  MultiLayerGraph graph = GenerateErdosRenyi(60, 2, 0.1, 14);
  MultiLayerGraph a = SampleVertices(graph, 0.5, 99);
  MultiLayerGraph b = SampleVertices(graph, 0.5, 99);
  EXPECT_EQ(a.TotalEdges(), b.TotalEdges());
}

TEST(GeneratorsTest, PlantedCommunitiesAreDense) {
  PlantedGraphConfig config;
  config.num_vertices = 300;
  config.num_layers = 4;
  config.num_communities = 3;
  config.community_size_min = 15;
  config.community_size_max = 25;
  config.internal_prob_min = 0.9;
  config.internal_prob_max = 0.95;
  config.seed = 5;
  PlantedGraph planted = GeneratePlanted(config);
  EXPECT_EQ(planted.graph.NumVertices(), 300);
  ASSERT_EQ(planted.communities.size(), 3u);
  // With p_in ≈ 0.9 the average internal degree on an active layer must be
  // close to |community| − 1.
  for (const auto& community : planted.communities) {
    ASSERT_FALSE(community.layers.empty());
    LayerId layer = community.layers[0];
    double total_degree = 0;
    for (VertexId v : community.vertices) {
      int degree = 0;
      for (VertexId u : planted.graph.Neighbors(layer, v)) {
        if (std::binary_search(community.vertices.begin(),
                               community.vertices.end(), u)) {
          ++degree;
        }
      }
      total_degree += degree;
    }
    double avg = total_degree / static_cast<double>(community.vertices.size());
    EXPECT_GT(avg, 0.7 * static_cast<double>(community.vertices.size() - 1));
  }
}

TEST(GeneratorsTest, Deterministic) {
  PlantedGraphConfig config;
  config.num_vertices = 200;
  config.num_layers = 3;
  config.seed = 77;
  PlantedGraph a = GeneratePlanted(config);
  PlantedGraph b = GeneratePlanted(config);
  EXPECT_EQ(a.graph.TotalEdges(), b.graph.TotalEdges());
  ASSERT_EQ(a.communities.size(), b.communities.size());
  for (size_t c = 0; c < a.communities.size(); ++c) {
    EXPECT_EQ(a.communities[c].vertices, b.communities[c].vertices);
  }
}

TEST(DatasetsTest, RegistryNamesAndLayerCounts) {
  auto names = DatasetNames();
  ASSERT_EQ(names.size(), 6u);
  // Layer counts must match paper Fig 12.
  const std::map<std::string, int> expected_layers = {
      {"ppi", 8},    {"author", 10},  {"german", 14},
      {"wiki", 24},  {"english", 15}, {"stack", 24}};
  for (const auto& name : names) {
    Dataset dataset = MakeDataset(name, name == "ppi" || name == "author"
                                            ? 1.0
                                            : 0.05);
    EXPECT_EQ(dataset.graph.NumLayers(), expected_layers.at(name)) << name;
    EXPECT_GT(dataset.graph.TotalEdges(), 0) << name;
    EXPECT_FALSE(dataset.communities.empty()) << name;
  }
}

TEST(DatasetsTest, PpiHasComplexes) {
  Dataset ppi = MakeDataset("ppi");
  EXPECT_EQ(ppi.graph.NumVertices(), 328);
  EXPECT_FALSE(ppi.complexes.empty());
  for (const auto& complex : ppi.complexes) {
    EXPECT_GE(complex.size(), 3u);
    EXPECT_LE(complex.size(), 8u);
  }
}

}  // namespace
}  // namespace mlcore
