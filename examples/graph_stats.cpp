// Multi-layer graph profiling tool: per-layer statistics, layer-similarity
// matrix and d-core support histogram. Point it at an edge-list file or at
// one of the built-in datasets.
//
//   ./examples/graph_stats --dataset=ppi [--d=4]
//   ./examples/graph_stats --graph=network.txt [--d=4]

#include <cstdio>
#include <string>

#include "analysis/statistics.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"d", "dataset", "graph", "scale"})) return 1;
  const int d = static_cast<int>(flags.GetInt("d", 4));

  mlcore::MultiLayerGraph graph;
  std::string source = flags.GetString("graph", "");
  if (!source.empty()) {
    mlcore::Status status = LoadMultiLayerGraph(source, &graph);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message.c_str());
      return 1;
    }
  } else {
    std::string dataset = flags.GetString("dataset", "ppi");
    graph = mlcore::MakeDataset(dataset, flags.GetDouble("scale", 1.0)).graph;
    source = dataset;
  }

  std::printf("%s: %d vertices, %d layers, %lld edges (%lld distinct)\n\n",
              source.c_str(), graph.NumVertices(), graph.NumLayers(),
              static_cast<long long>(graph.TotalEdges()),
              static_cast<long long>(graph.DistinctEdges()));

  mlcore::Table layer_table({"layer", "edges", "avg deg", "max deg",
                             "active", "degeneracy", "components"});
  auto stats = mlcore::ComputeLayerStatistics(graph);
  for (mlcore::LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    const auto& s = stats[static_cast<size_t>(layer)];
    auto components =
        mlcore::CountComponents(mlcore::ConnectedComponents(graph, layer));
    layer_table.AddRow(
        {mlcore::Table::Int(layer), mlcore::Table::Int(s.edges),
         mlcore::Table::Num(s.average_degree, 2),
         mlcore::Table::Int(s.max_degree),
         mlcore::Table::Int(s.active_vertices),
         mlcore::Table::Int(s.degeneracy), mlcore::Table::Int(components)});
  }
  layer_table.Print();

  if (graph.NumLayers() <= 16) {
    std::printf("\nlayer edge-set Jaccard similarity:\n      ");
    for (mlcore::LayerId b = 0; b < graph.NumLayers(); ++b) {
      std::printf("%5d ", b);
    }
    std::printf("\n");
    auto matrix = mlcore::LayerSimilarityMatrix(graph);
    const auto l = static_cast<size_t>(graph.NumLayers());
    for (size_t a = 0; a < l; ++a) {
      std::printf("%5zu ", a);
      for (size_t b = 0; b < l; ++b) {
        std::printf("%.3f ", matrix[a * l + b]);
      }
      std::printf("\n");
    }
  }

  std::printf("\nsupport histogram at d=%d (Num(v) = #layers whose d-core "
              "contains v):\n",
              d);
  auto support = mlcore::SupportHistogram(graph, d);
  for (size_t i = 0; i < support.size(); ++i) {
    if (support[i] > 0) {
      std::printf("  Num=%zu: %lld vertices\n", i,
                  static_cast<long long>(support[i]));
    }
  }
  std::printf("(vertices with Num < s are removed by the paper's "
              "vertex-deletion preprocessing)\n");
  return 0;
}
