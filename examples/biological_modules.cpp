// Biological module discovery (paper Application 1): find reliable protein
// modules on a multi-layer PPI network where each layer holds interactions
// detected by a different experimental method. A vertex group is a credible
// module only if it is densely connected on at least s layers — this
// filters out method-specific spurious interactions.
//
//   ./examples/biological_modules [--d=3] [--s=4] [--k=10]

#include <cstdio>

#include "dccs/dccs.h"
#include "eval/complexes.h"
#include "graph/datasets.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"d", "k", "s"})) return 1;
  mlcore::DccsRequest request;  // algorithm defaults to kAuto
  mlcore::DccsParams& params = request.params;
  params.d = static_cast<int>(flags.GetInt("d", 3));
  params.k = static_cast<int>(flags.GetInt("k", 10));

  mlcore::Dataset ppi = mlcore::MakeDataset("ppi");
  params.s = static_cast<int>(flags.GetInt("s", ppi.graph.NumLayers() / 2));

  std::printf("PPI stand-in: %d proteins, %d detection methods (layers), "
              "%lld interactions\n",
              ppi.graph.NumVertices(), ppi.graph.NumLayers(),
              static_cast<long long>(ppi.graph.TotalEdges()));
  std::printf("searching top-%d diversified %d-CCs on >= %d layers...\n\n",
              params.k, params.d, params.s);

  mlcore::Engine engine(&ppi.graph);
  mlcore::Expected<mlcore::DccsResult> response = engine.Run(request);
  if (!response.ok()) {
    std::fprintf(stderr, "invalid query: %s\n",
                 response.status().message.c_str());
    return 1;
  }
  const mlcore::DccsResult& result = *response;

  std::printf("%s found %zu modules covering %lld proteins in %.1f ms\n",
              mlcore::AlgorithmName(engine.ResolvedAlgorithm(request)).c_str(),
              result.cores.size(),
              static_cast<long long>(result.CoverSize()),
              result.stats.total_seconds * 1e3);
  for (size_t m = 0; m < result.cores.size(); ++m) {
    const auto& core = result.cores[m];
    std::printf("  module %zu: %zu proteins, dense on methods {", m + 1,
                core.vertices.size());
    for (size_t i = 0; i < core.layers.size(); ++i) {
      std::printf("%s%d", i ? "," : "", core.layers[i]);
    }
    std::printf("}\n");
  }

  // Score against the planted protein complexes (the dataset's ground
  // truth; stands in for the MIPS catalogue of the paper's Fig 32).
  std::vector<mlcore::VertexSet> subgraphs;
  for (const auto& core : result.cores) subgraphs.push_back(core.vertices);
  double recall = mlcore::ComplexRecall(ppi.complexes, subgraphs);
  std::printf("\n%.1f%% of the %zu known protein complexes are entirely "
              "contained in a discovered module\n",
              recall * 100.0, ppi.complexes.size());
  return 0;
}
