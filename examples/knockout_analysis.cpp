// What-if knock-out analysis on the PPI stand-in: which proteins are
// critical to a discovered module? Uses the decremental core maintainer to
// cascade each knock-out in O(affected edges) instead of recomputing all
// cores, and reports how much d-core structure collapses.
//
//   ./examples/knockout_analysis [--d=3] [--knockouts=12]

#include <cstdio>
#include <utility>
#include <vector>

#include "dccs/dccs.h"
#include "dynamic/decremental_core.h"
#include "graph/datasets.h"
#include "util/flags.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"d", "knockouts"})) return 1;
  const int d = static_cast<int>(flags.GetInt("d", 3));
  const int knockouts = static_cast<int>(flags.GetInt("knockouts", 12));

  mlcore::Dataset ppi = mlcore::MakeDataset("ppi");
  std::printf("PPI stand-in: %d proteins, %d layers\n",
              ppi.graph.NumVertices(), ppi.graph.NumLayers());

  // Find one strong module to attack.
  mlcore::DccsParams params;
  params.d = d;
  params.s = ppi.graph.NumLayers() / 2;
  params.k = 1;
  mlcore::Engine engine(&ppi.graph);
  mlcore::DccsResult result = std::move(*engine.Run(
      mlcore::DccsRequest{params, mlcore::DccsAlgorithm::kBottomUp}));
  if (result.cores.empty()) {
    std::printf("no module found at d=%d, s=%d\n", params.d, params.s);
    return 0;
  }
  const mlcore::VertexSet module = result.cores[0].vertices;
  std::printf("target module: %zu proteins dense on %zu layers\n\n",
              module.size(), result.cores[0].layers.size());

  mlcore::DecrementalCoreMaintainer maintainer(
      ppi.graph, d, mlcore::AllVertices(ppi.graph));
  int64_t baseline = 0;
  for (mlcore::LayerId layer = 0; layer < ppi.graph.NumLayers(); ++layer) {
    baseline += static_cast<int64_t>(maintainer.CoreMembers(layer).size());
  }
  std::printf("baseline: %lld (protein, layer) core memberships\n",
              static_cast<long long>(baseline));

  mlcore::Rng rng(20260612);
  std::vector<std::pair<mlcore::VertexId, mlcore::LayerId>> exits;
  int64_t total_exits = 0;
  for (int k = 0; k < knockouts && k < static_cast<int>(module.size());
       ++k) {
    mlcore::VertexId target =
        module[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(module.size()) - 1))];
    if (maintainer.Deleted(target)) continue;
    exits.clear();
    maintainer.RemoveVertex(target, &exits);
    total_exits += static_cast<int64_t>(exits.size());
    std::printf("  knock out protein %4d -> %3zu cascading core exits "
                "(representative member now in %d/%d layer cores)\n",
                target, exits.size(), maintainer.Support(module[0]),
                ppi.graph.NumLayers());
  }

  int64_t remaining = 0;
  for (mlcore::LayerId layer = 0; layer < ppi.graph.NumLayers(); ++layer) {
    remaining += static_cast<int64_t>(maintainer.CoreMembers(layer).size());
  }
  std::printf("\nafter %d knock-outs: %lld memberships remain "
              "(%lld lost, %.1f%% of baseline) — %lld cascade exits "
              "observed incrementally\n",
              knockouts, static_cast<long long>(remaining),
              static_cast<long long>(baseline - remaining),
              100.0 * static_cast<double>(baseline - remaining) /
                  static_cast<double>(baseline),
              static_cast<long long>(total_exits));
  return 0;
}
