#ifndef MLCORE_GRAPH_DATASETS_H_
#define MLCORE_GRAPH_DATASETS_H_

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/multilayer_graph.h"
#include "service/status.h"

namespace mlcore {

/// A named evaluation dataset: the multi-layer graph plus the generator's
/// ground truth (planted communities, and for the PPI stand-in, planted
/// protein complexes used by the Fig 32 experiment).
struct Dataset {
  std::string name;
  MultiLayerGraph graph;
  std::vector<PlantedCommunity> communities;
  /// Small dense vertex groups standing in for MIPS protein complexes
  /// (subsets of planted communities). Empty for non-PPI datasets.
  std::vector<VertexSet> complexes;
};

/// Names of the six paper datasets (Fig 12): ppi, author, german, wiki,
/// english, stack. The large four are scaled synthetic stand-ins (see
/// DESIGN.md §6): layer counts match the paper exactly; vertex counts are
/// scaled to laptop size.
std::vector<std::string> DatasetNames();

/// Builds the named dataset deterministically. `scale` in (0, 1] shrinks the
/// vertex count (and proportionally the planted structure) for quick runs;
/// scale = 1 reproduces the benchmark configuration.
Dataset MakeDataset(const std::string& name, double scale = 1.0);

/// The benchmark harness's dataset cache, so the figure binaries do not
/// regenerate the large datasets each run. `SaveDataset` writes two files:
/// `<path>.mlg`, the graph as an MLG1 container (format/mlg.h), and
/// `<path>.meta`, the name and planted ground truth as text. Each is
/// written under a temporary name and renamed into place, so a concurrent
/// reader that has the previous graph mapped keeps intact bytes.
/// `LoadDataset` maps the graph zero-copy (`graph.MappedBytes() > 0`).
/// Both return a kInvalidArgument `Status` naming the file on any I/O or
/// format error.
Status SaveDataset(const Dataset& dataset, const std::string& path);
Status LoadDataset(const std::string& path, Dataset* dataset);

}  // namespace mlcore

#endif  // MLCORE_GRAPH_DATASETS_H_
