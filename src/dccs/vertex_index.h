#ifndef MLCORE_DCCS_VERTEX_INDEX_H_
#define MLCORE_DCCS_VERTEX_INDEX_H_

#include <vector>

#include "graph/multilayer_graph.h"

namespace mlcore {

/// The hierarchical vertex index of paper §V-C, reduced to the stage each
/// vertex is removed at.
///
/// Vertices are iteratively removed from the (preprocessed) graph in stages
/// h = 1, 2, …, l: at stage h, batches of vertices whose support
/// Num(v) — the number of layers whose current d-core contains v — has
/// dropped to ≤ h are removed together, cascading core membership via
/// decremental d-core maintenance. stage(v) is the h at which v was
/// removed (v ∈ I_h in paper notation).
///
/// Lemma 8 then bounds any C^d_{L'}(G) inside {v : stage(v) ≥ |L'|}: TD-DCCS
/// reads stage(v) to scope RefineC. The paper's per-batch levels and labels
/// L(v) serve only Fig 10's level-by-level search, which TD-DCCS does not
/// run (DESIGN.md §3), so the index does not record them.
class VertexLevelIndex {
 public:
  /// Builds the index over the vertices in `active` (sorted) with degree
  /// threshold d. Vertices outside `active` get stage −1.
  VertexLevelIndex(const MultiLayerGraph& graph, int d,
                   const VertexSet& active);

  /// Stage h with v ∈ I_h; −1 for vertices outside the index.
  int stage(VertexId v) const { return stage_[static_cast<size_t>(v)]; }

 private:
  std::vector<int> stage_;
};

}  // namespace mlcore

#endif  // MLCORE_DCCS_VERTEX_INDEX_H_
