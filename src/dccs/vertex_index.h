#ifndef MLCORE_DCCS_VERTEX_INDEX_H_
#define MLCORE_DCCS_VERTEX_INDEX_H_

#include <vector>

#include "graph/multilayer_graph.h"

namespace mlcore {

/// The hierarchical vertex index of paper §V-C.
///
/// Vertices are iteratively removed from the (preprocessed) graph in stages
/// h = 1, 2, …, l: at stage h, batches of vertices whose support
/// Num(v) — the number of layers whose current d-core contains v — has
/// dropped to ≤ h are removed together, cascading core membership via
/// decremental d-core maintenance. Every batch forms one *level*; levels
/// are numbered globally in removal order. For each vertex the index
/// records:
///   - stage(v): the h at which v was removed (v ∈ I_h in paper notation),
///   - level(v): the global batch number,
///   - label(v): L(v), the layers whose d-core contained v just before its
///     batch was removed.
///
/// Lemma 8 then bounds any C^d_{L'}(G) inside {v : stage(v) ≥ |L'|}: TD-DCCS
/// reads only stage(v), to scope RefineC. level(v) and label(v) are what the
/// paper's Lemma 9 level-by-level search would read; TD-DCCS does not run
/// that search (DESIGN.md §3).
class VertexLevelIndex {
 public:
  /// Builds the index over the vertices in `active` (sorted) with degree
  /// threshold d. Vertices outside `active` get stage/level −1.
  VertexLevelIndex(const MultiLayerGraph& graph, int d,
                   const VertexSet& active);

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Global removal-batch number of v; −1 for vertices outside the index.
  int level(VertexId v) const { return level_[static_cast<size_t>(v)]; }

  /// Stage h with v ∈ I_h; −1 for vertices outside the index.
  int stage(VertexId v) const { return stage_[static_cast<size_t>(v)]; }

  /// L(v): sorted layers whose d-core contained v just before removal.
  const LayerSet& label(VertexId v) const {
    return label_[static_cast<size_t>(v)];
  }

  /// Vertices removed in batch `level`, sorted.
  const VertexSet& at_level(int level) const {
    return levels_[static_cast<size_t>(level)];
  }

 private:
  std::vector<int> level_;
  std::vector<int> stage_;
  std::vector<LayerSet> label_;
  std::vector<VertexSet> levels_;
};

}  // namespace mlcore

#endif  // MLCORE_DCCS_VERTEX_INDEX_H_
