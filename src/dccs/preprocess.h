#ifndef MLCORE_DCCS_PREPROCESS_H_
#define MLCORE_DCCS_PREPROCESS_H_

#include <vector>

#include "core/dcc.h"
#include "dccs/cover.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"
#include "util/bitset.h"
#include "util/thread_pool.h"

namespace mlcore {

/// Output of the shared preprocessing stage (§IV-C, lines 1–7 of BU-DCCS).
struct PreprocessResult {
  /// Vertices surviving iterated vertex deletion: every v has
  /// Num(v) ≥ s, where Num(v) counts layers whose d-core contains v.
  VertexSet active;
  /// Per-layer d-cores computed within `active` (indexed by layer id).
  std::vector<VertexSet> layer_cores;
  /// Bitmap form of layer_cores for O(1) membership tests.
  std::vector<Bitset> layer_core_bits;
  /// Num(v) for surviving vertices (0 for deleted ones).
  std::vector<int> support;

  /// kNone for a completed fixpoint. When a QueryControl stop fires between
  /// deletion rounds the run returns immediately with the reason recorded
  /// here; the other fields are then partial and MUST NOT be used (or
  /// cached) by the caller.
  QueryStop stopped = QueryStop::kNone;

  double seconds = 0.0;
};

/// Runs the vertex-deletion preprocessing of §IV-C. When `vertex_deletion`
/// is false (the Fig 28 No-VD ablation) the per-layer d-cores are computed
/// once over the whole graph and no vertex is deleted.
///
/// When `pool` is non-null the l independent per-layer d-core computations
/// of each deletion round fan out over the pool. Each core lands in its
/// layer-indexed slot and the support merge stays sequential, so the result
/// is bit-identical for every thread count (DESIGN.md §4).
///
/// When `base_cores` is non-null it must hold the full-graph per-layer
/// d-cores for this `d` (base_cores[i] == DCore(graph, i, d)); the first
/// deletion round copies them instead of recomputing, which lets a caller
/// that caches d-cores by `d` (the Engine, DESIGN.md §5) amortise the most
/// expensive round across queries with different `s`.
///
/// `control` adds a cooperative checkpoint at the top of every deletion
/// round: when it fires the function returns immediately with
/// `PreprocessResult::stopped` set and partial contents (see the struct
/// comment). A round that has started always completes, so an observed
/// kNone result is always a full, consistent fixpoint.
PreprocessResult Preprocess(const MultiLayerGraph& graph, int d, int s,
                            bool vertex_deletion, ThreadPool* pool = nullptr,
                            const std::vector<VertexSet>* base_cores = nullptr,
                            const QueryControl* control = nullptr);

/// Layer ids sorted by |C^d(G_i)|; descending order for BU-DCCS (Fig 7
/// line 9), ascending for TD-DCCS (Fig 11 line 2). When `sort_layers` is
/// false (the No-SL ablation) returns the identity order.
std::vector<LayerId> SortedLayerOrder(const PreprocessResult& preprocess,
                                      bool descending, bool sort_layers);

/// Translates sorted layer *positions* (indices into `order`) into the
/// ascending original layer ids, reusing `ids`' capacity. The BU and TD
/// searches address layers by position in their sorted order and call this
/// on every dCC evaluation / result update.
void PositionsToLayerIds(const std::vector<LayerId>& order,
                         const LayerSet& positions, LayerSet* ids);

/// Output of the InitTopK procedure (Appendix D): the top-k result set R
/// greedily seeded with k candidate d-CCs, so that the Eq. (1) pruning rules
/// engage from the start of the search, plus the number of dCC evaluations
/// spent seeding it. BU-DCCS and TD-DCCS start from a copy of `topk`, so an
/// engine can cache the seeds per (d, s, k) and skip the k·s dCC
/// evaluations on repeat queries (DESIGN.md §5).
struct InitSeeds {
  /// A default-constructed InitSeeds holds an empty index; ComputeInitSeeds
  /// sizes it to params.k.
  CoverageIndex topk{1};
  int64_t solver_calls = 0;
};

/// Runs the InitTopK greedy seeding (Appendix D). Deterministic: depends
/// only on (graph, preprocess, params.d, params.s, params.k);
/// params.dcc_engine picks the kernel, and both kernels compute the same
/// unique d-CCs. `topk` is an empty CoverageIndex(params.k) when
/// `params.init_result` is false (No-IR) or s > l.
InitSeeds ComputeInitSeeds(const MultiLayerGraph& graph,
                           const DccsParams& params,
                           const PreprocessResult& preprocess,
                           DccSolver& solver);

}  // namespace mlcore

#endif  // MLCORE_DCCS_PREPROCESS_H_
