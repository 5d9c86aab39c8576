#ifndef MLCORE_DCCS_PARAMS_H_
#define MLCORE_DCCS_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dcc.h"
#include "graph/multilayer_graph.h"
#include "util/cancellation.h"

namespace mlcore {

/// Parameters of the DCCS problem and algorithm knobs (paper §II, Fig 13).
struct DccsParams {
  /// Minimum degree threshold (paper d). Default per Fig 13.
  int d = 4;
  /// Minimum support threshold: number of layers a d-CC must recur on
  /// (paper s).
  int s = 3;
  /// Number of diversified d-CCs to return (paper k).
  int k = 10;

  /// Engine for the dCC peeling procedure (Appendix B).
  DccEngine dcc_engine = DccEngine::kQueue;

  /// Wall-clock budget for the search phase, in seconds (0 = unlimited).
  /// All three algorithms honour it: BU-DCCS and TD-DCCS return their
  /// best-so-far result set when the budget expires ("anytime" behaviour;
  /// the paper's experiments run BU-DCCS for up to 10^4 s in its
  /// unfavourable large-s regime — the budget lets a harness bound such
  /// rows), and GD-DCCS stops generating candidates at the next
  /// candidate-evaluation boundary and runs its greedy max-cover selection
  /// over the candidates evaluated so far (losing the approximation
  /// guarantee, which only holds for the full candidate set). A budgeted
  /// stop sets `SearchStats::budget_exhausted`. The budget composes with
  /// the service layer's wall-clock deadlines under one policy — see
  /// DccsExecution::control and DESIGN.md §7.
  double time_budget_seconds = 0.0;

  // --- Preprocessing toggles (§IV-C; disabled variants are the Fig 28
  // ablations No-VD / No-SL / No-IR; all three off is No-Pre). ---
  bool vertex_deletion = true;
  bool sort_layers = true;
  bool init_result = true;
};

/// One returned d-CC: the layer subset L (|L| = s) and C^d_L(G).
struct ResultCore {
  LayerSet layers;
  VertexSet vertices;

  friend bool operator==(const ResultCore&, const ResultCore&) = default;
};

/// Search-effort counters exposed by all three DCCS algorithms.
struct SearchStats {
  /// dCC evaluations performed for candidate generation.
  int64_t candidates_generated = 0;
  /// Search-tree nodes expanded (BU/TD only).
  int64_t nodes_visited = 0;
  /// Subtrees pruned by the Eq. (1) bound (Lemma 2 / Lemma 5).
  int64_t pruned_eq1 = 0;
  /// Children skipped by order-based pruning (Lemma 3 / Lemma 6).
  int64_t pruned_order = 0;
  /// Layers excluded by layer pruning (Lemma 4, BU only).
  int64_t pruned_layer = 0;
  /// Subtrees collapsed by potential-set pruning (Lemma 7, TD only).
  int64_t pruned_potential = 0;
  /// Accepted Update calls (result-set improvements).
  int64_t updates_accepted = 0;
  /// dCC evaluations performed speculatively by the parallel search's
  /// worker lanes whose results the commit driver never consumed — work
  /// wasted to a bound that tightened after launch, or to a stop request.
  /// The ONLY thread-count-dependent counter: 0 on one search lane,
  /// and excluded from candidates_generated (which counts committed
  /// evaluations only and stays bit-identical at any thread count). See
  /// DESIGN.md §10.
  int64_t speculative_evals = 0;
  /// True when the search stopped early on a time limit — either
  /// DccsParams::time_budget_seconds or a QueryControl deadline — and
  /// returned its best-so-far result. (Not set for cancellation: a
  /// cancelled search's partial result is discarded, not served.)
  bool budget_exhausted = false;
  /// Exactly why the run stopped early (util/cancellation.h); kNone for a
  /// run that completed its full search. kBudget/kDeadline accompany
  /// budget_exhausted; kCancelled marks a result the caller must discard.
  QueryStop stopped = QueryStop::kNone;

  double preprocess_seconds = 0.0;
  double search_seconds = 0.0;
  double total_seconds = 0.0;
};

/// Output of a DCCS algorithm: up to k diversified d-CCs plus statistics.
struct DccsResult {
  std::vector<ResultCore> cores;
  SearchStats stats;
  /// Epoch of the graph snapshot this result was computed against
  /// (DESIGN.md §8). 0 for one-shot runs and engines whose graph never
  /// received an update; a query pinned to an older snapshot reports that
  /// snapshot's epoch even when later updates have already published.
  uint64_t epoch = 0;

  /// Union of all returned cores (the paper's Cov(R)), sorted.
  VertexSet Cover() const;
  /// |Cov(R)| — the quality measure maximised by the DCCS problem.
  int64_t CoverSize() const;
};

/// Identifier of a DCCS algorithm, for harness dispatch and labels.
/// `kAuto` defers the choice to `RecommendedAlgorithm` (paper §I/§V rule:
/// bottom-up when s < l/2, top-down otherwise); it is resolved by the
/// service layer (`mlcore::Engine`) and by `SolveDccs` before dispatch.
enum class DccsAlgorithm { kGreedy, kBottomUp, kTopDown, kAuto };

std::string AlgorithmName(DccsAlgorithm algorithm);

/// Picks the algorithm the paper recommends for the given support
/// threshold: bottom-up when s < l/2, top-down otherwise (§I, §V). This is
/// what `DccsAlgorithm::kAuto` resolves to.
DccsAlgorithm RecommendedAlgorithm(const MultiLayerGraph& graph, int s);
/// Layer-count form: lets callers that only know the (epoch-invariant)
/// layer count apply the rule without touching a graph snapshot.
DccsAlgorithm RecommendedAlgorithm(int32_t num_layers, int s);

}  // namespace mlcore

#endif  // MLCORE_DCCS_PARAMS_H_
