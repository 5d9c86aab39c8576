#ifndef MLCORE_DCCS_GREEDY_H_
#define MLCORE_DCCS_GREEDY_H_

#include "dccs/execution.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"

namespace mlcore {

/// Ceiling on materialised GD-DCCS candidate subsets: C(l, s) above this
/// is intractable for the greedy algorithm regardless of hardware.
/// GreedyDccs aborts past it; Engine::Validate turns it into a structured
/// kUnsupported error first.
inline constexpr int64_t kMaxGreedySubsets = int64_t{1} << 26;

/// The GD-DCCS algorithm (paper §III, Fig 2): materialises all C(l, s)
/// candidate d-CCs, then selects k of them greedily by marginal cover gain.
/// Approximation ratio 1 − 1/e (Theorem 2); cost O((ns + ms + kn)·C(l,s)).
///
/// The selection is lazy greedy (Minoux; CELF): a max-heap keeps every
/// candidate's last computed marginal gain, ordered by gain descending,
/// then candidate index ascending, and each round re-evaluates only the
/// top until the top's gain is fresh. Gains only shrink as coverage grows,
/// so that top is the first-index maximum the paper's eager scan picks;
/// the selected cores and their order are identical to the eager scan's.
///
/// Per the paper's experimental protocol (§VI, "for fairness, all the
/// algorithms exploit the preprocessing methods"), the §IV-C vertex-deletion
/// preprocessing is applied before candidate generation when
/// `params.vertex_deletion` is set.
///
/// Reuses whatever cached state `exec` provides (see dccs/execution.h).
/// GD-DCCS uses `preprocess`, `pool`, `solver` and `worker_solver`; it has
/// no InitTopK stage, so `seeds`/`index` are ignored. The default execution
/// runs self-contained and sequentially.
DccsResult GreedyDccs(const MultiLayerGraph& graph, const DccsParams& params,
                      const DccsExecution& exec = {});

}  // namespace mlcore

#endif  // MLCORE_DCCS_GREEDY_H_
