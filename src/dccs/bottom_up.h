#ifndef MLCORE_DCCS_BOTTOM_UP_H_
#define MLCORE_DCCS_BOTTOM_UP_H_

#include "dccs/execution.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"

namespace mlcore {

/// The BU-DCCS algorithm (paper §IV, Figs 3 and 7): depth-first search over
/// the bottom-up layer-subset lattice, interleaving candidate generation
/// with top-k maintenance. Implements all three §IV-B pruning rules:
/// Eq. (1) subtree pruning (Lemma 2), order-based pruning (Lemma 3) and
/// layer pruning (Lemma 4), plus the §IV-C preprocessing (vertex deletion,
/// layer sorting, InitTopK). Approximation ratio 1/4 (Theorem 3).
///
/// Preferable when s < l/2; see TD-DCCS for large s.
///
/// Reuses whatever cached state `exec` provides (see dccs/execution.h); the
/// default execution is self-contained and sequential, preprocessing from
/// scratch (prefer `mlcore::Engine` for repeated queries on one graph).
/// Results are identical for every matching execution.
DccsResult BottomUpDccs(const MultiLayerGraph& graph, const DccsParams& params,
                        const DccsExecution& exec = {});

}  // namespace mlcore

#endif  // MLCORE_DCCS_BOTTOM_UP_H_
