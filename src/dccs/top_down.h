#ifndef MLCORE_DCCS_TOP_DOWN_H_
#define MLCORE_DCCS_TOP_DOWN_H_

#include "dccs/execution.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"

namespace mlcore {

/// The TD-DCCS algorithm (paper §V, Figs 8–11): depth-first search over the
/// top-down layer-subset lattice from the full layer set down to level s,
/// maintaining for each node both the d-CC C^d_L(G) and its potential
/// vertex set U^d_L(G). Implements RefineU (Fig 9), RefineC (Fig 10's
/// result: the §V-C vertex index bounds the core by Lemma 8 and the d-CC
/// kernel peels that scope, in place of Fig 10's level-by-level search; see
/// DESIGN.md §3), and the Lemma 5–7 pruning rules. Approximation ratio 1/4
/// (Theorem 4).
///
/// Designed for s ≥ l/2 (the paper restricts §V to that regime); the
/// implementation accepts any s but the search degenerates for small s.
///
/// Reuses whatever cached state `exec` provides (see dccs/execution.h); the
/// default execution is self-contained and sequential, preprocessing and
/// building the §V-C vertex index from scratch (prefer `mlcore::Engine` for
/// repeated queries). `exec.index`, when set, must have been built over
/// `exec.preprocess->active` with this `d`.
DccsResult TopDownDccs(const MultiLayerGraph& graph, const DccsParams& params,
                       const DccsExecution& exec = {});

}  // namespace mlcore

#endif  // MLCORE_DCCS_TOP_DOWN_H_
