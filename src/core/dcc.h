#ifndef MLCORE_CORE_DCC_H_
#define MLCORE_CORE_DCC_H_

#include <cstdint>
#include <vector>

#include "graph/multilayer_graph.h"
#include "util/bitset.h"

namespace mlcore {

/// Implementation of the `dCC` procedure (paper Appendix B).
enum class DccEngine {
  /// Cascading-queue peel against d witnesses per (layer, vertex) instead of
  /// exact degrees; same asymptotics, touches a fraction of the adjacency
  /// when few vertices are peeled.
  kQueue,
  /// The faithful Appendix B bin/ver/pos array formulation keyed on
  /// m(v) = min_{i∈L} deg_i(v).
  kBins,
};

/// Reusable solver for d-coherent cores.
///
/// `Compute` returns the d-CC of `graph` w.r.t. a layer set `L` restricted
/// to a vertex `scope` — i.e. the paper's dCC(G[S], L, d): the maximal
/// T ⊆ scope such that every v ∈ T has ≥ d neighbours inside T on every
/// layer of L. Runs in O((|scope| + m[scope])·|L|).
///
/// The solver is allocation-free in steady state (see DESIGN.md §2):
///  - One int32 per (queried layer position p, vertex v) lives in
///    layer-major blocks `layer_state_[p·n + v]`, grown to the largest |L|
///    ever queried (≤ n·l). kQueue keeps a *witness state* there: either
///    the id bounding a prefix of v's sorted layer-p list that holds exactly
///    d live neighbours, or, once one of those witnesses is peeled, v's exact
///    live-neighbour count. Initialisation scans each list only up to its
///    d-th live neighbour, and every list is scanned in full at most once
///    per call. kBins keeps the exact scoped degree there (Appendix B).
///  - kQueue's membership scratch is two n-bit sets (`live_`, `active_`)
///    that every call leaves all-zero, so no call pays an O(n) reset.
///    kBins' scratch is *epoch-stamped*: a generation counter is bumped
///    at the start of every call, so invalidating the previous call's
///    marks is O(1) instead of O(|scope|).
///  - The `Compute(..., VertexSet* out)` overload writes into a
///    caller-owned buffer, so driver loops issuing thousands of scoped
///    calls perform zero result allocations after warm-up.
///
/// Relies on the `MultiLayerGraph` invariant that neighbour lists are
/// sorted. Not thread-safe; use one solver per thread.
class DccSolver {
 public:
  explicit DccSolver(const MultiLayerGraph& graph);

  DccSolver(const DccSolver&) = delete;
  DccSolver& operator=(const DccSolver&) = delete;

  /// Computes dCC(G[scope], layers, d). `scope` must be sorted and
  /// duplicate-free; `layers` must be non-empty, sorted and duplicate-free.
  VertexSet Compute(const LayerSet& layers, int d, const VertexSet& scope,
                    DccEngine engine = DccEngine::kQueue);

  /// Buffer-reusing form: clears `*out` and fills it with the d-CC, reusing
  /// its capacity. `out` must not alias `scope`.
  void Compute(const LayerSet& layers, int d, const VertexSet& scope,
               VertexSet* out, DccEngine engine = DccEngine::kQueue);

  /// Number of Compute invocations so far (search-effort statistic).
  int64_t num_calls() const { return num_calls_; }

 private:
  void ComputeQueue(const LayerSet& layers, int d, const VertexSet& scope,
                    VertexSet* out);
  void ComputeBins(const LayerSet& layers, int d, const VertexSet& scope,
                   VertexSet* out);

  // kQueue: marks v as peeled and queues its removal for propagation.
  void Peel(VertexId v) {
    active_.Clear(static_cast<size_t>(v));
    queue_.push_back(v);
  }

  // kBins: bumps the epoch (resetting the stamp arrays on the rare uint32
  // wrap) and stamps the scope.
  void StampScope(const VertexSet& scope);

  bool InScope(VertexId v) const {
    return scope_epoch_[static_cast<size_t>(v)] == epoch_;
  }
  bool Removed(VertexId v) const {
    return removed_epoch_[static_cast<size_t>(v)] == epoch_;
  }
  void MarkRemoved(VertexId v) {
    removed_epoch_[static_cast<size_t>(v)] = epoch_;
  }

  // kBins: fills layer_state_ with the exact scoped degree of every
  // (queried layer, scope vertex) pair, layer by layer, and marks vertices
  // already below `d` removed (a skip-doomed-vertices optimisation, see
  // ComputeBins).
  void InitDegrees(const LayerSet& layers, int d, const VertexSet& scope);

  const MultiLayerGraph& graph_;
  int64_t num_calls_ = 0;

  // layer_state_[p * n + v]: v's state on the p-th *queried* layer. kQueue
  // stores a witness state (see ComputeQueue), kBins the scoped degree.
  // Grown to max |L| seen; every entry is written in a call before it is
  // read, so stale values never need clearing.
  std::vector<int32_t> layer_state_;

  // kQueue scratch. The bitsets are all-zero between calls. live_: in scope
  // and removal not yet propagated (what witnesses and counts count).
  // active_: in scope and not peeled (whose state a propagation still
  // updates, and the result). queue_: peeled vertices awaiting propagation,
  // capacity reused across calls.
  Bitset live_;
  Bitset active_;
  std::vector<VertexId> queue_;

  // kBins epoch stamps: v is in the current scope iff scope_epoch_[v] ==
  // epoch_, removed iff removed_epoch_[v] == epoch_.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> scope_epoch_;
  std::vector<uint32_t> removed_epoch_;

  // kBins scratch: dense index per scope vertex, bin boundaries, the
  // ver/pos permutation and per-removal touched list (Appendix B arrays).
  // dense_ is only read for in-scope vertices, each of which is rewritten
  // at the start of a kBins call, so it needs no clearing either.
  std::vector<int32_t> dense_;
  std::vector<int32_t> min_deg_;
  std::vector<size_t> bin_;
  std::vector<VertexId> ver_;
  std::vector<size_t> pos_;
  std::vector<VertexId> touched_;
};

/// Convenience wrapper: the coherent core C^d_L(G) over the full vertex set.
VertexSet CoherentCore(const MultiLayerGraph& graph, const LayerSet& layers,
                       int d, DccEngine engine = DccEngine::kQueue);

}  // namespace mlcore

#endif  // MLCORE_CORE_DCC_H_
