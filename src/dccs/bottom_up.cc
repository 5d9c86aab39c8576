#include "dccs/bottom_up.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/concurrent_topk.h"
#include "dccs/preprocess.h"
#include "dccs/search_lanes.h"
#include "obs/span.h"

namespace mlcore {

namespace {

/// BU child evaluations need no per-lane buffers beyond the solver.
struct NoScratch {};
using Lanes = SearchLanes<NoScratch>;

/// The BU-Gen search (paper Fig 3), restructured for intra-query
/// parallelism: the recursion below is the sequential *commit driver* — it
/// makes every pruning, ordering, recursion and top-k decision in the
/// exact order and against the exact state of the historical sequential
/// search — while the d-CC evaluations of lattice children (the expensive
/// part) run as speculative tasks on the search lanes. A stale
/// published bound only launches evaluations the driver will later discard
/// (counted as stats.speculative_evals), so results are bit-identical at
/// any thread count. Layers are addressed by *position* in the sorted
/// layer order (Fig 7 line 9); positions are translated back to original
/// layer ids whenever a dCC is computed or reported.
class BottomUpSearch {
 public:
  BottomUpSearch(const MultiLayerGraph& graph, const DccsParams& params,
                 const PreprocessResult& preprocess,
                 const std::vector<LayerId>& order,
                 const DccsExecution& exec, LaneArenas<NoScratch>& arenas,
                 ConcurrentTopK& result, SearchStats& stats,
                 obs::SpanId lane_parent)
      : graph_(graph),
        params_(params),
        preprocess_(preprocess),
        order_(order),
        result_(result),
        stats_(stats),
        lanes_(arenas, params, exec, stats, lane_parent) {}

  void Run() {
    lanes_.Drive([this] {
      auto root = std::make_shared<Node>();
      root->core = &preprocess_.active;
      root->excluded = 0;
      Prepare(*root);
      SpawnEvals(root);
      Gen(root);
    });
  }

  /// dCC evaluations the commit driver consumed — the deterministic part
  /// of candidates_generated.
  int64_t committed_calls() const { return committed_calls_; }
  /// All dCC evaluations performed, including speculative ones whose slot
  /// was never committed; thread-count-dependent.
  int64_t executed_calls() const { return lanes_.executed_calls(); }

 private:
  struct EvalSlot : LaneSlot {
    LayerSet ids;     // the child's L translated to layer ids
    VertexSet core;   // output: C^d_L of the child
  };

  /// One prepared lattice node: its children's scopes and evaluation
  /// slots, indexed like `expandable`. Shared with task closures, which
  /// may outlive the driver's interest in the node (a cancelled slot's
  /// task still holds a reference until a lane pops and skips it).
  struct Node {
    LayerSet positions;        // the node's L (ascending positions)
    VertexSet core_storage;    // owned for non-root nodes
    const VertexSet* core = nullptr;
    uint64_t excluded = 0;     // LQ bitmask of Lemma 4 exclusions
    bool leaf_children = false;
    std::vector<int> expandable;      // LP (Fig 3 line 1)
    std::vector<VertexSet> scopes;    // C ∩ C^d(G_j) per expandable child
    std::unique_ptr<EvalSlot[]> slots;
  };

  const VertexSet& CoreAtPosition(int pos) const {
    return preprocess_.layer_cores[static_cast<size_t>(
        order_[static_cast<size_t>(pos)])];
  }

  /// Computes LP, the per-child scopes and the child evaluation slots.
  /// Pure derivation from the node's (positions, core, excluded) — safe to
  /// run any time before the node is committed.
  void Prepare(Node& node) {
    const int l = graph_.NumLayers();
    const int max_pos = node.positions.empty() ? -1 : node.positions.back();
    for (int j = max_pos + 1; j < l; ++j) {
      if ((node.excluded >> j) & 1) continue;
      node.expandable.push_back(j);
    }
    node.leaf_children =
        static_cast<int>(node.positions.size()) + 1 == params_.s;
    const size_t n = node.expandable.size();
    if (n == 0) return;
    node.scopes.resize(n);
    node.slots = std::make_unique<EvalSlot[]>(n);
    for (size_t idx = 0; idx < n; ++idx) {
      const int j = node.expandable[idx];
      IntersectSortedInto(*node.core, CoreAtPosition(j), &node.scopes[idx]);
      positions_buf_ = node.positions;
      positions_buf_.push_back(static_cast<LayerId>(j));
      PositionsToLayerIds(order_, positions_buf_, &node.slots[idx].ids);
    }
  }

  /// The evaluation of child `idx`: its d-CC inside its scope.
  auto EvalFor(Node& node, size_t idx) {
    return [this, &node, idx](DccSolver& solver, NoScratch&) {
      EvalSlot& slot = node.slots[idx];
      solver.Compute(slot.ids, params_.d, node.scopes[idx], &slot.core,
                     params_.dcc_engine);
    };
  }

  /// Launches the node's child evaluations on the search lanes, largest
  /// scope first (the order the commit loop consumes once R is full).
  /// Children already hopeless under the *published* bound are not
  /// launched: if the driver nevertheless needs one (the published bound
  /// was stale), it claims the still-pending slot inline.
  void SpawnEvals(const std::shared_ptr<Node>& node) {
    if (!lanes_.parallel()) return;
    const size_t n = node->expandable.size();
    if (n == 0) return;
    spawn_order_.clear();
    for (size_t idx = 0; idx < n; ++idx) spawn_order_.push_back(idx);
    if (result_.SpeculativelyFull()) {
      std::stable_sort(spawn_order_.begin(), spawn_order_.end(),
                       [&](size_t a, size_t b) {
                         return node->scopes[a].size() > node->scopes[b].size();
                       });
    }
    for (size_t idx : spawn_order_) {
      if (result_.SpeculativelyBelowOrderThreshold(
              static_cast<int64_t>(node->scopes[idx].size()))) {
        continue;
      }
      lanes_.Spawn(node, node->slots[idx], EvalFor(*node, idx));
    }
  }

  EvalSlot& WaitSlot(Node& node, size_t idx) {
    lanes_.Wait(node.slots[idx], EvalFor(node, idx));
    return node.slots[idx];
  }

  void CancelPending(Node& node) {
    for (size_t idx = 0; idx < node.expandable.size(); ++idx) {
      Lanes::Cancel(node.slots[idx]);
    }
  }

  // BU-Gen (Fig 3), commit side. Every stats increment, Update call,
  // pruning test and recursion decision below happens on this thread in
  // the sequential DFS order.
  void Gen(const std::shared_ptr<Node>& node) {
    const size_t n = node->expandable.size();
    if (n == 0) return;
    const bool leaf = node->leaf_children;

    struct ChildRef {
      int position;
      size_t idx;
    };
    std::vector<ChildRef> recurse;  // the LR set (slots hold their d-CCs)
    uint64_t in_lr = 0;

    if (!result_.full()) {
      // Lines 2–9: no pruning is applicable while |R| < k.
      for (size_t idx = 0; idx < n; ++idx) {
        if (lanes_.StopRequested()) {
          CancelPending(*node);
          return;
        }
        const int j = node->expandable[idx];
        ++stats_.nodes_visited;
        EvalSlot& slot = WaitSlot(*node, idx);
        committed_calls_ += slot.solver_calls;
        if (leaf) {
          if (result_.Update(slot.core, slot.ids)) {
            ++stats_.updates_accepted;
          }
        } else if (!slot.core.empty()) {
          in_lr |= uint64_t{1} << j;
          recurse.push_back(ChildRef{j, idx});
        }
      }
    } else {
      // Lines 10–22: sort candidates by |C ∩ C^d(G_j)| descending and
      // apply order-based (Lemma 3), Eq. (1) (Lemma 2) and layer (Lemma 4)
      // pruning. Only the index permutation is sorted.
      order_buf_.clear();
      for (size_t idx = 0; idx < n; ++idx) order_buf_.push_back(idx);
      std::stable_sort(order_buf_.begin(), order_buf_.end(),
                       [&](size_t a, size_t b) {
                         return node->scopes[a].size() > node->scopes[b].size();
                       });
      for (size_t rank = 0; rank < n; ++rank) {
        if (lanes_.StopRequested()) {
          CancelPending(*node);
          return;
        }
        const size_t idx = order_buf_[rank];
        const int j = node->expandable[idx];
        const VertexSet& scope = node->scopes[idx];
        if (result_.BelowOrderThreshold(static_cast<int64_t>(scope.size()))) {
          // Lemma 3: this and all later children in the order are hopeless.
          stats_.pruned_order += static_cast<int64_t>(n - rank);
          for (size_t r = rank; r < n; ++r) {
            Lanes::Cancel(node->slots[order_buf_[r]]);
          }
          break;
        }
        ++stats_.nodes_visited;
        EvalSlot& slot = WaitSlot(*node, idx);
        committed_calls_ += slot.solver_calls;
        if (leaf) {
          if (result_.Update(slot.core, slot.ids)) {
            ++stats_.updates_accepted;
          }
        } else if (!slot.core.empty() && result_.SatisfiesEq1(slot.core)) {
          in_lr |= uint64_t{1} << j;
          recurse.push_back(ChildRef{j, idx});
        } else {
          ++stats_.pruned_eq1;  // Lemma 2 subtree prune
        }
      }
    }

    if (static_cast<int>(node->positions.size()) + 1 >= params_.s) return;

    // Lemma 4: positions tried here but not admitted to LR are excluded in
    // the whole subtree below (LQ ∪ (LP − LR), line 26).
    uint64_t child_excluded = node->excluded;
    for (int j : node->expandable) {
      if (!((in_lr >> j) & 1)) {
        child_excluded |= uint64_t{1} << j;
        ++stats_.pruned_layer;
      }
    }

    // Prepare and launch every admitted subtree before descending into the
    // first: sibling subtrees evaluate on the workers while the driver
    // commits this one — the frontier spans the whole DFS spine.
    std::vector<std::shared_ptr<Node>> children;
    children.reserve(recurse.size());
    for (const ChildRef& ref : recurse) {
      auto child = std::make_shared<Node>();
      child->positions = node->positions;
      child->positions.push_back(static_cast<LayerId>(ref.position));
      child->core_storage = std::move(node->slots[ref.idx].core);
      child->core = &child->core_storage;
      child->excluded = child_excluded;
      Prepare(*child);
      SpawnEvals(child);
      children.push_back(std::move(child));
    }
    for (size_t c = 0; c < children.size(); ++c) {
      if (lanes_.StopRequested()) {
        for (size_t rest = c; rest < children.size(); ++rest) {
          CancelPending(*children[rest]);
        }
        return;
      }
      Gen(children[c]);
    }
  }

  const MultiLayerGraph& graph_;
  const DccsParams& params_;
  const PreprocessResult& preprocess_;
  const std::vector<LayerId>& order_;
  ConcurrentTopK& result_;
  SearchStats& stats_;

  int64_t committed_calls_ = 0;

  // Driver-side reusable buffers (never touched by tasks).
  LayerSet positions_buf_;
  std::vector<size_t> order_buf_, spawn_order_;

  Lanes lanes_;
};

}  // namespace

DccsResult BottomUpDccs(const MultiLayerGraph& graph, const DccsParams& params,
                        const DccsExecution& exec) {
  // Fig 7 lines 1–9 (RunLatticeSearch), then line 10: recursive candidate
  // generation (the commit driver), with child evaluations fanned out over
  // exec.search_threads lanes.
  return RunLatticeSearch<NoScratch>(
      graph, params, exec, /*descending=*/true,
      [&](const PreprocessResult& preprocess,
          const std::vector<LayerId>& order, LaneArenas<NoScratch>& arenas,
          ConcurrentTopK& top_k, SearchStats& stats, obs::SpanId span) {
        BottomUpSearch search(graph, params, preprocess, order, exec, arenas,
                              top_k, stats, span);
        search.Run();
        return LatticeCalls{
            search.committed_calls(),
            search.executed_calls() - search.committed_calls()};
      });
}

}  // namespace mlcore
