#include "dccs/top_down.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/concurrent_topk.h"
#include "dccs/cover.h"
#include "dccs/preprocess.h"
#include "dccs/search_lanes.h"
#include "dccs/vertex_index.h"
#include "obs/span.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/timing.h"

namespace mlcore {

namespace {

// Largest position missing from sorted `positions`, or -1 if none below
// l. l ≤ 64 (validated at entry), so a word-sized mask replaces the Bitset
// this built per tree node.
int MaxComplement(int l, const LayerSet& positions) {
  uint64_t present = 0;
  for (LayerId p : positions) present |= uint64_t{1} << p;
  const uint64_t missing =
      ~present & ((l == 64) ? ~uint64_t{0} : (uint64_t{1} << l) - 1);
  if (missing == 0) return -1;
  return 63 - __builtin_clzll(missing);
}

// Lemma 8: any C^d_{L'}(G) lies inside {v : stage(v) ≥ |L'|}.
void StageScope(const VertexLevelIndex& index, const VertexSet& potential,
                int depth, VertexSet* scope) {
  scope->clear();
  scope->reserve(potential.size());
  for (VertexId v : potential) {
    if (index.stage(v) >= depth) scope->push_back(v);
  }
}

/// Per-lane buffers of RefineU/RefineC: the search materialises lattice
/// children on its lanes concurrently, and each lane reuses these across
/// its thousands of refinements without locks.
struct TdScratch {
  LayerSet class1, class2, ids;
  VertexSet filter, scope;
};
using Lanes = SearchLanes<TdScratch>;

/// TD-Gen (paper Fig 8), restructured like BottomUpSearch: this class is
/// the sequential commit driver — it owns every pruning test, Update, rng
/// draw (Lemma 7) and stats increment, applied in the exact order of the
/// historical sequential search — while the per-child RefineU/RefineC
/// materialisations (all of the heavy lifting) run as tasks on the search
/// lanes. Refinement is a pure function of (parent potential, child layer
/// set) — independent of the shared top-k state — which is what makes the
/// child materialisations safe to run out of order. The sequential search
/// materialises *every* child of a visited node before pruning any of them
/// (Fig 8 lines 2–5), so unlike the bottom-up case these tasks are not
/// speculative: the only wasted work is what a mid-node stop request
/// abandons.
class TopDownSearch {
 public:
  TopDownSearch(const MultiLayerGraph& graph, const DccsParams& params,
                const PreprocessResult& preprocess,
                const std::vector<LayerId>& order,
                const VertexLevelIndex& index, const DccsExecution& exec,
                LaneArenas<TdScratch>& arenas, ConcurrentTopK& result,
                SearchStats& stats, obs::SpanId lane_parent)
      : graph_(graph),
        params_(params),
        preprocess_(preprocess),
        order_(order),
        index_(index),
        solver_(*arenas[0].solver),
        result_(result),
        stats_(stats),
        rng_(kSeed),
        lanes_(arenas, params, exec, stats, lane_parent) {}

  void Run() {
    const int l = graph_.NumLayers();
    LayerSet root_positions(static_cast<size_t>(l));
    for (int j = 0; j < l; ++j) root_positions[static_cast<size_t>(j)] = j;
    // Fig 11 line 4: the root d-CC w.r.t. all layers.
    const int64_t before = solver_.num_calls();
    VertexSet root_core =
        solver_.Compute(ToLayerIds(root_positions), params_.d,
                        preprocess_.active, params_.dcc_engine);
    driver_calls_ += solver_.num_calls() - before;
    if (params_.s == l) {
      if (result_.Update(root_core, ToLayerIds(root_positions))) {
        ++stats_.updates_accepted;
      }
      return;
    }
    auto root = std::make_shared<Node>();
    root->positions = std::move(root_positions);
    root->potential = &preprocess_.active;
    Prepare(*root);
    SpawnMaterialise(root);
    Gen(root);
    lanes_.Finish();
  }

  int64_t committed_calls() const {
    return driver_calls_ + committed_slot_calls_;
  }
  int64_t speculative_calls() const {
    return lanes_.executed_calls() - committed_slot_calls_;
  }

 private:
  static constexpr uint64_t kSeed = 0x5851f42d4c957f2dULL;

  /// One materialised-or-in-flight child (Fig 8 lines 2–5): L' and the
  /// refined U^d_{L'} / C^d_{L'} outputs.
  struct ChildSlot : LaneSlot {
    LayerSet positions;
    VertexSet potential;
    VertexSet core;
  };

  /// A visited lattice node whose children are being materialised. Shared
  /// with task closures (see BottomUpSearch::Node).
  struct Node {
    LayerSet positions;           // the node's L
    VertexSet potential_storage;  // owned for non-root nodes
    const VertexSet* potential = nullptr;
    std::vector<int> removable;   // LR (Fig 8 line 1)
    std::unique_ptr<ChildSlot[]> slots;
  };

  LayerSet ToLayerIds(const LayerSet& positions) const {
    LayerSet ids;
    ToLayerIdsInto(positions, &ids);
    return ids;
  }

  // Buffer-reusing form for transient translations on the hot path.
  void ToLayerIdsInto(const LayerSet& positions, LayerSet* ids) const {
    PositionsToLayerIds(order_, positions, ids);
  }

  const Bitset& CoreBitsAtPosition(int pos) const {
    return preprocess_.layer_core_bits[static_cast<size_t>(
        order_[static_cast<size_t>(pos)])];
  }

  // RefineU (Fig 9): shrinks the parent's potential set to U^d_{L'}.
  // Refinement Method 2 filters by support over the Class-2 layers against
  // the preprocessed per-layer d-cores (static), then Method 1 peels to
  // d-density on the Class-1 layers; since the Method-2 counts never change
  // during peeling, one pass of each reaches the paper's fixpoint.
  void RefineU(DccSolver& solver, TdScratch& scratch,
               const VertexSet& parent_u, const LayerSet& positions,
               VertexSet* out) const {
    const int max_comp = MaxComplement(graph_.NumLayers(), positions);
    scratch.class1.clear();
    scratch.class2.clear();
    for (LayerId p : positions) {
      (p < max_comp ? scratch.class1 : scratch.class2).push_back(p);
    }
    const int need =
        params_.s - static_cast<int>(scratch.class1.size());  // s − |M_{L'}|

    VertexSet& filtered = scratch.class1.empty() ? *out : scratch.filter;
    filtered.clear();
    filtered.reserve(parent_u.size());
    for (VertexId v : parent_u) {
      int count = 0;
      if (need > 0) {
        for (LayerId p : scratch.class2) {
          if (CoreBitsAtPosition(p).Test(static_cast<size_t>(v))) ++count;
          if (count >= need) break;
        }
        if (count < need) continue;  // Method 2 removal
      }
      filtered.push_back(v);
    }
    if (scratch.class1.empty()) return;
    // Method 1: peel to d-density on the must-keep layers.
    ToLayerIdsInto(scratch.class1, &scratch.ids);
    solver.Compute(scratch.ids, params_.d, filtered, out, params_.dcc_engine);
  }

  // RefineC: computes C^d_{L'}(G) inside U^d_{L'} by peeling the Lemma 8
  // stage scope with the d-CC kernel, in place of Fig 10's level-by-level
  // index search (DESIGN.md §3).
  void RefineC(DccSolver& solver, TdScratch& scratch,
               const VertexSet& potential, const LayerSet& positions,
               VertexSet* out) const {
    StageScope(index_, potential, static_cast<int>(positions.size()),
               &scratch.scope);
    ToLayerIdsInto(positions, &scratch.ids);
    solver.Compute(scratch.ids, params_.d, scratch.scope, out,
                   params_.dcc_engine);
  }

  /// Computes LR and the child slots (child layer sets only — the refined
  /// sets are what the tasks fill in).
  void Prepare(Node& node) {
    const int max_comp = MaxComplement(graph_.NumLayers(), node.positions);
    for (LayerId p : node.positions) {
      if (p > max_comp) node.removable.push_back(p);
    }
    const size_t n = node.removable.size();
    if (n == 0) return;
    node.slots = std::make_unique<ChildSlot[]>(n);
    for (size_t idx = 0; idx < n; ++idx) {
      ChildSlot& slot = node.slots[idx];
      slot.positions = node.positions;
      slot.positions.erase(std::find(
          slot.positions.begin(), slot.positions.end(),
          static_cast<LayerId>(node.removable[idx])));
    }
  }

  /// The materialisation of child `idx`: its refined U and C.
  auto MaterialiseFor(Node& node, size_t idx) {
    return [this, &node, idx](DccSolver& solver, TdScratch& scratch) {
      ChildSlot& slot = node.slots[idx];
      RefineU(solver, scratch, *node.potential, slot.positions,
              &slot.potential);
      RefineC(solver, scratch, slot.potential, slot.positions, &slot.core);
    };
  }

  void SpawnMaterialise(const std::shared_ptr<Node>& node) {
    if (!lanes_.parallel()) return;
    for (size_t idx = 0; idx < node->removable.size(); ++idx) {
      lanes_.Spawn(node, node->slots[idx], MaterialiseFor(*node, idx));
    }
  }

  ChildSlot& WaitSlot(Node& node, size_t idx) {
    lanes_.Wait(node.slots[idx], MaterialiseFor(node, idx));
    return node.slots[idx];
  }

  void CancelPending(Node& node) {
    for (size_t idx = 0; idx < node.removable.size(); ++idx) {
      Lanes::Cancel(node.slots[idx]);
    }
  }

  /// Moves a committed slot into a child node, launches its own children
  /// and descends.
  void Descend(Node& node, size_t idx) {
    ChildSlot& slot = node.slots[idx];
    auto child = std::make_shared<Node>();
    child->positions = std::move(slot.positions);
    child->potential_storage = std::move(slot.potential);
    child->potential = &child->potential_storage;
    Prepare(*child);
    SpawnMaterialise(child);
    Gen(child);
  }

  // TD-Gen (Fig 8), commit side.
  void Gen(const std::shared_ptr<Node>& node) {
    const auto depth = static_cast<int>(node->positions.size());
    const size_t n = node->removable.size();
    if (n == 0) return;

    // Lines 2–5: materialise every child's U and C up front — committed in
    // removable order; the refinement work itself runs on the task group.
    for (size_t idx = 0; idx < n; ++idx) {
      if (lanes_.StopRequested()) {
        CancelPending(*node);
        return;
      }
      ++stats_.nodes_visited;
      ChildSlot& slot = WaitSlot(*node, idx);
      committed_slot_calls_ += slot.solver_calls;
    }

    if (!result_.full()) {
      // Cases 1–2 (lines 6–12).
      for (size_t idx = 0; idx < n; ++idx) {
        if (lanes_.StopRequested()) return;
        ChildSlot& slot = node->slots[idx];
        if (depth - 1 == params_.s) {
          ToLayerIdsInto(slot.positions, &ids_buf_);
          if (result_.Update(slot.core, ids_buf_)) {
            ++stats_.updates_accepted;
          }
        } else {
          Descend(*node, idx);
        }
      }
      return;
    }

    // Cases 3–4 (lines 13–29): order children by |U| descending (Lemma 6).
    std::vector<size_t> by_potential;  // local: Gen recurses inside the loop
    by_potential.reserve(n);
    for (size_t idx = 0; idx < n; ++idx) by_potential.push_back(idx);
    std::stable_sort(by_potential.begin(), by_potential.end(),
                     [&](size_t a, size_t b) {
                       return node->slots[a].potential.size() >
                              node->slots[b].potential.size();
                     });
    for (size_t rank = 0; rank < n; ++rank) {
      if (lanes_.StopRequested()) return;
      ChildSlot& slot = node->slots[by_potential[rank]];
      if (result_.BelowOrderThreshold(
              static_cast<int64_t>(slot.potential.size()))) {
        stats_.pruned_order += static_cast<int64_t>(n - rank);
        break;  // Lemma 6
      }
      if (depth - 1 == params_.s) {
        ToLayerIdsInto(slot.positions, &ids_buf_);
        if (result_.Update(slot.core, ids_buf_)) {
          ++stats_.updates_accepted;
        }
        continue;
      }
      // Lemma 5: every descendant candidate is contained in U^d_{L'}, so if
      // U fails Eq. (1) the whole subtree is hopeless. (Fig 8 line 23
      // prints C^d_{L'} here; the §V-A text and Lemma 5 establish the bound
      // via the potential set, which is what we check — see DESIGN.md.)
      if (!result_.SatisfiesEq1(slot.potential)) {
        ++stats_.pruned_eq1;
        continue;
      }
      // Lemma 7: in the optimistic regime a single random descendant
      // represents the subtree.
      if (result_.SatisfiesEq1(slot.core) &&
          result_.SatisfiesEq2(static_cast<int64_t>(slot.potential.size()))) {
        if (TryPotentialShortcut(slot.positions, slot.potential)) {
          ++stats_.pruned_potential;
          continue;
        }
      }
      Descend(*node, by_potential[rank]);
    }
  }

  // Lines 25–27 of Fig 8: pick a random size-s descendant S of L', compute
  // its d-CC inside U^d_{L'}, and update R with it. Returns false when L'
  // has no size-s descendant (a dead-end branch of the top-down lattice).
  // Driver-only: the rng_ stream must be drawn in the sequential commit
  // order for results to stay thread-count-invariant.
  bool TryPotentialShortcut(const LayerSet& positions,
                            const VertexSet& potential) {
    const auto depth = static_cast<int>(positions.size());
    const int max_comp = MaxComplement(graph_.NumLayers(), positions);
    std::vector<LayerId> removable;
    for (LayerId p : positions) {
      if (p > max_comp) removable.push_back(p);
    }
    const int to_remove = depth - params_.s;
    if (static_cast<int>(removable.size()) < to_remove) return false;
    std::shuffle(removable.begin(), removable.end(), rng_.engine());
    removable.resize(static_cast<size_t>(to_remove));

    LayerSet descendant;
    for (LayerId p : positions) {
      if (std::find(removable.begin(), removable.end(), p) ==
          removable.end()) {
        descendant.push_back(p);
      }
    }
    StageScope(index_, potential, params_.s, &scope_buf_);
    ToLayerIdsInto(descendant, &ids_buf_);
    const int64_t before = solver_.num_calls();
    solver_.Compute(ids_buf_, params_.d, scope_buf_, &core_buf_,
                    params_.dcc_engine);
    driver_calls_ += solver_.num_calls() - before;
    if (result_.Update(core_buf_, ids_buf_)) ++stats_.updates_accepted;
    return true;
  }

  const MultiLayerGraph& graph_;
  const DccsParams& params_;
  const PreprocessResult& preprocess_;
  const std::vector<LayerId>& order_;
  const VertexLevelIndex& index_;
  DccSolver& solver_;  // lane 0's: the driver's root core and shortcuts
  ConcurrentTopK& result_;
  SearchStats& stats_;
  Rng rng_;

  int64_t driver_calls_ = 0;           // root core + Lemma 7 shortcuts
  int64_t committed_slot_calls_ = 0;   // materialisations the driver used

  // Driver-side buffers for Update translations and the shortcut.
  LayerSet ids_buf_;
  VertexSet scope_buf_, core_buf_;

  // Last member: task closures reference this search and its nodes.
  Lanes lanes_;
};

}  // namespace

DccsResult TopDownDccs(const MultiLayerGraph& graph, const DccsParams& params,
                       const DccsExecution& exec) {
  // Guaranteed by Engine::Validate on every request path; debug-only so a
  // malformed direct call still trips in development builds.
  MLCORE_DCHECK(params.s >= 1);
  MLCORE_DCHECK(params.k >= 1);

  WallTimer total_timer;
  DccsResult result;
  if (params.s > graph.NumLayers() || graph.NumLayers() > 64) {
    // > 64 layers: see BottomUpDccs — empty result here, structured
    // kInvalidArgument at the Engine request layer.
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  // Fig 11 line 1 = BU-DCCS lines 1–8: vertex deletion + InitTopK, both
  // replayable from an injected execution (see BottomUpDccs).
  std::optional<PreprocessResult> local_preprocess;
  if (exec.preprocess == nullptr) {
    obs::Span preprocess_span(exec.trace, "query.preprocess",
                              exec.trace_parent);
    local_preprocess =
        Preprocess(graph, params.d, params.s, params.vertex_deletion,
                   exec.pool, /*base_cores=*/nullptr, exec.control);
    result.stats.preprocess_seconds = local_preprocess->seconds;
    if (local_preprocess->stopped != QueryStop::kNone) {
      result.stats.stopped = local_preprocess->stopped;
      result.stats.total_seconds = total_timer.Seconds();
      return result;
    }
  }
  const PreprocessResult& preprocess =
      exec.preprocess != nullptr ? *exec.preprocess : *local_preprocess;

  obs::Span search_span(exec.trace, "query.search", exec.trace_parent);
  const WallTimer& search_timer = search_span.timer();
  LaneArenas<TdScratch> arenas(graph, exec, exec.search_threads);
  DccSolver& solver = *arenas[0].solver;

  CoverageIndex seeded(params.k);
  int64_t seed_calls = 0;
  if (exec.seeded_topk != nullptr) {
    seeded = *exec.seeded_topk;
    seed_calls = exec.seeds != nullptr ? exec.seeds->solver_calls : 0;
  } else if (exec.seeds != nullptr) {
    ReplayInitSeeds(*exec.seeds, seeded);
    seed_calls = exec.seeds->solver_calls;
  } else {
    const int64_t calls_before = solver.num_calls();
    InitTopK(graph, params, preprocess, solver, seeded);
    seed_calls = solver.num_calls() - calls_before;
  }
  // Fig 11 line 2: ascending order of |C^d(G_i)| (cached by the Engine per
  // query entry).
  std::optional<std::vector<LayerId>> local_order;
  if (exec.layer_order == nullptr) {
    local_order =
        SortedLayerOrder(preprocess, /*descending=*/false, params.sort_layers);
  }
  const std::vector<LayerId>& order =
      exec.layer_order != nullptr ? *exec.layer_order : *local_order;
  // Fig 11 line 3: the vertex index, whose stages give RefineC's and the
  // Lemma 7 shortcut's Lemma 8 scope; cached by the engine per (d, s)
  // because it is built over `preprocess.active`.
  std::optional<VertexLevelIndex> local_index;
  if (exec.index == nullptr) {
    local_index.emplace(graph, params.d, preprocess.active);
  }
  const VertexLevelIndex& index =
      exec.index != nullptr ? *exec.index : *local_index;

  ConcurrentTopK top_k(std::move(seeded));
  TopDownSearch search(graph, params, preprocess, order, index, exec, arenas,
                       top_k, result.stats, search_span.id());
  search.Run();
  search_span.End();

  obs::Span cover_span(exec.trace, "query.cover", exec.trace_parent);
  result.cores = top_k.index().entries();
  cover_span.End();
  result.stats.candidates_generated = seed_calls + search.committed_calls();
  result.stats.speculative_evals = search.speculative_calls();
  result.stats.search_seconds = search_timer.Seconds();
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace mlcore
