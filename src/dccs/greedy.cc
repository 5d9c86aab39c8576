#include "dccs/greedy.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "core/dcc.h"
#include "core/fds.h"
#include "dccs/preprocess.h"
#include "dccs/search_lanes.h"
#include "obs/span.h"
#include "util/bitset.h"
#include "util/thread_pool.h"
#include "util/timing.h"

namespace mlcore {

DccsResult GreedyDccs(const MultiLayerGraph& graph, const DccsParams& params,
                      const DccsExecution& exec) {
  WallTimer total_timer;
  DccsResult result;
  const auto n = static_cast<size_t>(graph.NumVertices());

  std::optional<PreprocessResult> local_preprocess;
  const PreprocessResult* preprocess = nullptr;
  if (params.s <= graph.NumLayers()) {
    preprocess = AcquirePreprocess(graph, params, exec, &local_preprocess,
                                   &result.stats);
  }
  if (preprocess == nullptr) {
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }
  ThreadPool* pool = exec.pool;

  // The span's stopwatch doubles as the budget clock for check_stop, so
  // the recorded search phase and the budget semantics share one timer.
  obs::Span search_span(exec.trace, "query.search", exec.trace_parent);
  const WallTimer& search_timer = search_span.timer();
  // Lines 4–7: generate F = all d-CCs w.r.t. size-s layer subsets, each
  // computed inside the intersection of the per-layer d-cores (Lemma 1).
  // The subsets are independent, so the loop parallelises over a static
  // index partition; candidate order (and hence the final result) is
  // identical for every thread count.
  struct Candidate {
    LayerSet layers;
    VertexSet vertices;
  };
  const int64_t total_subsets =
      BinomialCoefficient(graph.NumLayers(), params.s);
  // Engine::Validate pre-rejects this with kUnsupported; the abort guards
  // *direct* GreedyDccs callers against materialising an intractable
  // subset table.
  // NOLINT(mlcore-release-check): resource guard for direct callers
  MLCORE_CHECK_MSG(total_subsets <= kMaxGreedySubsets,
                   "C(l, s) too large to materialise; this instance is "
                   "intractable for GD-DCCS regardless");
  std::vector<LayerSet> subsets;
  subsets.reserve(static_cast<size_t>(total_subsets));
  ForEachLayerCombination(graph.NumLayers(), params.s,
                          [&](const LayerSet& layers) {
                            subsets.push_back(layers);
                          });

  // Per-lane arenas (dccs/search_lanes.h): one solver plus reusable
  // scope/core buffers per pool lane, so the candidate loop performs no
  // steady-state allocation. Each candidate writes only its own
  // subset-indexed slot, which keeps the output independent of how the
  // pool schedules items across lanes.
  std::vector<Candidate> slots(subsets.size());
  struct Scratch {
    VertexSet scope;
    VertexSet core;
  };
  LaneArenas<Scratch> arenas(graph, exec,
                             pool != nullptr ? pool->num_threads() : 1);

  // Cooperative stop for the candidate phase: checked once per candidate
  // (the "candidate-evaluation boundary"), shared across lanes. A fired
  // stop makes the remaining candidates no-ops; evaluated candidates keep
  // their slots, so the greedy selection below runs over the anytime prefix
  // of F. `controlled` is false for the historical uncontrolled,
  // unbudgeted call, which then skips every per-candidate check and atomic.
  const bool controlled =
      (exec.control != nullptr && exec.control->active()) ||
      params.time_budget_seconds > 0;
  std::atomic<int> stop_reason{static_cast<int>(QueryStop::kNone)};
  std::atomic<int64_t> evaluated{0};
  auto check_stop = [&]() -> QueryStop {
    const int seen = stop_reason.load(std::memory_order_relaxed);
    if (seen != static_cast<int>(QueryStop::kNone)) {
      return static_cast<QueryStop>(seen);
    }
    const QueryStop stop = CheckQueryStop(
        exec.control, params.time_budget_seconds, search_timer);
    if (stop != QueryStop::kNone) {
      // First writer wins; later candidates observe the fast path above.
      int expected = static_cast<int>(QueryStop::kNone);
      stop_reason.compare_exchange_strong(expected, static_cast<int>(stop),
                                          std::memory_order_relaxed);
      return static_cast<QueryStop>(
          stop_reason.load(std::memory_order_relaxed));
    }
    return QueryStop::kNone;
  };

  auto evaluate_candidate = [&](int worker, int64_t i) {
    if (controlled) {
      if (check_stop() != QueryStop::kNone) return;
      evaluated.fetch_add(1, std::memory_order_relaxed);
    }
    LaneArena<Scratch>& arena = arenas[worker];
    Scratch& scratch = arena.scratch;
    const LayerSet& layers = subsets[static_cast<size_t>(i)];
    const VertexSet& first =
        preprocess->layer_cores[static_cast<size_t>(layers[0])];
    scratch.scope.assign(first.begin(), first.end());
    for (size_t j = 1; j < layers.size() && !scratch.scope.empty(); ++j) {
      FilterInto(scratch.scope,
                 preprocess->layer_core_bits[static_cast<size_t>(layers[j])],
                 &scratch.scope);
    }
    arena.solver->Compute(layers, params.d, scratch.scope, &scratch.core,
                          params.dcc_engine);
    if (!scratch.core.empty()) {
      slots[static_cast<size_t>(i)] = Candidate{layers, scratch.core};
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int64_t>(subsets.size()),
                      evaluate_candidate);
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(subsets.size()); ++i) {
      evaluate_candidate(0, i);
    }
  }

  // Budget/deadline are anytime: select over the candidates evaluated so
  // far (the (1 - 1/e) guarantee only holds for the full F). Cancellation
  // abandons the query; the caller discards the result.
  const auto stopped =
      static_cast<QueryStop>(stop_reason.load(std::memory_order_relaxed));
  LatchQueryStop(stopped, &result.stats);
  if (stopped == QueryStop::kCancelled) {
    result.stats.candidates_generated =
        evaluated.load(std::memory_order_relaxed);
    result.stats.search_seconds = search_timer.Seconds();
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  std::vector<Candidate> candidates;
  candidates.reserve(slots.size());
  for (auto& slot : slots) {
    if (!slot.vertices.empty()) candidates.push_back(std::move(slot));
  }
  result.stats.candidates_generated =
      stopped != QueryStop::kNone ? evaluated.load(std::memory_order_relaxed)
                                  : static_cast<int64_t>(subsets.size());

  // Lines 8–10: greedy max-cover selection of k candidates, lazily (see
  // greedy.h). Each entry holds a candidate's gain as of `round`; stale
  // gains only overstate, so a fresh top is the eager scan's first-index
  // maximum, zero gains included.
  search_span.End();
  obs::Span cover_span(exec.trace, "query.cover", exec.trace_parent);
  struct Entry {
    int64_t gain;
    size_t index;
    int round;
  };
  auto below = [](const Entry& a, const Entry& b) {
    return a.gain != b.gain ? a.gain < b.gain : a.index > b.index;
  };
  std::vector<Entry> heap;
  heap.reserve(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    heap.push_back(Entry{
        static_cast<int64_t>(candidates[c].vertices.size()), c, 0});
  }
  std::make_heap(heap.begin(), heap.end(), below);
  Bitset covered(n);
  for (int round = 0; round < params.k && !heap.empty(); ++round) {
    while (heap.front().round != round) {  // stale top: re-evaluate it
      std::pop_heap(heap.begin(), heap.end(), below);
      Entry& top = heap.back();
      top.gain = 0;
      for (VertexId v : candidates[top.index].vertices) {
        if (!covered.Test(static_cast<size_t>(v))) ++top.gain;
      }
      top.round = round;
      std::push_heap(heap.begin(), heap.end(), below);
    }
    std::pop_heap(heap.begin(), heap.end(), below);
    Candidate& best = candidates[heap.back().index];
    heap.pop_back();
    for (VertexId v : best.vertices) covered.Set(static_cast<size_t>(v));
    result.cores.push_back(
        ResultCore{std::move(best.layers), std::move(best.vertices)});
    ++result.stats.updates_accepted;
  }

  result.stats.search_seconds = search_timer.Seconds();
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace mlcore
