#ifndef MLCORE_DCCS_EXECUTION_H_
#define MLCORE_DCCS_EXECUTION_H_

#include <functional>
#include <optional>

#include "core/dcc.h"
#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "obs/span.h"
#include "util/cancellation.h"
#include "util/thread_pool.h"
#include "util/timing.h"

namespace mlcore {

/// Borrowed, reusable state injected into a DCCS algorithm call by a
/// long-lived host (the `mlcore::Engine`, DESIGN.md §5). Every field is
/// optional: a default-constructed execution makes the algorithms
/// self-contained, computing whatever they need per call — exactly the
/// historical one-shot behaviour of the free functions.
///
/// All pointed-to state is borrowed for the duration of the call and never
/// mutated (the solver and pool are mutated but owned-elsewhere scratch).
/// Injected state must match the query: `preprocess` must be the §IV-C
/// output for (d, s, vertex_deletion), `seeds` the ComputeInitSeeds output
/// for (d, s, k) over that preprocessing, and `index` the §V-C
/// vertex index built over `preprocess->active` with threshold d. The
/// algorithms MLCORE_DCHECK what they cheaply can; semantic agreement is the
/// injector's contract.
struct DccsExecution {
  /// §IV-C preprocessing to reuse; when set, the algorithm skips vertex
  /// deletion entirely and reports preprocess_seconds = 0 (the host knows
  /// the true acquisition cost and patches the stat).
  const PreprocessResult* preprocess = nullptr;

  /// InitTopK seeds to reuse instead of re-running Appendix D: BU/TD start
  /// from a copy of `seeds->topk`, and its solver_calls keeps
  /// candidates_generated exact. Ignored by GD-DCCS (which has no InitTopK
  /// stage). When null, BU/TD compute the seeds themselves (an empty top-k
  /// when params.init_result is false).
  const InitSeeds* seeds = nullptr;

  /// §V-C vertex index to reuse (TD-DCCS only). When null, TD-DCCS builds
  /// its own over preprocess->active.
  const VertexLevelIndex* index = nullptr;

  /// Solver scratch to reuse across calls. The algorithms account
  /// `stats.candidates_generated` as a num_calls() delta, so a solver shared
  /// across many queries keeps per-query statistics exact. Must not be used
  /// concurrently by two calls (DccSolver is not thread-safe).
  DccSolver* solver = nullptr;

  /// Fork-join pool for the parallel stages: the per-layer d-core rounds of
  /// preprocessing, GD-DCCS candidate generation and the BU/TD search lanes
  /// (`search_threads`). Null runs preprocessing and GD sequentially, and
  /// gives a parallel BU/TD search a pool of its own for the call; results
  /// are bit-identical either way (DESIGN.md §4, §10).
  ThreadPool* pool = nullptr;

  /// Per-lane solver provider for the parallel stages that evaluate d-CCs
  /// on worker threads: GD-DCCS candidate generation and the BU/TD parallel
  /// search, each indexed by the worker id of the pool it runs on. Called at
  /// most once per worker id, must be thread-safe, and the returned solvers
  /// must stay valid for the duration of the call. When empty, the
  /// algorithms construct their own per-lane solvers. Lane 0 is the calling
  /// (driver) thread: it uses `solver` when set and asks this provider only
  /// otherwise (dccs/search_lanes.h).
  std::function<DccSolver*(int worker)> worker_solver = nullptr;

  /// Lanes for the BU/TD search phase (DESIGN.md §10), driver included: the
  /// search runs as one ParallelFor of min(search_threads,
  /// pool->num_threads()) items on `pool` (or on a pool of `search_threads`
  /// threads it starts itself when `pool` is null) and evaluates lattice
  /// children speculatively on the helper lanes while the driver commits
  /// results in the exact sequential order — bit-identical output at any
  /// value. <= 1 runs the historical sequential search with no pool call at
  /// all. Helpers take only idle workers of the pool, so concurrent searches
  /// sharing one pool degrade toward sequential instead of queueing (the
  /// Engine shares one search pool, see Engine::Options::search_threads).
  int search_threads = 1;

  /// Cooperative stop control (util/cancellation.h): polled at the
  /// subset-lattice nodes of BU/TD, at GD-DCCS candidate-evaluation
  /// boundaries, and once per vertex-deletion round of a locally run
  /// preprocess. Null (or inactive) adds a single branch per checkpoint and
  /// changes nothing — an uncancelled, deadline-free query is bit-identical
  /// to one run without a control. When a stop fires, the algorithm returns
  /// early with `stats.stopped` set: kDeadline behaves exactly like the
  /// kBudget anytime path (best-so-far cores, budget_exhausted set), while
  /// kCancelled abandons the search and the partial result must be
  /// discarded by the caller (the Engine maps it to StatusCode::kCancelled).
  /// A stop during a locally run preprocess returns an empty result with
  /// `stats.stopped` set and no search phase.
  const QueryControl* control = nullptr;

  /// Trace buffer for this query's phase spans (DESIGN.md §12). When set,
  /// the algorithms commit "query.preprocess" (locally run preprocessing
  /// only — a host injecting `preprocess` records its own acquisition
  /// span), "query.search", "query.cover", and — for the parallel BU/TD
  /// search — one "search.lane" span per pool worker that ran one of its
  /// evaluations, summarising that lane's busy wall/CPU time, committed
  /// after every lane is done and parented under the search span so
  /// speculative evaluation waste is attributable to its driver. Null (or
  /// an MLCORE_OBS_DISABLED build) records nothing; the checks are a
  /// pointer test per *phase*, never per lattice node.
  obs::Trace* trace = nullptr;

  /// Parent span id the phase spans attach under (the host's root query
  /// span); 0 roots them at the trace itself.
  obs::SpanId trace_parent = 0;
};

/// The §IV-C vertex deletion every search opens with (Fig 7 lines 1–7):
/// returns the injected `exec.preprocess`, or runs `Preprocess` into
/// `*local` under a "query.preprocess" span and reports its time as
/// `stats->preprocess_seconds`. Returns null when a stop fired before the
/// fixpoint completed: `stats->stopped` then holds the reason, and the
/// search returns without a search phase.
inline const PreprocessResult* AcquirePreprocess(
    const MultiLayerGraph& graph, const DccsParams& params,
    const DccsExecution& exec, std::optional<PreprocessResult>* local,
    SearchStats* stats) {
  if (exec.preprocess != nullptr) return exec.preprocess;
  obs::Span span(exec.trace, "query.preprocess", exec.trace_parent);
  const PreprocessResult& built = local->emplace(
      Preprocess(graph, params.d, params.s, params.vertex_deletion, exec.pool,
                 /*base_cores=*/nullptr, exec.control));
  stats->preprocess_seconds = built.seconds;
  if (built.stopped != QueryStop::kNone) {
    stats->stopped = built.stopped;
    return nullptr;
  }
  return &built;
}

/// The one tie-break order every cooperative checkpoint applies
/// (DESIGN.md §7): cancellation, then wall-clock deadline, then the
/// anytime search budget measured on `search_timer`. All three searches
/// poll through this so their stop semantics cannot drift apart.
inline QueryStop CheckQueryStop(const QueryControl* control,
                                double budget_seconds,
                                const WallTimer& search_timer) {
  if (control != nullptr) {
    const QueryStop stop = control->Check();
    if (stop != QueryStop::kNone) return stop;
  }
  if (budget_seconds > 0 && search_timer.Seconds() > budget_seconds) {
    return QueryStop::kBudget;
  }
  return QueryStop::kNone;
}

/// Records a fired stop in `stats`: kDeadline and kBudget are the anytime
/// outcomes (budget_exhausted), kCancelled is not (the partial result gets
/// discarded, not served). Returns whether a stop fired.
inline bool LatchQueryStop(QueryStop stop, SearchStats* stats) {
  if (stop == QueryStop::kNone) return false;
  stats->stopped = stop;
  if (stop != QueryStop::kCancelled) stats->budget_exhausted = true;
  return true;
}

}  // namespace mlcore

#endif  // MLCORE_DCCS_EXECUTION_H_
