#include "service/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/dcore.h"
#include "core/fds.h"
#include "dccs/bottom_up.h"
#include "dccs/execution.h"
#include "dccs/greedy.h"
#include "dccs/top_down.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mlcore {

namespace {

Engine::Options Sanitize(Engine::Options options) {
  options.num_threads = std::max(1, options.num_threads);
  options.max_cached_queries = std::max(1, options.max_cached_queries);
  options.query_workers = std::max(0, options.query_workers);
  options.max_pending_queries = std::max(1, options.max_pending_queries);
  options.search_threads = std::max(1, options.search_threads);
  return options;
}

/// Evicts the least-recently-used keys of `entries` down to `capacity`.
/// Entries are shared_ptr payloads, so queries still holding one keep it
/// alive past eviction.
template <typename Map, typename UseMap>
void EvictLru(Map& entries, UseMap& last_use, size_t capacity) {
  while (entries.size() > capacity) {
    auto victim = last_use.begin();
    for (auto it = last_use.begin(); it != last_use.end(); ++it) {
      if (it->second < victim->second) victim = it;
    }
    entries.erase(victim->first);
    last_use.erase(victim);
  }
}

/// Slow-query-log label: the request's shape. Parameter values belong in
/// this per-entry string, never in metric names (cardinality rules,
/// DESIGN.md §12).
std::string DescribeRequest(const DccsRequest& request,
                            DccsAlgorithm resolved) {
  const char* algo = "auto";
  switch (resolved) {
    case DccsAlgorithm::kGreedy:
      algo = "greedy";
      break;
    case DccsAlgorithm::kBottomUp:
      algo = "bu";
      break;
    case DccsAlgorithm::kTopDown:
      algo = "td";
      break;
    case DccsAlgorithm::kAuto:
      break;
  }
  const DccsParams& p = request.params;
  return std::string(algo) + " d=" + std::to_string(p.d) +
         " s=" + std::to_string(p.s) + " k=" + std::to_string(p.k);
}

}  // namespace

/// Full-graph per-layer d-cores for one (d, generation) key
/// (DCore(graph, i, d) in slot i, for the snapshot the entry was built
/// against). `layer_gens`/`num_vertices` record what the build saw, so a
/// later epoch's miss can copy the layers whose content is unchanged
/// instead of recomputing them (DESIGN.md §8); `ready` gates that reuse
/// (an entry is only read across builds after its once-block published).
struct Engine::BaseCoresEntry {
  std::once_flag once;
  std::atomic<bool> ready{false};
  int32_t num_vertices = 0;
  std::vector<uint64_t> layer_gens;
  std::vector<VertexSet> cores;
};

/// Everything reusable for one (d, s, vertex_deletion) key: the §IV-C
/// vertex-deletion fixpoint, the lazily built §V-C vertex index, and the
/// InitTopK seed captures keyed by (k, dcc_engine).
///
/// The fixpoint build is cancellable, so it cannot sit behind a
/// once_flag (a cancelled builder would latch the flag with a torn
/// payload). Instead `ready`/`building` under `mu` implement
/// build-or-wait-with-retry: exactly one query builds at a time, a build
/// abandoned by cancellation publishes nothing (`ready` stays false) and
/// the next query rebuilds, and waiters poll their own controls so a
/// cancelled waiter leaves promptly. `ready` is written once, under `mu`,
/// before any reader dereferences `preprocess`.
struct Engine::QueryEntry {
  util::Mutex mu{util::lock_rank::kQueryEntry, "QueryEntry::mu"};
  util::CondVar cv;
  bool ready MLCORE_GUARDED_BY(mu) = false;
  bool building MLCORE_GUARDED_BY(mu) = false;
  // Publish-once: written under `mu` before `ready` flips, read lock-free
  // by every query after observing `ready` — deliberately unannotated.
  PreprocessResult preprocess;

  std::once_flag index_once;
  std::unique_ptr<VertexLevelIndex> index;

  util::Mutex seeds_mu{util::lock_rank::kQuerySeeds, "QueryEntry::seeds_mu"};
  std::map<std::pair<int, int>, std::shared_ptr<const InitSeeds>> seeds
      MLCORE_GUARDED_BY(seeds_mu);
  /// Replayed CoverageIndex prototype per seeds key: the state a fresh
  /// top-k has after ReplayInitSeeds, so warm queries (parallel or not)
  /// start from a copy instead of re-running the replay loop.
  std::map<std::pair<int, int>, std::shared_ptr<const CoverageIndex>> seeded
      MLCORE_GUARDED_BY(seeds_mu);

  /// Cached SortedLayerOrder for sort_layers queries: descending
  /// |C^d(G_i)| (BU) and ascending (TD), built over `preprocess` on first
  /// use.
  std::once_flag order_desc_once, order_asc_once;
  std::vector<LayerId> order_desc, order_asc;
};

/// One submitted query: request + scheduling state + terminal result. The
/// handle and the engine share it; `done`/`result` are guarded by `mu` and
/// written exactly once (FinishTask).
struct Engine::QueryTask {
  DccsRequest request;
  /// The snapshot current at submission: the query computes against this
  /// graph epoch no matter how many updates publish before it runs
  /// (DESIGN.md §8). Pinning it here also bounds snapshot lifetime — a
  /// cancelled or shed task releases its snapshot as soon as the last
  /// handle drops.
  std::shared_ptr<const GraphSnapshot> snapshot;
  int priority = 0;
  CancellationToken token;
  QueryControl control;
  /// Queue ticket for TryRemove; 0 until admitted (and for never-queued
  /// terminal tasks). Written by Submit, read by Wait/Cancel on other
  /// threads, hence atomic.
  std::atomic<uint64_t> queue_id{0};

  util::Mutex mu{util::lock_rank::kQueryTask, "QueryTask::mu"};
  util::CondVar cv;
  bool done MLCORE_GUARDED_BY(mu) = false;
  std::optional<Expected<DccsResult>> result MLCORE_GUARDED_BY(mu);

  /// Completion hook, invoked by FinishTask on the resolving thread after
  /// the terminal result published. Subscription evaluations use it to
  /// emit their revision; ordinary submissions leave it empty.
  std::function<void(QueryTask&)> on_done;

  /// This query's span buffer (DESIGN.md §12); null under
  /// MLCORE_OBS_DISABLED. Created at submission so the admission wait sits
  /// on its clock; read back by the executing thread after RunValidated
  /// returned (by which point every recording thread has joined).
  std::unique_ptr<obs::Trace> trace;
};

/// One standing query (Engine::Subscribe). Shared by the engine (producer
/// side: dispatcher + evaluation completions) and every Subscription
/// handle (consumer side); `mu` guards all mutable state. The engine's
/// destructor sets `cancelled` after all producers stopped, so a state
/// outliving its engine is inert: buffered revisions drain, then Next
/// returns nullopt.
struct Engine::SubscriptionState {
  // Immutable after Subscribe.
  DccsRequest request;
  int priority = 0;
  size_t max_buffered = 1;
  bool emit_unchanged = true;
  std::function<void(const ResultRevision&)> on_revision;
  /// Subscription-wide cancellation: Cancel trips it once and every
  /// current or future evaluation of this subscription observes it.
  CancellationToken token;

  /// A buffered revision carries its full result only through the shared
  /// handle; `revision.result` stays empty until pop materialises it.
  /// Coalescing and delta re-anchoring thus never copy a result, and a
  /// folded revision never paid for one.
  struct BufferedRevision {
    ResultRevision revision;
    std::shared_ptr<const DccsResult> result;
  };

  util::Mutex mu{util::lock_rank::kSubscription, "SubscriptionState::mu"};
  util::CondVar cv;
  /// No further revisions will be produced (user Cancel or engine
  /// destruction). Buffered revisions stay consumable.
  bool cancelled MLCORE_GUARDED_BY(mu) = false;
  /// An evaluation is in flight, or a callback delivery is running — the
  /// dispatcher never schedules work for a busy subscription, which both
  /// bounds it to one evaluation at a time and serialises callback
  /// invocations in revision order.
  bool busy MLCORE_GUARDED_BY(mu) = false;
  uint64_t next_sequence MLCORE_GUARDED_BY(mu) = 1;
  /// Newest epoch this subscription has accounted for (evaluated, or
  /// absorbed as unchanged). `has_epoch` false = nothing yet, so the
  /// dispatcher owes the initial revision.
  bool has_epoch MLCORE_GUARDED_BY(mu) = false;
  uint64_t last_epoch MLCORE_GUARDED_BY(mu) = 0;
  /// Result (and its (d, s)-relevant core-subgraph generation) of the last
  /// *evaluated* revision — the unchanged-skip comparison point and the
  /// source for unchanged revisions' payload.
  bool has_result MLCORE_GUARDED_BY(mu) = false;
  uint64_t last_generation MLCORE_GUARDED_BY(mu) = 0;
  std::shared_ptr<const DccsResult> last_result MLCORE_GUARDED_BY(mu);
  /// Result of the last revision popped by Next/TryNext: the delta base
  /// when a new revision lands on an empty buffer.
  std::shared_ptr<const DccsResult> delivered_base MLCORE_GUARDED_BY(mu);
  std::deque<BufferedRevision> buffer MLCORE_GUARDED_BY(mu);
};

/// RAII hold on one free-list solver, bound to one snapshot's graph.
class Engine::SolverLease {
 public:
  SolverLease(Engine* engine, std::shared_ptr<const MultiLayerGraph> graph)
      : engine_(engine),
        graph_(std::move(graph)),
        solver_(engine->AcquireSolver(graph_)) {}
  ~SolverLease() {
    engine_->ReleaseSolver(std::move(graph_), std::move(solver_));
  }
  SolverLease(const SolverLease&) = delete;
  SolverLease& operator=(const SolverLease&) = delete;

  DccSolver* get() const { return solver_.get(); }

 private:
  Engine* engine_;
  std::shared_ptr<const MultiLayerGraph> graph_;
  std::unique_ptr<DccSolver> solver_;
};

/// Lane-indexed solver arenas for GD-DCCS candidate generation, drawn from
/// (and returned to) the engine free-list. Thread-safe: pool workers call
/// Get concurrently.
class Engine::WorkerSolvers {
 public:
  WorkerSolvers(Engine* engine, std::shared_ptr<const MultiLayerGraph> graph,
                int lanes)
      : engine_(engine),
        graph_(std::move(graph)),
        held_(static_cast<size_t>(lanes)) {}
  ~WorkerSolvers() {
    for (auto& solver : held_) {
      if (solver != nullptr) {
        engine_->ReleaseSolver(graph_, std::move(solver));
      }
    }
  }
  WorkerSolvers(const WorkerSolvers&) = delete;
  WorkerSolvers& operator=(const WorkerSolvers&) = delete;

  DccSolver* Get(int worker) {
    util::MutexLock lock(mu_);
    auto& slot = held_[static_cast<size_t>(worker)];
    if (slot == nullptr) slot = engine_->AcquireSolver(graph_);
    return slot.get();
  }

 private:
  Engine* engine_;
  std::shared_ptr<const MultiLayerGraph> graph_;
  util::Mutex mu_{util::lock_rank::kWorkerSolvers, "WorkerSolvers::mu_"};
  std::vector<std::unique_ptr<DccSolver>> held_ MLCORE_GUARDED_BY(mu_);
};

Engine::Engine(const MultiLayerGraph* graph, Options options)
    : Engine(std::make_shared<GraphStore>(
                 std::shared_ptr<const MultiLayerGraph>(
                     graph, [](const MultiLayerGraph*) {})),
             options) {
  // NOLINT(mlcore-release-check): constructor contract — a null borrowed
  // graph is unrecoverable API misuse, not a request-path condition.
  MLCORE_CHECK(graph != nullptr);
}

Engine::Engine(std::shared_ptr<GraphStore> store, Options options)
    : store_(std::move(store)),
      options_(Sanitize(options)),
      pool_(options_.num_threads),
      pending_(static_cast<size_t>(options_.max_pending_queries)) {
  // NOLINT(mlcore-release-check): constructor contract.
  MLCORE_CHECK(store_ != nullptr);
  search_lanes_free_.store(options_.search_threads - 1,
                           std::memory_order_relaxed);
  InitMetrics();
  query_workers_.reserve(static_cast<size_t>(options_.query_workers));
  for (int w = 0; w < options_.query_workers; ++w) {
    query_workers_.emplace_back([this] { QueryWorkerLoop(); });
  }
}

Engine::~Engine() {
  // Shutdown ordering (DESIGN.md §9). First stop epoch notifications —
  // RemoveEpochListener blocks until any in-flight callback returned, so
  // after it no store update can reach this engine — then stop the
  // dispatcher so nothing new gets scheduled.
  if (subs_started_.load(std::memory_order_acquire)) {
    store_->RemoveEpochListener(store_listener_id_);
    {
      util::MutexLock lock(subs_mu_);
      subs_shutdown_ = true;
    }
    subs_cv_.NotifyAll();
    subs_dispatcher_.join();
  }
  // Stop admissions, resolve everything still queued (racing workers
  // popping the tail is fine — each entry is obtained exactly once), then
  // wait out in-flight queries. Handles stay usable afterwards: their
  // tasks are all terminal; a queued subscription evaluation resolves
  // kCancelled here and its completion hook drops the revision.
  pending_.Shutdown();
  for (PriorityTaskQueue::Entry& entry : pending_.Drain()) {
    auto task = std::static_pointer_cast<QueryTask>(entry.payload);
    metrics_.sched_cancelled_queued->Add(1);
    FinishTask(*task,
               Status::Cancelled("engine destroyed before the query ran"));
  }
  for (std::thread& worker : query_workers_) worker.join();
  // Every producer is gone: terminate the subscriptions. Surviving
  // handles drain their buffers, then Next returns nullopt.
  std::vector<std::shared_ptr<SubscriptionState>> subs;
  {
    util::MutexLock lock(subs_mu_);
    subs.swap(subscriptions_);
  }
  for (const auto& sub : subs) {
    {
      util::MutexLock sub_lock(sub->mu);
      sub->cancelled = true;
    }
    sub->cv.NotifyAll();
  }
}

DccsAlgorithm Engine::ResolvedAlgorithm(const DccsRequest& request) const {
  if (request.algorithm != DccsAlgorithm::kAuto) return request.algorithm;
  // Depends only on the layer count, which is fixed across epochs, so
  // resolution is stable no matter which snapshot the query pins — and
  // needs no snapshot reference at all (safe against racing updates).
  return RecommendedAlgorithm(store_->num_layers(), request.params.s);
}

Status Engine::Validate(const DccsRequest& request) const {
  switch (request.algorithm) {
    case DccsAlgorithm::kGreedy:
    case DccsAlgorithm::kBottomUp:
    case DccsAlgorithm::kTopDown:
    case DccsAlgorithm::kAuto:
      break;
    default:
      return Status::InvalidArgument(
          "unknown DccsAlgorithm value " +
          std::to_string(static_cast<int>(request.algorithm)));
  }
  const DccsParams& p = request.params;
  switch (p.dcc_engine) {
    case DccEngine::kQueue:
    case DccEngine::kBins:
      break;
    default:
      return Status::InvalidArgument(
          "unknown DccEngine value " +
          std::to_string(static_cast<int>(p.dcc_engine)));
  }
  if (p.d < 0) {
    return Status::InvalidArgument("degree threshold d must be >= 0, got " +
                                   std::to_string(p.d));
  }
  if (p.s < 1) {
    return Status::InvalidArgument("support threshold s must be >= 1, got " +
                                   std::to_string(p.s));
  }
  if (p.k < 1) {
    return Status::InvalidArgument("result count k must be >= 1, got " +
                                   std::to_string(p.k));
  }
  const int32_t l = store_->num_layers();
  const DccsAlgorithm resolved = ResolvedAlgorithm(request);
  if ((resolved == DccsAlgorithm::kBottomUp ||
       resolved == DccsAlgorithm::kTopDown) &&
      l > 64) {
    // Structured rejection replacing the historical MLCORE_CHECK aborts in
    // the BU/TD entry points: the request names parameters this engine's
    // graph cannot satisfy, hence kInvalidArgument (not kUnsupported — the
    // 64-layer word-mask bound is a permanent contract of the lattice
    // searches, and the request is malformed *for this graph*).
    return Status::InvalidArgument(
        "the BU/TD lattice searches support at most 64 layers; graph has " +
        std::to_string(l));
  }
  if (resolved == DccsAlgorithm::kGreedy &&
      BinomialCoefficient(l, p.s) > kMaxGreedySubsets) {
    return Status::Unsupported(
        "C(" + std::to_string(l) + ", " + std::to_string(p.s) +
        ") candidate subsets are too many to materialise for GD-DCCS; "
        "this instance is intractable for the greedy algorithm regardless");
  }
  return Status::Ok();
}

Status Engine::Validate(const CommunityRequest& request) const {
  // Validated against a locally pinned current snapshot (never a bare
  // reference — updates may race); FindCommunity re-checks the vertex
  // range against its own pinned snapshot (vertex ids only grow, so the
  // check can only get more permissive between the two).
  std::shared_ptr<const GraphSnapshot> snap = store_->snapshot();
  const int32_t n = snap->graph().NumVertices();
  if (request.query < 0 || request.query >= n) {
    return Status::InvalidArgument(
        "query vertex " + std::to_string(request.query) +
        " outside [0, " + std::to_string(n) + ")");
  }
  if (request.d < 0) {
    return Status::InvalidArgument("degree threshold d must be >= 0, got " +
                                   std::to_string(request.d));
  }
  if (request.s < 1) {
    return Status::InvalidArgument("support threshold s must be >= 1, got " +
                                   std::to_string(request.s));
  }
  return Status::Ok();
}

QueryHandle Engine::Submit(const DccsRequest& request,
                           const SubmitOptions& options) {
  return SubmitTask(request, options, /*controllable=*/true);
}

QueryHandle Engine::SubmitTask(const DccsRequest& request,
                               const SubmitOptions& options,
                               bool controllable) {
  auto task = std::make_shared<QueryTask>();
  task->request = request;
  if constexpr (obs::kEnabled) {
    task->trace = std::make_unique<obs::Trace>();
  }
  {
    // The first traced stage. Parent 0: the "query.run" root only exists
    // once execution starts, so the submission-phase spans are top-level.
    obs::Span pin_span(task->trace.get(), "query.snapshot_pin");
    task->snapshot = store_->snapshot();
  }
  task->priority = options.priority;
  if (controllable || options.deadline_seconds > 0) {
    task->control =
        QueryControl::WithDeadline(task->token, options.deadline_seconds);
  }

  Status status = Validate(request);
  if (!status.ok()) {
    FinishTask(*task, std::move(status));
    return QueryHandle(std::move(task), this);
  }

  metrics_.sched_submitted->Add(1);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  switch (pending_.TryPush(options.priority, task, &id, &displaced)) {
    case PriorityTaskQueue::PushOutcome::kRejected:
      metrics_.sched_rejected->Add(1);
      FinishTask(*task,
                 Status::ResourceExhausted(
                     pending_.shut_down()
                         ? "engine shutting down; no new queries admitted"
                         : "pending queue full (" +
                               std::to_string(pending_.capacity()) +
                               " queries) with no lower-priority entry to "
                               "displace"));
      return QueryHandle(std::move(task), this);
    case PriorityTaskQueue::PushOutcome::kAcceptedDisplacing: {
      metrics_.sched_displaced->Add(1);
      auto victim = std::static_pointer_cast<QueryTask>(displaced.payload);
      FinishTask(*victim,
                 Status::ResourceExhausted(
                     "displaced from the pending queue by a "
                     "higher-priority request"));
      break;
    }
    case PriorityTaskQueue::PushOutcome::kAccepted:
      break;
  }
  metrics_.sched_admitted->Add(1);
  // A worker may already have popped (and even finished) the task; the
  // stale ticket is harmless — TryRemove on it simply fails.
  task->queue_id.store(id, std::memory_order_release);
  return QueryHandle(std::move(task), this);
}

std::vector<QueryHandle> Engine::SubmitBatch(
    std::span<const DccsRequest> requests, const SubmitOptions& options) {
  std::vector<QueryHandle> handles;
  handles.reserve(requests.size());
  for (const DccsRequest& request : requests) {
    handles.push_back(Submit(request, options));
  }
  return handles;
}

Expected<DccsResult> Engine::Run(const DccsRequest& request) {
  // Submit + Wait: the calling thread immediately claims its own query if
  // no worker got there first, so synchronous callers keep the historical
  // run-on-caller concurrency (N concurrent Runs execute N-wide regardless
  // of Options::query_workers).
  // controllable = false: the handle never escapes, so the query is
  // provably uncancellable and deadline-free — it executes with a null
  // control, at exactly the PR-2 synchronous cost (no checkpoint loads,
  // blocking cache waits instead of cancellation polling).
  QueryHandle handle = SubmitTask(request, SubmitOptions{},
                                  /*controllable=*/false);
  const Expected<DccsResult>& outcome = handle.Wait();
  if (!outcome.ok() &&
      outcome.status().code == StatusCode::kResourceExhausted) {
    // Admission shed the task (full queue, or displaced by a
    // higher-priority submission before we claimed it). A *blocking*
    // caller is its own backpressure — it holds one query per blocked
    // thread, not an unbounded backlog — so instead of surfacing the shed,
    // run inline on this thread. Keeps the PR-2 contract: Run fails only
    // on validation, never on load. (The request already passed Validate,
    // or Submit would have returned kInvalidArgument/kUnsupported.)
    metrics_.sched_executed->Add(1);
    obs::Trace* trace = handle.task_->trace.get();
    Expected<DccsResult> inline_outcome =
        RunValidated(request, handle.task_->snapshot,
                     util::UniqueLock(pool_mu_, util::kTryToLock),
                     /*control=*/nullptr, trace);
    OfferTrace(request, handle.task_->snapshot->epoch(), trace);
    return inline_outcome;
  }
  util::MutexLock lock(handle.task_->mu);
  return std::move(*handle.task_->result);
}

void Engine::ExecuteTask(const std::shared_ptr<QueryTask>& task) {
  // Resolve queued-phase stops before paying for anything: cancellation
  // wins ties, and a deadline that expired pre-execution yields
  // kDeadlineExceeded (there is no anytime prefix to serve yet).
  const QueryStop pre = task->control.Check();
  if (pre == QueryStop::kCancelled) {
    metrics_.sched_cancelled_queued->Add(1);
    FinishTask(*task, Status::Cancelled("query cancelled while queued"));
    return;
  }
  if (pre == QueryStop::kDeadline) {
    metrics_.sched_expired_queued->Add(1);
    FinishTask(*task,
               Status::DeadlineExceeded("deadline expired while queued"));
    return;
  }
  metrics_.sched_executed->Add(1);
  obs::Trace* trace = task->trace.get();
  if (trace != nullptr) {
    // Admission wait: submission (trace creation) to this claim, which
    // also covers validation and the snapshot pin. Committed manually —
    // the waiting happened across threads, not on one stopwatch.
    const double wait_ms = trace->AgeMs();
    trace->Add("query.admission_wait", /*parent=*/0, /*start_ms=*/0.0,
               wait_ms);
    metrics_.query_admission_wait_ms->Record(wait_ms);
  }
  // Use the shared pool if it is free; a busy pool (another query's stage
  // or a batch) degrades this query's parallel stages to sequential, which
  // by the DESIGN.md §4 contract cannot change its result. An inactive
  // control (Run's uncancellable tasks) executes as the null control so
  // the stages skip checkpoint costs entirely.
  Expected<DccsResult> outcome =
      RunValidated(task->request, task->snapshot,
                   util::UniqueLock(pool_mu_, util::kTryToLock),
                   task->control.active() ? &task->control : nullptr, trace);
  // Offer the (now quiescent) trace before FinishTask wakes the waiter:
  // a caller that reads stats_report() right after Wait() returns must
  // see this query in the slow log.
  OfferTrace(task->request, task->snapshot->epoch(), trace);
  FinishTask(*task, std::move(outcome));
}

void Engine::FinishTask(QueryTask& task, Expected<DccsResult> result) {
  {
    util::MutexLock lock(task.mu);
    MLCORE_DCHECK_MSG(!task.done, "query task resolved twice");
    task.result.emplace(std::move(result));
    task.done = true;
  }
  // The ticket is dead: later Wait/Cancel calls short-circuit instead of
  // scanning the queue for an entry that cannot be there.
  task.queue_id.store(0, std::memory_order_release);
  task.cv.NotifyAll();
  if (task.on_done != nullptr) task.on_done(task);
}

void Engine::AwaitTask(const std::shared_ptr<QueryTask>& task) {
  const uint64_t id = task->queue_id.load(std::memory_order_acquire);
  if (id != 0) {
    PriorityTaskQueue::Entry entry;
    if (pending_.TryRemove(id, &entry)) {
      // Still queued: the waiter donates its own thread instead of
      // blocking on a busy worker (this is what keeps Run's concurrency
      // independent of Options::query_workers).
      ExecuteTask(task);
      return;
    }
  }
  util::MutexLock lock(task->mu);
  while (!task->done) task->cv.Wait(task->mu);
}

void Engine::CancelTask(const std::shared_ptr<QueryTask>& task) {
  task->token.RequestCancel();
  const uint64_t id = task->queue_id.load(std::memory_order_acquire);
  if (id != 0) {
    PriorityTaskQueue::Entry entry;
    if (pending_.TryRemove(id, &entry)) {
      metrics_.sched_cancelled_queued->Add(1);
      FinishTask(*task, Status::Cancelled("query cancelled while queued"));
    }
  }
  // Running tasks observe the token at their next cooperative checkpoint;
  // finished tasks are unaffected.
}

void Engine::ResolveIfExpiredQueued(const std::shared_ptr<QueryTask>& task) {
  // Only a pure deadline expiry resolves here; a cancelled-while-queued
  // task without a Cancel() call resolves at claim time, as documented on
  // QueryHandle::token.
  if (!task->control.has_deadline() ||
      task->control.Check() != QueryStop::kDeadline) {
    return;
  }
  const uint64_t id = task->queue_id.load(std::memory_order_acquire);
  if (id == 0) return;
  PriorityTaskQueue::Entry entry;
  if (pending_.TryRemove(id, &entry)) {
    metrics_.sched_expired_queued->Add(1);
    FinishTask(*task,
               Status::DeadlineExceeded("deadline expired while queued"));
  }
}

void Engine::QueryWorkerLoop() {
  PriorityTaskQueue::Entry entry;
  while (pending_.WaitPop(&entry)) {
    ExecuteTask(std::static_pointer_cast<QueryTask>(entry.payload));
    entry.payload.reset();
  }
}

std::vector<Expected<DccsResult>> Engine::RunBatch(
    std::span<const DccsRequest> requests) {
  const size_t n = requests.size();
  std::vector<Status> statuses(n);
  for (size_t i = 0; i < n; ++i) statuses[i] = Validate(requests[i]);
  // One snapshot for the whole batch: every slot answers from the same
  // epoch even when updates land mid-batch.
  std::shared_ptr<const GraphSnapshot> snap = store_->snapshot();

  // Fan the valid requests out over the pool. Each slot is written by
  // exactly one worker and queries never read each other's output, so the
  // batch obeys the §4 determinism rules; cache misses shared between
  // queries are computed once (per-entry build states) with every waiter
  // receiving the same bits. Workers get pool = nullptr: ParallelFor is not
  // reentrant, and sequential inner stages cannot change results. Batch
  // slots run uncontrolled (control = nullptr), so every slot is a value.
  std::vector<std::optional<Expected<DccsResult>>> slots(n);
  {
    util::MutexLock pool_lock(pool_mu_);
    pool_.ParallelFor(static_cast<int64_t>(n), [&](int /*worker*/,
                                                   int64_t i) {
      const auto slot = static_cast<size_t>(i);
      if (!statuses[slot].ok()) return;
      slots[slot] = RunValidated(requests[slot], snap, util::UniqueLock(),
                                 /*control=*/nullptr, /*trace=*/nullptr);
    });
  }

  // Sequential merge in request order.
  std::vector<Expected<DccsResult>> responses;
  responses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (statuses[i].ok()) {
      responses.emplace_back(std::move(*slots[i]));
    } else {
      responses.emplace_back(std::move(statuses[i]));
    }
  }
  return responses;
}

Expected<CommunitySearchResult> Engine::FindCommunity(
    const CommunityRequest& request) {
  std::shared_ptr<const GraphSnapshot> snap = store_->snapshot();
  Status status = Validate(request);
  if (!status.ok()) return status;
  const MultiLayerGraph& graph = snap->graph();
  if (request.query >= graph.NumVertices()) {
    // The current snapshot moved past the one we pinned; re-anchor the
    // range check to the pinned graph.
    return Status::InvalidArgument(
        "query vertex " + std::to_string(request.query) + " outside [0, " +
        std::to_string(graph.NumVertices()) + ")");
  }
  if (request.s > graph.NumLayers()) return CommunitySearchResult{};

  util::UniqueLock pool_lock(pool_mu_, util::kTryToLock);
  std::shared_ptr<const BaseCoresEntry> base = GetBaseCores(
      snap, request.d, pool_lock.OwnsLock() ? &pool_ : nullptr);
  // The greedy layer extension below is sequential; free the pool first.
  if (pool_lock.OwnsLock()) pool_lock.Unlock();
  SolverLease solver(this, snap->graph_ptr());
  return SearchCommunityWithCores(graph, base->cores, *solver.get(),
                                  request.query, request.d, request.s);
}

// --------------------------------------------------------------------------
// Continuous queries (Engine::Subscribe, DESIGN.md §9)
// --------------------------------------------------------------------------

Expected<Subscription> Engine::Subscribe(const DccsRequest& request,
                                         const SubscriptionOptions& options) {
  Status status = Validate(request);
  if (!status.ok()) return status;
  EnsureSubscriptionInfra();

  auto sub = std::make_shared<SubscriptionState>();
  sub->request = request;
  sub->priority = options.priority;
  sub->max_buffered =
      static_cast<size_t>(std::max(1, options.max_buffered_revisions));
  sub->emit_unchanged = options.emit_unchanged;
  sub->on_revision = options.on_revision;
  {
    util::MutexLock lock(subs_mu_);
    if (subs_shutdown_) {
      return Status::ResourceExhausted(
          "engine shutting down; no new subscriptions admitted");
    }
    subscriptions_.push_back(sub);
    subs_dirty_ = true;  // the dispatcher owes the initial revision
  }
  subs_cv_.NotifyAll();
  return Subscription(std::move(sub));
}

void Engine::EnsureSubscriptionInfra() {
  // Deliberately outside subs_mu_: AddEpochListener takes the store's
  // listener lock, which the listener invocation path holds while taking
  // subs_mu_ — acquiring them here in the opposite order would deadlock.
  std::call_once(subs_init_once_, [this] {
    store_listener_id_ = store_->AddEpochListener(
        [this](const std::shared_ptr<const GraphSnapshot>&) {
          PingDispatcher();
        });
    subs_dispatcher_ = std::thread([this] { SubscriptionDispatcherLoop(); });
    subs_started_.store(true, std::memory_order_release);
  });
}

void Engine::PingDispatcher() {
  {
    util::MutexLock lock(subs_mu_);
    subs_dirty_ = true;
  }
  subs_cv_.NotifyAll();
}

void Engine::SubscriptionDispatcherLoop() {
  util::MutexLock lock(subs_mu_);
  while (true) {
    while (!subs_shutdown_ && !subs_dirty_) subs_cv_.Wait(subs_mu_);
    if (subs_shutdown_) return;
    subs_dirty_ = false;
    // Prune cancelled subscriptions, snapshot the live list, and release
    // subs_mu_ for the actual work: Subscribe/Cancel and ApplyUpdate's
    // listener never wait on an evaluation.
    std::erase_if(subscriptions_, [](const auto& sub) {
      util::MutexLock sub_lock(sub->mu);
      return sub->cancelled && !sub->busy;
    });
    std::vector<std::shared_ptr<SubscriptionState>> live = subscriptions_;
    lock.Unlock();
    const std::shared_ptr<const GraphSnapshot> snap = store_->snapshot();
    for (const auto& sub : live) {
      // Dispatch-decision latency — the "dispatch" stage of the §9
      // pipeline (a null-trace Span is just a stopwatch). Unchanged-skips
      // and no-ops record too: the histogram answers "how long does the
      // dispatcher spend per subscription per scan".
      obs::Span dispatch_span(nullptr, "subs.dispatch");
      DispatchSubscription(sub, snap);
      metrics_.subs_dispatch_ms->Record(dispatch_span.wall_seconds() * 1e3);
    }
    lock.Lock();
  }
}

void Engine::DispatchSubscription(
    const std::shared_ptr<SubscriptionState>& sub,
    const std::shared_ptr<const GraphSnapshot>& snap) {
  std::shared_ptr<QueryTask> task;
  std::shared_ptr<DccsResult> unchanged_result;
  uint64_t generation = 0;
  {
    util::MutexLock sub_lock(sub->mu);
    if (sub->cancelled || sub->busy) return;
    if (sub->has_epoch && sub->last_epoch >= snap->epoch()) return;
    generation = snap->core_generation(sub->request.params.d);
    if (sub->has_result && generation == sub->last_generation) {
      // Unchanged skip — the generational-key payoff of DESIGN.md §8: the
      // (d, s) answer depends only on the per-layer d-core-induced
      // subgraphs, whose generation did not move across these epochs, so
      // the previous result is *proven* current. No preprocessing, no
      // search, no scheduler traffic.
      sub->last_epoch = snap->epoch();
      sub->has_epoch = true;
      metrics_.revisions_unchanged_skipped->Add(1);
      if (!sub->emit_unchanged) return;
      unchanged_result = std::make_shared<DccsResult>(*sub->last_result);
      unchanged_result->epoch = snap->epoch();
      // The revision did (near) zero work; its timing says so. Everything
      // else — cores, search-effort counters — is the proven-current
      // payload of the last evaluation.
      unchanged_result->stats.preprocess_seconds = 0.0;
      unchanged_result->stats.search_seconds = 0.0;
      unchanged_result->stats.total_seconds = 0.0;
      sub->busy = true;  // spans the emission (and callback delivery)
    } else {
      sub->busy = true;
    }
  }
  if (unchanged_result != nullptr) {
    const uint64_t epoch = unchanged_result->epoch;
    FinishRevision(sub, epoch, std::move(unchanged_result), generation,
                   /*unchanged=*/true);
    return;
  }

  // Re-evaluation through the admission queue at subscription priority.
  task = std::make_shared<QueryTask>();
  task->request = sub->request;
  if constexpr (obs::kEnabled) {
    task->trace = std::make_unique<obs::Trace>();
  }
  task->snapshot = snap;
  task->priority = sub->priority;
  task->token = sub->token;
  task->control = QueryControl(sub->token, std::nullopt);
  task->on_done = [this, sub, generation](QueryTask& done) {
    CompleteSubscriptionEval(sub, generation, done);
  };

  metrics_.sched_submitted->Add(1);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  switch (pending_.TryPush(sub->priority, task, &id, &displaced)) {
    case PriorityTaskQueue::PushOutcome::kRejected:
      // Shed (queue full of equal-or-higher-priority work): run inline on
      // the dispatcher thread — the dispatcher is its own backpressure,
      // mirroring Run's never-fail-on-load contract, so a standing query
      // is never silently starved. The cost is head-of-line blocking:
      // while this evaluation runs, no other subscription is dispatched
      // (not even unchanged-skips), bounded by one evaluation per shed —
      // acceptable because sheds only happen when the engine is already
      // saturated with equal-or-higher-priority work.
      metrics_.sched_rejected->Add(1);
      metrics_.sched_executed->Add(1);
      {
        Expected<DccsResult> shed_outcome =
            RunValidated(task->request, snap,
                         util::UniqueLock(pool_mu_, util::kTryToLock),
                         &task->control, task->trace.get());
        // Offer before FinishTask delivers the revision, as ExecuteTask
        // does: the subscriber must see this eval in the slow log.
        OfferTrace(task->request, snap->epoch(), task->trace.get());
        FinishTask(*task, std::move(shed_outcome));
      }
      return;
    case PriorityTaskQueue::PushOutcome::kAcceptedDisplacing: {
      metrics_.sched_displaced->Add(1);
      auto victim = std::static_pointer_cast<QueryTask>(displaced.payload);
      FinishTask(*victim,
                 Status::ResourceExhausted(
                     "displaced from the pending queue by a "
                     "higher-priority request"));
      break;
    }
    case PriorityTaskQueue::PushOutcome::kAccepted:
      break;
  }
  metrics_.sched_admitted->Add(1);
  task->queue_id.store(id, std::memory_order_release);
  if (options_.query_workers == 0) {
    // No dedicated workers: claim the evaluation back and run it here
    // (the same waiter-donation path Wait uses), otherwise it would sit
    // queued forever.
    AwaitTask(task);
  }
}

void Engine::CompleteSubscriptionEval(
    const std::shared_ptr<SubscriptionState>& sub, uint64_t generation,
    QueryTask& task) {
  // Extract the outcome under task.mu and release before touching the
  // subscription: task.mu is a leaf (it ranks above sub->mu), so holding
  // it across FinishRevision would invert the documented lock order.
  std::shared_ptr<DccsResult> result;
  {
    util::MutexLock lock(task.mu);
    Expected<DccsResult>& outcome = *task.result;
    if (outcome.ok()) {
      // The task never escaped as a handle, so the terminal result is
      // ours to move from.
      result = std::make_shared<DccsResult>(std::move(outcome).value());
    }
  }
  if (result != nullptr) {
    // Re-evaluation latency — the "re-eval" stage of the §9 pipeline (the
    // evaluation's own RunValidated wall time).
    metrics_.subs_reeval_ms->Record(result->stats.total_seconds * 1e3);
    const uint64_t epoch = result->epoch;
    FinishRevision(sub, epoch, std::move(result), generation,
                   /*unchanged=*/false);
    return;
  }
  // Dropped evaluation: kCancelled (subscription Cancel, or engine
  // teardown resolving the queue) produces nothing; kResourceExhausted
  // (displaced by a higher-priority submission) also produces nothing but
  // the dispatcher wake below retries it, since last_epoch never moved.
  FinishRevision(sub, 0, nullptr, generation, /*unchanged=*/false);
}

void Engine::FinishRevision(const std::shared_ptr<SubscriptionState>& sub,
                            uint64_t epoch,
                            std::shared_ptr<const DccsResult> result,
                            uint64_t generation, bool unchanged) {
  static const DccsResult kEmptyResult;
  // Delivery latency — the final §9 pipeline stage: delta computation plus
  // buffer push (with coalescing) or callback invocation.
  obs::Span delivery_span(nullptr, "subs.delivery");
  const bool produced = result != nullptr;
  std::optional<ResultRevision> deliver;
  {
    util::MutexLock sub_lock(sub->mu);
    if (result != nullptr && !sub->cancelled) {
      ResultRevision rev;
      rev.epoch = epoch;
      rev.sequence = sub->next_sequence++;
      rev.unchanged = unchanged;
      if (sub->on_revision != nullptr) {
        // Callback mode: no buffer, no coalescing — delivery is immediate
        // and `busy` spans it, so invocations are serialised in order.
        const DccsResult& base =
            sub->last_result != nullptr ? *sub->last_result : kEmptyResult;
        rev.delta = ComputeResultDelta(base, *result);
        rev.result = *result;
        deliver = std::move(rev);
      } else {
        int64_t folded = 0;
        if (sub->buffer.size() >= sub->max_buffered) {
          // Latest-epoch-wins: fold the newest *buffered* revision into
          // this one. The delta below re-anchors to the stream revision
          // before the folded step, so the chain stays consistent.
          folded = sub->buffer.back().revision.coalesced + 1;
          sub->buffer.pop_back();
          metrics_.revisions_coalesced->Add(1);
        }
        const DccsResult* base = &kEmptyResult;
        if (!sub->buffer.empty()) {
          base = sub->buffer.back().result.get();
        } else if (sub->delivered_base != nullptr) {
          base = sub->delivered_base.get();
        }
        rev.coalesced = folded;
        rev.delta = ComputeResultDelta(*base, *result);
        sub->buffer.push_back(
            SubscriptionState::BufferedRevision{std::move(rev), result});
      }
      sub->last_result = std::move(result);
      sub->has_result = true;
      sub->last_generation = generation;
      if (!sub->has_epoch || epoch > sub->last_epoch) {
        sub->last_epoch = epoch;
        sub->has_epoch = true;
      }
      metrics_.revisions_emitted->Add(1);
    }
    if (!deliver.has_value()) sub->busy = false;
  }
  sub->cv.NotifyAll();
  if (deliver.has_value()) {
    sub->on_revision(*deliver);
    {
      util::MutexLock sub_lock(sub->mu);
      sub->busy = false;
    }
    sub->cv.NotifyAll();
  }
  if (produced) {
    metrics_.subs_delivery_ms->Record(delivery_span.wall_seconds() * 1e3);
  }
  // Another epoch may have published while this one was in flight (or a
  // dropped evaluation needs a retry): let the dispatcher re-scan.
  PingDispatcher();
}

Expected<DccsResult> Engine::RunValidated(
    const DccsRequest& request,
    const std::shared_ptr<const GraphSnapshot>& snap,
    util::UniqueLock pool_lock, const QueryControl* control,
    obs::Trace* trace) {
  // The root span's stopwatch is the query's total timer in every build (a
  // null-trace or disabled Span still ticks); early returns commit it via
  // the destructor.
  obs::Span run_span(trace, "query.run");
  const DccsParams& params = request.params;
  const DccsAlgorithm algorithm = ResolvedAlgorithm(request);
  const MultiLayerGraph& graph = snap->graph();
  ThreadPool* pool = pool_lock.OwnsLock() ? &pool_ : nullptr;

  DccsResult result;
  result.epoch = snap->epoch();
  if (params.s > graph.NumLayers()) {
    // Valid but vacuous (no size-s layer subset exists); keep the cache
    // untouched, matching the algorithms' own early return.
    result.stats.total_seconds = run_span.wall_seconds();
    return result;
  }

  // Acquire (or build) every cacheable stage. The acquisition wall time is
  // reported as this query's preprocess_seconds: on a cold cache it is the
  // §IV-C (+ index/seed) build time, on a hit it is microseconds. The
  // algorithms skip their own "query.preprocess" span when exec.preprocess
  // is supplied, so this is *the* preprocess span of an engine query.
  obs::Span acquire_span(trace, "query.preprocess", run_span.id());
  QueryStop stop = QueryStop::kNone;
  std::shared_ptr<QueryEntry> entry = GetQueryEntry(
      snap, params.d, params.s, params.vertex_deletion, pool, control, &stop);
  if (entry == nullptr) {
    // Stopped before preprocessing published: nothing was cached, nothing
    // can be served. (A deadline this early has no anytime prefix.)
    return stop == QueryStop::kCancelled
               ? Status::Cancelled("query cancelled during preprocessing")
               : Status::DeadlineExceeded(
                     "deadline expired during preprocessing");
  }
  // Pooled greedy draws all its lane solvers from WorkerSolvers and has no
  // InitTopK stage, so only the other paths lease a free-list solver.
  const bool pooled_greedy =
      algorithm == DccsAlgorithm::kGreedy && pool != nullptr;
  std::optional<SolverLease> solver;
  if (!pooled_greedy) solver.emplace(this, snap->graph_ptr());
  // Checkpoint between preprocessing and the seed/index builds (each of
  // which always publishes a complete artifact once started).
  if (control != nullptr &&
      (stop = control->Check()) != QueryStop::kNone) {
    return stop == QueryStop::kCancelled
               ? Status::Cancelled("query cancelled before the search phase")
               : Status::DeadlineExceeded(
                     "deadline expired before the search phase");
  }
  std::shared_ptr<const InitSeeds> seeds;
  std::shared_ptr<const CoverageIndex> seeded_topk;
  if (algorithm != DccsAlgorithm::kGreedy && params.init_result) {
    seeds = GetSeeds(graph, *entry, params, *solver->get(), &seeded_topk);
  }
  const VertexLevelIndex* index = nullptr;
  if (algorithm == DccsAlgorithm::kTopDown) {
    index = GetIndex(graph, *entry, params.d);
  }
  const double acquire_seconds = acquire_span.wall_seconds();
  acquire_span.End();

  // Preprocessing is behind us; only GD-DCCS's candidate fan-out still
  // wants workers. Release the pool for everyone else so a long
  // sequential BU/TD search never blocks other queries' parallel stages.
  if (algorithm != DccsAlgorithm::kGreedy && pool_lock.OwnsLock()) {
    pool_lock.Unlock();
    pool = nullptr;
  }

  DccsExecution exec;
  exec.preprocess = &entry->preprocess;
  exec.seeds = seeds.get();
  exec.seeded_topk = seeded_topk.get();
  exec.index = index;
  exec.solver = solver.has_value() ? solver->get() : nullptr;
  exec.pool = pool;
  exec.control = control;
  exec.trace = trace;
  exec.trace_parent = run_span.id();
  std::optional<WorkerSolvers> worker_solvers;
  if (pooled_greedy) {
    worker_solvers.emplace(this, snap->graph_ptr(), pool->num_threads());
    exec.worker_solver = [&ws = *worker_solvers](int worker) {
      return ws.Get(worker);
    };
  }

  // Parallel search phase (DESIGN.md §10): the lattice searches reuse the
  // entry's cached layer order and borrow worker lanes from the engine-wide
  // budget. How many lanes a query actually gets cannot change its result
  // (the §4/§10 determinism contract), so the borrow needs no fairness —
  // whatever is free right now.
  int extra_lanes = 0;
  const bool lattice_search = algorithm == DccsAlgorithm::kBottomUp ||
                              algorithm == DccsAlgorithm::kTopDown;
  if (lattice_search) {
    if (params.sort_layers) {
      exec.layer_order = GetLayerOrder(
          *entry, /*descending=*/algorithm == DccsAlgorithm::kBottomUp);
    }
    extra_lanes = BorrowSearchLanes(options_.search_threads - 1);
    exec.search_threads = 1 + extra_lanes;
    if (extra_lanes > 0) {
      worker_solvers.emplace(this, snap->graph_ptr(), 1 + extra_lanes);
      exec.worker_solver = [&ws = *worker_solvers](int worker) {
        return ws.Get(worker);
      };
    }
  }

  switch (algorithm) {
    case DccsAlgorithm::kGreedy:
      result = GreedyDccs(graph, params, exec);
      break;
    case DccsAlgorithm::kBottomUp:
      result = BottomUpDccs(graph, params, exec);
      break;
    case DccsAlgorithm::kTopDown:
      result = TopDownDccs(graph, params, exec);
      break;
    case DccsAlgorithm::kAuto: {
      // Unreachable: ResolvedAlgorithm ran before dispatch. Debug builds
      // assert; release builds fail the request instead of aborting a
      // serving process.
      MLCORE_DCHECK_MSG(false, "kAuto must be resolved before dispatch");
      ReturnSearchLanes(extra_lanes);
      return Status::InvalidArgument(
          "kAuto must be resolved before dispatch");
    }
  }
  ReturnSearchLanes(extra_lanes);
  if (result.stats.stopped == QueryStop::kCancelled) {
    // A cancelled search's partial top-k is discarded, never served; the
    // caches it read (and any completed artifacts it built) stay valid.
    return Status::Cancelled("query cancelled mid-search");
  }
  // kDeadline / kBudget mid-search fall through as OK: the anytime
  // best-so-far prefix with stats.budget_exhausted set — the unified
  // deadline policy of DESIGN.md §7.
  result.epoch = snap->epoch();  // the dispatch above rebuilt `result`
  result.stats.preprocess_seconds = acquire_seconds;
  result.stats.total_seconds = run_span.wall_seconds();
  metrics_.query_preprocess_ms->Record(acquire_seconds * 1e3);
  metrics_.query_preprocess_ms_global->Record(acquire_seconds * 1e3);
  metrics_.query_search_ms->Record(result.stats.search_seconds * 1e3);
  metrics_.query_search_ms_global->Record(result.stats.search_seconds * 1e3);
  metrics_.query_total_ms->Record(result.stats.total_seconds * 1e3);
  metrics_.query_total_ms_global->Record(result.stats.total_seconds * 1e3);
  return result;
}

std::shared_ptr<const Engine::BaseCoresEntry> Engine::GetBaseCores(
    const std::shared_ptr<const GraphSnapshot>& snap, int d,
    ThreadPool* pool) {
  const TrackedCores* tracked = snap->tracked(d);
  // Tracked degrees key on the core-subgraph generation (identical cores
  // whenever it matches — the maintained membership cannot have changed);
  // untracked degrees key on the epoch, with per-layer reuse inside the
  // build below.
  const uint64_t generation =
      tracked != nullptr ? tracked->generation : snap->epoch();
  const std::pair<int, uint64_t> key{d, generation};

  std::shared_ptr<BaseCoresEntry> entry;
  std::shared_ptr<BaseCoresEntry> prev;
  {
    util::MutexLock lock(cache_mu_);
    auto it = base_cores_.find(key);
    if (it != base_cores_.end()) {
      entry = it->second;
      metrics_.base_core_hits->Add(1);
    } else {
      // The map orders by (d, generation): the entry directly below `key`
      // with the same d is the newest older generation — the donor for
      // unchanged layers.
      auto below = base_cores_.lower_bound(key);
      if (below != base_cores_.begin()) {
        --below;
        if (below->first.first == d) prev = below->second;
      }
      entry = std::make_shared<BaseCoresEntry>();
      base_cores_[key] = entry;
      metrics_.base_core_misses->Add(1);
    }
    base_cores_last_use_[key] = ++use_clock_;
    EvictLru(base_cores_, base_cores_last_use_,
             static_cast<size_t>(options_.max_cached_queries));
  }
  std::call_once(entry->once, [&] {
    const MultiLayerGraph& graph = snap->graph();
    const auto l = static_cast<int64_t>(graph.NumLayers());
    entry->num_vertices = graph.NumVertices();
    entry->layer_gens.resize(static_cast<size_t>(l));
    for (int64_t layer = 0; layer < l; ++layer) {
      entry->layer_gens[static_cast<size_t>(layer)] =
          snap->layer_generation(static_cast<LayerId>(layer));
    }
    entry->cores.assign(static_cast<size_t>(l), VertexSet());
    if (tracked != nullptr) {
      // Served wholesale from the store's incrementally maintained cores.
      for (int64_t layer = 0; layer < l; ++layer) {
        entry->cores[static_cast<size_t>(layer)] =
            *tracked->cores[static_cast<size_t>(layer)];
      }
      metrics_.base_core_store_served->Add(1);
    } else {
      // Per-layer generational reuse: copy layers whose content is
      // unchanged since the donor entry; recompute the rest. The plan is
      // fixed before the (possibly parallel) fill, so results cannot
      // depend on the thread count (§4 rules).
      const BaseCoresEntry* donor =
          prev != nullptr && prev->ready.load(std::memory_order_acquire) &&
                  prev->num_vertices == graph.NumVertices()
              ? prev.get()
              : nullptr;
      int64_t reused = 0, recomputed = 0;
      std::vector<uint8_t> reuse_layer(static_cast<size_t>(l), 0);
      for (int64_t layer = 0; layer < l; ++layer) {
        if (donor != nullptr &&
            donor->layer_gens[static_cast<size_t>(layer)] ==
                entry->layer_gens[static_cast<size_t>(layer)]) {
          reuse_layer[static_cast<size_t>(layer)] = 1;
          ++reused;
        } else {
          ++recomputed;
        }
      }
      auto compute_layer = [&](int /*worker*/, int64_t layer) {
        if (reuse_layer[static_cast<size_t>(layer)] != 0) {
          entry->cores[static_cast<size_t>(layer)] =
              donor->cores[static_cast<size_t>(layer)];
        } else {
          entry->cores[static_cast<size_t>(layer)] =
              DCore(graph, static_cast<LayerId>(layer), d);
        }
      };
      if (pool != nullptr) {
        pool->ParallelFor(l, compute_layer);
      } else {
        for (int64_t layer = 0; layer < l; ++layer) compute_layer(0, layer);
      }
      metrics_.base_core_layers_reused->Add(reused);
      metrics_.base_core_layers_recomputed->Add(recomputed);
    }
    entry->ready.store(true, std::memory_order_release);
  });
  return entry;
}

std::shared_ptr<Engine::QueryEntry> Engine::GetQueryEntry(
    const std::shared_ptr<const GraphSnapshot>& snap, int d, int s,
    bool vertex_deletion, ThreadPool* pool, const QueryControl* control,
    QueryStop* stop) {
  // The §IV-C fixpoint (and the index/seeds living inside the entry)
  // depends only on the per-layer d-core-induced subgraphs, so a tracked
  // d keys on the store's core-subgraph generation — updates that never
  // touch those subgraphs keep the whole bundle warm across epochs
  // (DESIGN.md §8). Untracked degrees key on the epoch.
  const std::tuple<uint64_t, int, int, bool> key{snap->core_generation(d), d,
                                                 s, vertex_deletion};
  std::shared_ptr<QueryEntry> entry;
  {
    util::MutexLock lock(cache_mu_);
    auto it = queries_.find(key);
    if (it != queries_.end()) {
      entry = it->second;
    } else {
      entry = std::make_shared<QueryEntry>();
      queries_[key] = entry;
    }
    queries_last_use_[key] = ++use_clock_;
    EvictLru(queries_, queries_last_use_,
             static_cast<size_t>(options_.max_cached_queries));
  }

  // Build-or-wait-with-retry (see QueryEntry). Hits and misses are counted
  // at *resolution* — found published vs. built-and-published — so a query
  // stopped before publication moves no counter, matching the
  // publish-or-nothing contract for contents.
  util::MutexLock lock(entry->mu);
  while (true) {
    if (entry->ready) {
      metrics_.preprocess_hits->Add(1);
      return entry;
    }
    if (!entry->building) break;
    if (control != nullptr) {
      // Poll our own control while someone else builds, so cancelling a
      // *waiter* never blocks on the builder's (possibly long) rounds.
      entry->cv.WaitFor(entry->mu, std::chrono::milliseconds(5));
      *stop = control->Check();
      if (*stop != QueryStop::kNone) return nullptr;
    } else {
      entry->cv.Wait(entry->mu);
    }
  }

  entry->building = true;
  lock.Unlock();

  PreprocessResult built;
  QueryStop build_stop =
      control != nullptr ? control->Check() : QueryStop::kNone;
  if (build_stop == QueryStop::kNone) {
    // Base cores always publish a complete artifact once started; the
    // fixpoint checkpoints per deletion round.
    std::shared_ptr<const BaseCoresEntry> base = GetBaseCores(snap, d, pool);
    built = Preprocess(snap->graph(), d, s, vertex_deletion, pool,
                       &base->cores, control);
    build_stop = built.stopped;
  }

  lock.Lock();
  entry->building = false;
  if (build_stop != QueryStop::kNone) {
    // Abandoned build: publish nothing. A waiter (or the next query on
    // this key) rebuilds from scratch; `built`'s partial contents die here.
    lock.Unlock();
    entry->cv.NotifyAll();
    *stop = build_stop;
    return nullptr;
  }
  entry->preprocess = std::move(built);
  entry->ready = true;
  lock.Unlock();
  entry->cv.NotifyAll();
  metrics_.preprocess_misses->Add(1);
  return entry;
}

std::shared_ptr<const InitSeeds> Engine::GetSeeds(
    const MultiLayerGraph& graph, QueryEntry& entry, const DccsParams& params,
    DccSolver& solver, std::shared_ptr<const CoverageIndex>* seeded_topk) {
  const std::pair<int, int> key{params.k,
                                static_cast<int>(params.dcc_engine)};
  util::MutexLock lock(entry.seeds_mu);
  auto it = entry.seeds.find(key);
  if (it != entry.seeds.end()) {
    *seeded_topk = entry.seeded.at(key);
    metrics_.seed_hits->Add(1);
    return it->second;
  }
  auto seeds = std::make_shared<InitSeeds>(
      ComputeInitSeeds(graph, params, entry.preprocess, solver));
  // The prototype is cached alongside the capture it was replayed from —
  // one replay per key ever; every query starts from a copy.
  auto proto = std::make_shared<CoverageIndex>(params.k);
  ReplayInitSeeds(*seeds, *proto);
  entry.seeds[key] = seeds;
  entry.seeded[key] = proto;
  *seeded_topk = std::move(proto);
  metrics_.seed_misses->Add(1);
  return seeds;
}

const VertexLevelIndex* Engine::GetIndex(const MultiLayerGraph& graph,
                                         QueryEntry& entry, int d) {
  bool built = false;
  std::call_once(entry.index_once, [&] {
    entry.index = std::make_unique<VertexLevelIndex>(graph, d,
                                                     entry.preprocess.active);
    built = true;
  });
  if (built) {
    metrics_.index_misses->Add(1);
  } else {
    metrics_.index_hits->Add(1);
  }
  return entry.index.get();
}

const std::vector<LayerId>* Engine::GetLayerOrder(QueryEntry& entry,
                                                  bool descending) {
  std::call_once(descending ? entry.order_desc_once : entry.order_asc_once,
                 [&] {
                   auto& slot =
                       descending ? entry.order_desc : entry.order_asc;
                   slot = SortedLayerOrder(entry.preprocess, descending,
                                           /*sort_layers=*/true);
                 });
  return descending ? &entry.order_desc : &entry.order_asc;
}

int Engine::BorrowSearchLanes(int want) {
  if (want <= 0) return 0;
  int free = search_lanes_free_.load(std::memory_order_relaxed);
  while (free > 0) {
    const int take = std::min(free, want);
    if (search_lanes_free_.compare_exchange_weak(free, free - take,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
      return take;
    }
  }
  return 0;
}

void Engine::ReturnSearchLanes(int lanes) {
  if (lanes > 0) {
    search_lanes_free_.fetch_add(lanes, std::memory_order_acq_rel);
  }
}

std::unique_ptr<DccSolver> Engine::AcquireSolver(
    const std::shared_ptr<const MultiLayerGraph>& graph) {
  {
    util::MutexLock lock(solver_mu_);
    if (free_graph_ == graph && !free_solvers_.empty()) {
      std::unique_ptr<DccSolver> solver = std::move(free_solvers_.back());
      free_solvers_.pop_back();
      return solver;
    }
  }
  return std::make_unique<DccSolver>(*graph);
}

void Engine::ReleaseSolver(std::shared_ptr<const MultiLayerGraph> graph,
                           std::unique_ptr<DccSolver> solver) {
  util::MutexLock lock(solver_mu_);
  if (free_graph_ == graph) {
    free_solvers_.push_back(std::move(solver));
    return;
  }
  // The pool is homogeneous and must only ever hold *current*-snapshot
  // solvers: anything else would let idle arenas pin a retired epoch's
  // graph indefinitely. A release for the current graph flips the pool to
  // it; a release for any other (stale) graph is dropped — and if the
  // pool itself has gone stale meanwhile, it is flushed too.
  const std::shared_ptr<const MultiLayerGraph> current =
      store_->snapshot()->graph_ptr();
  if (graph == current) {
    free_solvers_.clear();
    free_graph_ = std::move(graph);
    free_solvers_.push_back(std::move(solver));
    return;
  }
  if (free_graph_ != nullptr && free_graph_ != current) {
    free_solvers_.clear();
    free_graph_.reset();
  }
}

void Engine::InitMetrics() {
  const std::vector<double> ms = obs::Histogram::LatencyBoundsMs();
  obs::Registry& global = obs::Registry::Global();
  Metrics& m = metrics_;
  m.preprocess_hits = registry_.GetCounter("engine.cache.preprocess_hits");
  m.preprocess_misses = registry_.GetCounter("engine.cache.preprocess_misses");
  m.seed_hits = registry_.GetCounter("engine.cache.seed_hits");
  m.seed_misses = registry_.GetCounter("engine.cache.seed_misses");
  m.index_hits = registry_.GetCounter("engine.cache.index_hits");
  m.index_misses = registry_.GetCounter("engine.cache.index_misses");
  m.base_core_hits = registry_.GetCounter("engine.cache.base_core_hits");
  m.base_core_misses = registry_.GetCounter("engine.cache.base_core_misses");
  m.base_core_layers_reused =
      registry_.GetCounter("engine.cache.base_core_layers_reused");
  m.base_core_layers_recomputed =
      registry_.GetCounter("engine.cache.base_core_layers_recomputed");
  m.base_core_store_served =
      registry_.GetCounter("engine.cache.base_core_store_served");
  m.revisions_emitted = registry_.GetCounter("engine.subs.revisions_emitted");
  m.revisions_unchanged_skipped =
      registry_.GetCounter("engine.subs.revisions_unchanged_skipped");
  m.revisions_coalesced =
      registry_.GetCounter("engine.subs.revisions_coalesced");
  m.subs_dispatch_ms = registry_.GetHistogram("engine.subs.dispatch_ms", ms);
  m.subs_reeval_ms = registry_.GetHistogram("engine.subs.reeval_ms", ms);
  m.subs_delivery_ms = registry_.GetHistogram("engine.subs.delivery_ms", ms);
  m.sched_submitted = registry_.GetCounter("engine.sched.submitted");
  m.sched_admitted = registry_.GetCounter("engine.sched.admitted");
  m.sched_rejected = registry_.GetCounter("engine.sched.rejected");
  m.sched_displaced = registry_.GetCounter("engine.sched.displaced");
  m.sched_cancelled_queued =
      registry_.GetCounter("engine.sched.cancelled_queued");
  m.sched_expired_queued = registry_.GetCounter("engine.sched.expired_queued");
  m.sched_executed = registry_.GetCounter("engine.sched.executed");
  m.query_admission_wait_ms =
      registry_.GetHistogram("engine.query.admission_wait_ms", ms);
  m.query_preprocess_ms =
      registry_.GetHistogram("engine.query.preprocess_ms", ms);
  m.query_search_ms = registry_.GetHistogram("engine.query.search_ms", ms);
  m.query_total_ms = registry_.GetHistogram("engine.query.total_ms", ms);
  m.query_preprocess_ms_global =
      global.GetHistogram("engine.query.preprocess_ms", ms);
  m.query_search_ms_global =
      global.GetHistogram("engine.query.search_ms", ms);
  m.query_total_ms_global = global.GetHistogram("engine.query.total_ms", ms);
}

void Engine::OfferTrace(const DccsRequest& request, uint64_t epoch,
                        obs::Trace* trace) {
  if (trace == nullptr) return;
  obs::TraceSummary summary;
  summary.label = DescribeRequest(request, ResolvedAlgorithm(request));
  summary.epoch = epoch;
  summary.total_ms = trace->AgeMs();
  summary.spans = trace->records();
  summary.dropped_spans = trace->dropped();
  slow_log_.Offer(std::move(summary));
}

EngineCacheStats Engine::cache_stats() const {
  const Metrics& m = metrics_;
  EngineCacheStats stats;
  stats.preprocess_hits = m.preprocess_hits->value();
  stats.preprocess_misses = m.preprocess_misses->value();
  stats.seed_hits = m.seed_hits->value();
  stats.seed_misses = m.seed_misses->value();
  stats.index_hits = m.index_hits->value();
  stats.index_misses = m.index_misses->value();
  stats.base_core_hits = m.base_core_hits->value();
  stats.base_core_misses = m.base_core_misses->value();
  stats.base_core_layers_reused = m.base_core_layers_reused->value();
  stats.base_core_layers_recomputed = m.base_core_layers_recomputed->value();
  stats.base_core_store_served = m.base_core_store_served->value();
  stats.revisions_emitted = m.revisions_emitted->value();
  stats.revisions_unchanged_skipped = m.revisions_unchanged_skipped->value();
  stats.revisions_coalesced = m.revisions_coalesced->value();
  return stats;
}

SchedulerStats Engine::scheduler_stats() const {
  const Metrics& m = metrics_;
  SchedulerStats stats;
  stats.submitted = m.sched_submitted->value();
  stats.admitted = m.sched_admitted->value();
  stats.rejected = m.sched_rejected->value();
  stats.displaced = m.sched_displaced->value();
  stats.cancelled_queued = m.sched_cancelled_queued->value();
  stats.expired_queued = m.sched_expired_queued->value();
  stats.executed = m.sched_executed->value();
  return stats;
}

EngineStatsReport Engine::stats_report() const {
  EngineStatsReport report;
  report.metrics = registry_.Snapshot();
  std::vector<obs::MetricSnapshot> store_metrics =
      store_->registry().Snapshot();
  report.metrics.insert(report.metrics.end(),
                        std::make_move_iterator(store_metrics.begin()),
                        std::make_move_iterator(store_metrics.end()));
  std::sort(report.metrics.begin(), report.metrics.end(),
            [](const obs::MetricSnapshot& a, const obs::MetricSnapshot& b) {
              return a.name < b.name;
            });
  report.slow_queries = slow_log_.Snapshot();
  return report;
}

void Engine::ResetStats() {
  registry_.Reset("engine.");
  slow_log_.Clear();
}

void Engine::ClearCache() {
  {
    util::MutexLock lock(cache_mu_);
    base_cores_.clear();
    base_cores_last_use_.clear();
    queries_.clear();
    queries_last_use_.clear();
  }
  util::MutexLock lock(solver_mu_);
  free_solvers_.clear();
  free_graph_.reset();
}

// --------------------------------------------------------------------------
// QueryHandle — defined here because Engine::QueryTask is private to this
// translation unit.
// --------------------------------------------------------------------------

QueryHandle::QueryHandle() = default;
QueryHandle::QueryHandle(const QueryHandle&) = default;
QueryHandle& QueryHandle::operator=(const QueryHandle&) = default;
QueryHandle::QueryHandle(QueryHandle&&) noexcept = default;
QueryHandle& QueryHandle::operator=(QueryHandle&&) noexcept = default;
QueryHandle::~QueryHandle() = default;

QueryHandle::QueryHandle(std::shared_ptr<Engine::QueryTask> task,
                         Engine* engine)
    : task_(std::move(task)), engine_(engine) {}

int QueryHandle::priority() const {
  return task_ != nullptr ? task_->priority : 0;
}

const Expected<DccsResult>& QueryHandle::Wait() {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(task_ != nullptr, "Wait on an invalid QueryHandle");
  // Terminal fast path before touching the engine: this is what keeps a
  // handle usable after ~Engine (which resolves every outstanding task)
  // and makes repeat Waits lock only the task.
  {
    util::MutexLock lock(task_->mu);
    if (task_->done) return *task_->result;
  }
  engine_->AwaitTask(task_);
  // `result` is written exactly once, before `done`; AwaitTask returning
  // established the happens-before, so the reference is stable from here
  // on. The lock satisfies the guarded read; it is not needed for
  // ordering.
  util::MutexLock lock(task_->mu);
  return *task_->result;
}

const Expected<DccsResult>* QueryHandle::TryGet() const {
  if (task_ == nullptr) return nullptr;
  {
    util::MutexLock lock(task_->mu);
    if (task_->done) return &*task_->result;
  }
  // Not terminal: give a queued-but-already-expired deadline its
  // resolution now, so pollers aren't stuck behind a busy worker. (The
  // task being non-terminal implies the engine is still alive — teardown
  // resolves everything first.)
  engine_->ResolveIfExpiredQueued(task_);
  util::MutexLock lock(task_->mu);
  return task_->done ? &*task_->result : nullptr;
}

void QueryHandle::Cancel() {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(task_ != nullptr, "Cancel on an invalid QueryHandle");
  // Terminal fast path mirrors Wait: a finished (or engine-drained) task
  // needs no engine interaction.
  {
    util::MutexLock lock(task_->mu);
    if (task_->done) return;
  }
  engine_->CancelTask(task_);
}

CancellationToken QueryHandle::token() const {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(task_ != nullptr, "token() on an invalid QueryHandle");
  return task_->token;
}

// --------------------------------------------------------------------------
// Subscription — defined here because Engine::SubscriptionState is private
// to this translation unit.
// --------------------------------------------------------------------------

Subscription::Subscription() = default;
Subscription::Subscription(const Subscription&) = default;
Subscription& Subscription::operator=(const Subscription&) = default;
Subscription::Subscription(Subscription&&) noexcept = default;
Subscription& Subscription::operator=(Subscription&&) noexcept = default;
Subscription::~Subscription() = default;

Subscription::Subscription(std::shared_ptr<Engine::SubscriptionState> state)
    : state_(std::move(state)) {}

// Requires state_->mu, which the header cannot annotate (incomplete
// type there); both callers hold it via MutexLock.
std::optional<ResultRevision> Subscription::PopLocked()
    MLCORE_NO_THREAD_SAFETY_ANALYSIS {
  if (state_->buffer.empty()) return std::nullopt;
  Engine::SubscriptionState::BufferedRevision front =
      std::move(state_->buffer.front());
  state_->buffer.pop_front();
  // Materialise the consumer's copy only now — revisions folded away by
  // coalescing never paid for one — and keep the shared handle as the
  // delta-chain anchor for the next push onto an emptied buffer.
  front.revision.result = *front.result;
  state_->delivered_base = std::move(front.result);
  return std::move(front.revision);
}

std::optional<ResultRevision> Subscription::Next() {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(state_ != nullptr, "Next on an invalid Subscription");
  util::MutexLock lock(state_->mu);
  while (state_->buffer.empty() && !state_->cancelled) {
    state_->cv.Wait(state_->mu);
  }
  return PopLocked();
}

std::optional<ResultRevision> Subscription::TryNext() {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(state_ != nullptr, "TryNext on an invalid Subscription");
  util::MutexLock lock(state_->mu);
  return PopLocked();
}

void Subscription::Cancel() {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(state_ != nullptr, "Cancel on an invalid Subscription");
  // The token stops an in-flight evaluation at its next checkpoint; the
  // flag stops production and wakes blocked consumers. The dispatcher
  // prunes the state on its next scan (or the engine's destructor does).
  // No live engine is needed, so cancelling after ~Engine is safe.
  state_->token.RequestCancel();
  {
    util::MutexLock lock(state_->mu);
    state_->cancelled = true;
  }
  state_->cv.NotifyAll();
}

bool Subscription::active() const {
  // NOLINT(mlcore-release-check): invalid-handle misuse aborts by contract
  MLCORE_CHECK_MSG(state_ != nullptr, "active() on an invalid Subscription");
  util::MutexLock lock(state_->mu);
  return !state_->cancelled;
}

}  // namespace mlcore
