#include "service/engine.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

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

/// kCancelled or kDeadlineExceeded for a query stopped `where`.
Status StopStatus(QueryStop stop, const std::string& where) {
  return stop == QueryStop::kCancelled
             ? Status::Cancelled("query cancelled " + where)
             : Status::DeadlineExceeded("deadline expired " + where);
}

}  // namespace

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

/// One query's lane-indexed solver arenas, drawn lazily from (and returned
/// to) the engine free-list. Solvers are bound to one graph object, so the
/// free-list is homogeneous per snapshot: a lane on another graph builds a
/// fresh solver, and returning solvers for the *current* snapshot's graph
/// flushes stale ones (idle solvers never pin an old snapshot).
/// Thread-safe: lanes call Get concurrently.
class Engine::WorkerSolvers {
 public:
  WorkerSolvers(Engine* engine, std::shared_ptr<const MultiLayerGraph> graph,
                int lanes)
      : engine_(engine),
        graph_(std::move(graph)),
        held_(static_cast<size_t>(lanes)) {}
  ~WorkerSolvers() {
    util::MutexLock lock(engine_->solver_mu_);
    if (engine_->free_graph_ != graph_) {
      const std::shared_ptr<const MultiLayerGraph> current =
          engine_->store_->snapshot()->graph_ptr();
      if (graph_ != current) {
        // Our solvers are stale and die here; so does a stale free-list.
        if (engine_->free_graph_ != current) {
          engine_->free_solvers_.clear();
          engine_->free_graph_.reset();
        }
        return;
      }
      engine_->free_solvers_.clear();
      engine_->free_graph_ = graph_;
    }
    for (auto& solver : held_) {
      if (solver != nullptr) {
        engine_->free_solvers_.push_back(std::move(solver));
      }
    }
  }
  WorkerSolvers(const WorkerSolvers&) = delete;
  WorkerSolvers& operator=(const WorkerSolvers&) = delete;

  DccSolver* Get(int worker) {
    util::MutexLock lock(mu_);
    auto& slot = held_[static_cast<size_t>(worker)];
    if (slot == nullptr) {
      util::MutexLock free_lock(engine_->solver_mu_);
      if (engine_->free_graph_ == graph_ && !engine_->free_solvers_.empty()) {
        slot = std::move(engine_->free_solvers_.back());
        engine_->free_solvers_.pop_back();
      }
    }
    if (slot == nullptr) slot = std::make_unique<DccSolver>(*graph_);
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
      search_pool_(options_.search_threads),
      pending_(static_cast<size_t>(options_.max_pending_queries)),
      cache_(registry_, pool_, options_.max_cached_queries) {
  // NOLINT(mlcore-release-check): constructor contract.
  MLCORE_CHECK(store_ != nullptr);
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

  if (!Admit(task)) {
    FinishTask(*task,
               Status::ResourceExhausted(
                   pending_.shut_down()
                       ? "engine shutting down; no new queries admitted"
                       : "pending queue full (" +
                             std::to_string(pending_.capacity()) +
                             " queries) with no lower-priority entry to "
                             "displace"));
  }
  return QueryHandle(std::move(task), this);
}

bool Engine::Admit(const std::shared_ptr<QueryTask>& task) {
  metrics_.sched_submitted->Add(1);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  switch (pending_.TryPush(task->priority, task, &id, &displaced)) {
    case PriorityTaskQueue::PushOutcome::kRejected:
      metrics_.sched_rejected->Add(1);
      return false;
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
  return true;
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
    Expected<DccsResult> inline_outcome = RunValidated(
        request, handle.task_->snapshot, /*control=*/nullptr, trace);
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
  // An inactive control (Run's uncancellable tasks) executes as the null
  // control so the stages skip checkpoint costs entirely.
  Expected<DccsResult> outcome =
      RunValidated(task->request, task->snapshot,
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
  // receiving the same bits. A slot's own parallel stages nest into the
  // same pool. Batch slots run uncontrolled (control = nullptr), so every
  // slot is a value.
  std::vector<std::optional<Expected<DccsResult>>> slots(n);
  pool_.ParallelFor(static_cast<int64_t>(n), [&](int /*worker*/, int64_t i) {
    const auto slot = static_cast<size_t>(i);
    if (!statuses[slot].ok()) return;
    slots[slot] = RunValidated(requests[slot], snap, /*control=*/nullptr,
                               /*trace=*/nullptr);
  });

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

  std::shared_ptr<const std::vector<VertexSet>> base =
      cache_.BaseCores(snap, request.d);
  WorkerSolvers solvers(this, snap->graph_ptr(), 1);
  return SearchCommunityWithCores(graph, *base, *solvers.Get(0),
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

  if (!Admit(task)) {
    // Shed (queue full of equal-or-higher-priority work): run inline on
    // the dispatcher thread — the dispatcher is its own backpressure,
    // mirroring Run's never-fail-on-load contract, so a standing query
    // is never silently starved. The cost is head-of-line blocking:
    // while this evaluation runs, no other subscription is dispatched
    // (not even unchanged-skips), bounded by one evaluation per shed —
    // acceptable because sheds only happen when the engine is already
    // saturated with equal-or-higher-priority work.
    ExecuteTask(task);
    return;
  }
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
    const QueryControl* control, obs::Trace* trace) {
  // The root span's stopwatch is the query's total timer in every build (a
  // null-trace or disabled Span still ticks); early returns commit it via
  // the destructor.
  obs::Span run_span(trace, "query.run");
  const DccsParams& params = request.params;
  const DccsAlgorithm algorithm = ResolvedAlgorithm(request);
  const MultiLayerGraph& graph = snap->graph();

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
  std::shared_ptr<QueryCache::Entry> entry = cache_.Acquire(
      snap, params.d, params.s, params.vertex_deletion, control, &stop);
  // Stopped before preprocessing published: nothing was cached, nothing
  // can be served. (A deadline this early has no anytime prefix.)
  if (entry == nullptr) return StopStatus(stop, "during preprocessing");
  // Checkpoint between preprocessing and the seed/index builds (each of
  // which always publishes a complete artifact once started).
  if (control != nullptr && (stop = control->Check()) != QueryStop::kNone) {
    return StopStatus(stop, "before the search phase");
  }

  // Parallel search phase (DESIGN.md §10): the lattice searches run their
  // lanes on search_pool_, whose idle workers are the engine-wide lane
  // budget. How many lanes a query actually gets cannot change its result
  // (the §4/§10 determinism contract), so it needs no fairness.
  const bool lattice_search = algorithm == DccsAlgorithm::kBottomUp ||
                              algorithm == DccsAlgorithm::kTopDown;
  ThreadPool& pool = lattice_search ? search_pool_ : pool_;
  // One solver per worker of the pool the search runs on: GD evaluates
  // candidates on every pool lane, BU/TD search on theirs and seed InitTopK
  // on lane 0's.
  WorkerSolvers solvers(this, snap->graph_ptr(), pool.num_threads());
  const InitSeeds* seeds = nullptr;
  if (lattice_search && params.init_result) {
    seeds = &cache_.Seeds(*entry, graph, params, *solvers.Get(0));
  }
  const VertexLevelIndex* index = nullptr;
  if (algorithm == DccsAlgorithm::kTopDown) {
    index = &cache_.Index(*entry, graph, params.d);
  }
  const double acquire_seconds = acquire_span.wall_seconds();
  acquire_span.End();

  DccsExecution exec;
  exec.preprocess = &QueryCache::Fixpoint(*entry);
  exec.seeds = seeds;
  exec.index = index;
  exec.pool = &pool;
  exec.worker_solver = [&solvers](int worker) { return solvers.Get(worker); };
  exec.search_threads = options_.search_threads;
  exec.control = control;
  exec.trace = trace;
  exec.trace_parent = run_span.id();

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
      return Status::InvalidArgument(
          "kAuto must be resolved before dispatch");
    }
  }
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

void Engine::InitMetrics() {
  const std::vector<double> ms = obs::Histogram::LatencyBoundsMs();
  obs::Registry& global = obs::Registry::Global();
  Metrics& m = metrics_;
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
  const QueryCache::Counters& c = cache_.counters();
  const Metrics& m = metrics_;
  EngineCacheStats stats;
  stats.preprocess_hits = c.preprocess.hits->value();
  stats.preprocess_misses = c.preprocess.misses->value();
  stats.seed_hits = c.seed.hits->value();
  stats.seed_misses = c.seed.misses->value();
  stats.index_hits = c.index.hits->value();
  stats.index_misses = c.index.misses->value();
  stats.base_core_hits = c.base_core.hits->value();
  stats.base_core_misses = c.base_core.misses->value();
  stats.base_core_layers_reused = c.base_core_layers_reused->value();
  stats.base_core_layers_recomputed = c.base_core_layers_recomputed->value();
  stats.base_core_store_served = c.base_core_store_served->value();
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
  cache_.Clear();
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
