#ifndef MLCORE_SERVICE_ENGINE_H_
#define MLCORE_SERVICE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "core/dcc.h"
#include "dccs/community_search.h"
#include "dccs/params.h"
#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "graph/multilayer_graph.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "service/delta.h"
#include "service/status.h"
#include "store/graph_store.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace mlcore {

class QueryHandle;
class Subscription;

/// One DCCS query against an Engine's graph: the paper's (d, s, k)
/// parameters (plus algorithm knobs) and the algorithm to answer it with.
/// `kAuto` (the default) applies the paper's §I/§V selection rule via
/// `RecommendedAlgorithm`.
struct DccsRequest {
  DccsParams params;
  DccsAlgorithm algorithm = DccsAlgorithm::kAuto;
};

/// One query-anchored community search (dccs/community_search.h): find a
/// size-s layer subset whose d-CC contains `query`.
struct CommunityRequest {
  VertexId query = 0;
  int d = 4;
  int s = 3;
};

/// Cumulative cache counters, for observability and tests. A "query" entry
/// is one (d, s, vertex_deletion) preprocessing bundle; "base" entries are
/// the full-graph per-layer d-cores keyed by d alone. A hit is a query that
/// found a *published* entry; a miss is a query that built and published
/// one. A query cancelled (or deadline-expired) before its build published
/// counts as neither — an abandoned build leaves both the cache contents
/// and these counters exactly as if that query had never run.
struct EngineCacheStats {
  int64_t preprocess_hits = 0;
  int64_t preprocess_misses = 0;
  int64_t seed_hits = 0;
  int64_t seed_misses = 0;
  int64_t index_hits = 0;
  int64_t index_misses = 0;
  int64_t base_core_hits = 0;
  int64_t base_core_misses = 0;
  /// Per-layer accounting of base-core *misses* on an updated graph
  /// (DESIGN.md §8): a miss after an update rebuilds only the layers whose
  /// content changed since the newest previous entry for that d —
  /// unchanged layers copy their cores over (`reused`), changed ones pay a
  /// fresh DCore (`recomputed`). Misses with a tracked store entry or no
  /// predecessor count every layer as recomputed/served accordingly.
  int64_t base_core_layers_reused = 0;
  int64_t base_core_layers_recomputed = 0;
  /// Base-core misses served wholesale from the store's incrementally
  /// maintained cores (tracked degrees) — no DCore ran at all.
  int64_t base_core_store_served = 0;
  /// Subscription counters (Engine::Subscribe). `revisions_emitted` counts
  /// every revision produced — delivered, still buffered, or later folded
  /// away by coalescing. `revisions_unchanged_skipped` counts epochs a
  /// subscription absorbed *without any recomputation* because no core-
  /// subgraph generation relevant to its (d, s) moved (the generational-key
  /// payoff of DESIGN.md §8; such an epoch emits an "unchanged" revision).
  /// `revisions_coalesced` counts undelivered revisions folded into a newer
  /// one when a subscription's bounded buffer overflowed
  /// (latest-epoch-wins).
  int64_t revisions_emitted = 0;
  int64_t revisions_unchanged_skipped = 0;
  int64_t revisions_coalesced = 0;
};

/// Cumulative admission/scheduler counters (Engine::scheduler_stats).
struct SchedulerStats {
  /// Valid requests offered to admission (invalid ones fail validation
  /// first and are never counted).
  int64_t submitted = 0;
  /// Requests that entered the pending queue.
  int64_t admitted = 0;
  /// Requests refused at submission with kResourceExhausted (queue full of
  /// equal-or-higher-priority work).
  int64_t rejected = 0;
  /// Previously admitted requests shed from the queue by a later
  /// higher-priority submission (their handles resolve kResourceExhausted).
  int64_t displaced = 0;
  /// Requests cancelled while still queued (never executed).
  int64_t cancelled_queued = 0;
  /// Requests whose deadline had already passed when a worker claimed them
  /// (resolved kDeadlineExceeded without executing).
  int64_t expired_queued = 0;
  /// Requests that actually entered execution.
  int64_t executed = 0;
};

/// The machine-readable stats surface (Engine::stats_report): every metric
/// registered by this engine *and* its graph store, plus the slow-query
/// log. Serialise with obs::ToJson / obs::ToPrometheusText (obs/export.h).
struct EngineStatsReport {
  /// Sorted by name; engine.* and store.* metrics interleaved.
  std::vector<obs::MetricSnapshot> metrics;
  /// Slowest-first completed query traces (DESIGN.md §12).
  std::vector<obs::TraceSummary> slow_queries;
};

/// Per-submission scheduling knobs for Engine::Submit.
struct SubmitOptions {
  /// Admission and execution priority: higher runs first; on a full queue a
  /// higher-priority submission displaces the lowest strictly-lower one.
  /// Ties are FIFO.
  int priority = 0;
  /// Wall-clock deadline, in seconds from submission (0 = none). Expiry
  /// while queued or during preprocessing resolves kDeadlineExceeded
  /// (there is no timer thread: a queued expiry is observed at worker
  /// claim, Wait, or any TryGet poll of the handle); expiry
  /// mid-search returns the anytime best-so-far result with
  /// `stats.budget_exhausted` set, exactly like time_budget_seconds
  /// (DESIGN.md §7's unified deadline policy — the effective stop time is
  /// whichever of the two limits fires first).
  double deadline_seconds = 0.0;
};

/// One delivery of a standing query (Engine::Subscribe): the full result
/// for one graph epoch plus the vertex-level delta against the previous
/// revision of the same subscription.
struct ResultRevision {
  /// Epoch this revision answers from. Strictly increasing within a
  /// subscription, but not necessarily contiguous: latest-epoch-wins
  /// applies at both ends of the pipeline — epochs that publish while an
  /// evaluation is in flight collapse into the next evaluation (no
  /// revision of their own), and a full consumer buffer folds the newest
  /// buffered revision into the incoming one (`coalesced` accounts the
  /// folded revisions; dispatch-time collapses produce none to fold).
  uint64_t epoch = 0;
  /// 1-based position in the subscription's revision stream. Gaps mark
  /// revisions folded away by coalescing.
  uint64_t sequence = 0;
  /// True when the engine proved the result identical to the previous
  /// revision's without recomputing it: no core-subgraph generation
  /// relevant to the subscription's (d, s) moved between the two epochs
  /// (zero preprocess/search work was done; `delta` is empty unless
  /// coalescing folded a computed revision into this one).
  bool unchanged = false;
  /// Undelivered older revisions folded into this one because the
  /// subscription's buffer was full (latest-epoch-wins).
  int64_t coalesced = 0;
  /// The full result, exactly what Engine::Run would have returned for the
  /// same request against this epoch's snapshot (timing fields report the
  /// work this revision actually did — near zero when `unchanged`).
  DccsResult result;
  /// Delta against the revision the consumer saw before this one (the
  /// stream's previous revision, delivered or still buffered). The first
  /// revision reports its whole result as appeared/added.
  ResultDelta delta;
};

/// Per-subscription knobs for Engine::Subscribe.
struct SubscriptionOptions {
  /// Admission priority of the re-evaluation queries this subscription
  /// schedules (same scale as SubmitOptions::priority).
  int priority = 0;
  /// Bound on undelivered revisions (>= 1; values below 1 are clamped).
  /// When a new revision lands on a full buffer the newest *buffered* one
  /// is folded into it — the consumer always sees the latest epoch, with
  /// `coalesced` and the delta accounting for the folded step.
  int max_buffered_revisions = 8;
  /// Emit "unchanged" marker revisions for epochs that provably left the
  /// result untouched. When false such epochs are absorbed silently (the
  /// `revisions_unchanged_skipped` counter still moves).
  bool emit_unchanged = true;
  /// Callback mode: when set, every revision is delivered by invoking this
  /// from an engine thread (the dispatcher or a query worker) instead of
  /// being buffered for Next/TryNext. Invocations are serialised per
  /// subscription and in revision order. The callback must not block for
  /// long (it runs on the engine's threads) and must not destroy the
  /// engine; calling Subscription::Cancel from inside it is allowed.
  std::function<void(const ResultRevision&)> on_revision;
};

/// Long-lived, thread-safe DCCS query service over one multi-layer graph
/// (DESIGN.md §5) — immutable, or *evolving* behind a `GraphStore`
/// (DESIGN.md §8).
///
/// The paper frames DCCS as an online problem — many (d, s, k) questions
/// against one graph — and everything a query can share is owned here and
/// reused across calls:
///
///  * a preprocessing cache keyed on what each stage actually depends on:
///    full-graph per-layer d-cores by `d`; the §IV-C vertex-deletion
///    fixpoint, the §V-C vertex index and the InitTopK seeds by
///    (d, s, vertex_deletion) — the latter two because they are built over
///    the surviving vertex set (the seeds additionally by (k, dcc_engine)).
///    A repeat query with the same (d, s) skips vertex deletion entirely;
///    a query with a cached `d` but new `s` skips the first (full-graph)
///    deletion round.
///  * a shared `util::ThreadPool` for the parallel stages and for
///    `RunBatch` fan-out;
///  * a free-list of `DccSolver` arenas, so steady-state queries allocate
///    no solver scratch.
///
/// Thread safety: all public methods may be called concurrently from any
/// number of threads. Results honour the DESIGN.md §4 determinism
/// contract — a query's cores are bit-identical whether it runs alone,
/// concurrently with others, inside a batch, or through the one-shot free
/// functions. Statistics (`SearchStats`) are also identical, except the
/// timing fields, which report wall time of whatever work actually ran
/// (`preprocess_seconds` is the cache-acquisition time, near zero on a
/// hit).
///
/// Invalid requests never abort: `Submit`/`Run`/`RunBatch`/`FindCommunity`
/// validate first and return a structured `Status` (service/status.h) for
/// malformed parameters, unknown enum values, > 64 layers on the lattice
/// searches, or an intractable C(l, s) for GD-DCCS.
///
/// Asynchronous queries (DESIGN.md §7): `Submit` returns a `QueryHandle`
/// immediately; dedicated query workers (Options::query_workers) drain a
/// bounded priority queue (Options::max_pending_queries), overload is shed
/// with `kResourceExhausted` instead of queueing forever, `Cancel` stops a
/// query cooperatively at its checkpoints (kCancelled), and per-submission
/// wall-clock deadlines compose with `DccsParams::time_budget_seconds`
/// under one anytime policy. A cancelled query never publishes a partial
/// cache entry: caches and their counters end up exactly as if it had
/// never run (or, when it won the build race late, as if it had
/// completed).
///
/// Continuous queries (DESIGN.md §9): `Subscribe` turns a request into a
/// standing query — a `Subscription` delivering one epoch-tagged
/// `ResultRevision` (full result + vertex-level delta) per published
/// epoch, with epochs the generational cache keys prove irrelevant
/// absorbed as zero-work "unchanged" revisions and slow consumers bounded
/// by latest-epoch-wins coalescing.
///
/// Dynamic graphs (DESIGN.md §8): every engine hosts a `GraphStore` —
/// the borrowing constructor wraps its graph in a private store, and the
/// store constructor serves a caller-managed (possibly evolving) graph.
/// `ApplyUpdate` publishes a new epoch; every query pins the snapshot
/// current at its *submission* and computes against it, so in-flight and
/// queued queries are never disturbed by later updates
/// (`DccsResult::epoch` reports the pinned epoch). Caches are keyed
/// generationally: entries built for content that a batch did not touch
/// stay warm — base d-cores reuse unchanged layers (and are served
/// outright from the store's incrementally maintained cores for tracked
/// degrees), and the (d, s, vertex_deletion) preprocessing bundles of a
/// tracked `d` survive any update that leaves that d's per-layer
/// core-induced subgraphs untouched.
class Engine {
 public:
  struct Options {
    /// Total parallelism of the shared pool (ThreadPool semantics: 1 means
    /// "calling thread only"). Batch queries and the parallel stages of
    /// single queries fan out over this pool.
    int num_threads = 1;
    /// Maximum retained (d, s, vertex_deletion) preprocessing entries and
    /// maximum retained base-core entries; least recently used entries are
    /// evicted beyond this. In-flight queries keep evicted entries alive.
    int max_cached_queries = 16;
    /// Dedicated threads draining the async pending queue (DESIGN.md §7).
    /// 0 is valid: submitted queries then run only when some thread Waits
    /// on their handle (each waiter donates its thread to its own query) —
    /// useful for tests and strictly-synchronous embeddings.
    int query_workers = 1;
    /// Admission bound: maximum queries pending (admitted, not yet
    /// started). A submission beyond it is shed with kResourceExhausted
    /// unless its priority strictly exceeds a queued request's, which is
    /// then displaced instead. Bounds memory and queueing delay under
    /// overload — nothing ever queues forever.
    int max_pending_queries = 64;
    /// Worker lanes for the BU/TD search phase of a single query
    /// (DESIGN.md §10): each lattice search runs on a work-stealing task
    /// group of up to this many lanes, with results bit-identical at any
    /// value (1, the default, is the historical sequential search). Lanes
    /// beyond the driver are drawn from one engine-wide budget of
    /// (search_threads - 1) so concurrent searches never oversubscribe the
    /// machine: a query borrows whatever is free at its search phase and
    /// returns it when done — under contention searches degrade toward
    /// sequential, never queue. Applies to Run/Submit/RunBatch/Subscribe
    /// alike.
    int search_threads = 1;
  };

  /// Serves whatever epoch `store` currently publishes. The store may be
  /// shared — with other engines, or with a writer calling
  /// `GraphStore::ApplyUpdate` directly (`Engine::ApplyUpdate` is a
  /// forwarding convenience). To hand an engine its own graph, wrap it:
  /// `Engine(std::make_shared<GraphStore>(std::move(graph)))`.
  explicit Engine(std::shared_ptr<GraphStore> store)
      : Engine(std::move(store), Options{}) {}
  Engine(std::shared_ptr<GraphStore> store, Options options);
  /// Borrowing form: `*graph` must outlive the engine (the one-shot
  /// `SolveDccs` wrapper and most tests use it).
  explicit Engine(const MultiLayerGraph* graph) : Engine(graph, Options{}) {}
  Engine(const MultiLayerGraph* graph, Options options);

  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::shared_ptr<GraphStore>& store() const { return store_; }
  const Options& options() const { return options_; }

  /// Applies a batched graph update through the hosted store and publishes
  /// a new epoch (DESIGN.md §8): queries submitted before this call keep
  /// computing against their pinned snapshot; queries submitted after see
  /// the new graph, with every cache whose keyed content is unchanged
  /// still warm. Validation failures change nothing.
  Expected<UpdateOutcome> ApplyUpdate(const UpdateBatch& batch) {
    return store_->ApplyUpdate(batch);
  }

  /// Epoch of the currently published snapshot (0 until the first update).
  uint64_t snapshot_epoch() const { return store_->epoch(); }

  /// The algorithm `request` will actually run: resolves kAuto through
  /// `RecommendedAlgorithm`. Meaningless for invalid requests.
  DccsAlgorithm ResolvedAlgorithm(const DccsRequest& request) const;

  /// Structured request validation; `Run`/`RunBatch`/`FindCommunity` call
  /// these themselves, but servers can pre-validate cheaply.
  Status Validate(const DccsRequest& request) const;
  Status Validate(const CommunityRequest& request) const;

  /// Asynchronous submission (DESIGN.md §7): validates, applies admission
  /// control, and enqueues the query for the engine's query workers (or a
  /// future waiter). Never blocks on query execution. The handle's terminal
  /// status distinguishes kCancelled, kDeadlineExceeded and
  /// kResourceExhausted from ordinary results; invalid or shed requests
  /// yield an immediately terminal handle. Destroying the engine resolves
  /// every outstanding query, after which surviving handles remain safe to
  /// Wait/TryGet/Cancel (they answer from the terminal result); only
  /// *racing* engine destruction against a live query's Wait/Cancel is
  /// undefined.
  QueryHandle Submit(const DccsRequest& request,
                     const SubmitOptions& options = {});

  /// Batch Submit: one handle per request (slot i ↔ requests[i]), each
  /// admitted independently under `options` — on an overfull queue the
  /// tail of the batch sheds with kResourceExhausted.
  std::vector<QueryHandle> SubmitBatch(std::span<const DccsRequest> requests,
                                       const SubmitOptions& options = {});

  /// Answers one DCCS query: a thin Submit + Wait (the submitting thread
  /// immediately donates itself to the query, so concurrency matches the
  /// historical synchronous path). Never aborts on bad input, and never
  /// fails on load: if admission sheds the submission (full queue /
  /// displaced), the query runs inline on the calling thread — a blocked
  /// caller is its own backpressure, so the PR-2 contract (Run fails only
  /// validation) holds under overload.
  Expected<DccsResult> Run(const DccsRequest& request);

  /// Answers independent queries, fanning them out over the pool. Slot i of
  /// the returned vector corresponds to requests[i] (per-slot outputs,
  /// sequential merge — DESIGN.md §4), and each slot equals what `Run`
  /// would return for that request alone. Invalid requests yield their
  /// validation error in-slot without disturbing the others.
  std::vector<Expected<DccsResult>> RunBatch(
      std::span<const DccsRequest> requests);

  /// Query-anchored community search, sharing the base d-core cache with
  /// DCCS preprocessing.
  Expected<CommunitySearchResult> FindCommunity(
      const CommunityRequest& request);

  /// Standing query (continuous DCCS): validates `request` once and
  /// returns a `Subscription` that delivers an initial `ResultRevision`
  /// for the current epoch and then revisions tracking every epoch the
  /// hosted `GraphStore` publishes, for as long as the subscription stays
  /// active. Tracking is latest-epoch-wins, not one-revision-per-epoch:
  /// epochs that publish while a revision is being produced collapse into
  /// the next one (each revision answers from the newest epoch available
  /// at its dispatch), so a consumer is always converging on the current
  /// answer and must key on `ResultRevision::epoch`, never on counting
  /// revisions against published epochs.
  ///
  /// Re-evaluations are scheduled through the admission queue at
  /// `options.priority` (a shed or displaced evaluation runs inline on the
  /// dispatcher — a standing query is never silently starved), and each
  /// revision's result is bit-identical to what `Run` would return for the
  /// same request against that epoch's snapshot. Epochs that provably
  /// cannot change the result (no relevant core-subgraph generation moved
  /// — DESIGN.md §8/§9) are absorbed with zero preprocess/search work and
  /// emit an "unchanged" revision. Consumers falling behind are bounded by
  /// `options.max_buffered_revisions` with latest-epoch-wins coalescing.
  ///
  /// Destroying the engine finishes in-flight revisions, then terminates
  /// every subscription; surviving handles stay safe — buffered revisions
  /// remain consumable, after which Next returns nullopt (DESIGN.md §9's
  /// shutdown ordering). Only *racing* engine destruction against
  /// Subscribe itself is undefined, exactly like Submit.
  Expected<Subscription> Subscribe(const DccsRequest& request,
                                   const SubscriptionOptions& options = {});

  /// Views over the engine's metric registry (DESIGN.md §12): the legacy
  /// stats structs are assembled from registry counters on every call.
  /// Exact once writers quiesce; mid-flight reads may trail by a few
  /// relaxed increments.
  EngineCacheStats cache_stats() const;
  SchedulerStats scheduler_stats() const;
  /// Everything this engine knows about itself, machine-readable: the
  /// engine and store metric snapshots merged (sorted by name) plus the
  /// slow-query log's span trees.
  EngineStatsReport stats_report() const;
  /// This engine's metric registry; per-engine exact (the process-wide
  /// aggregate latency mirror lives in obs::Registry::Global()).
  const obs::Registry& registry() const { return registry_; }
  /// Zeroes every engine-scoped metric — cache and scheduler counters,
  /// latency histograms — and clears the slow-query log. Cache/scheduler
  /// *contents* are untouched, so benches and tests can assert deltas
  /// instead of cumulative totals. Store metrics and the global latency
  /// mirrors are not reset.
  void ResetStats();
  /// Drops every cached entry (in-flight queries keep theirs alive) and the
  /// solver free-list. Counters are not reset — see ResetStats.
  void ClearCache();

 private:
  friend class QueryHandle;
  friend class Subscription;

  struct BaseCoresEntry;
  struct QueryEntry;
  struct QueryTask;
  struct SubscriptionState;
  class SolverLease;
  class WorkerSolvers;

  /// `pool_lock` either owns pool_mu_ (the query may use the shared pool
  /// for its parallel stages) or is empty (batch workers; fully
  /// sequential). The lock is released as soon as the query is done with
  /// the pool — before the sequential search phase — so a long search
  /// never blocks other queries' parallel stages. `control` (nullable)
  /// carries the submission's cancellation token and deadline; a stop
  /// before the search phase returns kCancelled / kDeadlineExceeded, a
  /// cancellation mid-search returns kCancelled (partial result
  /// discarded), and a deadline mid-search returns the anytime prefix.
  /// `snap` is the snapshot the query was pinned to at submission; every
  /// graph read and cache key goes through it. `trace` (nullable) receives
  /// this execution's span tree — a "query.run" root with preprocess /
  /// search / cover children (DESIGN.md §12) — and must stay alive until
  /// the call returns, by which point every recording thread has joined.
  Expected<DccsResult> RunValidated(
      const DccsRequest& request,
      const std::shared_ptr<const GraphSnapshot>& snap,
      util::UniqueLock pool_lock, const QueryControl* control,
      obs::Trace* trace);

  /// Submit with an explicit choice of arming the cancellation control.
  /// `controllable = false` (Run's private path) leaves the task's control
  /// inactive — the handle never escapes Run, so no one can cancel it, and
  /// the executed query keeps the uncontrolled path's zero checkpoint
  /// cost.
  QueryHandle SubmitTask(const DccsRequest& request,
                         const SubmitOptions& options, bool controllable);
  /// Runs `task` to its terminal state on the calling thread (a query
  /// worker, or a waiter that claimed its own task).
  void ExecuteTask(const std::shared_ptr<QueryTask>& task);
  /// Publishes the terminal result and wakes waiters.
  static void FinishTask(QueryTask& task, Expected<DccsResult> result);
  /// Blocks until `task` is terminal, first claiming and executing it
  /// inline if it is still queued.
  void AwaitTask(const std::shared_ptr<QueryTask>& task);
  /// Requests cooperative cancellation; resolves still-queued tasks
  /// immediately without execution.
  void CancelTask(const std::shared_ptr<QueryTask>& task);
  /// Resolves a still-queued task whose deadline has already passed
  /// (kDeadlineExceeded), so TryGet-polling observers aren't left waiting
  /// for a busy worker to claim a task that can only expire.
  void ResolveIfExpiredQueued(const std::shared_ptr<QueryTask>& task);
  void QueryWorkerLoop();

  /// Lazily starts the subscription dispatcher thread and registers the
  /// store epoch listener (engines that never Subscribe pay for neither).
  void EnsureSubscriptionInfra();
  /// Dispatcher: woken by store epochs, new subscriptions and completed
  /// evaluations; decides per subscription between the unchanged-skip
  /// fast path and scheduling a re-evaluation (DESIGN.md §9).
  void SubscriptionDispatcherLoop();
  /// One dispatch decision for `sub` against `snap`; never blocks on
  /// query execution except for the inline fallback when admission sheds.
  void DispatchSubscription(const std::shared_ptr<SubscriptionState>& sub,
                            const std::shared_ptr<const GraphSnapshot>& snap);
  /// Completion hook of a subscription's evaluation task (runs on the
  /// executing thread): emits the revision, or retries/drops on
  /// shed/cancel.
  void CompleteSubscriptionEval(const std::shared_ptr<SubscriptionState>& sub,
                                uint64_t generation, QueryTask& task);
  /// Emits one revision (buffer push with coalescing, or callback
  /// delivery) and closes the subscription's busy window; `result` may be
  /// nullptr for a dropped evaluation (cancel/shed), which produces
  /// nothing but still wakes the dispatcher for a retry.
  void FinishRevision(const std::shared_ptr<SubscriptionState>& sub,
                      uint64_t epoch,
                      std::shared_ptr<const DccsResult> result,
                      uint64_t generation, bool unchanged);
  /// Wakes the dispatcher for another scan.
  void PingDispatcher();

  /// Base cores for `d` at `snap`'s content. On a miss, unchanged layers
  /// are copied from the newest older entry for the same d, and tracked
  /// degrees are served from the store's maintained cores outright.
  std::shared_ptr<const BaseCoresEntry> GetBaseCores(
      const std::shared_ptr<const GraphSnapshot>& snap, int d,
      ThreadPool* pool);
  /// Returns the published (generation, d, s, vertex_deletion) entry,
  /// building it if needed — the generation (GraphSnapshot::
  /// core_generation) keys out stale epochs. Returns nullptr with `*stop`
  /// set when `control` fired before this query observed a published
  /// entry; an abandoned build publishes nothing (the next query rebuilds
  /// from scratch) — cache consistency under cancellation, DESIGN.md §7.
  std::shared_ptr<QueryEntry> GetQueryEntry(
      const std::shared_ptr<const GraphSnapshot>& snap, int d, int s,
      bool vertex_deletion, ThreadPool* pool, const QueryControl* control,
      QueryStop* stop);
  /// Seeds for (k, dcc_engine), plus the already-replayed CoverageIndex
  /// prototype the same key (satellite cache of DESIGN.md §10): BU/TD
  /// start from a copy of `*seeded_topk` and skip the per-query replay.
  std::shared_ptr<const InitSeeds> GetSeeds(
      const MultiLayerGraph& graph, QueryEntry& entry,
      const DccsParams& params, DccSolver& solver,
      std::shared_ptr<const CoverageIndex>* seeded_topk);
  const VertexLevelIndex* GetIndex(const MultiLayerGraph& graph,
                                   QueryEntry& entry, int d);
  /// Cached SortedLayerOrder over the entry's preprocessing (descending
  /// |C^d(G_i)| for BU, ascending for TD). Only meaningful for queries
  /// with sort_layers = true; the returned pointer is stable for the
  /// entry's lifetime.
  const std::vector<LayerId>* GetLayerOrder(QueryEntry& entry,
                                            bool descending);

  /// Engine-wide extra-lane budget for parallel searches (Options::
  /// search_threads): borrows up to `want` lanes, returning how many were
  /// actually granted (possibly 0 — the search then runs sequentially).
  int BorrowSearchLanes(int want);
  void ReturnSearchLanes(int lanes);

  /// Solvers are bound to one graph object, so the free-list is
  /// homogeneous per snapshot: acquiring for a different graph builds
  /// fresh, and releasing a solver for the *current* snapshot's graph
  /// flushes any stale entries (old snapshots are never pinned by idle
  /// solvers).
  std::unique_ptr<DccSolver> AcquireSolver(
      const std::shared_ptr<const MultiLayerGraph>& graph);
  void ReleaseSolver(std::shared_ptr<const MultiLayerGraph> graph,
                     std::unique_ptr<DccSolver> solver);

  /// Resolves every cached metric pointer from registry_ (constructor
  /// setup; pointers stay valid for the engine's lifetime).
  void InitMetrics();
  /// Summarises a completed query's trace into the slow-query log
  /// (no-op for null traces). Only call after the trace quiesced.
  void OfferTrace(const DccsRequest& request, uint64_t epoch,
                  obs::Trace* trace);

  std::shared_ptr<GraphStore> store_;
  const Options options_;

  // The shared pool. pool_mu_ serialises batches/parallel stages; a query
  // that finds it busy simply runs its parallel stages sequentially, which
  // by the §4 contract cannot change its result. The lock is a
  // serialisation token only — no member is guarded by it — and its
  // ownership travels by value (util::UniqueLock) into RunValidated.
  ThreadPool pool_;
  util::Mutex pool_mu_{util::lock_rank::kEnginePool, "Engine::pool_mu_"};

  // Caches. cache_mu_ guards the maps and the LRU clock; per-entry
  // once-flags/mutexes guard the (expensive) payload computations so a
  // miss never blocks unrelated queries. Keys carry the snapshot
  // generation the entry was built for (DESIGN.md §8): stale-generation
  // entries simply stop being found and age out through the LRU, while
  // in-flight queries pinned to old snapshots still share them.
  mutable util::Mutex cache_mu_{util::lock_rank::kEngineCache,
                                "Engine::cache_mu_"};
  uint64_t use_clock_ MLCORE_GUARDED_BY(cache_mu_) = 0;
  std::map<std::pair<int, uint64_t>, std::shared_ptr<BaseCoresEntry>>
      base_cores_ MLCORE_GUARDED_BY(cache_mu_);
  std::map<std::pair<int, uint64_t>, uint64_t> base_cores_last_use_
      MLCORE_GUARDED_BY(cache_mu_);
  std::map<std::tuple<uint64_t, int, int, bool>, std::shared_ptr<QueryEntry>>
      queries_ MLCORE_GUARDED_BY(cache_mu_);
  std::map<std::tuple<uint64_t, int, int, bool>, uint64_t> queries_last_use_
      MLCORE_GUARDED_BY(cache_mu_);

  // Extra worker lanes still free for parallel searches (DESIGN.md §10):
  // initialised to options_.search_threads - 1, debited/credited around
  // each BU/TD search phase. Lock-free so it never serialises queries.
  std::atomic<int> search_lanes_free_{0};

  // Solver free-list (the per-worker arenas of DESIGN.md §5), homogeneous
  // per graph snapshot: free_graph_ names the graph every pooled solver is
  // bound to.
  util::Mutex solver_mu_{util::lock_rank::kSolverPool, "Engine::solver_mu_"};
  std::shared_ptr<const MultiLayerGraph> free_graph_
      MLCORE_GUARDED_BY(solver_mu_);
  std::vector<std::unique_ptr<DccSolver>> free_solvers_
      MLCORE_GUARDED_BY(solver_mu_);

  // Async scheduler (DESIGN.md §7): bounded priority queue of pending
  // QueryTasks drained by the dedicated query workers and by waiters
  // claiming their own tasks. Scheduler counters live in the metric
  // registry (relaxed atomics), so Submit/Cancel/worker paths never
  // contend on a stats lock.
  PriorityTaskQueue pending_;
  std::vector<std::thread> query_workers_;

  // Continuous queries (DESIGN.md §9): the dispatcher thread and store
  // listener start on the first Subscribe; subs_mu_ guards the
  // subscription list and the dirty/shutdown flags only — per-subscription
  // state has its own lock, and the dispatcher drops subs_mu_ before doing
  // any work, so ApplyUpdate notifications never wait on evaluations.
  std::once_flag subs_init_once_;
  std::atomic<bool> subs_started_{false};
  uint64_t store_listener_id_ = 0;
  std::thread subs_dispatcher_;
  util::Mutex subs_mu_{util::lock_rank::kEngineSubs, "Engine::subs_mu_"};
  util::CondVar subs_cv_;
  bool subs_dirty_ MLCORE_GUARDED_BY(subs_mu_) = false;
  bool subs_shutdown_ MLCORE_GUARDED_BY(subs_mu_) = false;
  std::vector<std::shared_ptr<SubscriptionState>> subscriptions_
      MLCORE_GUARDED_BY(subs_mu_);

  // Observability (DESIGN.md §12). All engine.* metrics live in registry_;
  // metrics_ caches the pointers (resolved once by InitMetrics, before any
  // worker starts) so recording never touches the registry mutex. The
  // *_global histograms are the same measurements mirrored into
  // obs::Registry::Global() for process-wide export.
  struct Metrics {
    // engine.cache.* — views behind cache_stats().
    obs::Counter* preprocess_hits = nullptr;
    obs::Counter* preprocess_misses = nullptr;
    obs::Counter* seed_hits = nullptr;
    obs::Counter* seed_misses = nullptr;
    obs::Counter* index_hits = nullptr;
    obs::Counter* index_misses = nullptr;
    obs::Counter* base_core_hits = nullptr;
    obs::Counter* base_core_misses = nullptr;
    obs::Counter* base_core_layers_reused = nullptr;
    obs::Counter* base_core_layers_recomputed = nullptr;
    obs::Counter* base_core_store_served = nullptr;
    // engine.subs.* — revision counters plus pipeline-stage latencies.
    obs::Counter* revisions_emitted = nullptr;
    obs::Counter* revisions_unchanged_skipped = nullptr;
    obs::Counter* revisions_coalesced = nullptr;
    obs::Histogram* subs_dispatch_ms = nullptr;
    obs::Histogram* subs_reeval_ms = nullptr;
    obs::Histogram* subs_delivery_ms = nullptr;
    // engine.sched.* — views behind scheduler_stats().
    obs::Counter* sched_submitted = nullptr;
    obs::Counter* sched_admitted = nullptr;
    obs::Counter* sched_rejected = nullptr;
    obs::Counter* sched_displaced = nullptr;
    obs::Counter* sched_cancelled_queued = nullptr;
    obs::Counter* sched_expired_queued = nullptr;
    obs::Counter* sched_executed = nullptr;
    // engine.query.* — per-query phase latencies.
    obs::Histogram* query_admission_wait_ms = nullptr;
    obs::Histogram* query_preprocess_ms = nullptr;
    obs::Histogram* query_search_ms = nullptr;
    obs::Histogram* query_total_ms = nullptr;
    obs::Histogram* query_preprocess_ms_global = nullptr;
    obs::Histogram* query_search_ms_global = nullptr;
    obs::Histogram* query_total_ms_global = nullptr;
  };
  obs::Registry registry_;
  Metrics metrics_;
  obs::SlowQueryLog slow_log_;
};

/// Handle to one submitted query (Engine::Submit). Copyable — copies share
/// the same underlying task — and safe to Wait/Cancel from any thread and
/// any number of times, including after the engine's destruction (which
/// resolves every outstanding query first; see Submit).
///
/// Lifecycle: queued → running → terminal. `Wait` blocks until terminal
/// (claiming and executing a still-queued task on the waiting thread);
/// `TryGet` never blocks; `Cancel` requests cooperative cancellation — a
/// queued task resolves kCancelled immediately, a running one stops at its
/// next checkpoint, and a finished one is unaffected (Cancel after
/// completion still returns the completed result).
class QueryHandle {
 public:
  QueryHandle();  // invalid; assign from Engine::Submit
  QueryHandle(const QueryHandle&);
  QueryHandle& operator=(const QueryHandle&);
  QueryHandle(QueryHandle&&) noexcept;
  QueryHandle& operator=(QueryHandle&&) noexcept;
  ~QueryHandle();

  bool valid() const { return task_ != nullptr; }
  int priority() const;

  /// Blocks until the query is terminal and returns its result. The
  /// reference stays valid for the lifetime of the handle (and its
  /// copies).
  const Expected<DccsResult>& Wait();
  /// Non-blocking: the terminal result, or nullptr while queued/running.
  const Expected<DccsResult>* TryGet() const;
  /// Requests cancellation (idempotent, never blocks). The cancellation
  /// token this triggers is also observable via `token()`.
  void Cancel();
  /// The query's cancellation token; RequestCancel() on any copy is
  /// equivalent to Cancel() for the cooperative stages (a queued task is
  /// then resolved at claim time rather than immediately).
  CancellationToken token() const;

 private:
  friend class Engine;
  QueryHandle(std::shared_ptr<Engine::QueryTask> task, Engine* engine);

  std::shared_ptr<Engine::QueryTask> task_;
  Engine* engine_ = nullptr;
};

/// Handle to one standing query (Engine::Subscribe). Copyable — copies
/// share the same subscription — and safe to use from any thread,
/// including after the engine's destruction (which terminates the
/// subscription but leaves buffered revisions consumable).
///
/// Pull mode: `Next` blocks for the next revision (draining the buffer
/// first) and returns nullopt once the subscription is terminal and
/// drained; `TryNext` never blocks. With `SubscriptionOptions::
/// on_revision` set the engine pushes revisions through the callback
/// instead and the buffer stays empty.
///
/// `Cancel` stops the stream: the in-flight re-evaluation (if any) is
/// cancelled cooperatively, no further revisions are produced, and
/// blocked `Next` calls wake. Idempotent, never blocks, needs no live
/// engine.
class Subscription {
 public:
  Subscription();  // invalid; assign from Engine::Subscribe
  Subscription(const Subscription&);
  Subscription& operator=(const Subscription&);
  Subscription(Subscription&&) noexcept;
  Subscription& operator=(Subscription&&) noexcept;
  ~Subscription();

  bool valid() const { return state_ != nullptr; }

  /// Blocks until a revision is available, the subscription is cancelled,
  /// or the engine shut down; buffered revisions are delivered first.
  /// nullopt = terminal and drained.
  std::optional<ResultRevision> Next();
  /// Non-blocking Next.
  std::optional<ResultRevision> TryNext();
  /// Stops the stream (see class comment).
  void Cancel();
  /// True while the subscription still produces revisions (not cancelled,
  /// engine alive). Buffered revisions may remain after it turns false.
  bool active() const;

 private:
  friend class Engine;
  explicit Subscription(std::shared_ptr<Engine::SubscriptionState> state);

  /// Pops the front buffered revision. Requires state_->mu — the
  /// requirement is not expressible as an annotation here because
  /// SubscriptionState is incomplete at this point, so the definition
  /// opts out of analysis instead (engine.cc).
  std::optional<ResultRevision> PopLocked();

  std::shared_ptr<Engine::SubscriptionState> state_;
};

}  // namespace mlcore

#endif  // MLCORE_SERVICE_ENGINE_H_
