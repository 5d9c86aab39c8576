#ifndef MLCORE_DCCS_SEARCH_LANES_H_
#define MLCORE_DCCS_SEARCH_LANES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/concurrent_topk.h"
#include "dccs/execution.h"
#include "dccs/params.h"
#include "dccs/preprocess.h"
#include "graph/multilayer_graph.h"
#include "obs/span.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timing.h"

namespace mlcore {

/// One lane's d-CC solver plus the caller's per-lane scratch buffers.
template <typename Scratch>
struct LaneArena {
  DccSolver* solver = nullptr;
  Scratch scratch;
};

/// Per-lane arenas for the parallel stages that evaluate d-CCs on worker
/// threads: GD-DCCS's pool lanes and the BU/TD search lanes. Lane 0 is the
/// calling thread; it uses `exec.solver` when set, then
/// `exec.worker_solver(0)`, and only then a solver of its own. Every other
/// lane uses `exec.worker_solver(lane)` or its own. Arenas are built on a
/// lane's first use, so a lane that never runs pays no O(n) solver scratch;
/// each lane is serviced by exactly one thread, so that needs no locking.
template <typename Scratch>
class LaneArenas {
 public:
  LaneArenas(const MultiLayerGraph& graph, const DccsExecution& exec,
             int lanes)
      : graph_(graph),
        exec_(exec),
        lanes_(static_cast<size_t>(std::max(1, lanes))) {}

  int size() const { return static_cast<int>(lanes_.size()); }

  LaneArena<Scratch>& operator[](int lane) {
    std::unique_ptr<Owned>& owned = lanes_[static_cast<size_t>(lane)];
    if (owned == nullptr) {
      owned = std::make_unique<Owned>();
      DccSolver*& solver = owned->arena.solver;
      if (lane == 0 && exec_.solver != nullptr) {
        solver = exec_.solver;
      } else if (exec_.worker_solver) {
        solver = exec_.worker_solver(lane);
      } else {
        owned->solver = std::make_unique<DccSolver>(graph_);
        solver = owned->solver.get();
      }
    }
    return owned->arena;
  }

 private:
  struct Owned {
    LaneArena<Scratch> arena;
    std::unique_ptr<DccSolver> solver;  // set when no provider supplied one
  };

  const MultiLayerGraph& graph_;
  const DccsExecution& exec_;
  std::vector<std::unique_ptr<Owned>> lanes_;
};

// Lifecycle of one lane-evaluated lattice child (DESIGN.md §10). Exactly
// one thread wins the kPending -> kRunning CAS — a helper lane, or
// the commit driver claiming the slot inline (which on one lane is how
// every slot runs, reproducing the sequential search).
constexpr uint8_t kSlotPending = 0;
constexpr uint8_t kSlotRunning = 1;
constexpr uint8_t kSlotDone = 2;
constexpr uint8_t kSlotCancelled = 3;

/// The claim state of one child evaluation; searches derive their slots
/// from it and add the evaluation's inputs and outputs.
struct LaneSlot {
  std::atomic<uint8_t> state{kSlotPending};
  /// d-CC evaluations the slot's run performed.
  int64_t solver_calls = 0;
};

/// The lane runtime shared by the BU-DCCS and TD-DCCS searches (DESIGN.md
/// §10). The search's recursion is the sequential commit driver (lane 0):
/// it makes every pruning and top-k decision in the exact sequential order,
/// while child evaluations run as tasks on the other lanes. A parallel
/// search is one `ThreadPool::ParallelFor` call of `lanes` items on
/// `exec.pool`, or, when that is null, on a pool of `exec.search_threads`
/// threads of its own. Item 0 is the driver, which the calling thread always
/// runs; the other items are helpers that run queued evaluations until the
/// driver is done. A helper no idle worker picks up runs on the caller after
/// the driver and returns at once, so a busy pool makes the search degrade
/// toward sequential instead of queueing. On one lane there is no pool call
/// and the driver claims every slot inline. An evaluation is a callable
/// `eval(DccSolver&, Scratch&)`, taken as a template parameter so the
/// per-evaluation path has no indirect call.
template <typename Scratch>
class SearchLanes {
 public:
  /// `arenas` is sized for the worker ids of the pool the lanes run on
  /// (RunLatticeSearch); the search uses min(exec.search_threads, that
  /// size) lanes.
  SearchLanes(LaneArenas<Scratch>& arenas, const DccsParams& params,
              const DccsExecution& exec, SearchStats& stats,
              obs::SpanId lane_parent)
      : arenas_(arenas),
        budget_seconds_(params.time_budget_seconds),
        control_(exec.control),
        stats_(stats),
        trace_(exec.trace),
        lane_parent_(lane_parent),
        lanes_(std::min(exec.search_threads, arenas.size())) {
    if (lanes_ > 1) {
      pool_ = exec.pool != nullptr ? exec.pool : &local_pool_.emplace(lanes_);
      MLCORE_DCHECK(pool_->num_threads() <= arenas.size());
      if (obs::kEnabled && trace_ != nullptr) {
        lane_obs_.resize(static_cast<size_t>(arenas.size()));
      }
    }
  }
  // Queued tasks hold `this`.
  SearchLanes(const SearchLanes&) = delete;
  SearchLanes& operator=(const SearchLanes&) = delete;

  bool parallel() const { return pool_ != nullptr; }

  /// Runs the commit driver `drive()` as lane 0 and returns once every lane
  /// is done; evaluations still queued then are discarded unexecuted. When
  /// tracing, it then commits one "search.lane" span per lane that ran an
  /// evaluation.
  template <typename Driver>
  void Drive(const Driver& drive) {
    if (!parallel()) {
      drive();
      return;
    }
    pool_->ParallelFor(lanes_, [&](int lane, int64_t item) {
      if (item != 0) {
        while (Task task = Pop(/*wait=*/true)) task(lane);
        return;
      }
      MLCORE_DCHECK(lane == 0);  // ParallelFor's caller runs item 0
      drive();
      std::deque<Task> stale;
      {
        util::MutexLock lock(mu_);
        driver_done_ = true;
        stale.swap(tasks_);
      }
      task_ready_.NotifyAll();
    });
    for (const LaneObs& lane : lane_obs_) {
      if (lane.evals == 0) continue;
      trace_->Add("search.lane", lane_parent_, trace_->AgeMs(),
                  lane.busy_seconds * 1e3,
                  lane.cpu_seconds > 0 ? lane.cpu_seconds * 1e3 : -1);
    }
  }

  /// Queues `slot`'s evaluation for the helper lanes; `keep` holds the node
  /// that owns the slot alive until the task has run or been discarded.
  template <typename Node, typename Eval>
  void Spawn(std::shared_ptr<Node> keep, LaneSlot& slot, Eval eval) {
    Task task = [this, keep = std::move(keep), &slot,
                 eval = std::move(eval)](int lane) { Run(slot, lane, eval); };
    {
      util::MutexLock lock(mu_);
      tasks_.push_back(std::move(task));
    }
    task_ready_.NotifyOne();
  }

  /// Claims and runs one evaluation on `lane`; no-op when another thread
  /// (or a cancellation) already owns the slot.
  template <typename Eval>
  void Run(LaneSlot& slot, int lane, const Eval& eval) {
    uint8_t expected = kSlotPending;
    if (!slot.state.compare_exchange_strong(expected, kSlotRunning,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return;
    }
    LaneArena<Scratch>& arena = arenas_[lane];
    const int64_t before = arena.solver->num_calls();
    if (LaneObs* obs = LaneFor(lane)) {
      WallTimer busy;
      ThreadCpuTimer cpu;
      eval(*arena.solver, arena.scratch);
      obs->busy_seconds += busy.Seconds();
      const double cpu_seconds = cpu.Seconds();
      if (cpu_seconds > 0) obs->cpu_seconds += cpu_seconds;
      ++obs->evals;
    } else {
      eval(*arena.solver, arena.scratch);
    }
    slot.solver_calls = arena.solver->num_calls() - before;
    executed_calls_.fetch_add(slot.solver_calls, std::memory_order_relaxed);
    slot.state.store(kSlotDone, std::memory_order_release);
  }

  /// Blocks (productively) until the slot's evaluation exists: claims an
  /// unclaimed slot inline, otherwise runs queued evaluations while a
  /// helper finishes it.
  template <typename Eval>
  void Wait(LaneSlot& slot, const Eval& eval) {
    Run(slot, 0, eval);
    while (slot.state.load(std::memory_order_acquire) != kSlotDone) {
      if (Task task = Pop(/*wait=*/false)) {
        task(0);
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Withdraws a slot nobody claimed yet; its queued task becomes a no-op.
  static void Cancel(LaneSlot& slot) {
    uint8_t expected = kSlotPending;
    slot.state.compare_exchange_strong(expected, kSlotCancelled,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  /// Cooperative checkpoint, polled by the driver at subset-lattice node
  /// boundaries: the anytime time budget plus the injected QueryControl's
  /// cancellation/deadline. Once one fires it stays fired; for
  /// budget/deadline the top-k set so far becomes the (anytime) result,
  /// for cancellation the caller discards it.
  bool StopRequested() {
    if (stats_.stopped != QueryStop::kNone) return true;
    return LatchQueryStop(CheckQueryStop(control_, budget_seconds_, timer_),
                          &stats_);
  }

  /// All d-CC evaluations the slots performed, including speculative ones
  /// the driver never committed; lane-count-dependent.
  int64_t executed_calls() const {
    return executed_calls_.load(std::memory_order_relaxed);
  }

 private:
  using Task = std::function<void(int lane)>;

  /// One lane's claimed-evaluation busy time (wall + thread CPU). Entries
  /// are single-writer while the lanes run and read only after they are
  /// done; cache-line aligned so lanes never false-share.
  struct alignas(64) LaneObs {
    double busy_seconds = 0;
    double cpu_seconds = 0;
    int64_t evals = 0;
  };

  LaneObs* LaneFor(int lane) {
    return lane_obs_.empty() ? nullptr : &lane_obs_[static_cast<size_t>(lane)];
  }

  /// The oldest queued evaluation, or an empty task once the driver is
  /// done. With `wait` false it also returns an empty task at once when the
  /// queue is empty; otherwise it parks until either changes.
  Task Pop(bool wait) {
    util::MutexLock lock(mu_);
    while (wait && !driver_done_ && tasks_.empty()) task_ready_.Wait(mu_);
    if (driver_done_ || tasks_.empty()) return nullptr;
    Task task = std::move(tasks_.front());
    tasks_.pop_front();
    return task;
  }

  LaneArenas<Scratch>& arenas_;
  const double budget_seconds_;
  const QueryControl* control_;
  SearchStats& stats_;
  obs::Trace* trace_;
  const obs::SpanId lane_parent_;
  const int lanes_;
  std::optional<ThreadPool> local_pool_;
  ThreadPool* pool_ = nullptr;  // null on one lane
  std::vector<LaneObs> lane_obs_;
  WallTimer timer_;
  std::atomic<int64_t> executed_calls_{0};

  // Only the driver spawns, so one FIFO serves every helper lane.
  util::Mutex mu_{util::lock_rank::kSearchLanes, "SearchLanes::mu_"};
  util::CondVar task_ready_;
  std::deque<Task> tasks_ MLCORE_GUARDED_BY(mu_);
  bool driver_done_ MLCORE_GUARDED_BY(mu_) = false;
};

/// d-CC evaluations of one lattice search: those the commit driver used
/// (the deterministic part of candidates_generated) and the speculative
/// ones it discarded (thread-count-dependent).
struct LatticeCalls {
  int64_t committed = 0;
  int64_t speculative = 0;
};

/// The opening BU-DCCS (Fig 7 lines 1–9) and TD-DCCS (Fig 11 lines 1–2)
/// share, and the bookkeeping around their searches: the s > l and
/// > 64-layer guards, §IV-C vertex deletion (AcquirePreprocess), InitTopK
/// (Appendix D: a copy of the injected `exec.seeds`, or computed on lane
/// 0's solver) and the layer sort (`descending` for BU, ascending for TD).
/// `search(preprocess, order, arenas, top_k, stats, search_span_id)` then
/// runs the lattice search from the seeded `top_k` inside the
/// "query.search" span and returns its LatticeCalls; R is reported under
/// "query.cover".
template <typename Scratch, typename Search>
DccsResult RunLatticeSearch(const MultiLayerGraph& graph,
                            const DccsParams& params,
                            const DccsExecution& exec, bool descending,
                            const Search& search) {
  // Guaranteed by Engine::Validate on every request path; debug-only so a
  // malformed direct call still trips in development builds.
  MLCORE_DCHECK(params.s >= 1);
  MLCORE_DCHECK(params.k >= 1);

  WallTimer total_timer;
  DccsResult result;
  // > 64 layers: the lattice's word-sized position masks cannot represent
  // the layer subsets. Library callers get the same (empty) result as the
  // vacuous s > l case; the Engine rejects such requests up front with
  // kInvalidArgument instead of ever dispatching here (DESIGN.md §5).
  std::optional<PreprocessResult> local_preprocess;
  const PreprocessResult* preprocess = nullptr;
  if (params.s <= graph.NumLayers() && graph.NumLayers() <= 64) {
    preprocess = AcquirePreprocess(graph, params, exec, &local_preprocess,
                                   &result.stats);
  }
  if (preprocess == nullptr) {
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  obs::Span search_span(exec.trace, "query.search", exec.trace_parent);
  // One arena per worker id of the pool the search lanes run on.
  LaneArenas<Scratch> arenas(
      graph, exec,
      exec.pool != nullptr ? exec.pool->num_threads() : exec.search_threads);
  MLCORE_DCHECK(exec.seeds == nullptr ||
                exec.seeds->topk.capacity() == params.k);
  InitSeeds seeds =
      exec.seeds != nullptr
          ? *exec.seeds
          : ComputeInitSeeds(graph, params, *preprocess, *arenas[0].solver);
  const std::vector<LayerId> order =
      SortedLayerOrder(*preprocess, descending, params.sort_layers);
  ConcurrentTopK top_k(std::move(seeds.topk));
  const LatticeCalls calls = search(*preprocess, order, arenas, top_k,
                                    result.stats, search_span.id());
  search_span.End();

  obs::Span cover_span(exec.trace, "query.cover", exec.trace_parent);
  result.cores = top_k.index().entries();
  cover_span.End();
  result.stats.candidates_generated = seeds.solver_calls + calls.committed;
  result.stats.speculative_evals = calls.speculative;
  result.stats.search_seconds = search_span.timer().Seconds();
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

}  // namespace mlcore

#endif  // MLCORE_DCCS_SEARCH_LANES_H_
