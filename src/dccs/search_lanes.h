#ifndef MLCORE_DCCS_SEARCH_LANES_H_
#define MLCORE_DCCS_SEARCH_LANES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/execution.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"
#include "obs/span.h"
#include "util/task_group.h"
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
// one thread wins the kPending -> kRunning CAS — a task-group worker, or
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
/// while child evaluations run as tasks on a work-stealing TaskGroup of
/// `arenas.size()` lanes. On one lane there is no group and the driver
/// claims every slot inline. An evaluation is a callable
/// `eval(DccSolver&, Scratch&)`, taken as a template parameter so the
/// per-evaluation path has no indirect call.
///
/// Task closures reference the search and its nodes, so the search must
/// declare its SearchLanes as its last member: the group joins first.
template <typename Scratch>
class SearchLanes {
 public:
  SearchLanes(LaneArenas<Scratch>& arenas, const DccsParams& params,
              const DccsExecution& exec, SearchStats& stats,
              obs::SpanId lane_parent)
      : arenas_(arenas),
        budget_seconds_(params.time_budget_seconds),
        control_(exec.control),
        stats_(stats),
        trace_(exec.trace),
        lane_parent_(lane_parent) {
    if (arenas.size() > 1) {
      group_.emplace(arenas.size());
      if (obs::kEnabled && trace_ != nullptr) {
        lane_obs_.resize(static_cast<size_t>(arenas.size()));
      }
    }
  }
  // Queued tasks hold `this`.
  SearchLanes(const SearchLanes&) = delete;
  SearchLanes& operator=(const SearchLanes&) = delete;

  bool parallel() const { return group_.has_value(); }

  /// Queues `slot`'s evaluation on the task group; `keep` holds the node
  /// that owns the slot alive until the task has run or been discarded.
  template <typename Node, typename Eval>
  void Spawn(std::shared_ptr<Node> keep, LaneSlot& slot, Eval eval) {
    group_->Spawn(0, [this, keep = std::move(keep), &slot,
                      eval = std::move(eval)](int lane) {
      Run(slot, lane, eval);
    });
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
  /// unclaimed slot inline, otherwise helps drain the task group while a
  /// worker finishes it.
  template <typename Eval>
  void Wait(LaneSlot& slot, const Eval& eval) {
    Run(slot, 0, eval);
    while (slot.state.load(std::memory_order_acquire) != kSlotDone) {
      if (!group_ || !group_->TryRunOne(0)) std::this_thread::yield();
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

  /// Ends the search: when tracing, joins the lanes (stale speculative
  /// tasks are discarded) so the per-lane aggregates are complete, then
  /// commits one "search.lane" span per lane that ran an evaluation.
  void Finish() {
    if (lane_obs_.empty()) return;
    group_.reset();
    for (const LaneObs& lane : lane_obs_) {
      if (lane.evals == 0) continue;
      trace_->Add("search.lane", lane_parent_, trace_->AgeMs(),
                  lane.busy_seconds * 1e3,
                  lane.cpu_seconds > 0 ? lane.cpu_seconds * 1e3 : -1);
    }
  }

  /// All d-CC evaluations the slots performed, including speculative ones
  /// the driver never committed; lane-count-dependent.
  int64_t executed_calls() const {
    return executed_calls_.load(std::memory_order_relaxed);
  }

 private:
  /// One lane's claimed-evaluation busy time (wall + thread CPU). Entries
  /// are single-writer while the group runs and read only after it joins;
  /// cache-line aligned so lanes never false-share.
  struct alignas(64) LaneObs {
    double busy_seconds = 0;
    double cpu_seconds = 0;
    int64_t evals = 0;
  };

  LaneObs* LaneFor(int lane) {
    return lane_obs_.empty() ? nullptr : &lane_obs_[static_cast<size_t>(lane)];
  }

  LaneArenas<Scratch>& arenas_;
  const double budget_seconds_;
  const QueryControl* control_;
  SearchStats& stats_;
  obs::Trace* trace_;
  const obs::SpanId lane_parent_;
  std::vector<LaneObs> lane_obs_;
  WallTimer timer_;
  std::atomic<int64_t> executed_calls_{0};

  // Last member: destroyed first, so in-flight tasks finish before the
  // state above goes away.
  std::optional<TaskGroup> group_;
};

}  // namespace mlcore

#endif  // MLCORE_DCCS_SEARCH_LANES_H_
