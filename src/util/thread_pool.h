#ifndef MLCORE_UTIL_THREAD_POOL_H_
#define MLCORE_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mlcore {

/// A small reusable fork-join pool for the embarrassingly parallel loops in
/// the DCCS stack (per-layer d-core preprocessing, GD-DCCS candidate
/// generation). Construct once per search, reuse across many ParallelFor
/// calls; workers sleep between calls.
///
/// Determinism contract (see DESIGN.md §4): ParallelFor schedules item
/// indices dynamically, so the *assignment* of items to workers varies
/// between runs, but callers write results only into per-item slots (and
/// keep any mutable scratch per-worker), which makes the merged output
/// bit-identical for every thread count. Worker ids are in
/// [0, num_threads()) and the calling thread participates as worker 0.
class ThreadPool {
 public:
  /// `num_threads` is the total parallelism (the Engine passes
  /// Engine::Options::num_threads); values < 1 are clamped to 1. The pool
  /// spawns `num_threads - 1` background workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(worker, item) for every item in [0, count), blocking until all
  /// items finish. Items are claimed dynamically; `worker` identifies the
  /// executing lane for indexing per-worker scratch arenas. Not reentrant:
  /// fn must not call ParallelFor on the same pool.
  void ParallelFor(int64_t count, const std::function<void(int, int64_t)>& fn);

 private:
  void WorkerLoop(int worker);
  // Claims and runs items until the current batch is drained. Completion is
  // tracked per *item*, not per worker, so a small batch finishes as soon
  // as its items do — the caller never waits for idle workers to wake, and
  // a worker waking late simply finds nothing to claim.
  void RunBatch(int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  util::Mutex mu_{util::lock_rank::kThreadPool, "ThreadPool::mu_"};
  util::CondVar work_ready_;
  util::CondVar batch_done_;
  // Current batch; non-null exactly while a batch is in flight.
  const std::function<void(int, int64_t)>* fn_ MLCORE_GUARDED_BY(mu_) =
      nullptr;
  int64_t count_ MLCORE_GUARDED_BY(mu_) = 0;
  int64_t next_ MLCORE_GUARDED_BY(mu_) = 0;  // next unclaimed item
  // Items finished in the current batch.
  int64_t done_ MLCORE_GUARDED_BY(mu_) = 0;
  // Bumped once per ParallelFor to wake workers.
  uint64_t generation_ MLCORE_GUARDED_BY(mu_) = 0;
  bool shutdown_ MLCORE_GUARDED_BY(mu_) = false;
};

/// Bounded, priority-ordered queue of opaque work items — the admission
/// layer in front of a pool of executor threads (the `mlcore::Engine`'s
/// async scheduler, DESIGN.md §7). Unlike ThreadPool::ParallelFor's
/// fork-join batches, entries here are independent long-lived tasks with
/// per-entry priorities, and the queue enforces a capacity instead of
/// growing without bound.
///
/// Semantics:
///  * Pop order: highest priority first; FIFO (admission order) within a
///    priority.
///  * TryPush on a full queue sheds load rather than blocking: if the
///    lowest-priority queued entry has *strictly lower* priority than the
///    new one it is displaced (returned through `displaced` for the caller
///    to resolve), otherwise the push is rejected.
///  * TryRemove lets a producer claim back a still-queued entry (cooperative
///    cancellation, or a waiter electing to run its own task). Exactly one
///    of {WaitPop, TryRemove} obtains any given entry.
///  * Shutdown wakes all poppers; WaitPop then drains remaining entries and
///    finally returns false. Drain removes everything at once (engine
///    teardown).
///
/// Thread-safe; all operations are O(queue length) worst case, which the
/// capacity bound keeps small.
class PriorityTaskQueue {
 public:
  struct Entry {
    int priority = 0;
    uint64_t id = 0;
    std::shared_ptr<void> payload;
  };

  enum class PushOutcome {
    kAccepted,
    /// Accepted by displacing the lowest-priority queued entry (written to
    /// `displaced`).
    kAcceptedDisplacing,
    /// Queue full and no queued entry has lower priority: caller must shed
    /// this request.
    kRejected,
  };

  explicit PriorityTaskQueue(size_t capacity);

  PriorityTaskQueue(const PriorityTaskQueue&) = delete;
  PriorityTaskQueue& operator=(const PriorityTaskQueue&) = delete;

  /// Attempts to enqueue `payload`. On success `*id` receives a handle for
  /// TryRemove; on kAcceptedDisplacing `*displaced` receives the evicted
  /// entry.
  PushOutcome TryPush(int priority, std::shared_ptr<void> payload,
                      uint64_t* id, Entry* displaced);

  /// Blocks until an entry is available (returns true) or the queue is shut
  /// down and empty (returns false).
  bool WaitPop(Entry* out);

  /// Non-blocking pop; false when empty.
  bool TryPop(Entry* out);

  /// Claims a specific queued entry. Returns false when it was already
  /// popped, removed, or displaced.
  bool TryRemove(uint64_t id, Entry* out);

  /// Removes and returns every queued entry (highest priority first).
  std::vector<Entry> Drain();

  void Shutdown();
  bool shut_down() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  // Both selection rules in one scan; see the definition.
  size_t BestIndex(bool top) const MLCORE_REQUIRES(mu_);
  // Index of the entry WaitPop would return next, or entries_.size().
  size_t TopIndex() const MLCORE_REQUIRES(mu_);
  // Index of the displacement victim (lowest priority, youngest within it).
  size_t BottomIndex() const MLCORE_REQUIRES(mu_);

  const size_t capacity_;
  mutable util::Mutex mu_{util::lock_rank::kTaskQueue,
                          "PriorityTaskQueue::mu_"};
  util::CondVar ready_;
  // Unordered; selection scans (small, bounded).
  std::vector<Entry> entries_ MLCORE_GUARDED_BY(mu_);
  uint64_t next_id_ MLCORE_GUARDED_BY(mu_) = 1;
  bool shutdown_ MLCORE_GUARDED_BY(mu_) = false;
};

}  // namespace mlcore

#endif  // MLCORE_UTIL_THREAD_POOL_H_
