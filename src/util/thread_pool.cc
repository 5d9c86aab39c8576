#include "util/thread_pool.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace mlcore {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

int64_t ThreadPool::Claim(Batch& batch) {
  const int64_t item = batch.next++;
  if (batch.next == batch.count) std::erase(open_, &batch);
  return item;
}

void ThreadPool::WorkerLoop(int worker) {
  util::MutexLock lock(mu_);
  while (true) {
    while (!shutdown_ && open_.empty()) work_ready_.Wait(mu_);
    if (shutdown_) return;
    Batch& batch = *open_.front();
    const int64_t item = Claim(batch);
    lock.Unlock();
    batch.fn(worker, item);
    lock.Lock();
    // Notify under mu_: the caller cannot observe `done == count` (and
    // destroy the batch) before this thread lets go of the lock.
    if (++batch.done == batch.count) batch.finished.NotifyOne();
  }
}

PriorityTaskQueue::PriorityTaskQueue(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

// The one ordering rule, both polarities: `top` selects the entry WaitPop
// serves next (highest priority, oldest within it), `!top` the
// displacement victim (lowest priority, youngest within it).
size_t PriorityTaskQueue::BestIndex(bool top) const {
  size_t best = entries_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (best == entries_.size()) {
      best = i;
      continue;
    }
    const Entry& a = entries_[i];
    const Entry& b = entries_[best];
    const bool wins = a.priority != b.priority
                          ? (a.priority > b.priority) == top
                          : (a.id < b.id) == top;
    if (wins) best = i;
  }
  return best;
}

size_t PriorityTaskQueue::TopIndex() const { return BestIndex(true); }

size_t PriorityTaskQueue::BottomIndex() const { return BestIndex(false); }

PriorityTaskQueue::PushOutcome PriorityTaskQueue::TryPush(
    int priority, std::shared_ptr<void> payload, uint64_t* id,
    Entry* displaced) {
  PushOutcome outcome = PushOutcome::kAccepted;
  {
    util::MutexLock lock(mu_);
    if (shutdown_) return PushOutcome::kRejected;
    if (entries_.size() >= capacity_) {
      const size_t victim = BottomIndex();
      if (entries_[victim].priority >= priority) {
        return PushOutcome::kRejected;
      }
      *displaced = std::move(entries_[victim]);
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
      outcome = PushOutcome::kAcceptedDisplacing;
    }
    Entry entry;
    entry.priority = priority;
    entry.id = next_id_++;
    entry.payload = std::move(payload);
    *id = entry.id;
    entries_.push_back(std::move(entry));
  }
  ready_.NotifyOne();
  return outcome;
}

bool PriorityTaskQueue::WaitPop(Entry* out) {
  util::MutexLock lock(mu_);
  while (!shutdown_ && entries_.empty()) ready_.Wait(mu_);
  if (entries_.empty()) return false;
  const size_t top = TopIndex();
  *out = std::move(entries_[top]);
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(top));
  return true;
}

bool PriorityTaskQueue::TryPop(Entry* out) {
  util::MutexLock lock(mu_);
  if (entries_.empty()) return false;
  const size_t top = TopIndex();
  *out = std::move(entries_[top]);
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(top));
  return true;
}

bool PriorityTaskQueue::TryRemove(uint64_t id, Entry* out) {
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      *out = std::move(entries_[i]);
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::vector<PriorityTaskQueue::Entry> PriorityTaskQueue::Drain() {
  util::MutexLock lock(mu_);
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.id < b.id;
            });
  std::vector<Entry> drained = std::move(entries_);
  entries_.clear();
  return drained;
}

void PriorityTaskQueue::Shutdown() {
  {
    util::MutexLock lock(mu_);
    shutdown_ = true;
  }
  ready_.NotifyAll();
}

bool PriorityTaskQueue::shut_down() const {
  util::MutexLock lock(mu_);
  return shutdown_;
}

size_t PriorityTaskQueue::size() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int, int64_t)>& fn) {
  if (count <= 0) return;
  if (num_threads_ == 1 || count == 1) {
    // Sequential fast path: no locking, same per-item semantics.
    for (int64_t item = 0; item < count; ++item) fn(0, item);
    return;
  }
  Batch batch(fn, count);
  util::MutexLock lock(mu_);
  open_.push_back(&batch);
  work_ready_.NotifyAll();
  // The caller works only on its own call: helping another one as worker
  // 0 could run two items under one worker id there.
  while (batch.next < batch.count) {
    const int64_t item = Claim(batch);
    lock.Unlock();
    fn(0, item);
    lock.Lock();
    ++batch.done;
  }
  while (batch.done < batch.count) batch.finished.Wait(mu_);
}

}  // namespace mlcore
