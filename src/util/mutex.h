#ifndef MLCORE_UTIL_MUTEX_H_
#define MLCORE_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

// Annotated mutex wrappers (DESIGN.md §11).
//
// `util::Mutex` wraps `std::mutex` as a Clang thread-safety *capability*
// so `MLCORE_GUARDED_BY` / `MLCORE_REQUIRES` contracts are machine-checked
// in the Clang build. In release builds the wrapper is a zero-overhead
// pass-through. When MLCORE_LOCK_DEBUG_ENABLED is 1 (debug or sanitized
// builds, or -DMLCORE_LOCK_DEBUG=1) each thread additionally records its
// acquisition stack and every blocking acquisition asserts the documented
// lock hierarchy below — a lock-order inversion aborts deterministically
// at the first out-of-rank acquisition instead of deadlocking on a racy
// interleaving.
//
// All long-lived mutexes in src/ are constructed with a rank from
// `lock_rank` (the single authoritative ordering table; DESIGN.md §11
// mirrors it). Rule: a thread may block on a ranked mutex only while
// every ranked mutex it already holds has a strictly smaller rank.
// Unranked mutexes (default constructor — tests, scratch use) are exempt
// from rank checks but still detect recursive self-acquisition.

#if defined(MLCORE_LOCK_DEBUG) || !defined(NDEBUG)
#define MLCORE_LOCK_DEBUG_ENABLED 1
#else
#define MLCORE_LOCK_DEBUG_ENABLED 0
#endif

namespace mlcore {
namespace util {

// Acquisition order for every long-lived mutex in the repo, outermost
// first. A thread must acquire strictly increasing ranks. Gaps are left
// so a new subsystem can slot in without renumbering.
namespace lock_rank {
inline constexpr int kStoreWriter = 150;     // GraphStore::update_mu_
inline constexpr int kStoreListeners = 200;  // GraphStore::listeners_mu_
inline constexpr int kEngineSubs = 250;      // Engine::subs_mu_
inline constexpr int kSubscription = 300;    // SubscriptionState::mu
inline constexpr int kCacheCell = 310;       // BuildOnce::mu_
inline constexpr int kWorkerSolvers = 330;   // WorkerSolvers::mu_
inline constexpr int kSolverPool = 350;      // Engine::solver_mu_
inline constexpr int kStoreSnapshot = 400;   // GraphStore::snapshot_mu_
inline constexpr int kEngineCache = 450;     // LruTable::mu_
inline constexpr int kStoreStats = 500;      // GraphStore::stats_mu_
inline constexpr int kThreadPool = 510;      // ThreadPool::mu_
inline constexpr int kSearchLanes = 520;     // SearchLanes::mu_
inline constexpr int kTaskQueue = 540;       // PriorityTaskQueue::mu_
inline constexpr int kQueryTask = 550;       // QueryTask::mu
inline constexpr int kTopK = 560;            // ConcurrentTopK::mu_
inline constexpr int kObsSlowLog = 570;      // obs::SlowQueryLog::mu_
inline constexpr int kObsRegistry = 580;     // obs::Registry::mu_
}  // namespace lock_rank

class CondVar;

class MLCORE_CAPABILITY("mutex") Mutex {
 public:
  // True when the debug acquisition-stack / rank checker is compiled in.
  static constexpr bool kRankCheckingEnabled = MLCORE_LOCK_DEBUG_ENABLED != 0;

  Mutex() noexcept = default;  // unranked: exempt from hierarchy checks

#if MLCORE_LOCK_DEBUG_ENABLED
  Mutex(int rank, const char* name) noexcept : rank_(rank), name_(name) {}
#else
  Mutex(int, const char*) noexcept {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MLCORE_ACQUIRE() {
#if MLCORE_LOCK_DEBUG_ENABLED
    DebugCheckBeforeLock();
#endif
    mu_.lock();
#if MLCORE_LOCK_DEBUG_ENABLED
    DebugPushHeld();
#endif
  }

  void Unlock() MLCORE_RELEASE() {
#if MLCORE_LOCK_DEBUG_ENABLED
    DebugPopHeld();
#endif
    mu_.unlock();
  }

 private:
  friend class CondVar;

  std::mutex mu_;
#if MLCORE_LOCK_DEBUG_ENABLED
  // Asserts (and aborts on failure) that blocking on this mutex respects
  // the rank order and is not a recursive self-acquisition. Runs BEFORE
  // std::mutex::lock so a violation fails loudly instead of deadlocking.
  void DebugCheckBeforeLock() const;
  void DebugPushHeld() const;
  void DebugPopHeld() const;

  int rank_ = -1;  // -1 = unranked
  const char* name_ = "<unranked>";
#endif
};

// RAII lock. Scoped-capability annotated and relockable (Unlock/Lock),
// mirroring the MutexLocker pattern from the Clang TSA documentation.
class MLCORE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MLCORE_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }

  ~MutexLock() MLCORE_RELEASE() {
    if (held_) mu_.Unlock();
  }

  // Temporarily release / re-acquire within the scope.
  void Unlock() MLCORE_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() MLCORE_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_;
};

// Condition variable paired with util::Mutex. Waits keep the debug
// acquisition stack honest (the mutex is popped for the duration of the
// wait and re-checked on re-acquisition).
//
// Deliberately no predicate overload: a predicate lambda is analyzed as
// a separate function by TSA and cannot see the caller's lock, so
// guarded reads inside it would defeat the checks. Write the loop at the
// call site instead:   while (!cond) cv.Wait(mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) MLCORE_REQUIRES(mu);
  std::cv_status WaitFor(Mutex& mu, std::chrono::nanoseconds rel_time)
      MLCORE_REQUIRES(mu);

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace mlcore

#endif  // MLCORE_UTIL_MUTEX_H_
