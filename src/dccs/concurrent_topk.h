#ifndef MLCORE_DCCS_CONCURRENT_TOPK_H_
#define MLCORE_DCCS_CONCURRENT_TOPK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "dccs/cover.h"
#include "dccs/params.h"
#include "graph/multilayer_graph.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mlcore {

/// The shared top-k state of the parallel BU-/TD-DCCS searches
/// (DESIGN.md §10): a `CoverageIndex` owned by the sequential commit
/// driver, plus a lock-free *published bound* that speculative worker
/// tasks read to decide whether launching or executing an evaluation is
/// still worthwhile.
///
/// Division of labour:
///   * The commit driver — exactly one thread — calls the exact methods
///     (`Update`, `full`, `SatisfiesEq1`, `BelowOrderThreshold`,
///     `SatisfiesEq2`, `index`). These reproduce the sequential search's
///     pruning decisions bit-for-bit, because the driver applies them in
///     the sequential total order (depth, parent path, sibling rank).
///   * Any thread may call the `Speculatively*` methods, which read a
///     relaxed-atomic snapshot republished after every Update. A stale
///     snapshot can only *under*-prune (the snapshot lags the driver, and
///     a weaker bound admits a superset of evaluations), so speculation
///     costs wasted work, never a wrong result — the commit driver
///     re-checks everything against the exact state before anything enters
///     R. Update itself additionally serialises under a mutex so the class
///     stays safe if a future host ever commits from more than one thread.
class ConcurrentTopK {
 public:
  /// Starts from an already-seeded index (InitSeeds::topk); takes the
  /// index by value and publishes its bound.
  explicit ConcurrentTopK(CoverageIndex seeded);

  ConcurrentTopK(const ConcurrentTopK&) = delete;
  ConcurrentTopK& operator=(const ConcurrentTopK&) = delete;

  // --- Exact API: commit driver only. ---
  //
  // The reads below deliberately bypass mu_ (NO_THREAD_SAFETY_ANALYSIS):
  // by the single-driver contract above, exactly one thread calls them,
  // and that same thread is the only one that mutates index_ (through
  // Update, which does serialise under mu_), so the accesses are ordered
  // by program order alone. Taking the lock here would put a mutex
  // acquisition on the hottest pruning path for no exclusion gain.
  bool Update(const VertexSet& candidate, const LayerSet& layers)
      MLCORE_EXCLUDES(mu_);
  bool full() const MLCORE_NO_THREAD_SAFETY_ANALYSIS {
    return index_.full();
  }
  bool SatisfiesEq1(const VertexSet& candidate) const
      MLCORE_NO_THREAD_SAFETY_ANALYSIS {
    return index_.SatisfiesEq1(candidate);
  }
  bool BelowOrderThreshold(int64_t upper_bound_size) const
      MLCORE_NO_THREAD_SAFETY_ANALYSIS {
    return index_.BelowOrderThreshold(upper_bound_size);
  }
  bool SatisfiesEq2(int64_t potential_size) const
      MLCORE_NO_THREAD_SAFETY_ANALYSIS {
    return index_.SatisfiesEq2(potential_size);
  }
  const CoverageIndex& index() const MLCORE_NO_THREAD_SAFETY_ANALYSIS {
    return index_;
  }

  // --- Speculative API: any thread, lock-free, stale-is-safe. ---
  /// Snapshot of full(); false while |R| < k (no pruning applies then).
  bool SpeculativelyFull() const {
    return size_.load(std::memory_order_relaxed) >=
           cap_.load(std::memory_order_relaxed);
  }
  /// Snapshot of BelowOrderThreshold (Lemmas 3/6): true when a candidate
  /// whose size is at most `upper_bound_size` was already hopeless at the
  /// last published bound. Returns false while R was not yet full.
  bool SpeculativelyBelowOrderThreshold(int64_t upper_bound_size) const {
    if (!SpeculativelyFull()) return false;
    const int64_t k = cap_.load(std::memory_order_relaxed);
    return upper_bound_size * k <
           cover_size_.load(std::memory_order_relaxed) +
               k * min_exclusive_.load(std::memory_order_relaxed);
  }

 private:
  // Re-publishes the atomic bound mirror from index_.
  void Publish() MLCORE_REQUIRES(mu_);

  mutable util::Mutex mu_{util::lock_rank::kTopK, "ConcurrentTopK::mu_"};
  CoverageIndex index_ MLCORE_GUARDED_BY(mu_);

  std::atomic<int64_t> cover_size_{0};
  std::atomic<int64_t> min_exclusive_{0};
  std::atomic<int32_t> size_{0};
  std::atomic<int32_t> cap_{1};
};

}  // namespace mlcore

#endif  // MLCORE_DCCS_CONCURRENT_TOPK_H_
