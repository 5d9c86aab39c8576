#ifndef MLCORE_SERVICE_QUERY_CACHE_H_
#define MLCORE_SERVICE_QUERY_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/params.h"
#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "obs/metrics.h"
#include "store/graph_store.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace mlcore {

/// One value built at most once at a time and published whole (DESIGN.md
/// §5/§7). The builder runs outside the cell's lock while other callers
/// wait for it; a build that gives up publishes nothing, and the next
/// caller builds again. So a cancelled query leaves the cell exactly as if
/// it had never run.
template <typename T>
class BuildOnce {
 public:
  /// The published value, or nullptr while there is none. Lock-free.
  const T* Peek() const {
    return ready_.load(std::memory_order_acquire) ? &*value_ : nullptr;
  }

  /// Returns the published value, first running `build` (returning
  /// `std::optional<T>`; nullopt abandons the build) if there is none and
  /// nobody else is building. `*built` is true when this call published it
  /// (a miss), false when it found it (a hit). A caller with a `control`
  /// checks it before building and every 5 ms while waiting, returning
  /// nullptr with `*stop` set when it fires; one without waits. An
  /// abandoned build returns nullptr too; its builder knows why.
  template <typename Build>
  const T* Get(Build&& build, bool* built,
               const QueryControl* control = nullptr,
               QueryStop* stop = nullptr) {
    *built = false;
    if (const T* value = Peek()) return value;
    util::MutexLock lock(mu_);
    while (building_) {
      if (control == nullptr) {
        cv_.Wait(mu_);
        continue;
      }
      cv_.WaitFor(mu_, std::chrono::milliseconds(5));
      if ((*stop = control->Check()) != QueryStop::kNone) return nullptr;
    }
    if (const T* value = Peek()) return value;
    if (control != nullptr &&
        (*stop = control->Check()) != QueryStop::kNone) {
      return nullptr;
    }
    building_ = true;
    lock.Unlock();
    std::optional<T> value = build();
    lock.Lock();
    building_ = false;
    if (value.has_value()) {
      value_ = std::move(value);
      ready_.store(true, std::memory_order_release);
      *built = true;
    }
    lock.Unlock();
    cv_.NotifyAll();
    return Peek();
  }

 private:
  util::Mutex mu_{util::lock_rank::kCacheCell, "BuildOnce::mu_"};
  util::CondVar cv_;
  bool building_ MLCORE_GUARDED_BY(mu_) = false;
  std::atomic<bool> ready_{false};
  // Publish-once: written under mu_ before ready_ flips, read lock-free
  // after observing ready_ — deliberately unannotated.
  std::optional<T> value_;
};

/// Keyed `shared_ptr` entries, evicting the least recently used beyond
/// `capacity`. Holders keep an evicted entry alive. Thread-safe.
template <typename Key, typename Entry>
class LruTable {
 public:
  explicit LruTable(size_t capacity) : capacity_(capacity) {}

  /// The entry for `key`, default-constructed on first use, and now the
  /// most recently used. When `below` is set it receives the entry ordered
  /// directly below `key` if `related(key, its key)` holds, else nullptr.
  std::shared_ptr<Entry> Acquire(
      const Key& key, std::shared_ptr<Entry>* below = nullptr,
      bool (*related)(const Key&, const Key&) = nullptr) {
    util::MutexLock lock(mu_);
    auto it = slots_.lower_bound(key);
    if (below != nullptr) {
      below->reset();
      if (it != slots_.begin() && related(key, std::prev(it)->first)) {
        *below = std::prev(it)->second.entry;
      }
    }
    if (it == slots_.end() || it->first != key) {
      it = slots_.emplace_hint(it, key, Slot{std::make_shared<Entry>(), 0});
    }
    it->second.last_use = ++clock_;
    std::shared_ptr<Entry> entry = it->second.entry;
    while (slots_.size() > capacity_) {
      auto victim = slots_.begin();
      for (auto s = slots_.begin(); s != slots_.end(); ++s) {
        if (s->second.last_use < victim->second.last_use) victim = s;
      }
      slots_.erase(victim);
    }
    return entry;
  }

  void Clear() {
    util::MutexLock lock(mu_);
    slots_.clear();
  }

 private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    uint64_t last_use;
  };

  const size_t capacity_;
  util::Mutex mu_{util::lock_rank::kEngineCache, "LruTable::mu_"};
  uint64_t clock_ MLCORE_GUARDED_BY(mu_) = 0;
  std::map<Key, Slot> slots_ MLCORE_GUARDED_BY(mu_);
};

/// The Engine's cross-query cache (DESIGN.md §5). Full-graph per-layer
/// d-cores are keyed by d; the §IV-C fixpoint, the §V-C index and the
/// InitTopK seeds (by k) share one entry per (d, s, vertex_deletion). Keys
/// carry the snapshot generation the entry was built for (DESIGN.md §8):
/// stale entries stop being found and age out through the LRU, while
/// queries pinned to old snapshots still share them. Hits (found
/// published) and misses (built and published) count in the owner's
/// registry as `engine.cache.*`; an abandoned build counts as neither.
class QueryCache {
 public:
  /// One (generation, d, s, vertex_deletion) entry. A query's pointer
  /// keeps it, and the stages it read, alive past eviction.
  struct Entry;

  /// One stage's `engine.cache.<stage>_hits` / `_misses` counters.
  struct Stage {
    obs::Counter* hits;
    obs::Counter* misses;
  };
  /// The `engine.cache.*` counters, resolved from the owner's registry.
  struct Counters {
    Stage preprocess, seed, index, base_core;
    obs::Counter* base_core_layers_reused;
    obs::Counter* base_core_layers_recomputed;
    obs::Counter* base_core_store_served;
  };

  /// Keeps at most `capacity` base-core entries and `capacity` query
  /// entries, and fills base cores over `pool`.
  QueryCache(obs::Registry& registry, ThreadPool& pool, int capacity);

  /// Full-graph per-layer d-cores at `snap` (slot i holds DCore(graph, i,
  /// d)). A miss copies the layers unchanged since the newest older entry
  /// for the same d, and a tracked d is served from the store's maintained
  /// cores outright.
  std::shared_ptr<const std::vector<VertexSet>> BaseCores(
      const std::shared_ptr<const GraphSnapshot>& snap, int d);

  /// The (d, s, vertex_deletion) entry at `snap`, its fixpoint published.
  /// Returns nullptr with `*stop` set when `control` fired first.
  std::shared_ptr<Entry> Acquire(
      const std::shared_ptr<const GraphSnapshot>& snap, int d, int s,
      bool vertex_deletion, const QueryControl* control, QueryStop* stop);
  static const PreprocessResult& Fixpoint(const Entry& entry);

  /// The entry's InitTopK seeds for `params.k`, computed on `solver` on
  /// first use, and its §V-C vertex index, built on first use. Both live as
  /// long as the entry.
  const InitSeeds& Seeds(Entry& entry, const MultiLayerGraph& graph,
                         const DccsParams& params, DccSolver& solver);
  const VertexLevelIndex& Index(Entry& entry, const MultiLayerGraph& graph,
                                int d);

  const Counters& counters() const { return counters_; }
  /// Drops every entry; queries holding one keep it.
  void Clear();

 private:
  struct BaseCoresValue {
    int32_t num_vertices = 0;
    std::vector<uint64_t> layer_gens;
    std::vector<VertexSet> cores;
  };

  ThreadPool& pool_;
  const Counters counters_;
  LruTable<std::pair<int, uint64_t>, BuildOnce<BaseCoresValue>> base_cores_;
  LruTable<std::tuple<uint64_t, int, int, bool>, Entry> entries_;
};

}  // namespace mlcore

#endif  // MLCORE_SERVICE_QUERY_CACHE_H_
