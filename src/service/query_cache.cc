#include "service/query_cache.h"

#include <limits>
#include <string>

#include "core/dcore.h"

namespace mlcore {

/// The §IV-C fixpoint, plus the §V-C index and the InitTopK seeds built
/// over its surviving vertex set.
struct QueryCache::Entry {
  BuildOnce<PreprocessResult> fixpoint;
  BuildOnce<VertexLevelIndex> index;
  /// By k; an entry's seeds live as long as the entry, so this table never
  /// evicts.
  LruTable<int, BuildOnce<InitSeeds>> seeds{
      std::numeric_limits<size_t>::max()};
};

namespace {

QueryCache::Counters ResolveCounters(obs::Registry& registry) {
  auto counter = [&](const std::string& name) {
    return registry.GetCounter("engine.cache." + name);
  };
  auto stage = [&](const std::string& name) {
    return QueryCache::Stage{counter(name + "_hits"),
                             counter(name + "_misses")};
  };
  return {stage("preprocess"), stage("seed"), stage("index"),
          stage("base_core"), counter("base_core_layers_reused"),
          counter("base_core_layers_recomputed"),
          counter("base_core_store_served")};
}

void Count(const QueryCache::Stage& stage, bool built) {
  (built ? stage.misses : stage.hits)->Add(1);
}

}  // namespace

QueryCache::QueryCache(obs::Registry& registry, ThreadPool& pool,
                       int capacity)
    : pool_(pool),
      counters_(ResolveCounters(registry)),
      base_cores_(static_cast<size_t>(capacity)),
      entries_(static_cast<size_t>(capacity)) {}

std::shared_ptr<const std::vector<VertexSet>> QueryCache::BaseCores(
    const std::shared_ptr<const GraphSnapshot>& snap, int d) {
  const TrackedCores* tracked = snap->tracked(d);
  // Tracked degrees key on the core-subgraph generation (identical cores
  // whenever it matches — the maintained membership cannot have changed);
  // untracked degrees key on the epoch, with per-layer reuse inside the
  // build below.
  const uint64_t generation =
      tracked != nullptr ? tracked->generation : snap->epoch();
  // The table orders by (d, generation): the entry directly below the key
  // with the same d is the newest older generation — the donor for
  // unchanged layers.
  std::shared_ptr<BuildOnce<BaseCoresValue>> prev;
  std::shared_ptr<BuildOnce<BaseCoresValue>> cell = base_cores_.Acquire(
      {d, generation}, &prev, [](const auto& key, const auto& below) {
        return key.first == below.first;
      });

  bool built = false;
  const BaseCoresValue* value = cell->Get(
      [&]() -> std::optional<BaseCoresValue> {
        const MultiLayerGraph& graph = snap->graph();
        const auto l = static_cast<int64_t>(graph.NumLayers());
        BaseCoresValue out;
        out.num_vertices = graph.NumVertices();
        out.layer_gens.resize(static_cast<size_t>(l));
        for (int64_t layer = 0; layer < l; ++layer) {
          out.layer_gens[static_cast<size_t>(layer)] =
              snap->layer_generation(static_cast<LayerId>(layer));
        }
        out.cores.assign(static_cast<size_t>(l), VertexSet());
        if (tracked != nullptr) {
          // Served wholesale from the store's incrementally maintained
          // cores.
          for (int64_t layer = 0; layer < l; ++layer) {
            out.cores[static_cast<size_t>(layer)] =
                *tracked->cores[static_cast<size_t>(layer)];
          }
          counters_.base_core_store_served->Add(1);
          return out;
        }
        // Per-layer generational reuse: copy layers whose content is
        // unchanged since the donor entry; recompute the rest. The plan is
        // fixed before the (possibly parallel) fill, so results cannot
        // depend on the thread count (§4 rules).
        const BaseCoresValue* donor =
            prev != nullptr ? prev->Peek() : nullptr;
        if (donor != nullptr && donor->num_vertices != out.num_vertices) {
          donor = nullptr;
        }
        int64_t reused = 0, recomputed = 0;
        std::vector<uint8_t> reuse_layer(static_cast<size_t>(l), 0);
        for (int64_t layer = 0; layer < l; ++layer) {
          if (donor != nullptr &&
              donor->layer_gens[static_cast<size_t>(layer)] ==
                  out.layer_gens[static_cast<size_t>(layer)]) {
            reuse_layer[static_cast<size_t>(layer)] = 1;
            ++reused;
          } else {
            ++recomputed;
          }
        }
        auto compute_layer = [&](int /*worker*/, int64_t layer) {
          if (reuse_layer[static_cast<size_t>(layer)] != 0) {
            out.cores[static_cast<size_t>(layer)] =
                donor->cores[static_cast<size_t>(layer)];
          } else {
            out.cores[static_cast<size_t>(layer)] =
                DCore(graph, static_cast<LayerId>(layer), d);
          }
        };
        pool_.ParallelFor(l, compute_layer);
        counters_.base_core_layers_reused->Add(reused);
        counters_.base_core_layers_recomputed->Add(recomputed);
        return out;
      },
      &built);
  Count(counters_.base_core, built);
  return {cell, &value->cores};
}

std::shared_ptr<QueryCache::Entry> QueryCache::Acquire(
    const std::shared_ptr<const GraphSnapshot>& snap, int d, int s,
    bool vertex_deletion, const QueryControl* control, QueryStop* stop) {
  // The §IV-C fixpoint (and the index/seeds living inside the entry)
  // depends only on the per-layer d-core-induced subgraphs, so a tracked
  // d keys on the store's core-subgraph generation — updates that never
  // touch those subgraphs keep the whole bundle warm across epochs
  // (DESIGN.md §8). Untracked degrees key on the epoch.
  std::shared_ptr<Entry> entry =
      entries_.Acquire({snap->core_generation(d), d, s, vertex_deletion});
  bool built = false;
  const PreprocessResult* fixpoint = entry->fixpoint.Get(
      [&]() -> std::optional<PreprocessResult> {
        // Base cores always publish a complete artifact once started; the
        // fixpoint checkpoints per deletion round.
        std::shared_ptr<const std::vector<VertexSet>> base =
            BaseCores(snap, d);
        PreprocessResult result = Preprocess(
            snap->graph(), d, s, vertex_deletion, &pool_, base.get(), control);
        if (result.stopped != QueryStop::kNone) {
          // Abandoned: `result`'s partial contents die here.
          *stop = result.stopped;
          return std::nullopt;
        }
        return result;
      },
      &built, control, stop);
  if (fixpoint == nullptr) return nullptr;
  Count(counters_.preprocess, built);
  return entry;
}

const PreprocessResult& QueryCache::Fixpoint(const Entry& entry) {
  return *entry.fixpoint.Peek();
}

const InitSeeds& QueryCache::Seeds(Entry& entry, const MultiLayerGraph& graph,
                                   const DccsParams& params,
                                   DccSolver& solver) {
  bool built = false;
  const InitSeeds* seeds = entry.seeds.Acquire(params.k)->Get(
      [&]() -> std::optional<InitSeeds> {
        return ComputeInitSeeds(graph, params, Fixpoint(entry), solver);
      },
      &built);
  Count(counters_.seed, built);
  return *seeds;
}

const VertexLevelIndex& QueryCache::Index(Entry& entry,
                                          const MultiLayerGraph& graph,
                                          int d) {
  bool built = false;
  const VertexLevelIndex* index = entry.index.Get(
      [&]() -> std::optional<VertexLevelIndex> {
        return VertexLevelIndex(graph, d, Fixpoint(entry).active);
      },
      &built);
  Count(counters_.index, built);
  return *index;
}

void QueryCache::Clear() {
  base_cores_.Clear();
  entries_.Clear();
}

}  // namespace mlcore
