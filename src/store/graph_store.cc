#include "store/graph_store.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/timing.h"

namespace mlcore {

namespace {

std::string EdgeName(LayerId layer, VertexId u, VertexId v) {
  return "edge " + std::to_string(u) + "-" + std::to_string(v) +
         " on layer " + std::to_string(layer);
}

}  // namespace

/// Validated, canonicalised form of an UpdateBatch: per-layer sorted
/// (u < v) edge lists, with vertex removals expanded into the removal of
/// every incident edge.
struct GraphStore::NormalizedBatch {
  int32_t add_vertices = 0;
  VertexSet removed_vertices;
  std::vector<MultiLayerGraph::EdgeList> added;
  std::vector<MultiLayerGraph::EdgeList> removed;
  int64_t edges_inserted = 0;
  int64_t edges_removed = 0;
};

GraphStore::GraphStore(MultiLayerGraph initial, Options options)
    : GraphStore(std::make_shared<const MultiLayerGraph>(std::move(initial)),
                 std::move(options)) {}

GraphStore::GraphStore(std::shared_ptr<const MultiLayerGraph> initial,
                       Options options)
    : options_(std::move(options)) {
  // Construction-time API misuse, not reachable from a validated Engine
  // request; aborting beats dereferencing null for the store's lifetime.
  MLCORE_CHECK(initial != nullptr);  // NOLINT(mlcore-release-check): ctor contract
  // d <= 0 is dropped: the 0-core is trivially every vertex, so there is
  // nothing to maintain (and fresh isolated vertices would make the
  // incremental bookkeeping lie).
  tracked_degrees_ = options_.tracked_degrees;
  std::erase_if(tracked_degrees_, [](int d) { return d <= 0; });
  std::sort(tracked_degrees_.begin(), tracked_degrees_.end());
  tracked_degrees_.erase(
      std::unique(tracked_degrees_.begin(), tracked_degrees_.end()),
      tracked_degrees_.end());

  auto snap = std::make_shared<GraphSnapshot>();
  snap->epoch_ = 0;
  snap->graph_ = std::move(initial);
  const MultiLayerGraph& graph = *snap->graph_;
  num_layers_ = graph.NumLayers();
  snap->layer_gens_.assign(static_cast<size_t>(graph.NumLayers()), 0);

  const VertexSet all = AllVertices(graph);
  maintainers_.reserve(tracked_degrees_.size());
  snap->tracked_.reserve(tracked_degrees_.size());
  for (int d : tracked_degrees_) {
    maintainers_.push_back(
        std::make_unique<DecrementalCoreMaintainer>(graph, d, all));
    const DecrementalCoreMaintainer& m = *maintainers_.back();
    TrackedCores tc;
    tc.d = d;
    tc.generation = 0;
    tc.cores.reserve(static_cast<size_t>(graph.NumLayers()));
    for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      tc.cores.push_back(
          std::make_shared<const VertexSet>(m.CoreMembers(layer)));
    }
    auto support =
        std::make_shared<std::vector<int>>(static_cast<size_t>(
            graph.NumVertices()));
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      (*support)[static_cast<size_t>(v)] = m.Support(v);
    }
    tc.support = std::move(support);
    snap->tracked_.push_back(std::move(tc));
  }
  current_ = std::move(snap);

  metrics_.epoch = registry_.GetGauge("store.epoch");
  metrics_.apply_update_ms = registry_.GetHistogram(
      "store.apply_update_ms", obs::Histogram::LatencyBoundsMs());
  metrics_.apply_update_ms_global = obs::Registry::Global().GetHistogram(
      "store.apply_update_ms", obs::Histogram::LatencyBoundsMs());
  metrics_.listener_notify_ms = registry_.GetHistogram(
      "store.listener_notify_ms", obs::Histogram::LatencyBoundsMs());
  metrics_.listener_notify_ms_global = obs::Registry::Global().GetHistogram(
      "store.listener_notify_ms", obs::Histogram::LatencyBoundsMs());
}

std::shared_ptr<const GraphSnapshot> GraphStore::snapshot() const {
  util::MutexLock lock(snapshot_mu_);
  return current_;
}

uint64_t GraphStore::epoch() const {
  util::MutexLock lock(snapshot_mu_);
  return current_->epoch_;
}

uint64_t GraphStore::AddEpochListener(EpochListener listener) {
  // Registration-time API misuse (not a request path): a null listener
  // would crash every subsequent ApplyUpdate instead of the caller.
  MLCORE_CHECK(listener != nullptr);  // NOLINT(mlcore-release-check): registration contract
  util::MutexLock lock(listeners_mu_);
  const uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void GraphStore::RemoveEpochListener(uint64_t id) {
  // Taking listeners_mu_ is the whole synchronisation: ApplyUpdate invokes
  // listeners under it, so by the time the erase below runs no invocation
  // of `id` is in flight and none can start.
  util::MutexLock lock(listeners_mu_);
  std::erase_if(listeners_, [id](const auto& entry) {
    return entry.first == id;
  });
}

StoreStats GraphStore::stats() const {
  util::MutexLock lock(stats_mu_);
  return stats_;
}

int64_t GraphStore::DamageThreshold(int32_t num_vertices) const {
  if (options_.recore_damage_threshold > 0) {
    return options_.recore_damage_threshold;
  }
  if (options_.recore_damage_threshold < 0) return -1;  // force full path
  return std::max<int64_t>(64, num_vertices / 8);
}

Status GraphStore::Normalize(const GraphSnapshot& base,
                             const UpdateBatch& batch,
                             NormalizedBatch* out) const {
  const MultiLayerGraph& graph = base.graph();
  const int32_t n_old = graph.NumVertices();
  const int32_t l = graph.NumLayers();

  if (batch.add_vertices < 0) {
    return Status::InvalidArgument("add_vertices must be >= 0, got " +
                                   std::to_string(batch.add_vertices));
  }
  out->add_vertices = batch.add_vertices;
  const int32_t n_new = n_old + batch.add_vertices;

  out->removed_vertices = batch.remove_vertices;
  std::sort(out->removed_vertices.begin(), out->removed_vertices.end());
  out->removed_vertices.erase(std::unique(out->removed_vertices.begin(),
                                          out->removed_vertices.end()),
                              out->removed_vertices.end());
  for (VertexId v : out->removed_vertices) {
    if (v < 0 || v >= n_old) {
      return Status::InvalidArgument(
          "remove_vertices: vertex " + std::to_string(v) + " outside [0, " +
          std::to_string(n_old) + ")");
    }
  }
  std::vector<uint8_t> is_removed(static_cast<size_t>(n_old), 0);
  for (VertexId v : out->removed_vertices) {
    is_removed[static_cast<size_t>(v)] = 1;
  }

  out->added.assign(static_cast<size_t>(l), {});
  out->removed.assign(static_cast<size_t>(l), {});

  auto check_edge = [&](const char* kind, size_t index, const EdgeUpdate& e,
                        int32_t max_vertex) -> Status {
    const std::string where =
        std::string(kind) + "[" + std::to_string(index) + "]: ";
    if (e.layer < 0 || e.layer >= l) {
      return Status::InvalidArgument(where + "layer " +
                                     std::to_string(e.layer) +
                                     " outside [0, " + std::to_string(l) + ")");
    }
    if (e.u < 0 || e.u >= max_vertex || e.v < 0 || e.v >= max_vertex) {
      return Status::InvalidArgument(
          where + EdgeName(e.layer, e.u, e.v) + " references a vertex " +
          "outside [0, " + std::to_string(max_vertex) + ")");
    }
    if (e.u == e.v) {
      return Status::InvalidArgument(where + "self-loop " +
                                     std::to_string(e.u) + "-" +
                                     std::to_string(e.v) + " on layer " +
                                     std::to_string(e.layer));
    }
    const VertexId lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    if ((lo < n_old && is_removed[static_cast<size_t>(lo)] != 0) ||
        (hi < n_old && is_removed[static_cast<size_t>(hi)] != 0)) {
      return Status::InvalidArgument(
          where + EdgeName(e.layer, lo, hi) +
          " touches a vertex removed in the same batch");
    }
    return Status::Ok();
  };

  for (size_t i = 0; i < batch.remove_edges.size(); ++i) {
    const EdgeUpdate& e = batch.remove_edges[i];
    Status status = check_edge("remove_edges", i, e, n_old);
    if (!status.ok()) return status;
    const VertexId lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    if (!graph.HasEdge(e.layer, lo, hi)) {
      return Status::InvalidArgument("remove_edges[" + std::to_string(i) +
                                     "]: " + EdgeName(e.layer, lo, hi) +
                                     " does not exist");
    }
    out->removed[static_cast<size_t>(e.layer)].emplace_back(lo, hi);
  }
  for (size_t i = 0; i < batch.insert_edges.size(); ++i) {
    const EdgeUpdate& e = batch.insert_edges[i];
    Status status = check_edge("insert_edges", i, e, n_new);
    if (!status.ok()) return status;
    const VertexId lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
    if (hi < n_old && graph.HasEdge(e.layer, lo, hi)) {
      return Status::InvalidArgument("insert_edges[" + std::to_string(i) +
                                     "]: " + EdgeName(e.layer, lo, hi) +
                                     " already exists");
    }
    out->added[static_cast<size_t>(e.layer)].emplace_back(lo, hi);
  }

  for (LayerId layer = 0; layer < l; ++layer) {
    auto& add = out->added[static_cast<size_t>(layer)];
    auto& rem = out->removed[static_cast<size_t>(layer)];
    std::sort(add.begin(), add.end());
    std::sort(rem.begin(), rem.end());
    if (auto it = std::adjacent_find(add.begin(), add.end());
        it != add.end()) {
      return Status::InvalidArgument(
          "duplicate insert of " + EdgeName(layer, it->first, it->second));
    }
    if (auto it = std::adjacent_find(rem.begin(), rem.end());
        it != rem.end()) {
      return Status::InvalidArgument(
          "duplicate remove of " + EdgeName(layer, it->first, it->second));
    }
    MultiLayerGraph::EdgeList conflict;
    std::set_intersection(add.begin(), add.end(), rem.begin(), rem.end(),
                          std::back_inserter(conflict));
    if (!conflict.empty()) {
      return Status::InvalidArgument(
          EdgeName(layer, conflict[0].first, conflict[0].second) +
          " is both inserted and removed in one batch");
    }
    out->edges_inserted += static_cast<int64_t>(add.size());
    out->edges_removed += static_cast<int64_t>(rem.size());
  }

  // Expand vertex removals into the removal of every incident edge. When
  // both endpoints are being removed only the lower id contributes the
  // edge; explicit remove_edges touching removed vertices were rejected
  // above, so no collision is possible.
  if (!out->removed_vertices.empty()) {
    std::vector<uint8_t> layer_dirty(static_cast<size_t>(l), 0);
    for (VertexId v : out->removed_vertices) {
      for (LayerId layer = 0; layer < l; ++layer) {
        auto& rem = out->removed[static_cast<size_t>(layer)];
        for (VertexId u : graph.Neighbors(layer, v)) {
          if (is_removed[static_cast<size_t>(u)] != 0 && u < v) continue;
          rem.emplace_back(std::min(u, v), std::max(u, v));
          ++out->edges_removed;
          layer_dirty[static_cast<size_t>(layer)] = 1;
        }
      }
    }
    // One sort per touched layer, after the whole expansion — inside the
    // loop it would be O(removed vertices × list length × log).
    for (LayerId layer = 0; layer < l; ++layer) {
      if (layer_dirty[static_cast<size_t>(layer)] != 0) {
        auto& rem = out->removed[static_cast<size_t>(layer)];
        std::sort(rem.begin(), rem.end());
      }
    }
  }
  return Status::Ok();
}

Expected<UpdateOutcome> GraphStore::ApplyUpdate(const UpdateBatch& batch) {
  util::MutexLock update_lock(update_mu_);
  std::shared_ptr<const GraphSnapshot> base = snapshot();

  if (batch.empty()) {
    UpdateOutcome outcome;
    outcome.epoch = base->epoch_;
    return outcome;
  }

  WallTimer timer;
  NormalizedBatch norm;
  Status status = Normalize(*base, batch, &norm);
  if (!status.ok()) {
    util::MutexLock stats_lock(stats_mu_);
    ++stats_.batches_rejected;
    return status;
  }

  const MultiLayerGraph& old_graph = base->graph();
  const int32_t l = old_graph.NumLayers();
  const int32_t n_new = old_graph.NumVertices() + norm.add_vertices;
  auto new_graph = std::make_shared<const MultiLayerGraph>(
      old_graph.EditedCopy(norm.add_vertices, norm.added, norm.removed));

  UpdateOutcome outcome;
  outcome.vertices_added = norm.add_vertices;
  outcome.vertices_removed =
      static_cast<int32_t>(norm.removed_vertices.size());
  outcome.edges_inserted = norm.edges_inserted;
  outcome.edges_removed = norm.edges_removed;

  const uint64_t new_epoch = base->epoch_ + 1;
  auto next = std::make_shared<GraphSnapshot>();
  next->epoch_ = new_epoch;
  next->graph_ = new_graph;
  next->layer_gens_ = base->layer_gens_;
  for (LayerId layer = 0; layer < l; ++layer) {
    if (!norm.added[static_cast<size_t>(layer)].empty() ||
        !norm.removed[static_cast<size_t>(layer)].empty()) {
      next->layer_gens_[static_cast<size_t>(layer)] = new_epoch;
    }
  }

  // Incremental per-layer core maintenance for every tracked degree:
  // deletion cascades run against the still-bound old graph (minus the
  // removed edges), then the maintainer rebinds to the new epoch's graph
  // for the insertion re-coring.
  const int64_t damage_threshold = DamageThreshold(n_new);
  next->tracked_.reserve(tracked_degrees_.size());
  for (size_t t = 0; t < tracked_degrees_.size(); ++t) {
    DecrementalCoreMaintainer& m = *maintainers_[t];
    const TrackedCores& prev = base->tracked_[t];
    bool affects = norm.add_vertices > 0;
    int64_t d_exits = 0, d_entries = 0;
    std::vector<uint8_t> layer_changed(static_cast<size_t>(l), 0);

    for (LayerId layer = 0; layer < l; ++layer) {
      const auto& rem = norm.removed[static_cast<size_t>(layer)];
      if (rem.empty()) continue;
      const auto ro = m.RemoveEdges(layer, rem, nullptr);
      d_exits += ro.exited;
      affects |= ro.core_subgraph_changed;
      if (ro.exited > 0) layer_changed[static_cast<size_t>(layer)] = 1;
      ++outcome.incremental_layer_updates;
    }
    if (norm.add_vertices > 0) m.GrowVertices(n_new);
    m.Rebind(new_graph.get());
    for (LayerId layer = 0; layer < l; ++layer) {
      const auto& add = norm.added[static_cast<size_t>(layer)];
      if (add.empty()) continue;
      const auto io = m.InsertEdges(layer, add, damage_threshold, nullptr);
      d_entries += io.entered;
      affects |= io.core_subgraph_changed;
      if (io.entered > 0) layer_changed[static_cast<size_t>(layer)] = 1;
      if (io.recomputed) {
        ++outcome.full_layer_recomputes;
      } else {
        ++outcome.incremental_layer_updates;
      }
    }
    outcome.core_exits += d_exits;
    outcome.core_entries += d_entries;

    TrackedCores tc;
    tc.d = tracked_degrees_[t];
    tc.generation = affects ? new_epoch : prev.generation;
    tc.cores.reserve(static_cast<size_t>(l));
    for (LayerId layer = 0; layer < l; ++layer) {
      if (layer_changed[static_cast<size_t>(layer)] != 0) {
        tc.cores.push_back(
            std::make_shared<const VertexSet>(m.CoreMembers(layer)));
      } else {
        tc.cores.push_back(prev.cores[static_cast<size_t>(layer)]);
      }
    }
    if (d_exits > 0 || d_entries > 0 || norm.add_vertices > 0) {
      auto support =
          std::make_shared<std::vector<int>>(static_cast<size_t>(n_new));
      for (VertexId v = 0; v < n_new; ++v) {
        (*support)[static_cast<size_t>(v)] = m.Support(v);
      }
      tc.support = std::move(support);
    } else {
      tc.support = prev.support;
    }
    next->tracked_.push_back(std::move(tc));
  }

  {
    util::MutexLock snapshot_lock(snapshot_mu_);
    current_ = next;
  }

  outcome.epoch = new_epoch;
  outcome.seconds = timer.Seconds();
  metrics_.epoch->Set(static_cast<int64_t>(new_epoch));
  metrics_.apply_update_ms->Record(outcome.seconds * 1e3);
  metrics_.apply_update_ms_global->Record(outcome.seconds * 1e3);
  {
    util::MutexLock stats_lock(stats_mu_);
    ++stats_.batches_applied;
    stats_.edges_inserted += outcome.edges_inserted;
    stats_.edges_removed += outcome.edges_removed;
    stats_.vertices_added += outcome.vertices_added;
    stats_.vertices_removed += outcome.vertices_removed;
    stats_.core_exits += outcome.core_exits;
    stats_.core_entries += outcome.core_entries;
    stats_.incremental_layer_updates += outcome.incremental_layer_updates;
    stats_.full_layer_recomputes += outcome.full_layer_recomputes;
  }

  // Notify epoch listeners (still under update_mu_, so they observe
  // epochs in publication order; see EpochListener for the contract).
  // Sweep latency is the "epoch publish" stage of the subscription
  // pipeline: the listeners only flag engines, so a slow sweep means a
  // listener is violating its cheapness contract.
  {
    WallTimer notify_timer;
    {
      util::MutexLock listeners_lock(listeners_mu_);
      for (const auto& [id, listener] : listeners_) listener(next);
    }
    metrics_.listener_notify_ms->Record(notify_timer.Millis());
    metrics_.listener_notify_ms_global->Record(notify_timer.Millis());
  }
  return outcome;
}

}  // namespace mlcore
