#include "core/dcc.h"

#include <algorithm>

#include "util/check.h"

namespace mlcore {

DccSolver::DccSolver(const MultiLayerGraph& graph)
    : graph_(graph),
      live_(static_cast<size_t>(graph.NumVertices())),
      active_(static_cast<size_t>(graph.NumVertices())) {}

VertexSet DccSolver::Compute(const LayerSet& layers, int d,
                             const VertexSet& scope, DccEngine engine) {
  VertexSet result;
  Compute(layers, d, scope, &result, engine);
  return result;
}

void DccSolver::Compute(const LayerSet& layers, int d, const VertexSet& scope,
                        VertexSet* out, DccEngine engine) {
  MLCORE_DCHECK(!layers.empty());  // engine callers never pass empty
  MLCORE_DCHECK(std::is_sorted(layers.begin(), layers.end()));
  MLCORE_DCHECK(std::is_sorted(scope.begin(), scope.end()));
  MLCORE_DCHECK(out != &scope);
  ++num_calls_;
  const size_t needed =
      layers.size() * static_cast<size_t>(graph_.NumVertices());
  if (layer_state_.size() < needed) layer_state_.resize(needed);
  if (engine == DccEngine::kQueue) {
    ComputeQueue(layers, d, scope, out);
  } else {
    ComputeBins(layers, d, scope, out);
  }
}

void DccSolver::StampScope(const VertexSet& scope) {
  if (scope_epoch_.empty()) {
    // kBins scratch is allocated on first use: kQueue never touches it.
    const auto n = static_cast<size_t>(graph_.NumVertices());
    scope_epoch_.assign(n, 0);
    removed_epoch_.assign(n, 0);
    dense_.assign(n, -1);
  }
  if (++epoch_ == 0) {
    // uint32 wrap after ~4.3e9 calls: invalidate all stale stamps once.
    std::fill(scope_epoch_.begin(), scope_epoch_.end(), 0u);
    std::fill(removed_epoch_.begin(), removed_epoch_.end(), 0u);
    epoch_ = 1;
  }
  for (VertexId v : scope) scope_epoch_[static_cast<size_t>(v)] = epoch_;
}

void DccSolver::InitDegrees(const LayerSet& layers, int d,
                            const VertexSet& scope) {
  const auto n = static_cast<size_t>(graph_.NumVertices());
  for (size_t p = 0; p < layers.size(); ++p) {
    int32_t* block = layer_state_.data() + p * n;
    const LayerId layer = layers[p];
    for (VertexId v : scope) {
      int32_t deg = 0;
      for (VertexId u : graph_.Neighbors(layer, v)) {
        if (InScope(u)) ++deg;
      }
      block[static_cast<size_t>(v)] = deg;
      if (deg < d && !Removed(v)) MarkRemoved(v);
    }
  }
}

// Lazy-witness peel. layer_state_[p·n + v] of an active vertex v is in one
// of two modes:
//  - witness (value ≥ -1): v's layer-p neighbours with id ≤ value hold
//    exactly d live vertices (its witnesses; -1 when d ≤ 0);
//  - count (value ≤ -2): v has exactly -value-2 live layer-p neighbours.
// Propagating a peeled u to v decrements a count; in witness mode it is a
// no-op unless u ≤ value, i.e. u was a witness, and then v switches to count
// mode: d-1 remaining witnesses plus the live neighbours past the boundary.
// A vertex is peeled as soon as it has fewer than d live neighbours on some
// layer. Initialisation scans each list up to its d-th live neighbour and a
// switch scans the rest, so each list is read in full at most once per call.
void DccSolver::ComputeQueue(const LayerSet& layers, int d,
                             const VertexSet& scope, VertexSet* out) {
  const auto n = static_cast<size_t>(graph_.NumVertices());
  queue_.clear();
  for (VertexId v : scope) {
    live_.Set(static_cast<size_t>(v));
    active_.Set(static_cast<size_t>(v));
  }

  // A witness scan reads ~4 neighbours: its cost is the miss on v's CSR
  // row (~20 ns per scan on the explore graph, ~75% of the kernel). So
  // prefetch the row head kRowAhead scope positions ahead and the offsets
  // entry that locates it kOffsetAhead ahead (~13 ns; DESIGN.md §2).
  constexpr size_t kRowAhead = 16;
  constexpr size_t kOffsetAhead = 64;
  const size_t size = scope.size();
  for (size_t p = 0; p < layers.size(); ++p) {
    int32_t* state = layer_state_.data() + p * n;
    const LayerId layer = layers[p];
    const MultiLayerGraph::MappedLayer csr = graph_.LayerCsr(layer);
    for (size_t i = 0; i < size; ++i) {
      if (i + kOffsetAhead < size) {
        __builtin_prefetch(
            &csr.offsets[static_cast<size_t>(scope[i + kOffsetAhead])]);
      }
      if (i + kRowAhead < size) {
        __builtin_prefetch(
            csr.neighbors.data() +
            csr.offsets[static_cast<size_t>(scope[i + kRowAhead])]);
      }
      const VertexId v = scope[i];
      if (!active_.Test(static_cast<size_t>(v))) continue;
      const auto nbrs = graph_.Neighbors(layer, v);
      int need = d;
      VertexId boundary = -1;
      if (static_cast<int64_t>(nbrs.size()) >= d) {  // else: too short
        for (auto it = nbrs.begin(); need > 0 && it != nbrs.end(); ++it) {
          if (live_.Test(static_cast<size_t>(*it))) {
            boundary = *it;
            --need;
          }
        }
      }
      if (need > 0) {
        Peel(v);
      } else {
        state[static_cast<size_t>(v)] = boundary;
      }
    }
  }

  for (size_t head = 0; head < queue_.size(); ++head) {
    const VertexId u = queue_[head];
    live_.Clear(static_cast<size_t>(u));
    for (size_t p = 0; p < layers.size(); ++p) {
      int32_t* state = layer_state_.data() + p * n;
      for (VertexId v : graph_.Neighbors(layers[p], u)) {
        if (!active_.Test(static_cast<size_t>(v))) continue;
        int32_t& s = state[static_cast<size_t>(v)];
        if (s >= -1) {
          if (u > s) continue;  // not one of v's witnesses
          const auto nbrs = graph_.Neighbors(layers[p], v);
          int32_t count = d - 1;
          for (auto it = std::upper_bound(nbrs.begin(), nbrs.end(), s);
               it != nbrs.end(); ++it) {
            if (live_.Test(static_cast<size_t>(*it))) ++count;
          }
          s = -count - 2;
        } else {
          ++s;  // one live neighbour fewer
        }
        if (-s - 2 < d) Peel(v);
      }
    }
  }

  out->clear();
  for (VertexId v : scope) {
    live_.Clear(static_cast<size_t>(v));
    if (active_.Test(static_cast<size_t>(v))) {
      active_.Clear(static_cast<size_t>(v));
      out->push_back(v);
    }
  }
}

void DccSolver::ComputeBins(const LayerSet& layers, int d,
                            const VertexSet& scope, VertexSet* out) {
  // Faithful Appendix B formulation: vertices bucketed by
  // m(v) = min_{i∈L} deg_i(v) in bin/ver/pos arrays; the minimum-m vertex is
  // repeatedly removed while m(v) < d. Removing one vertex lowers any m(u)
  // by at most 1 (Appendix B), so a removal moves u down at most one bin.
  //
  // InitDegrees pre-marks vertices already below the threshold removed
  // (bins, not a queue, drive the removal order). Pre-marked vertices are
  // doomed — they occupy the lowest bins and are popped before any live
  // vertex — so the decrement loop may skip them: their degree counters and
  // min_deg_ are never read again except for the pop-time `>= d` early-exit
  // test, which their stored sub-threshold value cannot trigger. Skipping
  // them avoids the touched_ bookkeeping and bin demotion work for the
  // entire doomed set, a measurable win on low-d instances (bench_micro's
  // BM_DccBins/4: about 1.6x when the skip landed in 26e9207).
  StampScope(scope);
  InitDegrees(layers, d, scope);
  const auto n = static_cast<size_t>(graph_.NumVertices());
  const size_t count = scope.size();
  out->clear();
  if (count == 0) return;

  auto min_degree = [&](VertexId v) {
    int32_t m = INT32_MAX;
    for (size_t p = 0; p < layers.size(); ++p) {
      m = std::min(m, layer_state_[p * n + static_cast<size_t>(v)]);
    }
    return m;
  };

  // dense_ maps vertex id -> dense index in [0, count).
  min_deg_.resize(count);
  int32_t max_m = 0;
  for (size_t i = 0; i < count; ++i) {
    dense_[static_cast<size_t>(scope[i])] = static_cast<int32_t>(i);
    min_deg_[i] = min_degree(scope[i]);
    max_m = std::max(max_m, min_deg_[i]);
  }

  bin_.assign(static_cast<size_t>(max_m) + 2, 0);
  for (size_t i = 0; i < count; ++i) ++bin_[static_cast<size_t>(min_deg_[i])];
  size_t start = 0;
  for (size_t value = 0; value <= static_cast<size_t>(max_m); ++value) {
    size_t c = bin_[value];
    bin_[value] = start;
    start += c;
  }
  ver_.resize(count);
  pos_.resize(count);
  for (size_t i = 0; i < count; ++i) {
    pos_[i] = bin_[static_cast<size_t>(min_deg_[i])];
    ver_[pos_[i]] = scope[i];
    ++bin_[static_cast<size_t>(min_deg_[i])];
  }
  for (size_t value = static_cast<size_t>(max_m); value >= 1; --value) {
    bin_[value] = bin_[value - 1];
  }
  bin_[0] = 0;

  for (size_t front = 0; front < count; ++front) {
    const VertexId v = ver_[front];
    const auto vi = static_cast<size_t>(dense_[static_cast<size_t>(v)]);
    if (min_deg_[vi] >= d) break;  // remaining vertices all satisfy the
                                   // threshold
    MarkRemoved(v);

    touched_.clear();
    for (size_t p = 0; p < layers.size(); ++p) {
      int32_t* block = layer_state_.data() + p * n;
      for (VertexId u : graph_.Neighbors(layers[p], v)) {
        if (!InScope(u) || Removed(u)) continue;
        --block[static_cast<size_t>(u)];
        touched_.push_back(u);
      }
    }
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());

    for (VertexId u : touched_) {
      const auto ui = static_cast<size_t>(dense_[static_cast<size_t>(u)]);
      const int32_t new_m = min_degree(u);
      if (new_m >= min_deg_[ui]) continue;
      MLCORE_DCHECK(new_m == min_deg_[ui] - 1);
      // Swap-demote u one bin down while it is still in the "live" region
      // (m ≥ d). This keeps every sub-threshold vertex positioned before
      // every live vertex, which the early-exit pop relies on. Vertices
      // already below the threshold are doomed regardless of their exact m,
      // so only their stored value needs updating: their bin boundaries may
      // lag behind the scan front and must not be used as swap targets.
      if (min_deg_[ui] >= d) {
        const auto value = static_cast<size_t>(min_deg_[ui]);
        const size_t pu = pos_[ui];
        const size_t pw = bin_[value];
        MLCORE_DCHECK(pw > front);
        const VertexId w = ver_[pw];
        if (w != u) {
          const auto wi = static_cast<size_t>(dense_[static_cast<size_t>(w)]);
          ver_[pu] = w;
          ver_[pw] = u;
          pos_[ui] = pw;
          pos_[wi] = pu;
        }
        ++bin_[value];
      }
      min_deg_[ui] = new_m;
    }
  }

  for (VertexId v : scope) {
    if (!Removed(v)) out->push_back(v);
  }
}

VertexSet CoherentCore(const MultiLayerGraph& graph, const LayerSet& layers,
                       int d, DccEngine engine) {
  DccSolver solver(graph);
  return solver.Compute(layers, d, AllVertices(graph), engine);
}

}  // namespace mlcore
