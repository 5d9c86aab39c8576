#include "dccs/preprocess.h"

#include <algorithm>
#include <numeric>

#include "core/dcore.h"
#include "util/timing.h"

namespace mlcore {

PreprocessResult Preprocess(const MultiLayerGraph& graph, int d, int s,
                            bool vertex_deletion, ThreadPool* pool,
                            const std::vector<VertexSet>* base_cores,
                            const QueryControl* control) {
  WallTimer timer;
  PreprocessResult result;
  const auto n = static_cast<size_t>(graph.NumVertices());
  const auto l = static_cast<size_t>(graph.NumLayers());

  result.active = AllVertices(graph);
  result.support.assign(n, 0);

  // Lines 1–7 of BU-DCCS: iterate {recompute per-layer d-cores; drop
  // vertices supported by fewer than s layers} to a fixpoint. One pass with
  // no deletion when the ablation disables vertex deletion. The l per-layer
  // d-cores of a round are independent, so they fan out over `pool`; every
  // core lands in its layer-indexed slot and the support/bitmap merge runs
  // sequentially afterwards, keeping the result thread-count-invariant.
  bool first_round = true;
  while (true) {
    // Cooperative checkpoint, once per deletion round. A started round runs
    // to completion, so callers observing stopped == kNone always hold a
    // full fixpoint.
    if (control != nullptr) {
      result.stopped = control->Check();
      if (result.stopped != QueryStop::kNone) {
        result.seconds = timer.Seconds();
        return result;
      }
    }
    if (first_round && base_cores != nullptr) {
      // The first round runs over the full vertex set, so its cores are
      // exactly the caller-provided full-graph d-cores.
      MLCORE_DCHECK(base_cores->size() == l);
      result.layer_cores = *base_cores;
    } else {
      result.layer_cores.assign(l, VertexSet());
      auto compute_layer = [&](int /*worker*/, int64_t layer) {
        result.layer_cores[static_cast<size_t>(layer)] =
            DCoreScoped(graph, static_cast<LayerId>(layer), d, result.active);
      };
      if (pool != nullptr) {
        pool->ParallelFor(static_cast<int64_t>(l), compute_layer);
      } else {
        for (int64_t layer = 0; layer < static_cast<int64_t>(l); ++layer) {
          compute_layer(0, layer);
        }
      }
    }
    first_round = false;
    result.layer_core_bits.assign(l, Bitset(n));
    std::fill(result.support.begin(), result.support.end(), 0);
    for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      for (VertexId v : result.layer_cores[static_cast<size_t>(layer)]) {
        result.layer_core_bits[static_cast<size_t>(layer)].Set(
            static_cast<size_t>(v));
        ++result.support[static_cast<size_t>(v)];
      }
    }
    if (!vertex_deletion) break;

    VertexSet next;
    next.reserve(result.active.size());
    for (VertexId v : result.active) {
      if (result.support[static_cast<size_t>(v)] >= s) next.push_back(v);
    }
    if (next.size() == result.active.size()) break;
    result.active = std::move(next);
  }
  // Zero the support of deleted vertices so callers can rely on it.
  if (vertex_deletion) {
    Bitset active_bits(n);
    for (VertexId v : result.active) active_bits.Set(static_cast<size_t>(v));
    for (size_t v = 0; v < n; ++v) {
      if (!active_bits.Test(v)) result.support[v] = 0;
    }
  }

  result.seconds = timer.Seconds();
  return result;
}

std::vector<LayerId> SortedLayerOrder(const PreprocessResult& preprocess,
                                      bool descending, bool sort_layers) {
  std::vector<LayerId> order(preprocess.layer_cores.size());
  std::iota(order.begin(), order.end(), 0);
  if (!sort_layers) return order;
  std::stable_sort(order.begin(), order.end(), [&](LayerId a, LayerId b) {
    size_t size_a = preprocess.layer_cores[static_cast<size_t>(a)].size();
    size_t size_b = preprocess.layer_cores[static_cast<size_t>(b)].size();
    return descending ? size_a > size_b : size_a < size_b;
  });
  return order;
}

void PositionsToLayerIds(const std::vector<LayerId>& order,
                         const LayerSet& positions, LayerSet* ids) {
  ids->clear();
  ids->reserve(positions.size());
  for (LayerId pos : positions) {
    ids->push_back(order[static_cast<size_t>(pos)]);
  }
  std::sort(ids->begin(), ids->end());
}

InitSeeds ComputeInitSeeds(const MultiLayerGraph& graph,
                           const DccsParams& params,
                           const PreprocessResult& preprocess,
                           DccSolver& solver) {
  InitSeeds seeds{CoverageIndex(params.k)};
  if (!params.init_result) return seeds;
  const int32_t l = graph.NumLayers();
  if (params.s > l) return seeds;

  CoverageIndex& result = seeds.topk;
  const int64_t calls_before = solver.num_calls();
  for (int p = 0; p < params.k; ++p) {
    // Seed layer: the d-core with the largest marginal cover gain.
    LayerId best_layer = 0;
    int64_t best_gain = -1;
    for (LayerId i = 0; i < l; ++i) {
      int64_t gain =
          result.MarginalGain(preprocess.layer_cores[static_cast<size_t>(i)]);
      if (gain > best_gain) {
        best_gain = gain;
        best_layer = i;
      }
    }
    LayerSet chosen = {best_layer};
    VertexSet intersection =
        preprocess.layer_cores[static_cast<size_t>(best_layer)];

    // Extend to s layers, each time maximising |C ∩ C^d(G_j)|.
    for (int q = 1; q < params.s; ++q) {
      LayerId best_j = -1;
      int64_t best_size = -1;
      for (LayerId j = 0; j < l; ++j) {
        if (std::find(chosen.begin(), chosen.end(), j) != chosen.end()) {
          continue;
        }
        int64_t size = 0;
        const Bitset& bits =
            preprocess.layer_core_bits[static_cast<size_t>(j)];
        for (VertexId v : intersection) {
          if (bits.Test(static_cast<size_t>(v))) ++size;
        }
        if (size > best_size) {
          best_size = size;
          best_j = j;
        }
      }
      chosen.push_back(best_j);
      intersection = IntersectSorted(
          intersection, preprocess.layer_cores[static_cast<size_t>(best_j)]);
    }
    std::sort(chosen.begin(), chosen.end());
    const VertexSet core =
        solver.Compute(chosen, params.d, intersection, params.dcc_engine);
    result.Update(core, chosen);
  }
  seeds.solver_calls = solver.num_calls() - calls_before;
  return seeds;
}

}  // namespace mlcore
