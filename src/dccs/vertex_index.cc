#include "dccs/vertex_index.h"

#include <algorithm>

#include "core/dcore.h"
#include "util/bitset.h"
#include "util/check.h"

namespace mlcore {

VertexLevelIndex::VertexLevelIndex(const MultiLayerGraph& graph, int d,
                                   const VertexSet& active) {
  const auto n = static_cast<size_t>(graph.NumVertices());
  const auto l = static_cast<size_t>(graph.NumLayers());
  stage_.assign(n, -1);

  // Initial per-layer d-cores within `active`, with degrees maintained
  // inside the current core for decremental updates.
  std::vector<Bitset> core(l, Bitset(n));
  std::vector<int32_t> deg(n * l, 0);
  std::vector<int> num(n, 0);
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    VertexSet members = DCoreScoped(graph, layer, d, active);
    Bitset& bits = core[static_cast<size_t>(layer)];
    for (VertexId v : members) bits.Set(static_cast<size_t>(v));
    for (VertexId v : members) {
      int32_t within = 0;
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (bits.Test(static_cast<size_t>(u))) ++within;
      }
      deg[static_cast<size_t>(v) * l + static_cast<size_t>(layer)] = within;
      ++num[static_cast<size_t>(v)];
    }
  }

  std::vector<uint8_t> alive(n, 0);
  VertexSet alive_list = active;
  for (VertexId v : active) alive[static_cast<size_t>(v)] = 1;

  // Decremental core maintenance: removing (v, layer) from a core cascades
  // through under-degree neighbours on that layer.
  std::vector<std::pair<VertexId, LayerId>> queue;
  auto remove_from_core = [&](VertexId v, LayerId layer) {
    Bitset& bits = core[static_cast<size_t>(layer)];
    if (!bits.Test(static_cast<size_t>(v))) return;
    bits.Clear(static_cast<size_t>(v));
    if (alive[static_cast<size_t>(v)] != 0) --num[static_cast<size_t>(v)];
    queue.emplace_back(v, layer);
  };
  auto drain_queue = [&] {
    for (size_t head = 0; head < queue.size(); ++head) {
      auto [v, layer] = queue[head];
      const Bitset& bits = core[static_cast<size_t>(layer)];
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (!bits.Test(static_cast<size_t>(u))) continue;
        auto& du = deg[static_cast<size_t>(u) * l + static_cast<size_t>(layer)];
        if (--du < d) remove_from_core(u, layer);
      }
    }
    queue.clear();
  };

  for (int h = 1; h <= graph.NumLayers(); ++h) {
    while (true) {
      // Collect the batch: alive vertices with Num(v) ≤ h.
      VertexSet batch;
      VertexSet survivors;
      survivors.reserve(alive_list.size());
      for (VertexId v : alive_list) {
        if (num[static_cast<size_t>(v)] <= h) {
          batch.push_back(v);
        } else {
          survivors.push_back(v);
        }
      }
      if (batch.empty()) break;
      alive_list = std::move(survivors);

      for (VertexId v : batch) {
        stage_[static_cast<size_t>(v)] = h;
        alive[static_cast<size_t>(v)] = 0;
      }
      // Cascade the removals through every core the batch touched.
      for (VertexId v : batch) {
        for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
          remove_from_core(v, layer);
        }
      }
      drain_queue();
    }
    if (alive_list.empty()) break;
  }
  MLCORE_DCHECK(alive_list.empty());
}

}  // namespace mlcore
