#include "graph/multilayer_graph.h"

#include <algorithm>
#include <unordered_set>

namespace mlcore {

MultiLayerGraph::Csr& MultiLayerGraph::Csr::operator=(const Csr& other) {
  if (this == &other) return *this;
  // Per-array seam: an array owned by `other` is deep-copied and the view
  // re-anchored; a mapped array is shared by view (the enclosing graph
  // copies backing_ alongside, keeping the mapping alive).
  if (other.offsets.data() == other.offsets_store.data()) {
    offsets_store = other.offsets_store;
    offsets = offsets_store;
  } else {
    offsets_store.clear();
    offsets = other.offsets;
  }
  if (other.neighbors.data() == other.neighbors_store.data()) {
    neighbors_store = other.neighbors_store;
    neighbors = neighbors_store;
  } else {
    neighbors_store.clear();
    neighbors = other.neighbors;
  }
  return *this;
}

MultiLayerGraph MultiLayerGraph::FromMappedCsr(
    int32_t num_vertices, const std::vector<MappedLayer>& layers,
    std::shared_ptr<const void> backing) {
  MultiLayerGraph graph;
  graph.num_vertices_ = num_vertices;
  graph.layers_.resize(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    MLCORE_DCHECK(layers[i].offsets.size() ==
                  static_cast<size_t>(num_vertices) + 1);
    graph.layers_[i].offsets = layers[i].offsets;
    graph.layers_[i].neighbors = layers[i].neighbors;
  }
  graph.backing_ = std::move(backing);
  return graph;
}

int64_t MultiLayerGraph::MappedBytes() const {
  int64_t bytes = 0;
  for (const Csr& csr : layers_) {
    if (csr.offsets.data() != csr.offsets_store.data()) {
      bytes += static_cast<int64_t>(csr.offsets.size_bytes());
    }
    if (csr.neighbors.data() != csr.neighbors_store.data()) {
      bytes += static_cast<int64_t>(csr.neighbors.size_bytes());
    }
  }
  return bytes;
}

bool MultiLayerGraph::HasEdge(LayerId layer, VertexId u, VertexId v) const {
  auto nbrs = Neighbors(layer, u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

int64_t MultiLayerGraph::TotalEdges() const {
  int64_t total = 0;
  for (LayerId i = 0; i < NumLayers(); ++i) total += NumEdges(i);
  return total;
}

int64_t MultiLayerGraph::DistinctEdges() const {
  // Merge the per-layer neighbour lists of every vertex and count distinct
  // higher-id endpoints. Avoids hashing all edges at once.
  int64_t distinct = 0;
  std::vector<VertexId> merged;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    merged.clear();
    for (LayerId i = 0; i < NumLayers(); ++i) {
      for (VertexId u : Neighbors(i, v)) {
        if (u > v) merged.push_back(u);
      }
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    distinct += static_cast<int64_t>(merged.size());
  }
  return distinct;
}

MultiLayerGraph MultiLayerGraph::InducedSubgraph(
    const VertexSet& vertices, std::vector<VertexId>* old_ids) const {
  MLCORE_DCHECK(std::is_sorted(vertices.begin(), vertices.end()));
  const auto sub_n = static_cast<int32_t>(vertices.size());
  // Dense old-id -> new-id map; -1 marks "not in subgraph".
  std::vector<VertexId> new_id(static_cast<size_t>(num_vertices_), -1);
  for (int32_t i = 0; i < sub_n; ++i) {
    new_id[static_cast<size_t>(vertices[static_cast<size_t>(i)])] = i;
  }

  MultiLayerGraph sub;
  sub.num_vertices_ = sub_n;
  sub.layers_.resize(layers_.size());
  for (LayerId layer = 0; layer < NumLayers(); ++layer) {
    Csr& csr = sub.layers_[static_cast<size_t>(layer)];
    auto& offsets = csr.offsets_store;
    auto& neighbors = csr.neighbors_store;
    offsets.assign(static_cast<size_t>(sub_n) + 1, 0);
    // First pass: count surviving neighbours.
    for (int32_t i = 0; i < sub_n; ++i) {
      int64_t cnt = 0;
      for (VertexId u : Neighbors(layer, vertices[static_cast<size_t>(i)])) {
        if (new_id[static_cast<size_t>(u)] >= 0) ++cnt;
      }
      offsets[static_cast<size_t>(i) + 1] = cnt;
    }
    for (int32_t i = 0; i < sub_n; ++i) {
      offsets[static_cast<size_t>(i) + 1] += offsets[static_cast<size_t>(i)];
    }
    neighbors.resize(static_cast<size_t>(offsets.back()));
    // Second pass: fill. Source lists are sorted by old id, and new ids are
    // assigned in old-id order, so output lists are sorted as well.
    for (int32_t i = 0; i < sub_n; ++i) {
      int64_t pos = offsets[static_cast<size_t>(i)];
      for (VertexId u : Neighbors(layer, vertices[static_cast<size_t>(i)])) {
        VertexId nu = new_id[static_cast<size_t>(u)];
        if (nu >= 0) neighbors[static_cast<size_t>(pos++)] = nu;
      }
    }
    csr.SealOwned();
  }
  if (old_ids != nullptr) *old_ids = vertices;
  return sub;
}

namespace {

/// Expands a canonical (u < v) edge list into directed (src, dst) records
/// sorted by (src, dst), so per-vertex slices come off a single pointer
/// sweep instead of an n-sized bucket array.
void ExpandDirected(const MultiLayerGraph::EdgeList& edges,
                    std::vector<std::pair<VertexId, VertexId>>* directed) {
  directed->clear();
  directed->reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    directed->emplace_back(u, v);
    directed->emplace_back(v, u);
  }
  std::sort(directed->begin(), directed->end());
}

}  // namespace

MultiLayerGraph MultiLayerGraph::EditedCopy(
    int32_t extra_vertices, const std::vector<EdgeList>& added,
    const std::vector<EdgeList>& removed) const {
  // GraphStore::Normalize validates every batch before EditedCopy runs.
  MLCORE_DCHECK(extra_vertices >= 0);
  MLCORE_DCHECK(added.size() == layers_.size());
  MLCORE_DCHECK(removed.size() == layers_.size());
  const int32_t new_n = num_vertices_ + extra_vertices;

  MultiLayerGraph out;
  out.num_vertices_ = new_n;
  out.layers_.resize(layers_.size());
  // Unedited layers may alias this graph's backing mapping by view; the
  // shared handle keeps the mapped base snapshot alive across epochs.
  out.backing_ = backing_;
  std::vector<std::pair<VertexId, VertexId>> add_dir;
  std::vector<std::pair<VertexId, VertexId>> rem_dir;
  for (LayerId layer = 0; layer < NumLayers(); ++layer) {
    const Csr& src = layers_[static_cast<size_t>(layer)];
    Csr& dst = out.layers_[static_cast<size_t>(layer)];
    const EdgeList& add = added[static_cast<size_t>(layer)];
    const EdgeList& rem = removed[static_cast<size_t>(layer)];
    if (add.empty() && rem.empty()) {
      dst = src;
      if (extra_vertices > 0) {
        // Appended vertices are isolated: pad the offset table. The padded
        // table is always owned; the neighbour view stays shared (a mapped
        // layer keeps aliasing the base snapshot's neighbour block).
        std::vector<int64_t> padded(src.offsets.begin(), src.offsets.end());
        padded.resize(static_cast<size_t>(new_n) + 1, src.offsets.back());
        dst.offsets_store = std::move(padded);
        dst.offsets = dst.offsets_store;
      }
      continue;
    }
    ExpandDirected(add, &add_dir);
    ExpandDirected(rem, &rem_dir);

    auto& offsets = dst.offsets_store;
    auto& neighbors = dst.neighbors_store;
    offsets.assign(static_cast<size_t>(new_n) + 1, 0);
    size_t ap = 0, rp = 0;
    for (VertexId v = 0; v < new_n; ++v) {
      int64_t deg = v < num_vertices_ ? Degree(layer, v) : 0;
      while (ap < add_dir.size() && add_dir[ap].first == v) {
        ++deg;
        ++ap;
      }
      while (rp < rem_dir.size() && rem_dir[rp].first == v) {
        --deg;
        ++rp;
      }
      MLCORE_DCHECK(deg >= 0);
      offsets[static_cast<size_t>(v) + 1] =
          offsets[static_cast<size_t>(v)] + deg;
    }
    neighbors.resize(static_cast<size_t>(offsets.back()));
    ap = rp = 0;
    for (VertexId v = 0; v < new_n; ++v) {
      // Three-way sorted sweep: old neighbours minus removals, merged with
      // additions; every sequence is sorted by destination id, so the
      // output list is emitted sorted.
      auto old_nbrs = v < num_vertices_ ? Neighbors(layer, v)
                                        : std::span<const VertexId>();
      size_t oi = 0;
      int64_t pos = offsets[static_cast<size_t>(v)];
      while (oi < old_nbrs.size()) {
        const VertexId u = old_nbrs[oi];
        if (rp < rem_dir.size() && rem_dir[rp].first == v &&
            rem_dir[rp].second == u) {
          ++rp;
          ++oi;
          continue;
        }
        while (ap < add_dir.size() && add_dir[ap].first == v &&
               add_dir[ap].second < u) {
          neighbors[static_cast<size_t>(pos++)] = add_dir[ap++].second;
        }
        neighbors[static_cast<size_t>(pos++)] = u;
        ++oi;
      }
      while (ap < add_dir.size() && add_dir[ap].first == v) {
        neighbors[static_cast<size_t>(pos++)] = add_dir[ap++].second;
      }
      MLCORE_DCHECK(pos == offsets[static_cast<size_t>(v) + 1]);
    }
    dst.SealOwned();
  }
  return out;
}

MultiLayerGraph MultiLayerGraph::SelectLayers(const LayerSet& layers) const {
  MultiLayerGraph out;
  out.num_vertices_ = num_vertices_;
  // Selected mapped layers alias by view; share the backing mapping.
  out.backing_ = backing_;
  out.layers_.reserve(layers.size());
  for (LayerId layer : layers) {
    MLCORE_DCHECK(layer >= 0 && layer < NumLayers());
    out.layers_.push_back(layers_[static_cast<size_t>(layer)]);
  }
  return out;
}

VertexSet AllVertices(const MultiLayerGraph& graph) {
  VertexSet all(static_cast<size_t>(graph.NumVertices()));
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    all[static_cast<size_t>(v)] = v;
  }
  return all;
}

LayerSet AllLayers(const MultiLayerGraph& graph) {
  LayerSet all(static_cast<size_t>(graph.NumLayers()));
  for (LayerId i = 0; i < graph.NumLayers(); ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  return all;
}

VertexSet IntersectSorted(const VertexSet& a, const VertexSet& b) {
  VertexSet out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

void FilterInto(const VertexSet& set, const Bitset& bits, VertexSet* out) {
  // Every member is written and the cursor advances only past kept ones, so
  // the pass has no data-dependent branch; the cursor never overtakes the
  // read position, which makes the in-place form safe.
  const size_t size = set.size();
  out->resize(size);
  VertexId* dst = out->data();
  size_t kept = 0;
  for (size_t i = 0; i < size; ++i) {
    const VertexId v = set[i];
    dst[kept] = v;
    kept += bits.Test(static_cast<size_t>(v)) ? 1 : 0;
  }
  out->resize(kept);
}

VertexSet UnionSorted(const VertexSet& a, const VertexSet& b) {
  VertexSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool IsSubsetSorted(const VertexSet& a, const VertexSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace mlcore
