#ifndef MLCORE_GRAPH_MULTILAYER_GRAPH_H_
#define MLCORE_GRAPH_MULTILAYER_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/bitset.h"
#include "util/check.h"

namespace mlcore {

/// Vertex identifier in [0, NumVertices()).
using VertexId = int32_t;
/// Layer identifier in [0, NumLayers()).
using LayerId = int32_t;

/// A sorted set of vertex ids. The canonical representation of vertex
/// subsets (d-cores, d-CCs, candidate scopes) throughout the library.
using VertexSet = std::vector<VertexId>;
/// A sorted set of layer ids (the paper's `L ⊆ [l(G)]`).
using LayerSet = std::vector<LayerId>;

/// Immutable undirected multi-layer graph (paper §II).
///
/// All layers share the vertex id space [0, n). Each layer is stored as a
/// compressed sparse row structure with sorted, duplicate-free neighbour
/// lists and no self loops. Construct via `GraphBuilder`, or zero-copy
/// from an MLG1 mapping via `FromMappedCsr` (src/format, DESIGN.md §13).
///
/// Backing-store seam: every accessor reads the per-layer adjacency
/// *views* (`Csr::offsets` / `Csr::neighbors`), which point either into
/// vectors owned by this graph or into an external backing store (a
/// memory-mapped MLG1 file) kept alive by `backing_`. Owned and mapped
/// layers coexist within one graph — `EditedCopy` rebuilds only edited
/// layers, so an update epoch on top of a mapped base snapshot still
/// shares the mapping for every untouched layer.
///
/// "Removing a vertex from G", as the paper's pseudocode phrases it, is
/// realised by the algorithms through explicit vertex-subset scoping; the
/// graph object itself is never mutated, which makes it safe to share
/// across concurrent searches.
class MultiLayerGraph {
 public:
  MultiLayerGraph() = default;

  int32_t NumVertices() const { return num_vertices_; }
  int32_t NumLayers() const { return static_cast<int32_t>(layers_.size()); }

  /// Neighbours of `v` on `layer`, sorted ascending.
  std::span<const VertexId> Neighbors(LayerId layer, VertexId v) const {
    const Csr& csr = layers_[static_cast<size_t>(layer)];
    const auto begin = csr.offsets[static_cast<size_t>(v)];
    const auto end = csr.offsets[static_cast<size_t>(v) + 1];
    return {csr.neighbors.data() + begin, static_cast<size_t>(end - begin)};
  }

  /// Degree of `v` on `layer` (the paper's d_{G_i}(v)).
  int32_t Degree(LayerId layer, VertexId v) const {
    const Csr& csr = layers_[static_cast<size_t>(layer)];
    return static_cast<int32_t>(csr.offsets[static_cast<size_t>(v) + 1] -
                                csr.offsets[static_cast<size_t>(v)]);
  }

  /// True iff edge (u, v) exists on `layer`. O(log degree).
  bool HasEdge(LayerId layer, VertexId u, VertexId v) const;

  /// Number of undirected edges on `layer` (|E_i|).
  int64_t NumEdges(LayerId layer) const {
    return static_cast<int64_t>(
               layers_[static_cast<size_t>(layer)].neighbors.size()) /
           2;
  }

  /// Sum of per-layer edge counts (the paper's Σ|E(G_i)| statistic).
  int64_t TotalEdges() const;

  /// Number of distinct edges across layers (the paper's |∪E(G_i)|).
  /// Computed on demand in O(Σ degree · log l) time.
  int64_t DistinctEdges() const;

  /// Materialises the multi-layer subgraph induced by `vertices`
  /// (paper's G[S]) with vertices renumbered to [0, |S|). If `old_ids` is
  /// non-null it receives the mapping from new id to original id.
  /// `vertices` must be sorted and duplicate-free.
  MultiLayerGraph InducedSubgraph(const VertexSet& vertices,
                                  std::vector<VertexId>* old_ids) const;

  /// Returns a graph containing only the given layers (renumbered to
  /// [0, |layers|) in the given order). Used by the Fig 27 q-sweep.
  MultiLayerGraph SelectLayers(const LayerSet& layers) const;

  /// Canonical (u < v), sorted, duplicate-free per-layer edge list — the
  /// edit currency of `EditedCopy` and the dynamic `GraphStore`.
  using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

  /// Returns a copy with `extra_vertices` fresh (isolated) vertices
  /// appended and the given per-layer edge edits applied. `added[i]` /
  /// `removed[i]` are EdgeLists (canonical, sorted, deduped); every added
  /// edge must be absent from layer i and every removed edge present —
  /// the caller (GraphStore::ApplyUpdate) validates. Layers with no edits
  /// are copied verbatim; edited layers cost O(|E_i| + |edits|). The MVCC
  /// primitive behind epoch publication (DESIGN.md §8).
  MultiLayerGraph EditedCopy(int32_t extra_vertices,
                             const std::vector<EdgeList>& added,
                             const std::vector<EdgeList>& removed) const;

  /// One layer's adjacency as externally owned CSR views, the input of
  /// `FromMappedCsr`. `offsets` has num_vertices + 1 entries; `neighbors`
  /// holds the sorted, duplicate-free, self-loop-free lists the offsets
  /// slice. The format reader validates these invariants before handing
  /// views to the graph.
  struct MappedLayer {
    std::span<const int64_t> offsets;
    std::span<const VertexId> neighbors;
  };

  /// Zero-copy construction seam for the binary loader (src/format): the
  /// returned graph's adjacency views alias the given spans, and `backing`
  /// (typically the util::MmapFile of an MLG1 container) is held for the
  /// graph's lifetime — including through copies, `SelectLayers`, and the
  /// unedited layers of `EditedCopy`.
  static MultiLayerGraph FromMappedCsr(int32_t num_vertices,
                                       const std::vector<MappedLayer>& layers,
                                       std::shared_ptr<const void> backing);

  /// This layer's whole CSR block (offsets size n+1, concatenated sorted
  /// neighbour lists) — the writer-side seam of the MLG1 container and the
  /// cheap whole-layer comparison surface used by tests and benches. Views
  /// are valid as long as this graph is.
  MappedLayer LayerCsr(LayerId layer) const {
    const Csr& csr = layers_[static_cast<size_t>(layer)];
    return {csr.offsets, csr.neighbors};
  }

  /// Bytes of adjacency data aliasing an external backing store (0 for a
  /// fully owned graph). Feeds the `format.mmap_bytes` metric.
  int64_t MappedBytes() const;

 private:
  friend class GraphBuilder;

  /// Per-layer CSR with the owned/mapped seam. The `offsets` / `neighbors`
  /// views are what accessors read; they point at the `*_store` vectors
  /// for owned layers and at the graph's backing mapping for mapped ones.
  /// Writers fill the stores and call `SealOwned()`. Copying re-anchors
  /// views into the copied stores (owned) or shares them (mapped — the
  /// enclosing graph copies `backing_` alongside); moving keeps views
  /// valid because vector moves transfer the heap buffer.
  struct Csr {
    Csr() = default;
    Csr(const Csr& other) { *this = other; }
    Csr& operator=(const Csr& other);
    Csr(Csr&&) noexcept = default;
    Csr& operator=(Csr&&) noexcept = default;

    void SealOwned() {
      offsets = offsets_store;
      neighbors = neighbors_store;
    }

    std::vector<int64_t> offsets_store;     // empty for mapped layers
    std::vector<VertexId> neighbors_store;  // empty for mapped layers
    std::span<const int64_t> offsets;       // size n+1
    std::span<const VertexId> neighbors;
  };

  int32_t num_vertices_ = 0;
  std::vector<Csr> layers_;
  /// Keeps externally owned adjacency memory alive (null when every layer
  /// is owned). Shared, never inspected — the type-erased handle is what
  /// lets owned-vector and mapped storage coexist behind one graph type.
  std::shared_ptr<const void> backing_;
};

/// Returns [0, 1, ..., n-1].
VertexSet AllVertices(const MultiLayerGraph& graph);
/// Returns [0, 1, ..., l-1].
LayerSet AllLayers(const MultiLayerGraph& graph);

/// Intersection of two sorted vertex sets.
VertexSet IntersectSorted(const VertexSet& a, const VertexSet& b);
/// Fills `*out` (which may be `&set`) with the members of sorted `set`
/// whose bit is set in `bits`: IntersectSorted(set, b) for b's bitmap, in
/// one branch-free pass over `set`. The one way to build a lattice scope.
void FilterInto(const VertexSet& set, const Bitset& bits, VertexSet* out);
/// Union of two sorted vertex sets.
VertexSet UnionSorted(const VertexSet& a, const VertexSet& b);
/// True iff sorted set `a` is a subset of sorted set `b`.
bool IsSubsetSorted(const VertexSet& a, const VertexSet& b);

}  // namespace mlcore

#endif  // MLCORE_GRAPH_MULTILAYER_GRAPH_H_
