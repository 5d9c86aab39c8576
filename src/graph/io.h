#ifndef MLCORE_GRAPH_IO_H_
#define MLCORE_GRAPH_IO_H_

#include <string>
#include <vector>

#include "graph/multilayer_graph.h"
#include "service/status.h"
#include "store/update.h"

// The library's two text formats, edge lists and edge-update streams
// (binary graphs are MLG1 only: format/mlg.h). Both loaders share one
// tokenizer: fields are separated by spaces or tabs, CRLF line ends and
// indented `#` comments are fine, and a record is exactly its fields — a
// trailing field or a non-integer tail (`2.5`, `3x`) is malformed. Every
// failure is a kInvalidArgument `Status` with a `path:line:` message.

namespace mlcore {

/// Text format for multi-layer edge lists:
///
///   # comments and blank lines are ignored
///   n <num_vertices> <num_layers>
///   <layer> <u> <v>
///   ...
///
/// Vertices and layers are 0-based. This matches how KONECT/SNAP temporal
/// dumps are typically sliced into layers (one edge row per layer).
///
/// The loader validates, it does not repair: self-loops and duplicate
/// edges (within a layer, in either endpoint order) are rejected with a
/// `path:line:` error instead of silently building a different graph than
/// the file describes.
Status LoadMultiLayerGraph(const std::string& path, MultiLayerGraph* graph);

/// Writes `graph` in the format documented at LoadMultiLayerGraph.
Status SaveMultiLayerGraph(const MultiLayerGraph& graph,
                           const std::string& path);

/// Text format for edge-update streams (store/update.h), the replay input
/// of `dccs_cli --updates` and the `streaming_stories` example. One record
/// per line, grouped into `UpdateBatch`es:
///
///   # comments and blank lines are ignored
///   + <layer> <u> <v>     insert edge (u, v) on <layer>
///   - <layer> <u> <v>     remove edge (u, v) from <layer>
///   addv <count>          append <count> fresh isolated vertices
///   delv <v>              isolate vertex v (drop all its edges)
///   commit                end the current batch
///
/// Records after the final `commit` form a trailing batch; batches with no
/// records are dropped. Ids are validated structurally here (non-negative,
/// well-formed); graph-dependent validation (ranges, existence) happens in
/// `GraphStore::ApplyUpdate`.
Status LoadUpdateStream(const std::string& path,
                        std::vector<UpdateBatch>* batches);

/// Writes `batches` in the format documented at LoadUpdateStream.
Status SaveUpdateStream(const std::vector<UpdateBatch>& batches,
                        const std::string& path);

}  // namespace mlcore

#endif  // MLCORE_GRAPH_IO_H_
