// mlgconvert: lossless converter between the text edge-list format
// (graph/io.h) and the MLG1 binary container (format/mlg.h, DESIGN.md §13).
//
//   ./examples/mlgconvert --in=graph.txt --out=graph.mlg
//   ./examples/mlgconvert --in=graph.mlg --out=graph.txt
//
// The direction is sniffed from the input's leading bytes (the MLG1 magic),
// not from file extensions. Round trips are exact: text → binary → text
// reproduces the same graph, and binary → text → binary a byte-identical
// container — the property the CI format job diffs.

#include <cstdio>
#include <cstring>
#include <string>

#include "format/mlg.h"
#include "graph/io.h"
#include "graph/multilayer_graph.h"
#include "util/flags.h"

namespace {

/// True iff the file starts with the 8-byte MLG1 magic. Short or missing
/// files sniff as text — the text loader then reports the real error.
bool LooksLikeMlg(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  unsigned char head[sizeof(mlcore::format::kMlgMagic)];
  const size_t read = std::fread(head, 1, sizeof(head), file);
  std::fclose(file);
  return read == sizeof(head) &&
         std::memcmp(head, mlcore::format::kMlgMagic, sizeof(head)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"in", "out"})) return 1;
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "usage: mlgconvert --in=PATH --out=PATH "
                 "(direction sniffed from the input's MLG1 magic)\n");
    return 1;
  }

  if (LooksLikeMlg(in)) {
    mlcore::MultiLayerGraph graph;
    mlcore::format::MlgLoadStats stats;
    mlcore::Status status = LoadMlgGraph(in, &graph, &stats);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message.c_str());
      return 1;
    }
    mlcore::Status saved = SaveMultiLayerGraph(graph, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.message.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "binary → text: %lld vertices, %lld layers, %lld edges "
                 "(mmap load %.1f ms) → %s\n",
                 static_cast<long long>(stats.num_vertices),
                 static_cast<long long>(stats.num_layers),
                 static_cast<long long>(stats.total_edges), stats.load_ms,
                 out.c_str());
    return 0;
  }

  mlcore::MultiLayerGraph graph;
  mlcore::Status loaded = LoadMultiLayerGraph(in, &graph);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.message.c_str());
    return 1;
  }
  mlcore::Status status = mlcore::format::WriteMlgGraph(graph, out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message.c_str());
    return 1;
  }
  std::fprintf(stderr, "text → binary: %d vertices, %d layers, %lld edges → %s\n",
               graph.NumVertices(), graph.NumLayers(),
               static_cast<long long>(graph.TotalEdges()), out.c_str());
  return 0;
}
