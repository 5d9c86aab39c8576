// mlggen: deterministic multi-layer R-MAT graph generator (DESIGN.md §13).
// Streams one layer at a time through the MLG1 writer, so graphs far larger
// than memory-resident edge lists (10⁸+ edges) generate comfortably.
//
//   ./examples/mlggen --out=graph.mlg [--scale=16 | --vertices=N]
//       [--edges=E] [--layers=L] [--seed=S] [--overlap=F]
//       [--a=0.57] [--b=0.19] [--c=0.19]
//
// --scale=S is shorthand for --vertices=2^S (Graph500 convention); an
// explicit --vertices wins. --edges is the per-layer draw count before
// deduplication. --overlap is the fraction of each layer's draws taken
// from a stream shared by every layer — the knob that creates dense cores
// recurring across layer subsets, i.e. non-trivial d-CC lattices.
//
// Identical flags (including --seed) produce a byte-identical file.

#include <cstdio>
#include <string>

#include "format/generator.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"a", "b", "c", "edges", "layers", "out", "overlap",
                          "scale", "seed", "vertices"})) {
    return 1;
  }

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: mlggen --out=graph.mlg [--scale=16|--vertices=N] "
                 "[--edges=E] [--layers=L] [--seed=S] [--overlap=F]\n");
    return 1;
  }

  mlcore::format::MlgGenConfig config;
  const long long scale = flags.GetInt("scale", 16);
  config.num_vertices = static_cast<int32_t>(
      flags.GetInt("vertices", scale < 31 ? (1LL << scale) : 0));
  config.num_layers = static_cast<int32_t>(flags.GetInt("layers", 4));
  config.edges_per_layer = flags.GetInt("edges", config.num_vertices * 4LL);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.layer_overlap = flags.GetDouble("overlap", 0.3);
  config.rmat_a = flags.GetDouble("a", 0.57);
  config.rmat_b = flags.GetDouble("b", 0.19);
  config.rmat_c = flags.GetDouble("c", 0.19);

  mlcore::format::MlgGenStats stats;
  mlcore::Status status = GenerateMlg(config, out, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "wrote %s: %d vertices, %d layers, %lld edges "
               "(seed %llu, %.1f ms)\n",
               out.c_str(), config.num_vertices, config.num_layers,
               static_cast<long long>(stats.edges_written),
               static_cast<unsigned long long>(config.seed), stats.gen_ms);
  return 0;
}
