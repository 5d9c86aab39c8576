// Fig 31: qualitative comparison of the subgraphs induced by Cov(R_C)
// (BU-DCCS) and Cov(R_Q) (MiMAG) on the Author graph at d = 3.
//
// Exports one Graphviz DOT file per layer colouring vertices:
//   red   = in both covers,
//   green = d-CC cover only,
//   blue  = quasi-clique cover only,
// and prints the class sizes plus internal edge densities. Expected shape
// (paper §VI): green vertices are densely connected to red ones (dense
// portions missed by MiMAG); blue vertices are sparse.

#include <cstdio>
#include <fstream>
#include <map>

#include "bench_common.h"
#include "eval/dot_export.h"
#include "mimag/mimag.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"out"});
  const mlcore::Dataset& author = context.Load("author");

  mlcore::bench::PrintFigureHeader(
      "Fig 31: induced coherent dense subgraphs on author (d=3)",
      "green (d-CC only) vertices densely connected; blue (quasi-clique "
      "only) sparse");

  const int d = 3;
  const int support = author.graph.NumLayers() / 2;

  mlcore::DccsParams params;
  params.d = d;
  params.s = support;
  mlcore::DccsResult bu = BottomUpDccs(author.graph, params);

  mlcore::MimagParams mimag_params;
  mimag_params.gamma = 0.8;
  mimag_params.min_size = d + 1;
  mimag_params.min_support = support;
  mlcore::MimagResult mimag = MineMimag(author.graph, mimag_params);

  mlcore::VertexSet core_cover = bu.Cover();
  mlcore::VertexSet quasi_cover = mimag.Cover();
  mlcore::VertexSet both =
      mlcore::IntersectSorted(core_cover, quasi_cover);

  std::map<mlcore::VertexId, std::string> colors;
  for (mlcore::VertexId v : core_cover) colors[v] = "green";
  for (mlcore::VertexId v : quasi_cover) colors[v] = "blue";
  for (mlcore::VertexId v : both) colors[v] = "red";

  // Edge-density audit per class: how connected is each class to the
  // red backbone (union over layers)?
  auto degree_into = [&](mlcore::VertexId v, const std::string& target) {
    int count = 0;
    for (mlcore::LayerId layer = 0; layer < author.graph.NumLayers();
         ++layer) {
      for (mlcore::VertexId u : author.graph.Neighbors(layer, v)) {
        auto it = colors.find(u);
        if (it != colors.end() && it->second == target) ++count;
      }
    }
    return count;
  };
  double green_to_red = 0, blue_to_red = 0;
  int greens = 0, blues = 0;
  for (const auto& [v, color] : colors) {
    if (color == "green") {
      green_to_red += degree_into(v, "red");
      ++greens;
    } else if (color == "blue") {
      blue_to_red += degree_into(v, "red");
      ++blues;
    }
  }

  std::printf("cover classes: red (both) = %zu, green (d-CC only) = %d, "
              "blue (quasi-clique only) = %d\n",
              both.size(), greens, blues);
  std::printf("avg multi-layer degree into the red backbone: green %.2f, "
              "blue %.2f\n",
              greens ? green_to_red / greens : 0.0,
              blues ? blue_to_red / blues : 0.0);
  std::printf("(paper expectation: green >> blue)\n");

  const std::string out = flags.GetString("out", "fig31_author_layer0.dot");
  std::ofstream file(out);
  file << ExportDot(author.graph, /*layer=*/0, colors, "fig31");
  std::printf("wrote %s (render with: neato -Tpng %s -o fig31.png)\n",
              out.c_str(), out.c_str());
  return 0;
}
