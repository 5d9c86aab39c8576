// Long-lived collaboration groups in a temporal co-authorship network: each
// layer holds the collaborations of one year (the paper's Author dataset).
// A d-CC recurring on s of the years is a research group with sustained
// internal collaboration — contrast with quasi-cliques, which fragment the
// same group into many tiny pieces (paper §VI, Figs 29–31).
//
//   ./examples/coauthorship [--d=3] [--s=5] [--k=8] [--compare_mimag=true]

#include <cstdio>
#include <utility>

#include "dccs/dccs.h"
#include "eval/metrics.h"
#include "graph/datasets.h"
#include "mimag/mimag.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"compare_mimag", "d", "k", "s"})) return 1;
  mlcore::Dataset author = mlcore::MakeDataset("author");

  mlcore::DccsParams params;
  params.d = static_cast<int>(flags.GetInt("d", 3));
  params.s = static_cast<int>(
      flags.GetInt("s", author.graph.NumLayers() / 2));
  params.k = static_cast<int>(flags.GetInt("k", 8));

  std::printf("co-authorship stand-in: %d authors, %d years, %lld "
              "collaboration edges\n",
              author.graph.NumVertices(), author.graph.NumLayers(),
              static_cast<long long>(author.graph.TotalEdges()));

  // One engine per corpus: a notebook-style sweep over (d, s, k) would hit
  // its preprocessing cache on every repeat (d, s).
  mlcore::Engine engine(&author.graph);
  mlcore::DccsResult result = std::move(
      *engine.Run(mlcore::DccsRequest{params, mlcore::DccsAlgorithm::kBottomUp}));
  std::printf("\nBU-DCCS: %zu sustained groups, %lld authors covered, "
              "%.1f ms\n",
              result.cores.size(),
              static_cast<long long>(result.CoverSize()),
              result.stats.total_seconds * 1e3);
  for (size_t i = 0; i < result.cores.size(); ++i) {
    std::printf("  group %zu: %zu authors active together in %zu of the "
                "years\n",
                i + 1, result.cores[i].vertices.size(),
                result.cores[i].layers.size());
  }

  if (flags.GetBool("compare_mimag", true)) {
    mlcore::MimagParams mimag_params;
    mimag_params.gamma = 0.8;
    mimag_params.min_size = params.d + 1;
    mimag_params.min_support = params.s;
    mlcore::MimagResult mimag = MineMimag(author.graph, mimag_params);
    mlcore::OverlapMetrics overlap =
        mlcore::CoverOverlap(mimag.Cover(), result.Cover());
    std::printf("\nquasi-clique baseline (gamma=%.1f): %zu clusters, %zu "
                "authors, %.1f ms%s\n",
                mimag_params.gamma, mimag.clusters.size(),
                mimag.Cover().size(), mimag.seconds * 1e3,
                mimag.budget_exhausted ? " (budget hit)" : "");
    std::printf("d-CC cover vs quasi-clique cover: precision %.3f, recall "
                "%.3f, F1 %.3f\n",
                overlap.precision, overlap.recall, overlap.f1);
    std::printf("(high recall = the d-CCs subsume nearly all quasi-clique "
                "vertices, cf. paper Fig 29)\n");
  }
  return 0;
}
