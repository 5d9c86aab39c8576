// Fig 18: time vs d, small s (GD vs BU; German, English).
// Fig 19: time vs d, large s (GD vs TD; German, English).
// Fig 20: cover size vs d, small s (GD vs BU).
// Fig 21: cover size vs d, large s (GD vs TD).
//
// Expected shapes (paper §VI): both time and cover size decrease as d
// grows (Property 2 shrinks the d-CCs; Lemma 1 shrinks the scopes); the
// search algorithms stay well below GD-DCCS throughout.

#include <cstdio>
#include <vector>

#include "bench_common.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"extended_d"});

  // Paper range is d ∈ {2..6} (Fig 13). The synthetic stand-ins plant
  // communities whose internal min-degree floor sits above 6, so the
  // paper's gradual decline flattens there; --extended_d sweeps far enough
  // to cross the planted density floor and expose the full decline.
  std::vector<int> d_values =
      context.quick ? std::vector<int>{2, 4, 6} : std::vector<int>{2, 3, 4,
                                                                   5, 6};
  if (flags.GetBool("extended_d", false)) {
    d_values = {2, 4, 6, 8, 10, 12, 14, 16};
  }

  for (const char* name : {"german", "english"}) {
    const mlcore::Dataset& dataset = context.Load(name);

    // --- Small s (Figs 18 and 20): s = 3 per Fig 13. ---
    mlcore::bench::PrintFigureHeader(
        std::string("Fig 18 + Fig 20: vary d at small s=3 on ") + name,
        "time and cover decrease with d; BU-DCCS well below GD-DCCS");
    mlcore::Table small_table({"d", "GD time (s)", "BU time (s)",
                               "GD |Cov|", "BU |Cov|"});
    for (int d : d_values) {
      mlcore::DccsParams params;
      params.d = d;
      params.s = 3;
      auto gd = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kGreedy);
      auto bu = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kBottomUp);
      small_table.AddRow(
          {mlcore::Table::Int(d), mlcore::Table::Num(gd.seconds),
           mlcore::Table::Num(bu.seconds), mlcore::Table::Int(gd.cover),
           mlcore::Table::Int(bu.cover)});
    }
    small_table.Print();
    std::printf("\n");

    // --- Large s (Figs 19 and 21): s = l - 2 per Fig 13. ---
    const int large_s = dataset.graph.NumLayers() - 2;
    mlcore::bench::PrintFigureHeader(
        std::string("Fig 19 + Fig 21: vary d at large s=l-2 on ") + name,
        "time and cover decrease with d; TD-DCCS well below GD-DCCS");
    mlcore::Table large_table({"d", "GD time (s)", "TD time (s)",
                               "GD |Cov|", "TD |Cov|"});
    for (int d : d_values) {
      mlcore::DccsParams params;
      params.d = d;
      params.s = large_s;
      auto gd = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kGreedy);
      auto td = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kTopDown);
      large_table.AddRow(
          {mlcore::Table::Int(d), mlcore::Table::Num(gd.seconds),
           mlcore::Table::Num(td.seconds), mlcore::Table::Int(gd.cover),
           mlcore::Table::Int(td.cover)});
    }
    large_table.Print();
    std::printf("\n");
  }
  return 0;
}
