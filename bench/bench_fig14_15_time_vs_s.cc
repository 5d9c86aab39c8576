// Fig 14: execution time vs small s (GD-DCCS vs BU-DCCS; English, Stack).
// Fig 15: execution time vs large s (GD vs BU vs TD; English, Stack).
//
// Expected shapes (paper §VI): for small s all times grow with s and
// BU-DCCS beats GD-DCCS by 1–2 orders of magnitude (39x/30x at s=4); for
// large s times fall as s grows, BU-DCCS degrades to GD-DCCS levels, and
// TD-DCCS is the fastest (50x over GD at s=13 on English).

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"bu_budget"});

  for (const char* name : {"english", "stack"}) {
    const mlcore::Dataset& dataset = context.Load(name);
    mlcore::DccsParams params;

    mlcore::bench::PrintFigureHeader(
        std::string("Fig 14: time vs small s on ") + name,
        "time increases with s; BU-DCCS 1-2 orders of magnitude below "
        "GD-DCCS");
    mlcore::Table small_table({"s", "GD-DCCS (s)", "BU-DCCS (s)", "speedup"});
    for (int s : mlcore::bench::SmallSValues(context.quick)) {
      params.s = s;
      auto gd = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kGreedy);
      auto bu = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kBottomUp);
      small_table.AddRow(
          {mlcore::Table::Int(s), mlcore::Table::Num(gd.seconds),
           mlcore::Table::Num(bu.seconds),
           mlcore::Table::Num(gd.seconds / std::max(bu.seconds, 1e-9), 1) +
               "x"});
    }
    small_table.Print();
    std::printf("\n");

    mlcore::bench::PrintFigureHeader(
        std::string("Fig 15: time vs large s on ") + name,
        "time decreases with s; TD-DCCS fastest; BU-DCCS close to or worse "
        "than GD-DCCS (the paper runs it up to 10^4 s here — rows marked "
        "'>' hit the harness budget)");
    const double bu_budget = flags.GetDouble("bu_budget", 60.0);
    mlcore::Table large_table(
        {"s", "GD-DCCS (s)", "BU-DCCS (s)", "TD-DCCS (s)", "GD/TD"});
    for (int s :
         mlcore::bench::LargeSValues(dataset.graph.NumLayers(),
                                     context.quick)) {
      params.s = s;
      auto gd = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kGreedy);
      params.time_budget_seconds = bu_budget;
      auto bu = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kBottomUp);
      params.time_budget_seconds = 0;
      auto td = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kTopDown);
      large_table.AddRow(
          {mlcore::Table::Int(s), mlcore::Table::Num(gd.seconds),
           (bu.stats.budget_exhausted ? ">" : "") +
               mlcore::Table::Num(bu.seconds),
           mlcore::Table::Num(td.seconds),
           mlcore::Table::Num(gd.seconds / std::max(td.seconds, 1e-9), 1) +
               "x"});
    }
    large_table.Print();
    std::printf("\n");
  }
  return 0;
}
