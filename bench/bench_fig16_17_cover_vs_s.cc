// Fig 16: result cover size vs small s (GD vs BU; English, Stack).
// Fig 17: result cover size vs large s (GD vs BU vs TD; English, Stack).
//
// Expected shapes (paper §VI): |Cov(R)| decreases as s grows (Property 3);
// all algorithms cover a similar number of vertices, GD occasionally
// slightly ahead (1-1/e vs 1/4 approximation).

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"bu_budget"});

  for (const char* name : {"english", "stack"}) {
    const mlcore::Dataset& dataset = context.Load(name);
    mlcore::DccsParams params;

    mlcore::bench::PrintFigureHeader(
        std::string("Fig 16: cover size vs small s on ") + name,
        "cover decreases with s; BU-DCCS comparable to GD-DCCS");
    mlcore::Table small_table({"s", "GD-DCCS |Cov|", "BU-DCCS |Cov|",
                               "BU/GD"});
    for (int s : mlcore::bench::SmallSValues(context.quick)) {
      params.s = s;
      auto gd = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kGreedy);
      auto bu = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                            mlcore::DccsAlgorithm::kBottomUp);
      small_table.AddRow(
          {mlcore::Table::Int(s), mlcore::Table::Int(gd.cover),
           mlcore::Table::Int(bu.cover),
           mlcore::Table::Num(
               static_cast<double>(bu.cover) /
                   std::max<double>(static_cast<double>(gd.cover), 1.0),
               2)});
    }
    small_table.Print();
    std::printf("\n");

    mlcore::bench::PrintFigureHeader(
        std::string("Fig 17: cover size vs large s on ") + name,
        "cover decreases with s; TD-DCCS comparable to GD-DCCS");
    const double bu_budget = flags.GetDouble("bu_budget", 60.0);
    mlcore::Table large_table(
        {"s", "GD-DCCS |Cov|", "BU-DCCS |Cov|", "TD-DCCS |Cov|"});
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
          {mlcore::Table::Int(s), mlcore::Table::Int(gd.cover),
           mlcore::Table::Int(bu.cover) +
               (bu.stats.budget_exhausted ? "*" : ""),
           mlcore::Table::Int(td.cover)});
    }
    large_table.Print();
    std::printf("\n");
  }
  return 0;
}
