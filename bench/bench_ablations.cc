// Ablation of an mlcore design choice (not a paper figure; DESIGN.md §2
// describes both engines): the dCC peeling engine, Appendix-B bin arrays vs
// the cascading lazy-witness queue. Both must return identical results; the
// table reports the time trade-off on the evaluation datasets.

#include "bench_common.h"

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags);

  mlcore::bench::PrintFigureHeader(
      "Ablation: dCC engine (queue vs Appendix-B bins), BU-DCCS s=3",
      "identical covers; comparable times (same asymptotics)");
  mlcore::Table engine_table({"graph", "queue (s)", "bins (s)",
                              "cover equal"});
  for (const char* name : {"german", "wiki", "english"}) {
    const mlcore::Dataset& dataset = context.Load(name);
    mlcore::DccsParams params;
    params.s = 3;
    params.dcc_engine = mlcore::DccEngine::kQueue;
    auto queue_run = mlcore::bench::RunAlgorithm(
        dataset.graph, params, mlcore::DccsAlgorithm::kBottomUp);
    params.dcc_engine = mlcore::DccEngine::kBins;
    auto bins_run = mlcore::bench::RunAlgorithm(
        dataset.graph, params, mlcore::DccsAlgorithm::kBottomUp);
    engine_table.AddRow({name, mlcore::Table::Num(queue_run.seconds),
                         mlcore::Table::Num(bins_run.seconds),
                         queue_run.cover == bins_run.cover ? "yes" : "NO"});
  }
  engine_table.Print();
  return 0;
}
