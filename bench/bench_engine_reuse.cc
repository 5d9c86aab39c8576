// Engine preprocessing-reuse benchmark (not a paper figure): quantifies
// what the mlcore::Engine's cross-query caches (DESIGN.md §5) buy over the
// one-shot SolveDccs path for an online workload that asks many (d, s, k)
// questions of one graph.
//
//   cold   = SolveDccs per query: §IV-C vertex deletion (+ TD index +
//            InitTopK) re-run from scratch every time
//   warm   = repeat queries on one Engine: preprocessing served from the
//            (d, s) cache, so preprocess_seconds collapses to the cache
//            lookup
//   batch  = a k-sweep of requests sharing (d, s) through RunBatch on a
//            multi-worker engine, vs the same sweep run cold sequentially
//
//   ./bench_engine_reuse [--quick] [--scale=F] [--rounds=N] [--json=path]
//
// Expected shape: warm preprocess time orders of magnitude below cold; warm
// totals shrink by the full preprocessing share of the workload (large for
// the preprocessing-dominated regimes of Fig 28).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/engine.h"

namespace {

struct Case {
  const char* dataset;
  mlcore::DccsAlgorithm algorithm;
  int s_from_layers(int l) const {
    return algorithm == mlcore::DccsAlgorithm::kBottomUp ? 3 : l - 2;
  }
};

constexpr Case kCases[] = {
    {"ppi", mlcore::DccsAlgorithm::kBottomUp},
    {"ppi", mlcore::DccsAlgorithm::kTopDown},
    {"wiki", mlcore::DccsAlgorithm::kBottomUp},
    {"wiki", mlcore::DccsAlgorithm::kTopDown},
};

struct Row {
  std::string label;
  int rounds = 0;
  double cold_preprocess = 0.0;  // means, seconds
  double cold_total = 0.0;
  double engine_first_preprocess = 0.0;
  double warm_preprocess = 0.0;
  double warm_total = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"rounds", "json"});
  const int rounds =
      static_cast<int>(flags.GetInt("rounds", context.quick ? 2 : 5));
  const std::string json_path = flags.GetString("json", "");

  std::vector<Row> rows;
  mlcore::bench::PrintFigureHeader(
      "Engine cross-query preprocessing reuse",
      "warm preprocess_seconds collapses to a cache lookup; cores are "
      "bit-identical to cold runs");
  mlcore::Table table({"case", "cold pre (s)", "fill pre (s)", "warm pre (s)",
                       "pre speedup", "cold total (s)", "warm total (s)",
                       "total speedup"});

  for (const Case& bench_case : kCases) {
    const mlcore::Dataset& dataset = context.Load(bench_case.dataset);
    mlcore::DccsParams params;
    params.s = bench_case.s_from_layers(dataset.graph.NumLayers());

    Row row;
    row.label = std::string(bench_case.dataset) + "/" +
                mlcore::AlgorithmName(bench_case.algorithm);
    row.rounds = rounds;

    // Cold: the one-shot path, preprocessing from scratch per call.
    int64_t cold_cover = 0;
    for (int r = 0; r < rounds; ++r) {
      auto outcome = mlcore::bench::RunAlgorithm(dataset.graph, params,
                                                 bench_case.algorithm);
      row.cold_preprocess += outcome.stats.preprocess_seconds;
      row.cold_total += outcome.stats.total_seconds;
      cold_cover = outcome.cover;
    }
    row.cold_preprocess /= rounds;
    row.cold_total /= rounds;

    // Warm: one Engine, same query repeated. The first call fills the
    // (d, s) cache; every later one skips vertex deletion entirely.
    mlcore::Engine engine(&dataset.graph);
    mlcore::DccsRequest request{params, bench_case.algorithm};
    auto first = engine.Run(request);
    MLCORE_CHECK(first.ok());
    row.engine_first_preprocess = first->stats.preprocess_seconds;
    for (int r = 0; r < rounds; ++r) {
      auto warm = engine.Run(request);
      MLCORE_CHECK(warm.ok());
      MLCORE_CHECK_MSG(warm->CoverSize() == cold_cover,
                       "warm result diverged from cold result");
      row.warm_preprocess += warm->stats.preprocess_seconds;
      row.warm_total += warm->stats.total_seconds;
    }
    row.warm_preprocess /= rounds;
    row.warm_total /= rounds;
    rows.push_back(row);

    table.AddRow({row.label, mlcore::Table::Num(row.cold_preprocess),
                  mlcore::Table::Num(row.engine_first_preprocess),
                  mlcore::Table::Num(row.warm_preprocess),
                  mlcore::Table::Num(row.cold_preprocess /
                                     std::max(row.warm_preprocess, 1e-9)),
                  mlcore::Table::Num(row.cold_total),
                  mlcore::Table::Num(row.warm_total),
                  mlcore::Table::Num(row.cold_total /
                                     std::max(row.warm_total, 1e-9))});
  }
  table.Print();

  // Batch demo: a k-sweep sharing one (d, s) key, fanned out over the
  // engine pool, vs the same sweep cold and sequential.
  const mlcore::Dataset& dataset = context.Load("wiki");
  std::vector<mlcore::DccsRequest> sweep;
  for (int k = 1; k <= (context.quick ? 4 : 8); ++k) {
    mlcore::DccsRequest request;
    request.params.s = 3;
    request.params.k = k;
    request.algorithm = mlcore::DccsAlgorithm::kBottomUp;
    sweep.push_back(request);
  }
  mlcore::WallTimer cold_timer;
  for (const auto& request : sweep) {
    mlcore::bench::RunAlgorithm(dataset.graph, request.params,
                                request.algorithm);
  }
  const double sweep_cold = cold_timer.Seconds();
  mlcore::Engine batch_engine(&dataset.graph,
                              mlcore::Engine::Options{.num_threads = 4});
  mlcore::WallTimer batch_timer;
  auto responses = batch_engine.RunBatch(sweep);
  const double sweep_batch = batch_timer.Seconds();
  for (const auto& response : responses) MLCORE_CHECK(response.ok());
  std::printf(
      "\nk-sweep (%zu requests, shared (d, s)): cold sequential %.3fs, "
      "RunBatch on 4 workers %.3fs (%.2fx)\n",
      sweep.size(), sweep_cold, sweep_batch, sweep_cold / sweep_batch);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"description\": \"bench_engine_reuse: mean preprocess/"
                 "total seconds for cold SolveDccs calls vs repeat queries "
                 "on one mlcore::Engine (DESIGN.md \\u00a75). Warm queries "
                 "serve \\u00a7IV-C preprocessing, the \\u00a7V-C index and "
                 "InitTopK seeds from the (d, s) cache and skip vertex "
                 "deletion entirely; cores are verified bit-identical to "
                 "cold runs.\",\n"
                 "  \"scale\": %.3f,\n  \"rounds\": %d,\n  \"cases\": [\n",
                 context.scale, rounds);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(
          out,
          "    {\"case\": \"%s\", \"cold_preprocess_s\": %.6f, "
          "\"engine_first_preprocess_s\": %.6f, "
          "\"warm_preprocess_s\": %.6f, \"preprocess_speedup\": %.1f, "
          "\"cold_total_s\": %.6f, \"warm_total_s\": %.6f, "
          "\"total_speedup\": %.2f}%s\n",
          row.label.c_str(), row.cold_preprocess, row.engine_first_preprocess,
          row.warm_preprocess,
          row.cold_preprocess / std::max(row.warm_preprocess, 1e-9),
          row.cold_total, row.warm_total,
          row.cold_total / std::max(row.warm_total, 1e-9),
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"k_sweep\": {\"requests\": %zu, "
                 "\"cold_sequential_s\": %.6f, \"run_batch_4_workers_s\": "
                 "%.6f, \"speedup\": %.2f}\n}\n",
                 sweep.size(), sweep_cold, sweep_batch,
                 sweep_cold / sweep_batch);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
