// Dynamic-graph benchmark (not a paper figure): the GraphStore's batched
// update path (DESIGN.md §8).
//
// Part 1 — update throughput vs batch size. Churn batches (half edge
// removals, half insertions) applied through ApplyUpdate with incremental
// tracked-core maintenance; reports edge-updates/second per batch size,
// and the same stream with the incremental path disabled
// (recore_damage_threshold < 0 forces the per-layer from-scratch
// fallback) for the incremental-vs-recompute speedup.
//
// Part 2 — warm-cache query latency across epochs. An Engine over the
// store answers the same (d, s, k) query between batches. Background
// churn (edges that never touch a d-core subgraph) must keep the §IV-C
// preprocessing cache warm — microsecond acquisitions, hit counters
// moving — while core churn invalidates and pays the rebuild.
//
//   ./bench_updates [--quick] [--scale=F] [--json=path]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace {

mlcore::MultiLayerGraph ChurnGraph(double scale) {
  mlcore::PlantedGraphConfig config;
  config.num_vertices =
      std::max<int32_t>(2000, static_cast<int32_t>(20000 * scale));
  config.num_layers = 6;
  config.num_communities =
      std::max(12, static_cast<int>(100 * scale));
  config.community_size_min = 14;
  config.community_size_max = 40;
  config.seed = 777;
  return mlcore::GeneratePlanted(config).graph;
}

struct ThroughputRow {
  int64_t batch_size = 0;
  double incremental_updates_per_s = 0.0;
  double recompute_updates_per_s = 0.0;
  double speedup = 0.0;
  int64_t core_churn = 0;  // exits + entries seen by the incremental store
};

struct LatencyRow {
  std::string workload;
  int64_t epochs = 0;
  int64_t preprocess_hits = 0;
  int64_t preprocess_misses = 0;
  double mean_warm_preprocess_ms = 0.0;
  double mean_query_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"json"});
  const std::string json_path = flags.GetString("json", "");

  mlcore::bench::PrintFigureHeader(
      "bench_updates — GraphStore batched updates (DESIGN.md §8)",
      "incremental maintenance beats from-scratch recompute by a widening "
      "margin as batches shrink; background churn keeps query caches warm");

  const mlcore::MultiLayerGraph initial = ChurnGraph(context.scale);
  std::printf("graph: %d vertices, %d layers, %lld edges\n\n",
              initial.NumVertices(), initial.NumLayers(),
              static_cast<long long>(initial.TotalEdges()));
  const int kTrackedD = 4;

  // ---- Part 1: updates/sec vs batch size, incremental vs recompute ----
  std::vector<int64_t> batch_sizes =
      context.quick ? std::vector<int64_t>{10, 100}
                    : std::vector<int64_t>{1, 10, 100, 1000, 10000};
  const int rounds = context.quick ? 20 : 50;
  std::vector<ThroughputRow> throughput;
  for (int64_t size : batch_sizes) {
    ThroughputRow row;
    row.batch_size = size;
    for (int mode = 0; mode < 2; ++mode) {
      mlcore::GraphStore::Options options;
      options.tracked_degrees = {kTrackedD};
      options.recore_damage_threshold = mode == 0 ? 0 : -1;
      mlcore::GraphStore store(initial, options);
      mlcore::Rng rng(static_cast<uint64_t>(size) * 13 + 1);
      int64_t updates = 0;
      mlcore::WallTimer timer;
      for (int r = 0; r < rounds; ++r) {
        mlcore::UpdateBatch batch = mlcore::bench::MakeChurnBatch(
            store.snapshot()->graph(), size, rng);
        auto outcome = store.ApplyUpdate(batch);
        MLCORE_CHECK_MSG(outcome.ok(), outcome.status().message.c_str());
        updates += outcome->edges_inserted + outcome->edges_removed;
        if (mode == 0) {
          row.core_churn += outcome->core_exits + outcome->core_entries;
        }
      }
      const double per_s = static_cast<double>(updates) / timer.Seconds();
      (mode == 0 ? row.incremental_updates_per_s
                 : row.recompute_updates_per_s) = per_s;
    }
    row.speedup = row.incremental_updates_per_s / row.recompute_updates_per_s;
    throughput.push_back(row);
  }
  {
    mlcore::Table table({"batch", "incremental upd/s", "recompute upd/s",
                         "speedup", "core churn"});
    for (const ThroughputRow& row : throughput) {
      table.AddRow({mlcore::Table::Int(row.batch_size),
                    mlcore::Table::Num(row.incremental_updates_per_s, 0),
                    mlcore::Table::Num(row.recompute_updates_per_s, 0),
                    mlcore::Table::Num(row.speedup, 2),
                    mlcore::Table::Int(row.core_churn)});
    }
    table.Print();
  }

  // ---- Part 2: warm-cache query latency across epochs ----
  // Two streams: background churn toggles edges between low-degree
  // vertices that can never reach a d-core (degree stays < d), so the
  // preprocessing cache must stay warm across epochs; community churn
  // rips random edges out of (and into) dense regions, invalidating it.
  const int epochs = context.quick ? 10 : 40;
  const auto background =
      mlcore::bench::LowDegreeBackgroundPairs(initial, kTrackedD);
  std::vector<LatencyRow> latency;
  for (int workload = 0; workload < 2; ++workload) {
    mlcore::GraphStore::Options options;
    options.tracked_degrees = {kTrackedD};
    auto store = std::make_shared<mlcore::GraphStore>(initial, options);
    mlcore::Engine engine(store);
    mlcore::DccsRequest request;
    request.params.d = kTrackedD;
    request.params.s = 3;
    request.params.k = 10;

    MLCORE_CHECK(engine.Run(request).ok());  // cold build at epoch 0
    mlcore::Rng rng(99 + static_cast<uint64_t>(workload));
    LatencyRow row;
    row.workload = workload == 0 ? "background churn" : "core churn";
    row.epochs = epochs;
    const mlcore::EngineCacheStats before = engine.cache_stats();
    double preprocess_s = 0.0, total_s = 0.0;
    for (int e = 0; e < epochs; ++e) {
      auto snap = store->snapshot();
      const mlcore::MultiLayerGraph& graph = snap->graph();
      mlcore::UpdateBatch batch;
      if (workload == 0) {
        // Toggle the background pairs on layer 0: insert on even epochs,
        // remove on odd — content changes every epoch, the d-core
        // subgraphs never do.
        for (const auto& [u, v] : background) {
          if (e % 2 == 0) {
            batch.Insert(0, u, v);
          } else {
            batch.Remove(0, u, v);
          }
        }
      } else {
        batch = mlcore::bench::MakeChurnBatch(graph, 64, rng);
      }
      auto outcome = engine.ApplyUpdate(batch);
      MLCORE_CHECK_MSG(outcome.ok(), outcome.status().message.c_str());
      auto response = engine.Run(request);
      MLCORE_CHECK(response.ok());
      MLCORE_CHECK(response->epoch == outcome->epoch);
      preprocess_s += response->stats.preprocess_seconds;
      total_s += response->stats.total_seconds;
    }
    const mlcore::EngineCacheStats after = engine.cache_stats();
    row.preprocess_hits = after.preprocess_hits - before.preprocess_hits;
    row.preprocess_misses = after.preprocess_misses - before.preprocess_misses;
    row.mean_warm_preprocess_ms = preprocess_s / epochs * 1e3;
    row.mean_query_ms = total_s / epochs * 1e3;
    latency.push_back(row);
  }
  {
    std::printf("\n");
    mlcore::Table table({"workload", "epochs", "hits", "misses",
                         "mean preprocess ms", "mean query ms"});
    for (const LatencyRow& row : latency) {
      table.AddRow({row.workload, mlcore::Table::Int(row.epochs),
                    mlcore::Table::Int(row.preprocess_hits),
                    mlcore::Table::Int(row.preprocess_misses),
                    mlcore::Table::Num(row.mean_warm_preprocess_ms, 3),
                    mlcore::Table::Num(row.mean_query_ms, 3)});
    }
    table.Print();
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"description\": \"GraphStore batched updates: "
                 "throughput vs batch size (incremental vs from-scratch "
                 "recompute) and warm-cache query latency across epochs\",\n"
                 "  \"scale\": %.3f,\n  \"tracked_d\": %d,\n",
                 context.scale, kTrackedD);
    std::fprintf(out, "  \"throughput\": [\n");
    for (size_t i = 0; i < throughput.size(); ++i) {
      const ThroughputRow& row = throughput[i];
      std::fprintf(out,
                   "    {\"batch_size\": %lld, "
                   "\"incremental_updates_per_s\": %.1f, "
                   "\"recompute_updates_per_s\": %.1f, "
                   "\"speedup\": %.2f, \"core_churn\": %lld}%s\n",
                   static_cast<long long>(row.batch_size),
                   row.incremental_updates_per_s,
                   row.recompute_updates_per_s, row.speedup,
                   static_cast<long long>(row.core_churn),
                   i + 1 < throughput.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"warm_cache\": [\n");
    for (size_t i = 0; i < latency.size(); ++i) {
      const LatencyRow& row = latency[i];
      std::fprintf(out,
                   "    {\"workload\": \"%s\", \"epochs\": %lld, "
                   "\"preprocess_hits\": %lld, \"preprocess_misses\": %lld, "
                   "\"mean_preprocess_ms\": %.4f, \"mean_query_ms\": %.4f}%s\n",
                   row.workload.c_str(), static_cast<long long>(row.epochs),
                   static_cast<long long>(row.preprocess_hits),
                   static_cast<long long>(row.preprocess_misses),
                   row.mean_warm_preprocess_ms, row.mean_query_ms,
                   i + 1 < latency.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
