// Continuous-DCCS benchmark (DESIGN.md §9): standing queries through
// Engine::Subscribe vs the polling alternatives, over the same update
// stream and query set.
//
// Three serving modes answer Q standing (d, s, k) questions across E
// epochs:
//   poll-cold   a fresh engine per epoch, every query recomputed from
//               scratch (the "thousands of cold queries" baseline);
//   poll-warm   one long-lived engine, Run per query per epoch
//               (generational caches soften the blow — PR 4's world);
//   subscribe   one engine, Q subscriptions; each ApplyUpdate fans out
//               revisions, and epochs the core-subgraph generations prove
//               irrelevant are absorbed as zero-work "unchanged" revisions.
//
// Two workloads: background churn (edges that never touch a d-core
// subgraph — the subscribe mode should serve almost everything as
// unchanged) and core churn (dense-region edits — everyone recomputes,
// subscribe must stay within noise of poll-warm). Every mode's answers
// are checked identical before timing is trusted.
//
//   ./bench_subscriptions [--quick] [--scale=F] [--json=path]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace {

constexpr int kTrackedD = 4;

mlcore::MultiLayerGraph StreamGraph(double scale) {
  mlcore::PlantedGraphConfig config;
  config.num_vertices =
      std::max<int32_t>(1500, static_cast<int32_t>(12000 * scale));
  config.num_layers = 6;
  config.num_communities = std::max(10, static_cast<int>(60 * scale));
  config.community_size_min = 14;
  config.community_size_max = 40;
  config.seed = 20180417;
  return mlcore::GeneratePlanted(config).graph;
}

std::vector<mlcore::DccsRequest> StandingQueries(bool quick) {
  std::vector<mlcore::DccsRequest> requests;
  const std::vector<int> supports = quick ? std::vector<int>{2, 3}
                                          : std::vector<int>{2, 3, 4};
  for (int s : supports) {
    for (int k : {5, 10}) {
      mlcore::DccsRequest request;
      request.params.d = kTrackedD;
      request.params.s = s;
      request.params.k = k;
      requests.push_back(request);
    }
  }
  return requests;
}

struct ModeRow {
  std::string workload;
  std::string mode;
  int epochs = 0;
  int queries = 0;
  double mean_epoch_ms = 0.0;   // ApplyUpdate + all answers for one epoch
  double total_seconds = 0.0;
  int64_t revisions_emitted = 0;
  int64_t unchanged_skipped = 0;
  int64_t preprocess_misses = 0;
};

mlcore::GraphStore::Options StoreOptions() {
  mlcore::GraphStore::Options options;
  options.tracked_degrees = {kTrackedD};
  return options;
}

// Builds the per-epoch batch for (workload, epoch) against `graph`.
mlcore::UpdateBatch EpochBatch(
    const std::string& workload, int epoch,
    const mlcore::MultiLayerGraph& graph,
    const std::vector<std::pair<mlcore::VertexId, mlcore::VertexId>>&
        background,
    mlcore::Rng& rng) {
  mlcore::UpdateBatch batch;
  if (workload == "background") {
    // Epochs count from 1: insert the pairs on odd epochs, remove them on
    // even ones — content changes every epoch, the d-core subgraphs never
    // do.
    for (const auto& [u, v] : background) {
      if (epoch % 2 == 1) {
        batch.Insert(0, u, v);
      } else {
        batch.Remove(0, u, v);
      }
    }
  } else {
    batch = mlcore::bench::MakeChurnBatch(graph, 64, rng);
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"json"});
  const std::string json_path = flags.GetString("json", "");

  mlcore::bench::PrintFigureHeader(
      "bench_subscriptions — standing queries vs polling (DESIGN.md §9)",
      "one update fans out to cheap subscription revisions: background "
      "churn is absorbed as zero-work unchanged revisions, core churn "
      "stays within noise of warm polling, both far below cold polling");

  const mlcore::MultiLayerGraph initial = StreamGraph(context.scale);
  const std::vector<mlcore::DccsRequest> requests =
      StandingQueries(context.quick);
  const int epochs = context.quick ? 8 : 30;
  std::printf("graph: %d vertices, %d layers, %lld edges; %zu standing "
              "queries, %d epochs\n\n",
              initial.NumVertices(), initial.NumLayers(),
              static_cast<long long>(initial.TotalEdges()), requests.size(),
              epochs);
  const auto background =
      mlcore::bench::LowDegreeBackgroundPairs(initial, kTrackedD);

  std::vector<ModeRow> rows;
  // Reference covers per (workload, epoch, query), filled by poll-warm and
  // checked by the other modes: all three must serve identical answers.
  std::vector<std::vector<int64_t>> reference_covers;

  for (const std::string workload : {"background", "core"}) {
    reference_covers.assign(static_cast<size_t>(epochs + 1), {});
    for (const std::string mode : {"poll-warm", "poll-cold", "subscribe"}) {
      auto store = std::make_shared<mlcore::GraphStore>(initial,
                                                        StoreOptions());
      mlcore::Engine engine(store);
      mlcore::Rng rng(4242);
      ModeRow row;
      row.workload = workload;
      row.mode = mode;
      row.epochs = epochs;
      row.queries = static_cast<int>(requests.size());

      std::vector<mlcore::Subscription> subs;
      mlcore::WallTimer timer;
      auto check = [&](int epoch, size_t q, int64_t cover) {
        auto& slot = reference_covers[static_cast<size_t>(epoch)];
        if (mode == "poll-warm") {
          slot.push_back(cover);
        } else {
          MLCORE_CHECK_MSG(slot[q] == cover,
                           "mode answers diverged — bug in the engine");
        }
      };

      if (mode == "subscribe") {
        mlcore::SubscriptionOptions options;
        options.max_buffered_revisions = 2;
        for (const mlcore::DccsRequest& request : requests) {
          auto subscribed = engine.Subscribe(request, options);
          MLCORE_CHECK_MSG(subscribed.ok(),
                           subscribed.status().message.c_str());
          subs.push_back(*subscribed);
        }
        for (size_t q = 0; q < subs.size(); ++q) {
          std::optional<mlcore::ResultRevision> revision = subs[q].Next();
          MLCORE_CHECK(revision.has_value());
          check(0, q, revision->result.CoverSize());
        }
      } else {
        for (size_t q = 0; q < requests.size(); ++q) {
          auto response = engine.Run(requests[q]);
          MLCORE_CHECK(response.ok());
          check(0, q, response->CoverSize());
        }
      }
      engine.ResetStats();

      for (int e = 1; e <= epochs; ++e) {
        mlcore::UpdateBatch batch = EpochBatch(
            workload, e, store->snapshot()->graph(), background, rng);
        MLCORE_CHECK(store->ApplyUpdate(batch).ok());
        if (mode == "subscribe") {
          for (size_t q = 0; q < subs.size(); ++q) {
            std::optional<mlcore::ResultRevision> revision = subs[q].Next();
            MLCORE_CHECK(revision.has_value());
            MLCORE_CHECK(revision->epoch == static_cast<uint64_t>(e));
            check(e, q, revision->result.CoverSize());
          }
        } else if (mode == "poll-warm") {
          for (size_t q = 0; q < requests.size(); ++q) {
            auto response = engine.Run(requests[q]);
            MLCORE_CHECK(response.ok());
            check(e, q, response->CoverSize());
          }
        } else {
          auto snap = store->snapshot();
          mlcore::Engine cold(&snap->graph(),
                              mlcore::Engine::Options{.query_workers = 0});
          for (size_t q = 0; q < requests.size(); ++q) {
            auto response = cold.Run(requests[q]);
            MLCORE_CHECK(response.ok());
            check(e, q, response->CoverSize());
          }
        }
      }
      row.total_seconds = timer.Seconds();
      row.mean_epoch_ms = row.total_seconds / epochs * 1e3;
      const mlcore::EngineCacheStats stats = engine.cache_stats();
      row.revisions_emitted = stats.revisions_emitted;
      row.unchanged_skipped = stats.revisions_unchanged_skipped;
      row.preprocess_misses = stats.preprocess_misses;
      for (mlcore::Subscription& sub : subs) sub.Cancel();
      rows.push_back(row);
    }
  }

  mlcore::Table table({"workload", "mode", "epochs", "queries",
                       "mean epoch ms", "revisions", "unchanged",
                       "preprocess misses"});
  for (const ModeRow& row : rows) {
    table.AddRow({row.workload, row.mode, mlcore::Table::Int(row.epochs),
                  mlcore::Table::Int(row.queries),
                  mlcore::Table::Num(row.mean_epoch_ms, 3),
                  mlcore::Table::Int(row.revisions_emitted),
                  mlcore::Table::Int(row.unchanged_skipped),
                  mlcore::Table::Int(row.preprocess_misses)});
  }
  table.Print();

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"description\": \"standing queries "
                 "(Engine::Subscribe) vs warm and cold polling across an "
                 "update stream; unchanged-skip revisions absorb "
                 "background churn\",\n  \"scale\": %.3f,\n"
                 "  \"tracked_d\": %d,\n  \"modes\": [\n",
                 context.scale, kTrackedD);
    for (size_t i = 0; i < rows.size(); ++i) {
      const ModeRow& row = rows[i];
      std::fprintf(out,
                   "    {\"workload\": \"%s\", \"mode\": \"%s\", "
                   "\"epochs\": %d, \"queries\": %d, "
                   "\"mean_epoch_ms\": %.4f, \"revisions_emitted\": %lld, "
                   "\"revisions_unchanged_skipped\": %lld, "
                   "\"preprocess_misses\": %lld}%s\n",
                   row.workload.c_str(), row.mode.c_str(), row.epochs,
                   row.queries, row.mean_epoch_ms,
                   static_cast<long long>(row.revisions_emitted),
                   static_cast<long long>(row.unchanged_skipped),
                   static_cast<long long>(row.preprocess_misses),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
