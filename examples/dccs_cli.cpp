// General-purpose DCCS command-line tool: load a multi-layer edge list,
// run the selected algorithm, print (or save) the diversified d-CCs.
//
//   ./examples/dccs_cli --graph=network.txt --d=4 --s=3 --k=10
//       [--graph_bin=graph.mlg]
//       [--algorithm=auto|greedy|bu|td] [--engine=queue|bins] [--csv]
//       [--threads=N] [--search_threads=N] [--priority=P] [--deadline_ms=T]
//       [--cancel_after_ms=T] [--budget_ms=T] [--updates=stream.txt]
//       [--subscribe] [--metrics_json=PATH]
//
// The query goes through the engine's asynchronous path (Engine::Submit,
// DESIGN.md §7): --deadline_ms attaches a wall-clock deadline, --priority
// sets the admission priority, and --cancel_after_ms cancels the submitted
// query from a second thread after the given delay — demonstrating the
// kDeadlineExceeded / kCancelled terminal states and the anytime prefix a
// mid-search deadline returns.
//
// Input format (see graph/io.h):
//   n <num_vertices> <num_layers>
//   <layer> <u> <v>
//
// --graph_bin=graph.mlg loads an MLG1 binary container instead (format/
// mlg.h, DESIGN.md §13): the file is memory-mapped and the graph's
// adjacency aliases the mapping zero-copy — generate inputs with
// examples/mlggen or convert text with examples/mlgconvert.
//
// --updates=stream.txt replays an edge-update stream (graph/io.h "+/-"
// records, batches separated by `commit`) against the engine's GraphStore
// (DESIGN.md §8): after the initial query, each batch is applied —
// publishing a new epoch — and the query re-runs, printing the epoch it
// answered from, the incremental core-maintenance effort, and the
// preprocessing cache hit/miss counters (warm caches survive batches that
// leave the relevant d-core subgraphs untouched).
//
// --subscribe upgrades the replay to a *standing* query (DESIGN.md §9):
// one Engine::Subscribe before the replay, then each applied batch is
// answered by the revision the engine pushes — full result plus
// vertex-level delta, with epochs the generational keys prove irrelevant
// arriving as zero-work "unchanged" revisions instead of recomputations.
//
// --metrics_json=PATH dumps the engine's machine-readable stats surface
// (Engine::stats_report — metric registry plus slow-query span trees,
// DESIGN.md §12) as JSON on exit; "-" writes to stdout. Validate with
// scripts/check_metrics.py --validate PATH.
//
// With --demo the tool writes, loads and mines a small self-generated
// example file, so it is runnable without any input data.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dccs/dccs.h"
#include "format/mlg.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "obs/export.h"
#include "store/graph_store.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timing.h"

namespace {

// Unknown names are rejected, never mapped to a default.
std::optional<mlcore::DccsAlgorithm> ParseAlgorithm(const std::string& name) {
  if (name == "auto") return mlcore::DccsAlgorithm::kAuto;  // engine resolves
  if (name == "greedy") return mlcore::DccsAlgorithm::kGreedy;
  if (name == "bu") return mlcore::DccsAlgorithm::kBottomUp;
  if (name == "td") return mlcore::DccsAlgorithm::kTopDown;
  return std::nullopt;
}

std::optional<mlcore::DccEngine> ParseEngine(const std::string& name) {
  if (name == "queue") return mlcore::DccEngine::kQueue;
  if (name == "bins") return mlcore::DccEngine::kBins;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);

  const std::string algorithm_name = flags.GetString("algorithm", "auto");
  const std::optional<mlcore::DccsAlgorithm> algorithm =
      ParseAlgorithm(algorithm_name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr,
                 "error: unknown --algorithm=%s (accepted: auto, greedy, bu, "
                 "td)\n",
                 algorithm_name.c_str());
    return 1;
  }
  const std::string engine_name = flags.GetString("engine", "queue");
  const std::optional<mlcore::DccEngine> dcc_engine = ParseEngine(engine_name);
  if (!dcc_engine.has_value()) {
    std::fprintf(stderr,
                 "error: unknown --engine=%s (accepted: queue, bins)\n",
                 engine_name.c_str());
    return 1;
  }

  const std::string binary_path = flags.GetString("graph_bin", "");
  std::string path = flags.GetString("graph", "");
  if (binary_path.empty() &&
      (flags.GetBool("demo", false) || path.empty())) {
    std::printf("no --graph given: writing a demo instance to "
                "/tmp/mlcore_demo.txt\n");
    mlcore::Dataset demo = mlcore::MakeDataset("ppi");
    path = "/tmp/mlcore_demo.txt";
    mlcore::IoStatus saved = SaveMultiLayerGraph(demo.graph, path);
    if (!saved.ok) {
      std::fprintf(stderr, "error: %s\n", saved.error.c_str());
      return 1;
    }
  }

  mlcore::MultiLayerGraph graph;
  if (!binary_path.empty()) {
    // Zero-copy ingest: the graph's adjacency aliases the mmap'd MLG1
    // container for the lifetime of the store's base epoch.
    mlcore::format::MlgLoadStats load_stats;
    mlcore::Status loaded =
        LoadMlgGraph(binary_path, &graph, &load_stats);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.message.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "mapped %s in %.2f ms (%.1f MiB zero-copy adjacency)\n",
                 binary_path.c_str(), load_stats.load_ms,
                 static_cast<double>(load_stats.mapped_bytes) / (1 << 20));
  } else {
    mlcore::IoStatus status = LoadMultiLayerGraph(path, &graph);
    if (!status.ok) {
      std::fprintf(stderr, "error: %s\n", status.error.c_str());
      return 1;
    }
  }

  mlcore::DccsRequest request;
  request.params.d = static_cast<int>(flags.GetInt("d", 4));
  request.params.s = static_cast<int>(flags.GetInt("s", 3));
  request.params.k = static_cast<int>(flags.GetInt("k", 10));
  request.params.dcc_engine = *dcc_engine;
  request.algorithm = *algorithm;
  if (request.params.s > graph.NumLayers()) {
    std::fprintf(stderr, "error: s=%d exceeds the graph's %d layers\n",
                 request.params.s, graph.NumLayers());
    return 1;
  }

  request.params.time_budget_seconds =
      flags.GetDouble("budget_ms", 0.0) / 1e3;

  // The service path: a long-lived engine validates the request (bad flags
  // produce an error message, not a CHECK-abort) and amortises
  // preprocessing across further queries of this graph. The engine hosts
  // the graph behind a GraphStore tracking the query's d, so --updates
  // replay gets incremental core maintenance (DESIGN.md §8). The query is
  // submitted asynchronously; deadline/priority ride on SubmitOptions.
  mlcore::GraphStore::Options store_options;
  store_options.tracked_degrees = {request.params.d};
  auto store = std::make_shared<mlcore::GraphStore>(
      std::shared_ptr<const mlcore::MultiLayerGraph>(
          &graph, [](const mlcore::MultiLayerGraph*) {}),
      store_options);
  // --threads feeds the shared pool (preprocessing, batch fan-out);
  // --search_threads parallelises the BU/TD lattice search itself
  // (DESIGN.md §10) — results are bit-identical at any value of either.
  mlcore::Engine engine(
      store,
      mlcore::Engine::Options{
          .num_threads = static_cast<int>(flags.GetInt("threads", 1)),
          .search_threads =
              static_cast<int>(flags.GetInt("search_threads", 1))});
  mlcore::SubmitOptions submit;
  submit.priority = static_cast<int>(flags.GetInt("priority", 0));
  submit.deadline_seconds = flags.GetDouble("deadline_ms", 0.0) / 1e3;
  std::fprintf(stderr,
               "%s on %d vertices / %d layers / %lld edges "
               "(d=%d, s=%d, k=%d, priority=%d, deadline=%.0fms)\n",
               mlcore::AlgorithmName(engine.ResolvedAlgorithm(request)).c_str(),
               graph.NumVertices(), graph.NumLayers(),
               static_cast<long long>(graph.TotalEdges()), request.params.d,
               request.params.s, request.params.k, submit.priority,
               submit.deadline_seconds * 1e3);

  mlcore::QueryHandle handle = engine.Submit(request, submit);
  std::thread canceller;
  const double cancel_after_ms = flags.GetDouble("cancel_after_ms", -1.0);
  if (cancel_after_ms >= 0) {
    // Sleep in slices and bail once the query is terminal, so a cancel
    // delay longer than the query never stalls the tool on join().
    canceller = std::thread([&handle, cancel_after_ms] {
      mlcore::WallTimer timer;
      while (timer.Millis() < cancel_after_ms) {
        if (handle.TryGet() != nullptr) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      handle.Cancel();
    });
  }
  const mlcore::Expected<mlcore::DccsResult>& response = handle.Wait();
  if (canceller.joinable()) canceller.join();
  if (!response.ok()) {
    const char* kind =
        response.status().code == mlcore::StatusCode::kCancelled
            ? "cancelled"
        : response.status().code == mlcore::StatusCode::kDeadlineExceeded
            ? "deadline exceeded"
        : response.status().code == mlcore::StatusCode::kResourceExhausted
            ? "shed by admission control"
            : "invalid query";
    std::fprintf(stderr, "%s: %s\n", kind,
                 response.status().message.c_str());
    return response.status().code == mlcore::StatusCode::kInvalidArgument ||
                   response.status().code == mlcore::StatusCode::kUnsupported
               ? 1
               : 2;
  }
  const mlcore::DccsResult& result = *response;
  if (result.stats.budget_exhausted) {
    std::fprintf(stderr,
                 "time limit hit mid-search: returning the anytime "
                 "best-so-far result set\n");
  }

  mlcore::Table table({"core", "layers", "size", "vertices"});
  for (size_t i = 0; i < result.cores.size(); ++i) {
    const auto& core = result.cores[i];
    std::string layers, vertices;
    for (size_t j = 0; j < core.layers.size(); ++j) {
      layers += (j ? " " : "") + std::to_string(core.layers[j]);
    }
    const size_t preview = std::min<size_t>(core.vertices.size(), 12);
    for (size_t j = 0; j < preview; ++j) {
      vertices += (j ? " " : "") + std::to_string(core.vertices[j]);
    }
    if (core.vertices.size() > preview) vertices += " ...";
    table.AddRow({mlcore::Table::Int(static_cast<long long>(i + 1)), layers,
                  mlcore::Table::Int(
                      static_cast<long long>(core.vertices.size())),
                  vertices});
  }
  if (flags.GetBool("csv", false)) {
    std::printf("%s", table.ToCsv().c_str());
  } else {
    table.Print();
  }
  std::fprintf(stderr,
               "|Cov(R)| = %lld, preprocess %.3fs, search %.3fs, "
               "total %.3fs\n",
               static_cast<long long>(result.CoverSize()),
               result.stats.preprocess_seconds, result.stats.search_seconds,
               result.stats.total_seconds);

  // --updates: replay an edge-update stream — via a standing query
  // (--subscribe) or by re-running after every published epoch.
  const std::string updates_path = flags.GetString("updates", "");
  if (!updates_path.empty()) {
    std::vector<mlcore::UpdateBatch> batches;
    mlcore::IoStatus loaded = LoadUpdateStream(updates_path, &batches);
    if (!loaded.ok) {
      std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
      return 1;
    }
    const bool subscribe = flags.GetBool("subscribe", false);
    std::fprintf(stderr, "\nreplaying %zu update batches from %s%s\n",
                 batches.size(), updates_path.c_str(),
                 subscribe ? " through one standing subscription" : "");

    mlcore::Subscription subscription;
    if (subscribe) {
      mlcore::SubscriptionOptions subscription_options;
      subscription_options.priority = submit.priority;
      subscription_options.max_buffered_revisions =
          static_cast<int>(batches.size()) + 1;
      auto subscribed = engine.Subscribe(request, subscription_options);
      if (!subscribed.ok()) {
        std::fprintf(stderr, "subscribe failed: %s\n",
                     subscribed.status().message.c_str());
        return 1;
      }
      subscription = *subscribed;
      // The initial revision restates the epoch-0 answer printed above.
      std::optional<mlcore::ResultRevision> initial = subscription.Next();
      if (initial.has_value()) {
        std::fprintf(stderr, "subscribed: initial revision @ epoch %llu, "
                     "|Cov(R)| = %lld\n",
                     static_cast<unsigned long long>(initial->epoch),
                     static_cast<long long>(initial->result.CoverSize()));
      }
    }

    for (size_t b = 0; b < batches.size(); ++b) {
      auto outcome = engine.ApplyUpdate(batches[b]);
      if (!outcome.ok()) {
        std::fprintf(stderr, "batch %zu rejected: %s\n", b,
                     outcome.status().message.c_str());
        return 1;
      }
      if (subscribe) {
        std::optional<mlcore::ResultRevision> revision = subscription.Next();
        if (!revision.has_value()) {
          std::fprintf(stderr, "subscription ended at epoch %llu\n",
                       static_cast<unsigned long long>(outcome->epoch));
          return 2;
        }
        std::fprintf(
            stderr,
            "revision #%llu @ epoch %llu%s: |Cov(R)| = %lld, "
            "delta +%zu/-%zu users, %zu/%zu/%zu stories "
            "appeared/vanished/changed\n",
            static_cast<unsigned long long>(revision->sequence),
            static_cast<unsigned long long>(revision->epoch),
            revision->unchanged ? " [unchanged]" : "",
            static_cast<long long>(revision->result.CoverSize()),
            revision->delta.cover_added.size(),
            revision->delta.cover_removed.size(),
            revision->delta.cores_appeared.size(),
            revision->delta.cores_vanished.size(),
            revision->delta.cores_changed.size());
        continue;
      }
      auto replayed = engine.Run(request);
      if (!replayed.ok()) {
        std::fprintf(stderr, "query failed at epoch %llu: %s\n",
                     static_cast<unsigned long long>(outcome->epoch),
                     replayed.status().message.c_str());
        return 2;
      }
      const mlcore::EngineCacheStats cache = engine.cache_stats();
      std::fprintf(
          stderr,
          "epoch %llu: +%lld/-%lld edges, core entries %lld / exits %lld "
          "| |Cov(R)| = %lld, preprocess %.3f ms "
          "(cache %lld hits / %lld misses)\n",
          static_cast<unsigned long long>(replayed->epoch),
          static_cast<long long>(outcome->edges_inserted),
          static_cast<long long>(outcome->edges_removed),
          static_cast<long long>(outcome->core_entries),
          static_cast<long long>(outcome->core_exits),
          static_cast<long long>(replayed->CoverSize()),
          replayed->stats.preprocess_seconds * 1e3,
          static_cast<long long>(cache.preprocess_hits),
          static_cast<long long>(cache.preprocess_misses));
    }
    if (subscribe) {
      const mlcore::EngineCacheStats cache = engine.cache_stats();
      std::fprintf(stderr,
                   "subscription totals: %lld revisions, %lld unchanged "
                   "epochs absorbed, %lld coalesced\n",
                   static_cast<long long>(cache.revisions_emitted),
                   static_cast<long long>(cache.revisions_unchanged_skipped),
                   static_cast<long long>(cache.revisions_coalesced));
      subscription.Cancel();
    }
  }

  const std::string metrics_path = flags.GetString("metrics_json", "");
  if (!metrics_path.empty()) {
    mlcore::EngineStatsReport report = engine.stats_report();
    // Graph-ingest metrics live in the process-global registry (the loader
    // runs before any engine exists); fold them into the engine's report
    // so one --metrics_json document covers ingest and query.
    for (mlcore::obs::MetricSnapshot& snapshot :
         mlcore::obs::Registry::Global().Snapshot()) {
      if (snapshot.name.rfind("format.", 0) == 0) {
        report.metrics.push_back(std::move(snapshot));
      }
    }
    if (!mlcore::obs::WriteFile(
            metrics_path,
            mlcore::obs::ToJson(report.metrics, report.slow_queries))) {
      std::fprintf(stderr, "error: cannot write --metrics_json=%s\n",
                   metrics_path.c_str());
      return 1;
    }
    if (metrics_path != "-") {
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
  }
  return 0;
}
