#ifndef MLCORE_BENCH_BENCH_COMMON_H_
#define MLCORE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dccs/dccs.h"
#include "graph/datasets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/timing.h"

namespace mlcore::bench {

/// Shared harness context for the figure-reproduction binaries.
///
/// Process-wide default search lanes for the cold runs of RunAlgorithm,
/// set from the --search_threads flag by BenchContext: every figure
/// binary's single-query searches run in parallel mode without per-bench
/// plumbing. Results are bit-identical at any value (DESIGN.md §10) — only
/// timings change.
inline int& DefaultSearchThreads() {
  static int value = 1;
  return value;
}

/// Every binary accepts:
///   --quick            shrink datasets (scale 0.25), trim sweeps — smoke run
///   --scale=F          explicit dataset scale in (0, 1]
///   --search_threads=N parallel BU/TD search lanes per query (default 1)
///   --metrics_json=P   dump the process-wide metric aggregate
///                      (obs::Registry::Global(), DESIGN.md §12) as JSON on
///                      exit; "-" writes to stdout
///
/// Flags are strict: `accepted` lists the binary's own flag names, and any
/// name outside it and the shared ones above prints the usage and exits 1.
struct BenchContext {
  explicit BenchContext(const Flags& flags,
                        std::vector<std::string_view> accepted = {})
      : quick(flags.GetBool("quick", false)),
        scale(flags.GetDouble("scale", quick ? 0.25 : 1.0)),
        search_threads(static_cast<int>(
            std::max<int64_t>(1, flags.GetInt("search_threads", 1)))),
        metrics_json(flags.GetString("metrics_json", "")) {
    accepted.insert(accepted.end(),
                    {"quick", "scale", "search_threads", "metrics_json"});
    if (!flags.CheckKnown(accepted)) std::exit(1);
    DefaultSearchThreads() = search_threads;
  }

  /// Every engine (including the per-call engines behind SolveDccs)
  /// mirrors its latency histograms into the global registry, so this
  /// export aggregates the whole run without per-bench plumbing.
  ~BenchContext() {
    if (metrics_json.empty()) return;
    if (obs::WriteFile(metrics_json,
                       obs::ToJson(obs::Registry::Global().Snapshot())) &&
        metrics_json != "-") {
      std::printf("[bench] metrics written to %s\n", metrics_json.c_str());
    }
  }

  bool quick;
  double scale;
  int search_threads;
  std::string metrics_json;

  /// Loads (and memoises) a dataset at the configured scale, backed by an
  /// on-disk cache shared across the figure binaries (generation of the
  /// large graphs costs minutes; a cached load costs ~1 s).
  const Dataset& Load(const std::string& name) {
    for (const auto& d : cache_) {
      if (d->name == name) return *d;
    }
    // Bump kCacheVersion whenever the generator or the dataset specs
    // change; stale caches would silently skew every figure.
    constexpr int kCacheVersion = 2;
    char cache_path[256];
    std::snprintf(cache_path, sizeof(cache_path),
                  "/tmp/mlcore_dataset_v%d_%s_%04d", kCacheVersion,
                  name.c_str(), static_cast<int>(scale * 1000));
    auto dataset = std::make_unique<Dataset>();
    if (LoadDataset(cache_path, dataset.get()) && dataset->name == name) {
      std::printf("[bench] loaded dataset '%s' from cache\n", name.c_str());
    } else {
      std::printf("[bench] generating dataset '%s' (scale %.2f)...\n",
                  name.c_str(), scale);
      *dataset = MakeDataset(name, scale);
      SaveDataset(*dataset, cache_path);
    }
    cache_.push_back(std::move(dataset));
    return *cache_.back();
  }

 private:
  std::vector<std::unique_ptr<Dataset>> cache_;
};

/// Prints the standard header every figure binary emits: what the paper
/// reports, and what shape to expect from this reproduction.
inline void PrintFigureHeader(const std::string& figure,
                              const std::string& paper_expectation) {
  std::printf("==========================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper expectation: %s\n", paper_expectation.c_str());
  std::printf("==========================================================\n");
}

/// Runs one algorithm and returns (seconds, cover size).
struct RunOutcome {
  double seconds = 0.0;
  int64_t cover = 0;
  SearchStats stats;
};

/// Cold run: a temporary single-query Engine per call on `search_threads`
/// lanes, so every row of a figure pays the full preprocessing cost the
/// paper measures. Aborts on invalid requests — bench parameters are
/// trusted.
inline RunOutcome RunAlgorithm(const MultiLayerGraph& graph,
                               const DccsParams& params,
                               DccsAlgorithm algorithm,
                               int search_threads = DefaultSearchThreads()) {
  Engine engine(&graph, Engine::Options{.query_workers = 0,
                                        .search_threads = search_threads});
  Expected<DccsResult> response = engine.Run(DccsRequest{params, algorithm});
  MLCORE_CHECK_MSG(response.ok(), response.status().message.c_str());
  return RunOutcome{response->stats.total_seconds, response->CoverSize(),
                    response->stats};
}

/// The small-s sweep of Fig 13 ({1..5}) and its large-s counterpart
/// ({l-4..l}), trimmed in quick mode.
inline std::vector<int> SmallSValues(bool quick) {
  return quick ? std::vector<int>{1, 2, 3} : std::vector<int>{1, 2, 3, 4, 5};
}
inline std::vector<int> LargeSValues(int layers, bool quick) {
  std::vector<int> values;
  int from = quick ? layers - 2 : layers - 4;
  for (int s = std::max(1, from); s <= layers; ++s) values.push_back(s);
  return values;
}

}  // namespace mlcore::bench

#endif  // MLCORE_BENCH_BENCH_COMMON_H_
