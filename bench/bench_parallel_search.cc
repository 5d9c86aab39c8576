// Intra-query parallel lattice search (DESIGN.md §10): single-query BU/TD
// speedup vs search_threads on the Fig 26/27 "stack" graphs.
//
//   ./bench_parallel_search [--quick] [--scale=F] [--repeats=N]
//       [--json=path]          (default BENCH_parallel_search.json)
//
// For each graph the sequential search (search_threads = 1) is the
// baseline; every parallel run is verified bit-identical to it (cover and
// committed candidate count — the DESIGN.md §10 contract) before its
// timing is reported. Speedups are on search_seconds: preprocessing is a
// different (already parallel) stage, and the engine serves it from cache
// in steady state anyway. `spec` is SearchStats::speculative_evals — the
// work wasted to stale bounds, the price of the speedup.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/sampling.h"

namespace {

struct Point {
  int threads = 1;
  double search_s = 0.0;
  double total_s = 0.0;
  double speedup = 1.0;
  int64_t speculative = 0;
};

struct Curve {
  std::string graph;
  std::string algorithm;
  int s = 0;
  std::vector<Point> points;
};

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"repeats", "json"});
  const int repeats =
      static_cast<int>(flags.GetInt("repeats", context.quick ? 1 : 3));
  const std::string json_path =
      flags.GetString("json", "BENCH_parallel_search.json");

  const mlcore::Dataset& stack = context.Load("stack");
  constexpr uint64_t kSampleSeed = 20180417;  // the Fig 26/27 sampling seed

  // The two Fig 26/27 graph families: a vertex sample (Fig 26) and a layer
  // sample (Fig 27) of stack.
  struct GraphCase {
    std::string name;
    mlcore::MultiLayerGraph graph;
  };
  std::vector<GraphCase> graphs;
  graphs.push_back({"stack_p0.6",
                    mlcore::SampleVertices(stack.graph, 0.6, kSampleSeed)});
  graphs.push_back({"stack_q0.8",
                    mlcore::SampleLayers(stack.graph, 0.8, kSampleSeed)});

  const std::vector<int> thread_sweep =
      context.quick ? std::vector<int>{1, 2, 8}
                    : std::vector<int>{1, 2, 4, 8};

  mlcore::bench::PrintFigureHeader(
      "Parallel lattice search: single-query speedup vs search_threads",
      "BU >= 2.5x at 8 threads; results bit-identical at every point");

  std::vector<Curve> curves;
  bool identical = true;
  for (const GraphCase& gc : graphs) {
    const int l = gc.graph.NumLayers();
    struct AlgoCase {
      mlcore::DccsAlgorithm algorithm;
      std::string label;
      int s;
    };
    const std::vector<AlgoCase> algos = {
        {mlcore::DccsAlgorithm::kBottomUp, "BU", std::min(3, l)},
        {mlcore::DccsAlgorithm::kTopDown, "TD", std::max(1, l - 2)},
    };
    for (const AlgoCase& ac : algos) {
      mlcore::DccsParams params;
      params.s = ac.s;

      Curve curve;
      curve.graph = gc.name;
      curve.algorithm = ac.label;
      curve.s = ac.s;

      mlcore::Table table({"threads", "search (s)", "total (s)", "speedup",
                           "speculative evals"});
      double baseline_search = 0.0;
      int64_t baseline_cover = 0;
      int64_t baseline_candidates = 0;
      for (int threads : thread_sweep) {
        // Best-of-repeats: per-point noise would otherwise dominate the
        // small quick-mode graphs.
        mlcore::bench::RunOutcome best;
        for (int r = 0; r < repeats; ++r) {
          mlcore::bench::RunOutcome outcome =
              mlcore::bench::RunAlgorithm(gc.graph, params, ac.algorithm,
                                          threads);
          if (r == 0 ||
              outcome.stats.search_seconds < best.stats.search_seconds) {
            best = outcome;
          }
          if (threads == 1) {
            baseline_cover = outcome.cover;
            baseline_candidates = outcome.stats.candidates_generated;
          } else if (outcome.cover != baseline_cover ||
                     outcome.stats.candidates_generated !=
                         baseline_candidates) {
            identical = false;
            std::fprintf(stderr,
                         "DETERMINISM VIOLATION: %s %s @ %d threads\n",
                         gc.name.c_str(), ac.label.c_str(), threads);
          }
        }
        if (threads == 1) baseline_search = best.stats.search_seconds;
        Point point;
        point.threads = threads;
        point.search_s = best.stats.search_seconds;
        point.total_s = best.stats.total_seconds;
        point.speedup =
            baseline_search / std::max(best.stats.search_seconds, 1e-9);
        point.speculative = best.stats.speculative_evals;
        curve.points.push_back(point);
        table.AddRow({mlcore::Table::Int(threads),
                      mlcore::Table::Num(point.search_s),
                      mlcore::Table::Num(point.total_s),
                      mlcore::Table::Num(point.speedup, 2),
                      mlcore::Table::Int(point.speculative)});
      }
      std::printf("%s  %s  s=%d\n", gc.name.c_str(), ac.label.c_str(),
                  ac.s);
      table.Print();
      std::printf("\n");
      curves.push_back(std::move(curve));
    }
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"description\": \"bench_parallel_search: single-query BU/TD "
        "search-phase speedup vs Engine::Options::search_threads on the Fig "
        "26/27 stack samples (DESIGN.md \\u00a710). Every parallel run is "
        "verified bit-identical to the sequential baseline; "
        "speculative_evals is the wasted work the speedup costs.\",\n"
        "  \"scale\": %.3f,\n  \"repeats\": %d,\n"
        "  \"results_identical\": %s,\n  \"curves\": [\n",
        context.scale, repeats, identical ? "true" : "false");
    for (size_t c = 0; c < curves.size(); ++c) {
      const Curve& curve = curves[c];
      std::fprintf(out,
                   "    {\"graph\": \"%s\", \"algorithm\": \"%s\", "
                   "\"s\": %d, \"points\": [\n",
                   curve.graph.c_str(), curve.algorithm.c_str(), curve.s);
      for (size_t i = 0; i < curve.points.size(); ++i) {
        const Point& p = curve.points[i];
        std::fprintf(out,
                     "      {\"threads\": %d, \"search_s\": %.6f, "
                     "\"total_s\": %.6f, \"speedup\": %.3f, "
                     "\"speculative_evals\": %lld}%s\n",
                     p.threads, p.search_s, p.total_s, p.speedup,
                     static_cast<long long>(p.speculative),
                     i + 1 < curve.points.size() ? "," : "");
      }
      std::fprintf(out, "    ]}%s\n", c + 1 < curves.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
