// Hot-kernel micro-benchmarks (google-benchmark). Not a paper figure —
// engineering aid for the peeling, coverage and index kernels that
// dominate the DCCS algorithms' runtime.

#include <benchmark/benchmark.h>

#include "core/dcc.h"
#include "core/dcore.h"
#include "dccs/cover.h"
#include "dccs/dccs.h"
#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

const mlcore::MultiLayerGraph& BenchGraph() {
  static const mlcore::MultiLayerGraph* graph = [] {
    mlcore::PlantedGraphConfig config;
    config.num_vertices = 20000;
    config.num_layers = 8;
    config.num_communities = 20;
    config.community_size_min = 20;
    config.community_size_max = 60;
    config.seed = 99;
    return new mlcore::MultiLayerGraph(
        mlcore::GeneratePlanted(config).graph);
  }();
  return *graph;
}

void BM_DCore(benchmark::State& state) {
  const auto& graph = BenchGraph();
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlcore::DCore(graph, 0, d));
  }
}
BENCHMARK(BM_DCore)->Arg(2)->Arg(4)->Arg(6);

void BM_CoreDecomposition(benchmark::State& state) {
  const auto& graph = BenchGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlcore::CoreDecomposition(graph, 0));
  }
}
BENCHMARK(BM_CoreDecomposition);

void BM_DccQueue(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccSolver solver(graph);
  mlcore::VertexSet all = mlcore::AllVertices(graph);
  mlcore::LayerSet layers = {0, 2, 4, 6};
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Compute(layers, d, all, mlcore::DccEngine::kQueue));
  }
}
BENCHMARK(BM_DccQueue)->Arg(2)->Arg(4);

void BM_DccBins(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccSolver solver(graph);
  mlcore::VertexSet all = mlcore::AllVertices(graph);
  mlcore::LayerSet layers = {0, 2, 4, 6};
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Compute(layers, d, all, mlcore::DccEngine::kBins));
  }
}
BENCHMARK(BM_DccBins)->Arg(2)->Arg(4);

// The DCCS searches issue thousands of dCC calls over *small* scopes (a
// community-sized candidate inside a 20k-vertex graph); per-call setup cost
// dominates there, not peeling itself. 64 random community-sized scopes,
// |L| = 2, cycled per iteration.
std::vector<mlcore::VertexSet> ScopedWorkload() {
  mlcore::Rng rng(41);
  std::vector<mlcore::VertexSet> scopes;
  const int n = BenchGraph().NumVertices();
  for (int i = 0; i < 64; ++i) {
    mlcore::VertexSet scope;
    int size = static_cast<int>(rng.Uniform(40, 400));
    for (int j = 0; j < size; ++j) {
      scope.push_back(static_cast<mlcore::VertexId>(rng.Uniform(0, n - 1)));
    }
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    scopes.push_back(std::move(scope));
  }
  return scopes;
}

void BM_DccQueueScoped(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccSolver solver(graph);
  const std::vector<mlcore::VertexSet> scopes = ScopedWorkload();
  mlcore::LayerSet layers = {1, 5};
  const int d = static_cast<int>(state.range(0));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Compute(layers, d, scopes[next], mlcore::DccEngine::kQueue));
    next = (next + 1) % scopes.size();
  }
}
BENCHMARK(BM_DccQueueScoped)->Arg(2)->Arg(4);

void BM_DccBinsScoped(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccSolver solver(graph);
  const std::vector<mlcore::VertexSet> scopes = ScopedWorkload();
  mlcore::LayerSet layers = {1, 5};
  const int d = static_cast<int>(state.range(0));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.Compute(layers, d, scopes[next], mlcore::DccEngine::kBins));
    next = (next + 1) % scopes.size();
  }
}
BENCHMARK(BM_DccBinsScoped)->Arg(2)->Arg(4);

// Fully allocation-free variant: the caller-owned result buffer is reused
// across calls (the driver-loop pattern of the BU/TD searches).
void BM_DccComputeInto(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccSolver solver(graph);
  const std::vector<mlcore::VertexSet> scopes = ScopedWorkload();
  mlcore::LayerSet layers = {1, 5};
  mlcore::VertexSet out;
  const int d = static_cast<int>(state.range(0));
  size_t next = 0;
  for (auto _ : state) {
    solver.Compute(layers, d, scopes[next], &out, mlcore::DccEngine::kQueue);
    benchmark::DoNotOptimize(out.data());
    next = (next + 1) % scopes.size();
  }
}
BENCHMARK(BM_DccComputeInto)->Arg(2)->Arg(4);

void BM_GreedyDccs(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::DccsParams params;
  params.d = 4;
  params.s = 3;
  params.k = 10;
  mlcore::ThreadPool pool(static_cast<int>(state.range(0)));
  const mlcore::DccsExecution exec{.pool = &pool};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlcore::GreedyDccs(graph, params, exec));
  }
}
BENCHMARK(BM_GreedyDccs)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CoverageUpdate(benchmark::State& state) {
  // Pre-generate a stream of pseudo-random candidate sets.
  mlcore::Rng rng(7);
  std::vector<mlcore::VertexSet> candidates;
  for (int i = 0; i < 512; ++i) {
    mlcore::VertexSet candidate;
    int size = static_cast<int>(rng.Uniform(5, 120));
    for (int j = 0; j < size; ++j) {
      candidate.push_back(static_cast<mlcore::VertexId>(
          rng.Uniform(0, 5000)));
    }
    std::sort(candidate.begin(), candidate.end());
    candidate.erase(std::unique(candidate.begin(), candidate.end()),
                    candidate.end());
    candidates.push_back(std::move(candidate));
  }
  mlcore::LayerSet layers = {0, 1, 2};
  for (auto _ : state) {
    mlcore::CoverageIndex index(10);
    for (const auto& candidate : candidates) {
      layers[0] = (layers[0] + 1) % 64;  // distinct layer keys
      benchmark::DoNotOptimize(index.Update(candidate, layers));
    }
  }
}
BENCHMARK(BM_CoverageUpdate);

void BM_Preprocess(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mlcore::Preprocess(graph, /*d=*/4, /*s=*/3, true, &pool));
  }
}
BENCHMARK(BM_Preprocess)->Arg(1)->Arg(4);

void BM_VertexIndexBuild(benchmark::State& state) {
  const auto& graph = BenchGraph();
  mlcore::VertexSet all = mlcore::AllVertices(graph);
  for (auto _ : state) {
    mlcore::VertexLevelIndex index(graph, 4, all);
    benchmark::DoNotOptimize(index.stage(all.front()));
  }
}
BENCHMARK(BM_VertexIndexBuild);

}  // namespace

BENCHMARK_MAIN();
