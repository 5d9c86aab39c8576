#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/dcc.h"
#include "dccs/preprocess.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mlcore {
namespace {

MultiLayerGraph ReuseGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 300;
  config.num_layers = 6;
  config.num_communities = 8;
  config.community_size_min = 10;
  config.community_size_max = 30;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

// A reused solver must behave exactly like a fresh solver per call, for an
// adversarial mix of scopes, layer sets, thresholds and engines: stale
// scratch from call i must never leak into call i+1 (epoch-stamp
// correctness).
TEST(SolverReuseTest, ReusedMatchesFreshAcrossMixedCalls) {
  MultiLayerGraph graph = ReuseGraph(17);
  DccSolver reused(graph);
  Rng rng(123);
  const VertexSet all = AllVertices(graph);

  for (int call = 0; call < 300; ++call) {
    // Random non-empty layer set.
    LayerSet layers;
    for (LayerId i = 0; i < graph.NumLayers(); ++i) {
      if (rng.Uniform(0, 2) == 0) layers.push_back(i);
    }
    if (layers.empty()) layers.push_back(static_cast<LayerId>(
        rng.Uniform(0, graph.NumLayers() - 1)));
    // Random scope: each vertex kept with probability ~2/3.
    VertexSet scope;
    for (VertexId v : all) {
      if (rng.Uniform(0, 3) != 0) scope.push_back(v);
    }
    const int d = static_cast<int>(rng.Uniform(1, 6));
    const DccEngine engine =
        rng.Uniform(0, 2) == 0 ? DccEngine::kQueue : DccEngine::kBins;

    DccSolver fresh(graph);
    EXPECT_EQ(reused.Compute(layers, d, scope, engine),
              fresh.Compute(layers, d, scope, engine))
        << "call=" << call << " d=" << d;
  }
}

// The two engines must agree on every instance (paper Appendix B: the
// bin-based formulation computes the same unique d-CC).
TEST(SolverReuseTest, EnginesAgreeUnderReuse) {
  MultiLayerGraph graph = ReuseGraph(29);
  DccSolver solver(graph);
  const VertexSet all = AllVertices(graph);
  for (int d = 1; d <= 5; ++d) {
    for (LayerId i = 0; i < graph.NumLayers(); ++i) {
      LayerSet layers = {i, static_cast<LayerId>((i + 2) % graph.NumLayers())};
      std::sort(layers.begin(), layers.end());
      layers.erase(std::unique(layers.begin(), layers.end()), layers.end());
      EXPECT_EQ(solver.Compute(layers, d, all, DccEngine::kQueue),
                solver.Compute(layers, d, all, DccEngine::kBins));
    }
  }
}

// Shrinking-scope chains are the hot pattern of the BU/TD searches: each
// result feeds the next call's scope.
TEST(SolverReuseTest, NestedScopeChain) {
  MultiLayerGraph graph = ReuseGraph(41);
  DccSolver solver(graph);
  VertexSet scope = AllVertices(graph);
  for (int d = 1; d <= 6 && !scope.empty(); ++d) {
    LayerSet layers = {0, 3, 5};
    VertexSet next = solver.Compute(layers, d, scope);
    DccSolver fresh(graph);
    EXPECT_EQ(next, fresh.Compute(layers, d, scope)) << "d=" << d;
    ASSERT_TRUE(IsSubsetSorted(next, scope));
    scope = std::move(next);
  }
}

// The out-parameter overload must produce the same set as the
// value-returning form, and must fully overwrite whatever the reused buffer
// held from the previous call (including a larger previous result).
TEST(SolverReuseTest, OutParamMatchesValueForm) {
  MultiLayerGraph graph = ReuseGraph(53);
  DccSolver solver(graph);
  const VertexSet all = AllVertices(graph);
  VertexSet out = {999999, -5};  // stale garbage the first call must clear
  for (int d = 5; d >= 1; --d) {  // descending: results grow call-to-call
    for (DccEngine engine : {DccEngine::kQueue, DccEngine::kBins}) {
      LayerSet layers = {1, 4};
      solver.Compute(layers, d, all, &out, engine);
      EXPECT_EQ(out, solver.Compute(layers, d, all, engine)) << "d=" << d;
    }
  }
}

// Parallel preprocessing must be bit-identical for every thread count: the
// per-layer d-cores land in layer-indexed slots and the support merge is
// sequential, so the schedule cannot leak into the result.
TEST(PreprocessThreadsTest, ThreadCountInvariance) {
  MultiLayerGraph graph = ReuseGraph(61);
  for (bool vertex_deletion : {true, false}) {
    PreprocessResult reference =
        Preprocess(graph, /*d=*/3, /*s=*/3, vertex_deletion);
    for (int threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      PreprocessResult parallel =
          Preprocess(graph, 3, 3, vertex_deletion, &pool);
      EXPECT_EQ(parallel.active, reference.active) << "threads=" << threads;
      EXPECT_EQ(parallel.support, reference.support) << "threads=" << threads;
      ASSERT_EQ(parallel.layer_cores.size(), reference.layer_cores.size());
      for (size_t i = 0; i < reference.layer_cores.size(); ++i) {
        EXPECT_EQ(parallel.layer_cores[i], reference.layer_cores[i])
            << "threads=" << threads << " layer=" << i;
        EXPECT_EQ(parallel.layer_core_bits[i].ToVector(),
                  reference.layer_core_bits[i].ToVector());
      }
    }
  }
}

// A pool is reusable across many ParallelFor batches of varying sizes
// (including empty and single-item batches) without deadlock or loss.
TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int64_t count : {0, 1, 3, 100, 7, 0, 64}) {
    std::vector<int> hits(static_cast<size_t>(count), 0);
    pool.ParallelFor(count, [&](int worker, int64_t i) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, pool.num_threads());
      ++hits[static_cast<size_t>(i)];
    });
    for (int64_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)], 1) << "item " << i;
    }
  }
}

// Many threads may call ParallelFor on one pool at once: each call runs
// every one of its items exactly once, and within a call no worker id runs
// two items at once, so per-worker scratch stays private to one item.
TEST(ThreadPoolTest, ConcurrentCallersShareThePool) {
  ThreadPool pool(3);
  constexpr int kCallers = 6;
  constexpr int kCallsPerCaller = 50;
  constexpr int64_t kItems = 24;
  std::atomic<int> bad_worker{0};
  std::atomic<int> wrong_hits{0};
  std::atomic<int> overlaps{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        std::vector<std::atomic<int>> hits(kItems);
        std::vector<std::atomic<int>> busy(
            static_cast<size_t>(pool.num_threads()));
        pool.ParallelFor(kItems, [&](int worker, int64_t i) {
          if (worker < 0 || worker >= pool.num_threads()) {
            bad_worker.fetch_add(1);
            return;
          }
          std::atomic<int>& lane = busy[static_cast<size_t>(worker)];
          if (lane.exchange(1) != 0) overlaps.fetch_add(1);
          hits[static_cast<size_t>(i)].fetch_add(1);
          std::this_thread::yield();
          lane.store(0);
        });
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) wrong_hits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(bad_worker.load(), 0);
  EXPECT_EQ(wrong_hits.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
}

// An item may itself call ParallelFor on the same pool; both levels run
// every item exactly once and the outer call completes.
TEST(ThreadPoolTest, NestedCallsComplete) {
  constexpr int64_t kOuter = 8;
  constexpr int64_t kInner = 8;
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.ParallelFor(kOuter, [&](int /*worker*/, int64_t outer) {
      pool.ParallelFor(kInner, [&](int worker, int64_t inner) {
        ASSERT_GE(worker, 0);
        ASSERT_LT(worker, pool.num_threads());
        hits[static_cast<size_t>(outer * kInner + inner)].fetch_add(1);
      });
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " item " << i;
    }
  }
}

}  // namespace
}  // namespace mlcore
