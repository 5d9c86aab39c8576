// Tests for the intra-query parallel lattice search (DESIGN.md §10): the
// determinism contract — BU-DCCS and TD-DCCS results (cores, cover, and
// every pre-existing SearchStats counter) are bit-identical at 1/2/4/8/16
// search threads, through both the free functions and the Engine — plus
// a search on a pool whose workers are all busy, mid-search
// cancellation/deadline with worker lanes in flight, a Subscribe revision
// stream evaluated by parallel searches across epochs, and the engine-wide
// lane budget. The CI TSan and ASan+UBSan jobs run the whole suite, this
// file included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace mlcore {
namespace {

// Rich enough that BU and TD both visit hundreds of lattice nodes (real
// pruning, full top-k, potential-set shortcuts), small enough that a
// 5-point thread sweep of both algorithms stays fast.
MultiLayerGraph SearchGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 420;
  config.num_layers = 7;
  config.num_communities = 10;
  config.community_size_min = 10;
  config.community_size_max = 24;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

// Large enough that the search phase takes real (multi-ms) time, so the
// cancellation/deadline tests land their stops mid-search with worker
// lanes busy.
MultiLayerGraph SlowSearchGraph() {
  PlantedGraphConfig config;
  config.num_vertices = 3000;
  config.num_layers = 10;
  config.num_communities = 30;
  config.community_size_min = 14;
  config.community_size_max = 40;
  config.seed = 177;
  return GeneratePlanted(config).graph;
}

DccsParams SearchParams(DccsAlgorithm algorithm) {
  DccsParams params;
  params.d = 3;
  // BU wants small s (wide low lattice), TD wants s near l.
  params.s = algorithm == DccsAlgorithm::kBottomUp ? 3 : 5;
  params.k = 4;
  return params;
}

// Full-strength comparison: cores, cover, and every deterministic
// counter. `speculative_evals` is deliberately absent — it is the one
// thread-count-dependent statistic (DESIGN.md §10).
void ExpectBitIdentical(const DccsResult& actual, const DccsResult& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.cores.size(), expected.cores.size()) << label;
  for (size_t i = 0; i < actual.cores.size(); ++i) {
    EXPECT_EQ(actual.cores[i], expected.cores[i]) << label << " core " << i;
  }
  EXPECT_EQ(actual.Cover(), expected.Cover()) << label;
  EXPECT_EQ(actual.stats.candidates_generated,
            expected.stats.candidates_generated)
      << label;
  EXPECT_EQ(actual.stats.nodes_visited, expected.stats.nodes_visited)
      << label;
  EXPECT_EQ(actual.stats.pruned_eq1, expected.stats.pruned_eq1) << label;
  EXPECT_EQ(actual.stats.pruned_order, expected.stats.pruned_order) << label;
  EXPECT_EQ(actual.stats.pruned_layer, expected.stats.pruned_layer) << label;
  EXPECT_EQ(actual.stats.pruned_potential, expected.stats.pruned_potential)
      << label;
  EXPECT_EQ(actual.stats.updates_accepted, expected.stats.updates_accepted)
      << label;
}

const std::vector<int> kThreadSweep = {1, 2, 4, 8, 16};

// --- Free-function thread invariance --------------------------------------

// One free-function run of a lattice search on `lanes` search lanes.
DccsResult RunOnLanes(const MultiLayerGraph& graph, const DccsParams& params,
                      DccsAlgorithm algorithm, int lanes) {
  const DccsExecution exec{.search_threads = lanes};
  return algorithm == DccsAlgorithm::kBottomUp
             ? BottomUpDccs(graph, params, exec)
             : TopDownDccs(graph, params, exec);
}

class ParallelSearchTest
    : public ::testing::TestWithParam<DccsAlgorithm> {};

TEST_P(ParallelSearchTest, FreeFunctionResultsThreadInvariant) {
  const DccsAlgorithm algorithm = GetParam();
  MultiLayerGraph graph = SearchGraph(42);
  const DccsParams params = SearchParams(algorithm);

  const DccsResult sequential = RunOnLanes(graph, params, algorithm, 1);
  ASSERT_FALSE(sequential.cores.empty());
  EXPECT_GT(sequential.stats.nodes_visited, 20);
  EXPECT_EQ(sequential.stats.speculative_evals, 0);

  for (int threads : kThreadSweep) {
    const DccsResult parallel = RunOnLanes(graph, params, algorithm, threads);
    ExpectBitIdentical(parallel, sequential,
                       AlgorithmName(algorithm) + " @ " +
                           std::to_string(threads) + " threads");
    if (threads == 1) {
      EXPECT_EQ(parallel.stats.speculative_evals, 0);
    }
  }
}

TEST_P(ParallelSearchTest, ThreadInvariantAcrossAblationToggles) {
  const DccsAlgorithm algorithm = GetParam();
  MultiLayerGraph graph = SearchGraph(43);
  // The ablations exercise every driver commit path (no seeds, no layer
  // sort, the bins kernel engine); each must stay thread-invariant.
  for (int toggle = 0; toggle < 3; ++toggle) {
    DccsParams params = SearchParams(algorithm);
    if (toggle == 0) params.init_result = false;
    if (toggle == 1) params.sort_layers = false;
    if (toggle == 2) params.dcc_engine = DccEngine::kBins;

    const DccsResult sequential = RunOnLanes(graph, params, algorithm, 1);
    const DccsResult parallel = RunOnLanes(graph, params, algorithm, 8);
    ExpectBitIdentical(parallel, sequential,
                       AlgorithmName(algorithm) + " toggle " +
                           std::to_string(toggle));
  }
}

INSTANTIATE_TEST_SUITE_P(LatticeSearches, ParallelSearchTest,
                         ::testing::Values(DccsAlgorithm::kBottomUp,
                                           DccsAlgorithm::kTopDown),
                         [](const auto& info) {
                           return std::string(
                               info.param == DccsAlgorithm::kBottomUp
                                   ? "BUDCCS"
                                   : "TDDCCS");
                         });

// --- A search on a saturated pool ----------------------------------------

// Every worker of the search's pool is held by another caller's
// ParallelFor: the searches must not wait for a worker, and they run as the
// 1-lane search, because no helper lane ever starts.
TEST(ParallelSearchPoolTest, SaturatedPoolRunsTheSearchOnTheCaller) {
  MultiLayerGraph graph = SearchGraph(47);
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::latch holding(kThreads);
  std::latch release(1);
  std::thread holder([&] {
    pool.ParallelFor(kThreads, [&](int /*worker*/, int64_t /*item*/) {
      holding.count_down();
      release.wait();
    });
  });
  // If a search waited for a worker, this releases the pool after a
  // minute so that the test fails instead of hanging.
  std::promise<void> searches_done;
  std::atomic<bool> timed_out{false};
  std::thread watchdog([&, done = searches_done.get_future()] {
    if (done.wait_for(std::chrono::seconds(60)) ==
        std::future_status::timeout) {
      timed_out = true;
    }
    release.count_down();
  });
  holding.wait();

  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kBottomUp, DccsAlgorithm::kTopDown}) {
    const DccsParams params = SearchParams(algorithm);
    const DccsResult sequential = RunOnLanes(graph, params, algorithm, 1);
    const DccsExecution exec{.pool = &pool, .search_threads = kThreads};
    const DccsResult saturated = algorithm == DccsAlgorithm::kBottomUp
                                     ? BottomUpDccs(graph, params, exec)
                                     : TopDownDccs(graph, params, exec);
    EXPECT_FALSE(timed_out.load()) << AlgorithmName(algorithm);
    ExpectBitIdentical(saturated, sequential,
                       AlgorithmName(algorithm) + " on a saturated pool");
    EXPECT_EQ(saturated.stats.speculative_evals, 0);
  }
  searches_done.set_value();
  watchdog.join();
  holder.join();
}

// --- Engine thread invariance ---------------------------------------------

TEST(ParallelSearchEngineTest, EngineResultsThreadInvariant) {
  MultiLayerGraph graph = SearchGraph(44);
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kBottomUp, DccsAlgorithm::kTopDown}) {
    DccsRequest request;
    request.params = SearchParams(algorithm);
    request.algorithm = algorithm;

    Engine sequential_engine(&graph);
    Expected<DccsResult> sequential = sequential_engine.Run(request);
    ASSERT_TRUE(sequential.ok());

    for (int threads : kThreadSweep) {
      Engine engine(&graph, Engine::Options{.search_threads = threads});
      // Two runs per engine: the second hits every per-entry cache
      // (preprocess, seeds, seeded top-k prototype, layer order) — warm
      // parallel queries must match cold sequential ones exactly.
      for (int run = 0; run < 2; ++run) {
        Expected<DccsResult> parallel = engine.Run(request);
        ASSERT_TRUE(parallel.ok());
        ExpectBitIdentical(*parallel, *sequential,
                           AlgorithmName(algorithm) + " engine @ " +
                               std::to_string(threads) + " threads, run " +
                               std::to_string(run));
      }
    }
  }
}

TEST(ParallelSearchEngineTest, ConcurrentQueriesShareTheLaneBudget) {
  // Eight concurrent submissions against a 4-lane budget: whatever lanes
  // each query wins, results must match the sequential reference.
  MultiLayerGraph graph = SearchGraph(45);
  DccsRequest request;
  request.params = SearchParams(DccsAlgorithm::kBottomUp);
  request.algorithm = DccsAlgorithm::kBottomUp;

  Engine reference_engine(&graph);
  Expected<DccsResult> reference = reference_engine.Run(request);
  ASSERT_TRUE(reference.ok());

  Engine engine(&graph,
                Engine::Options{.query_workers = 4, .search_threads = 4});
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 8; ++i) handles.push_back(engine.Submit(request));
  for (size_t i = 0; i < handles.size(); ++i) {
    const Expected<DccsResult>& outcome = handles[i].Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().message;
    ExpectBitIdentical(*outcome, *reference,
                       "concurrent submission " + std::to_string(i));
  }
}

// --- Cancellation and deadlines mid-parallel-search -----------------------

TEST(ParallelSearchCancellationTest, MidSearchCancelStopsWorkerLanes) {
  MultiLayerGraph graph = SlowSearchGraph();
  DccsRequest request;
  request.params.d = 2;
  request.params.s = 7;
  request.params.k = 10;
  request.algorithm = DccsAlgorithm::kBottomUp;

  Engine engine(&graph,
                Engine::Options{.query_workers = 1, .search_threads = 8});
  // Warm the caches so the cancel below lands in the search phase, not in
  // preprocessing.
  ASSERT_TRUE(engine.Run(request).ok());

  QueryHandle handle = engine.Submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  handle.Cancel();
  const Expected<DccsResult>& outcome = handle.Wait();
  // Either the cancel landed (partial result discarded) or the query beat
  // it; both must resolve promptly with the search lanes done — TSan/ASan
  // guard the shutdown itself.
  if (!outcome.ok()) {
    EXPECT_EQ(outcome.status().code, StatusCode::kCancelled);
  }

  // The engine (and its lane budget) must be intact afterwards.
  Expected<DccsResult> after = engine.Run(request);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.stopped, QueryStop::kNone);
}

TEST(ParallelSearchCancellationTest, MidSearchDeadlineReturnsAnytimePrefix) {
  MultiLayerGraph graph = SlowSearchGraph();
  DccsRequest request;
  request.params.d = 2;
  request.params.s = 7;
  request.params.k = 10;
  request.algorithm = DccsAlgorithm::kBottomUp;

  Engine engine(&graph,
                Engine::Options{.query_workers = 0, .search_threads = 8});
  ASSERT_TRUE(engine.Run(request).ok());  // warm caches

  QueryHandle handle = engine.Submit(request, {.deadline_seconds = 0.010});
  const Expected<DccsResult>& outcome = handle.Wait();
  if (outcome.ok()) {
    // Deadline fired mid-search (anytime prefix) or the query finished
    // first; a fired deadline must be latched in the stats.
    if (outcome->stats.stopped != QueryStop::kNone) {
      EXPECT_EQ(outcome->stats.stopped, QueryStop::kDeadline);
      EXPECT_TRUE(outcome->stats.budget_exhausted);
    }
  } else {
    // Expired before the search phase started.
    EXPECT_EQ(outcome.status().code, StatusCode::kDeadlineExceeded);
  }
}

TEST(ParallelSearchCancellationTest, TimeBudgetIsHonouredWithWorkerLanes) {
  MultiLayerGraph graph = SlowSearchGraph();
  DccsParams params;
  params.d = 2;
  params.s = 7;
  params.k = 10;
  params.time_budget_seconds = 0.01;
  const DccsResult result =
      RunOnLanes(graph, params, DccsAlgorithm::kBottomUp, 8);
  if (result.stats.stopped != QueryStop::kNone) {
    EXPECT_EQ(result.stats.stopped, QueryStop::kBudget);
    EXPECT_TRUE(result.stats.budget_exhausted);
  }
}

// --- Continuous queries with parallel evaluation --------------------------

TEST(ParallelSearchSubscriptionTest, RevisionStreamMatchesSequentialEngine) {
  MultiLayerGraph graph = SearchGraph(46);
  DccsRequest request;
  request.params = SearchParams(DccsAlgorithm::kBottomUp);
  request.algorithm = DccsAlgorithm::kBottomUp;

  auto store = std::make_shared<GraphStore>(graph);
  Engine parallel_engine(store,
                         Engine::Options{.query_workers = 1,
                                         .search_threads = 8});
  Expected<Subscription> subscribed = parallel_engine.Subscribe(request);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;

  // Sequential oracle over its own identical store (same epochs applied).
  MultiLayerGraph oracle_graph = SearchGraph(46);
  auto oracle_store = std::make_shared<GraphStore>(std::move(oracle_graph));
  Engine oracle_engine(oracle_store);

  Rng rng(2026);
  const int32_t n = graph.NumVertices();
  for (int epoch = 0; epoch < 3; ++epoch) {
    std::optional<ResultRevision> revision = sub.Next();
    ASSERT_TRUE(revision.has_value()) << "epoch " << epoch;
    Expected<DccsResult> oracle = oracle_engine.Run(request);
    ASSERT_TRUE(oracle.ok());
    ExpectBitIdentical(revision->result, *oracle,
                       "revision @ epoch " + std::to_string(epoch));
    EXPECT_EQ(revision->result.epoch, revision->epoch);

    if (epoch == 2) break;
    // Same deterministic batch into both stores → same next epoch.
    UpdateBatch batch;
    const MultiLayerGraph& current = *store->snapshot()->graph_ptr();
    std::vector<std::tuple<LayerId, VertexId, VertexId>> touched;
    for (int i = 0; i < 6;) {
      const auto u = static_cast<VertexId>(rng.Uniform(0, n - 1));
      const auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
      const auto layer = static_cast<LayerId>(
          rng.Uniform(0, current.NumLayers() - 1));
      ++i;
      if (u == v ||
          current.HasEdge(layer, std::min(u, v), std::max(u, v))) {
        continue;
      }
      const auto key =
          std::make_tuple(layer, std::min(u, v), std::max(u, v));
      if (std::find(touched.begin(), touched.end(), key) != touched.end()) {
        continue;
      }
      touched.push_back(key);
      batch.Insert(layer, std::min(u, v), std::max(u, v));
    }
    ASSERT_TRUE(store->ApplyUpdate(batch).ok());
    ASSERT_TRUE(oracle_store->ApplyUpdate(batch).ok());
  }
  sub.Cancel();
}

}  // namespace
}  // namespace mlcore
