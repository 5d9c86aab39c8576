// Tests for the Engine's asynchronous submission surface (DESIGN.md §7):
// Submit/Wait/TryGet/Cancel, cooperative cancellation racing preprocessing
// and the searches from other threads, wall-clock deadlines, admission
// control / load shedding, and the cache-consistency contract — a
// cancelled query leaves cache contents and counters as if it never ran
// (or, when its build won the race, as if it completed). The CI TSan and
// ASan+UBSan jobs both run this file.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dcc.h"
#include "dccs/dccs.h"
#include "graph/generators.h"

namespace mlcore {
namespace {

// Large enough that preprocessing and the searches take real (multi-ms)
// time, so sleeps of a few ms land cancels mid-preprocess and mid-search.
MultiLayerGraph SlowGraph() {
  PlantedGraphConfig config;
  config.num_vertices = 3000;
  config.num_layers = 10;
  config.num_communities = 30;
  config.community_size_min = 14;
  config.community_size_max = 40;
  config.seed = 77;
  return GeneratePlanted(config).graph;
}

MultiLayerGraph SmallGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 240;
  config.num_layers = 6;
  config.num_communities = 8;
  config.community_size_min = 10;
  config.community_size_max = 22;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

DccsRequest SlowRequest() {
  DccsRequest request;
  request.params.d = 2;
  request.params.s = 7;
  request.params.k = 10;
  request.algorithm = DccsAlgorithm::kBottomUp;
  return request;
}

void ExpectSameCores(const DccsResult& actual, const DccsResult& expected,
                     const std::string& label) {
  ASSERT_EQ(actual.cores.size(), expected.cores.size()) << label;
  for (size_t i = 0; i < actual.cores.size(); ++i) {
    EXPECT_EQ(actual.cores[i].layers, expected.cores[i].layers)
        << label << " core " << i;
    EXPECT_EQ(actual.cores[i].vertices, expected.cores[i].vertices)
        << label << " core " << i;
  }
  EXPECT_EQ(actual.stats.candidates_generated,
            expected.stats.candidates_generated)
      << label;
}

// --- Deterministic status-code coverage -----------------------------------

TEST(AsyncStatusTest, CancelWhileQueuedIsDeterministic) {
  MultiLayerGraph graph = SmallGraph(1);
  // No workers: a submitted query stays queued until waited on, so the
  // cancel below always lands pre-execution.
  Engine engine(&graph, Engine::Options{.query_workers = 0});

  QueryHandle handle = engine.Submit(DccsRequest{});
  EXPECT_EQ(handle.TryGet(), nullptr);
  handle.Cancel();
  const Expected<DccsResult>& outcome = handle.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code, StatusCode::kCancelled);
  ASSERT_NE(handle.TryGet(), nullptr);
  EXPECT_EQ(handle.TryGet(), &outcome);

  SchedulerStats stats = engine.scheduler_stats();
  EXPECT_EQ(stats.cancelled_queued, 1);
  EXPECT_EQ(stats.executed, 0);
  // Nothing ran: caches look never-used.
  EXPECT_EQ(engine.cache_stats().preprocess_misses, 0);
  EXPECT_EQ(engine.cache_stats().base_core_misses, 0);
}

TEST(AsyncStatusTest, ExpiredDeadlineWhileQueuedIsDeterministic) {
  MultiLayerGraph graph = SmallGraph(2);
  Engine engine(&graph, Engine::Options{.query_workers = 0});

  QueryHandle handle =
      engine.Submit(DccsRequest{}, SubmitOptions{.deadline_seconds = 1e-9});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // A non-blocking poll is enough to resolve an already-expired queued
  // task — no worker or Wait needed.
  ASSERT_NE(handle.TryGet(), nullptr);
  const Expected<DccsResult>& outcome = handle.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.scheduler_stats().expired_queued, 1);
  EXPECT_EQ(engine.scheduler_stats().executed, 0);
}

TEST(AsyncStatusTest, CancellationBeatsExpiredDeadline) {
  MultiLayerGraph graph = SmallGraph(3);
  Engine engine(&graph, Engine::Options{.query_workers = 0});

  QueryHandle handle =
      engine.Submit(DccsRequest{}, SubmitOptions{.deadline_seconds = 1e-9});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  handle.Cancel();  // deadline has passed too; cancel wins the tie
  ASSERT_FALSE(handle.Wait().ok());
  EXPECT_EQ(handle.Wait().status().code, StatusCode::kCancelled);
}

TEST(AsyncStatusTest, FullQueueShedsWithResourceExhausted) {
  MultiLayerGraph graph = SmallGraph(4);
  Engine engine(&graph, Engine::Options{.query_workers = 0,
                                        .max_pending_queries = 2});

  QueryHandle a = engine.Submit(DccsRequest{});
  QueryHandle b = engine.Submit(DccsRequest{});
  QueryHandle shed = engine.Submit(DccsRequest{});  // equal priority: shed
  ASSERT_NE(shed.TryGet(), nullptr);
  EXPECT_EQ(shed.TryGet()->status().code, StatusCode::kResourceExhausted);

  // The admitted pair still serves normally.
  EXPECT_TRUE(a.Wait().ok());
  EXPECT_TRUE(b.Wait().ok());

  SchedulerStats stats = engine.scheduler_stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.executed, 2);
}

TEST(AsyncStatusTest, HigherPriorityDisplacesLowerOnFullQueue) {
  MultiLayerGraph graph = SmallGraph(5);
  Engine engine(&graph, Engine::Options{.query_workers = 0,
                                        .max_pending_queries = 2});

  QueryHandle low_old = engine.Submit(DccsRequest{}, {.priority = 0});
  QueryHandle low_young = engine.Submit(DccsRequest{}, {.priority = 0});
  QueryHandle high = engine.Submit(DccsRequest{}, {.priority = 5});

  // The youngest lowest-priority entry was shed in favour of `high`.
  ASSERT_NE(low_young.TryGet(), nullptr);
  EXPECT_EQ(low_young.TryGet()->status().code,
            StatusCode::kResourceExhausted);
  EXPECT_EQ(low_old.TryGet(), nullptr);
  EXPECT_TRUE(high.Wait().ok());
  EXPECT_TRUE(low_old.Wait().ok());
  EXPECT_EQ(engine.scheduler_stats().displaced, 1);
}

TEST(AsyncStatusTest, InvalidRequestIsTerminalWithoutQueueing) {
  MultiLayerGraph graph = SmallGraph(6);
  Engine engine(&graph, Engine::Options{.query_workers = 0,
                                        .max_pending_queries = 1});
  DccsRequest invalid;
  invalid.params.s = 0;
  QueryHandle handle = engine.Submit(invalid);
  ASSERT_NE(handle.TryGet(), nullptr);
  EXPECT_EQ(handle.TryGet()->status().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.scheduler_stats().submitted, 0);  // never offered
}

// Blocking Run is its own backpressure: when admission sheds its
// submission it executes inline instead of surfacing kResourceExhausted,
// so PR-2 callers never see load failures from Run.
TEST(AsyncStatusTest, RunNeverShedsUnderFullQueue) {
  MultiLayerGraph graph = SmallGraph(11);
  Engine engine(&graph, Engine::Options{.query_workers = 0,
                                        .max_pending_queries = 1});
  QueryHandle parked = engine.Submit(DccsRequest{});  // fills the queue
  Expected<DccsResult> inline_run = engine.Run(DccsRequest{});
  EXPECT_TRUE(inline_run.ok());
  EXPECT_EQ(engine.scheduler_stats().rejected, 1);  // the shed was real
  EXPECT_TRUE(parked.Wait().ok());
}

TEST(AsyncStatusTest, CancelAfterCompletionKeepsResult) {
  MultiLayerGraph graph = SmallGraph(7);
  Engine engine(&graph);
  QueryHandle handle = engine.Submit(DccsRequest{});
  ASSERT_TRUE(handle.Wait().ok());
  const Expected<DccsResult>* before = handle.TryGet();
  handle.Cancel();
  EXPECT_EQ(handle.TryGet(), before);
  EXPECT_TRUE(handle.Wait().ok());
}

TEST(AsyncStatusTest, SubmittedQueriesMatchIndividualRuns) {
  MultiLayerGraph graph = SmallGraph(8);
  Engine engine(&graph, Engine::Options{.num_threads = 2});

  std::vector<DccsRequest> requests;
  for (int s = 1; s <= 4; ++s) {
    DccsRequest request;
    request.params.d = 2;
    request.params.s = s;
    request.params.k = 4;
    requests.push_back(request);
  }
  std::vector<QueryHandle> handles;
  for (const DccsRequest& request : requests) {
    handles.push_back(engine.Submit(request));
  }
  ASSERT_EQ(handles.size(), requests.size());

  Engine reference(&graph);
  for (size_t i = 0; i < handles.size(); ++i) {
    const Expected<DccsResult>& got = handles[i].Wait();
    ASSERT_TRUE(got.ok()) << "slot " << i;
    Expected<DccsResult> want = reference.Run(requests[i]);
    ASSERT_TRUE(want.ok());
    ExpectSameCores(*got, *want, "batch slot " + std::to_string(i));
  }
}

// --- Determinism: the async path vs the synchronous free functions --------

// Acceptance gate: uncancelled Submit/Wait queries are bit-identical to the
// historical synchronous (uncontrolled) path for 1, 2 and 8 threads.
TEST(AsyncDeterminismTest, UncancelledSubmitBitIdenticalToSyncPath) {
  MultiLayerGraph graph = SmallGraph(9);

  DccsParams params;
  params.d = 2;
  params.s = 3;
  params.k = 6;
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
        DccsAlgorithm::kTopDown}) {
    // The PR-2 synchronous path: free function, no control, no scheduler.
    DccsResult reference;
    switch (algorithm) {
      case DccsAlgorithm::kGreedy:
        reference = GreedyDccs(graph, params);
        break;
      case DccsAlgorithm::kBottomUp:
        reference = BottomUpDccs(graph, params);
        break;
      default:
        reference = TopDownDccs(graph, params);
        break;
    }
    for (int threads : {1, 2, 8}) {
      Engine engine(&graph, Engine::Options{.num_threads = threads});
      QueryHandle handle = engine.Submit(DccsRequest{params, algorithm});
      const Expected<DccsResult>& response = handle.Wait();
      ASSERT_TRUE(response.ok());
      ExpectSameCores(*response, reference,
                      AlgorithmName(algorithm) + " threads=" +
                          std::to_string(threads));
    }
  }
}

// --- Cancellation races (run under TSan and ASan+UBSan in CI) -------------

// After a cancelled query, the engine must be indistinguishable from one
// that never ran it (no published entry: next query is a clean miss) or
// one that completed it (published entry: next query hits) — and the next
// query's cores must be bit-identical to a fresh engine's either way.
void ExpectConsistentAfterPossibleCancel(Engine& engine,
                                         const DccsRequest& request,
                                         const DccsResult& reference,
                                         const std::string& label) {
  const EngineCacheStats before = engine.cache_stats();
  EXPECT_LE(before.preprocess_misses, 1) << label;

  Expected<DccsResult> rerun = engine.Run(request);
  ASSERT_TRUE(rerun.ok()) << label;
  ExpectSameCores(*rerun, reference, label + " rerun");

  const EngineCacheStats after = engine.cache_stats();
  if (before.preprocess_misses == 1) {
    // The cancelled run completed (or won) the build: rerun must hit.
    EXPECT_EQ(after.preprocess_misses, 1) << label;
    EXPECT_GE(after.preprocess_hits, before.preprocess_hits + 1) << label;
  } else {
    // Nothing was published: rerun is the clean first miss.
    EXPECT_EQ(after.preprocess_misses, 1) << label;
  }
}

TEST(CancellationRaceTest, CancelRacingPreprocessAndSearch) {
  MultiLayerGraph graph = SlowGraph();
  const DccsRequest request = SlowRequest();
  const DccsResult reference =
      SolveDccs(graph, request.params, request.algorithm);

  // Sweep the cancel delay so different trials land in the queued,
  // preprocessing and search phases; every landing must be clean.
  for (int delay_us : {0, 200, 1000, 4000, 12000, 40000}) {
    Engine engine(&graph, Engine::Options{.query_workers = 1});
    QueryHandle handle = engine.Submit(request);
    std::thread canceller([&handle, delay_us] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      handle.Cancel();
    });
    const Expected<DccsResult>& outcome = handle.Wait();
    canceller.join();

    const std::string label = "delay_us=" + std::to_string(delay_us);
    if (outcome.ok()) {
      // Cancel arrived after the last checkpoint: the completed result must
      // be the full, untruncated answer.
      EXPECT_FALSE(outcome->stats.budget_exhausted) << label;
      ExpectSameCores(*outcome, reference, label + " completed");
    } else {
      EXPECT_EQ(outcome.status().code, StatusCode::kCancelled) << label;
    }
    ExpectConsistentAfterPossibleCancel(engine, request, reference, label);
  }
}

TEST(CancellationRaceTest, CancelFromSecondThreadWhileWaiterExecutes) {
  MultiLayerGraph graph = SlowGraph();
  const DccsRequest request = SlowRequest();
  const DccsResult reference =
      SolveDccs(graph, request.params, request.algorithm);

  // query_workers = 0: Wait()'s thread executes the query, and the cancel
  // always races a query that is actually mid-flight on another thread.
  for (int delay_us : {500, 3000, 15000}) {
    Engine engine(&graph, Engine::Options{.query_workers = 0});
    QueryHandle handle = engine.Submit(request);
    std::thread waiter([&handle] { handle.Wait(); });
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    handle.Cancel();
    waiter.join();

    const Expected<DccsResult>* outcome = handle.TryGet();
    ASSERT_NE(outcome, nullptr);
    const std::string label = "waiter delay_us=" + std::to_string(delay_us);
    if (!outcome->ok()) {
      EXPECT_EQ(outcome->status().code, StatusCode::kCancelled) << label;
    }
    ExpectConsistentAfterPossibleCancel(engine, request, reference, label);
  }
}

// A cancelled waiter must leave promptly even while another query is still
// building the same cache entry, and the builder must be unaffected.
TEST(CancellationRaceTest, CancelledWaiterLeavesBuilderUnaffected) {
  MultiLayerGraph graph = SlowGraph();
  const DccsRequest request = SlowRequest();
  const DccsResult reference =
      SolveDccs(graph, request.params, request.algorithm);

  Engine engine(&graph, Engine::Options{.query_workers = 0});
  QueryHandle builder = engine.Submit(request);
  QueryHandle waiter = engine.Submit(request);

  std::thread builder_thread([&builder] { builder.Wait(); });
  std::thread waiter_thread([&waiter] { waiter.Wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  waiter.Cancel();
  waiter_thread.join();
  builder_thread.join();

  ASSERT_NE(builder.TryGet(), nullptr);
  // The builder was never cancelled: whichever of the two queries ended up
  // building, the uncancelled one must complete with the full answer.
  ASSERT_TRUE(builder.TryGet()->ok());
  ExpectSameCores(**builder.TryGet(), reference, "builder");
  if (!waiter.TryGet()->ok()) {
    EXPECT_EQ(waiter.TryGet()->status().code, StatusCode::kCancelled);
  }
}

// --- Deadlines ------------------------------------------------------------

TEST(DeadlineTest, MidSearchDeadlineReturnsAnytimePrefix) {
  MultiLayerGraph graph = SlowGraph();
  DccsRequest request = SlowRequest();
  const DccsResult reference =
      SolveDccs(graph, request.params, request.algorithm);

  // Sweep deadlines; depending on where each lands the query must either
  // finish whole, return a valid anytime prefix (budget_exhausted set), or
  // report kDeadlineExceeded from the queued/preprocess phases.
  bool saw_prefix_or_expiry = false;
  for (double deadline_s : {0.001, 0.005, 0.02, 0.1}) {
    Engine engine(&graph);
    QueryHandle handle = engine.Submit(
        request, SubmitOptions{.deadline_seconds = deadline_s});
    const Expected<DccsResult>& outcome = handle.Wait();
    const std::string label = "deadline_s=" + std::to_string(deadline_s);
    if (!outcome.ok()) {
      EXPECT_EQ(outcome.status().code, StatusCode::kDeadlineExceeded)
          << label;
      saw_prefix_or_expiry = true;
      continue;
    }
    if (outcome->stats.budget_exhausted) {
      EXPECT_EQ(outcome->stats.stopped, QueryStop::kDeadline) << label;
      saw_prefix_or_expiry = true;
      // The anytime prefix contains only genuine d-CCs, like the
      // time_budget_seconds path.
      EXPECT_LE(outcome->CoverSize(), reference.CoverSize()) << label;
      for (const auto& core : outcome->cores) {
        EXPECT_EQ(core.vertices,
                  CoherentCore(graph, core.layers, request.params.d))
            << label;
      }
    } else {
      ExpectSameCores(*outcome, reference, label + " completed");
    }
  }
  EXPECT_TRUE(saw_prefix_or_expiry)
      << "every deadline outran the query; deadlines untested";
}

TEST(DeadlineTest, GreedyHonoursTimeBudget) {
  MultiLayerGraph graph = SlowGraph();
  DccsParams params;
  params.d = 2;
  params.s = 3;
  params.k = 6;
  const DccsResult full = GreedyDccs(graph, params);

  params.time_budget_seconds = 1e-9;  // expires before the first candidate
  const DccsResult budgeted = GreedyDccs(graph, params);
  EXPECT_TRUE(budgeted.stats.budget_exhausted);
  EXPECT_EQ(budgeted.stats.stopped, QueryStop::kBudget);
  EXPECT_LE(budgeted.stats.candidates_generated,
            full.stats.candidates_generated);
  EXPECT_LE(budgeted.CoverSize(), full.CoverSize());
  for (const auto& core : budgeted.cores) {
    EXPECT_EQ(core.vertices, CoherentCore(graph, core.layers, params.d));
  }

  // A generous budget changes nothing.
  params.time_budget_seconds = 3600.0;
  const DccsResult roomy = GreedyDccs(graph, params);
  EXPECT_FALSE(roomy.stats.budget_exhausted);
  ASSERT_EQ(roomy.cores.size(), full.cores.size());
  for (size_t i = 0; i < roomy.cores.size(); ++i) {
    EXPECT_EQ(roomy.cores[i].layers, full.cores[i].layers);
    EXPECT_EQ(roomy.cores[i].vertices, full.cores[i].vertices);
  }
}

// Engine teardown with queries still pending resolves their handles
// instead of leaking or deadlocking; the surviving handle's whole surface
// (TryGet, Wait, Cancel) answers from the terminal result without
// touching the destroyed engine.
TEST(AsyncStatusTest, DestructionResolvesPendingQueries) {
  MultiLayerGraph graph = SmallGraph(10);
  QueryHandle abandoned;
  {
    Engine engine(&graph, Engine::Options{.query_workers = 0});
    abandoned = engine.Submit(DccsRequest{});
    EXPECT_EQ(abandoned.TryGet(), nullptr);
  }
  ASSERT_NE(abandoned.TryGet(), nullptr);
  EXPECT_EQ(abandoned.TryGet()->status().code, StatusCode::kCancelled);
  EXPECT_EQ(abandoned.Wait().status().code, StatusCode::kCancelled);
  abandoned.Cancel();  // no-op on a terminal task
  EXPECT_EQ(abandoned.Wait().status().code, StatusCode::kCancelled);
}

}  // namespace
}  // namespace mlcore
