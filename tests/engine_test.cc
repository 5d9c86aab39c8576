// Tests for the mlcore::Engine query service (DESIGN.md §5): request
// validation, preprocessing-cache correctness (hits must be
// indistinguishable from cold runs), batch execution, and the concurrency
// contract — concurrent Run calls produce bit-identical results to
// sequential ones. Extends the tests/parallel_test.cc discipline to the
// service layer; the CI ThreadSanitizer job runs this file.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"

namespace mlcore {
namespace {

MultiLayerGraph EngineGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 300;
  config.num_layers = 6;
  config.num_communities = 8;
  config.community_size_min = 10;
  config.community_size_max = 24;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

// A parameter mix exercising all three algorithms, kAuto, a repeated
// (d, s) pair (preprocess-cache hit with a different k), and a vacuous
// s > l query.
std::vector<DccsRequest> RequestMix() {
  std::vector<DccsRequest> requests;
  auto add = [&](int d, int s, int k, DccsAlgorithm algorithm) {
    DccsRequest request;
    request.params.d = d;
    request.params.s = s;
    request.params.k = k;
    request.algorithm = algorithm;
    requests.push_back(request);
  };
  add(3, 2, 4, DccsAlgorithm::kGreedy);
  add(3, 2, 4, DccsAlgorithm::kBottomUp);
  add(3, 4, 4, DccsAlgorithm::kTopDown);
  add(2, 3, 6, DccsAlgorithm::kAuto);
  add(3, 2, 6, DccsAlgorithm::kBottomUp);
  add(2, 5, 3, DccsAlgorithm::kTopDown);
  add(3, 7, 4, DccsAlgorithm::kAuto);  // s > l: valid but empty
  return requests;
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

TEST(EngineTest, MatchesFreeFunctions) {
  MultiLayerGraph graph = EngineGraph(11);
  Engine engine(&graph);
  DccsParams params;
  params.d = 3;
  params.s = 2;
  params.k = 5;

  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
        DccsAlgorithm::kTopDown}) {
    Expected<DccsResult> response =
        engine.Run(DccsRequest{params, algorithm});
    ASSERT_TRUE(response.ok());
    ExpectSameCores(*response, SolveDccs(graph, params, algorithm),
                    AlgorithmName(algorithm));
  }
}

TEST(EngineTest, AutoResolvesToRecommendedAlgorithm) {
  MultiLayerGraph graph = EngineGraph(12);  // 6 layers
  Engine engine(&graph);
  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;  // 2·2 < 6 → bottom-up
  EXPECT_EQ(engine.ResolvedAlgorithm(request), DccsAlgorithm::kBottomUp);
  request.params.s = 4;  // 2·4 ≥ 6 → top-down
  EXPECT_EQ(engine.ResolvedAlgorithm(request), DccsAlgorithm::kTopDown);
  EXPECT_EQ(engine.ResolvedAlgorithm(request),
            RecommendedAlgorithm(graph, request.params.s));

  Expected<DccsResult> automatic = engine.Run(request);
  request.algorithm = DccsAlgorithm::kTopDown;
  Expected<DccsResult> explicit_td = engine.Run(request);
  ASSERT_TRUE(automatic.ok());
  ASSERT_TRUE(explicit_td.ok());
  ExpectSameCores(*automatic, *explicit_td, "auto vs explicit");
}

TEST(EngineTest, CacheHitsMatchColdRuns) {
  MultiLayerGraph graph = EngineGraph(13);
  Engine engine(&graph);

  for (const DccsRequest& request : RequestMix()) {
    Expected<DccsResult> cold = engine.Run(request);
    Expected<DccsResult> warm = engine.Run(request);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    // Identical cores AND identical search-effort statistics: a warm run
    // starts from a copy of the cached seeded top-k, whose solver_calls
    // account the dCC evaluations spent seeding it.
    ExpectSameCores(*warm, *cold, "warm vs cold");
    EXPECT_EQ(warm->stats.nodes_visited, cold->stats.nodes_visited);
    EXPECT_EQ(warm->stats.candidates_generated,
              cold->stats.candidates_generated);
  }

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.preprocess_hits, 0);
  EXPECT_GT(stats.seed_hits, 0);
  EXPECT_GT(stats.base_core_hits, 0);
  // The mix holds 4 distinct non-vacuous (d, s) pairs and 2 distinct d.
  EXPECT_EQ(stats.preprocess_misses, 4);
  EXPECT_EQ(stats.base_core_misses, 2);
}

TEST(EngineTest, SameDegreeSharesBaseCoresAcrossSupports) {
  MultiLayerGraph graph = EngineGraph(14);
  Engine engine(&graph);
  DccsRequest request;
  request.algorithm = DccsAlgorithm::kBottomUp;
  request.params.d = 3;
  request.params.s = 2;
  ASSERT_TRUE(engine.Run(request).ok());
  request.params.s = 3;  // new (d, s) entry, same base d-cores
  ASSERT_TRUE(engine.Run(request).ok());

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.base_core_misses, 1);
  EXPECT_EQ(stats.base_core_hits, 1);
  EXPECT_EQ(stats.preprocess_misses, 2);

  // The seeded-first-round fixpoint must equal a from-scratch run.
  ExpectSameCores(*engine.Run(request),
                  SolveDccs(graph, request.params, DccsAlgorithm::kBottomUp),
                  "seeded preprocessing");
}

// Each per-stage cache counter, one stage at a time.
TEST(EngineTest, CacheCountersPerStage) {
  MultiLayerGraph graph = EngineGraph(16);
  const int64_t l = graph.NumLayers();
  DccsRequest request;
  request.algorithm = DccsAlgorithm::kBottomUp;
  request.params.d = 3;
  request.params.s = 2;
  request.params.k = 4;

  {
    // Untracked d: after an update that edits one layer, the base-core
    // miss copies the other layers from the previous epoch's entry.
    Engine engine(std::make_shared<GraphStore>(graph));
    ASSERT_TRUE(engine.Run(request).ok());
    EngineCacheStats stats = engine.cache_stats();
    EXPECT_EQ(stats.base_core_misses, 1);
    EXPECT_EQ(stats.base_core_layers_recomputed, l);
    EXPECT_EQ(stats.base_core_layers_reused, 0);
    EXPECT_EQ(stats.base_core_store_served, 0);

    VertexId v = 1;
    while (graph.HasEdge(1, 0, v)) ++v;
    ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Insert(1, 0, v)).ok());
    ASSERT_TRUE(engine.Run(request).ok());
    stats = engine.cache_stats();
    EXPECT_EQ(stats.base_core_misses, 2);
    EXPECT_EQ(stats.base_core_layers_recomputed, l + 1);
    EXPECT_EQ(stats.base_core_layers_reused, l - 1);
    EXPECT_EQ(stats.base_core_store_served, 0);
  }
  {
    // Tracked d: the store's maintained cores serve the miss outright.
    GraphStore::Options store_options;
    store_options.tracked_degrees = {request.params.d};
    Engine engine(std::make_shared<GraphStore>(graph, store_options));
    ASSERT_TRUE(engine.Run(request).ok());
    const EngineCacheStats stats = engine.cache_stats();
    EXPECT_EQ(stats.base_core_misses, 1);
    EXPECT_EQ(stats.base_core_store_served, 1);
    EXPECT_EQ(stats.base_core_layers_recomputed, 0);
    EXPECT_EQ(stats.base_core_layers_reused, 0);
  }
  {
    // The §V-C index: built by the first TD query, found by the second.
    Engine engine(&graph);
    DccsRequest td = request;
    td.algorithm = DccsAlgorithm::kTopDown;
    td.params.s = 4;
    ASSERT_TRUE(engine.Run(td).ok());
    EXPECT_EQ(engine.cache_stats().index_misses, 1);
    EXPECT_EQ(engine.cache_stats().index_hits, 0);
    ASSERT_TRUE(engine.Run(td).ok());
    EXPECT_EQ(engine.cache_stats().index_misses, 1);
    EXPECT_EQ(engine.cache_stats().index_hits, 1);
  }
  {
    // Seeds are keyed by k within a (d, s, vertex_deletion) entry.
    Engine engine(&graph);
    Expected<DccsResult> queue = engine.Run(request);
    ASSERT_TRUE(queue.ok());
    request.params.k = 6;
    ASSERT_TRUE(engine.Run(request).ok());
    EXPECT_EQ(engine.cache_stats().seed_misses, 2);
    EXPECT_EQ(engine.cache_stats().seed_hits, 0);
    request.params.k = 4;
    ASSERT_TRUE(engine.Run(request).ok());
    EXPECT_EQ(engine.cache_stats().seed_misses, 2);
    EXPECT_EQ(engine.cache_stats().seed_hits, 1);

    // The d-CC engine only picks the kernel: d-CCs are unique, so both
    // engines seed the same top-k and share one entry.
    request.params.dcc_engine = DccEngine::kBins;
    Expected<DccsResult> bins = engine.Run(request);
    ASSERT_TRUE(bins.ok());
    ExpectSameCores(*bins, *queue, "kBins vs kQueue seeds");
    EXPECT_EQ(engine.cache_stats().seed_misses, 2);
    EXPECT_EQ(engine.cache_stats().seed_hits, 2);
  }
}

TEST(EngineTest, RunBatchMatchesIndividualRuns) {
  MultiLayerGraph graph = EngineGraph(15);
  Engine engine(&graph, Engine::Options{.num_threads = 4});
  std::vector<DccsRequest> requests = RequestMix();
  DccsRequest invalid;
  invalid.params.s = 0;
  requests.insert(requests.begin() + 2, invalid);

  std::vector<Expected<DccsResult>> responses = engine.RunBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].params.s == 0) {
      EXPECT_FALSE(responses[i].ok()) << "slot " << i;
      EXPECT_EQ(responses[i].status().code, StatusCode::kInvalidArgument);
      continue;
    }
    Expected<DccsResult> alone = engine.Run(requests[i]);
    ASSERT_TRUE(responses[i].ok()) << "slot " << i;
    ASSERT_TRUE(alone.ok());
    ExpectSameCores(*responses[i], *alone,
                    "batch slot " + std::to_string(i));
  }

  // A repeated batch is deterministic.
  std::vector<Expected<DccsResult>> again = engine.RunBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(again[i].ok(), responses[i].ok()) << "slot " << i;
    if (again[i].ok()) {
      ExpectSameCores(*again[i], *responses[i],
                      "rebatch slot " + std::to_string(i));
    }
  }
}

TEST(EngineTest, ValidationRejectsMalformedRequests) {
  MultiLayerGraph graph = EngineGraph(16);
  Engine engine(&graph);

  auto expect_invalid = [&](DccsRequest request, const char* label) {
    Expected<DccsResult> response = engine.Run(request);
    EXPECT_FALSE(response.ok()) << label;
    EXPECT_EQ(response.status().code, StatusCode::kInvalidArgument) << label;
    EXPECT_FALSE(response.status().message.empty()) << label;
  };

  DccsRequest request;
  request.params.s = 0;
  expect_invalid(request, "s = 0");
  request = DccsRequest{};
  request.params.k = 0;
  expect_invalid(request, "k = 0");
  request = DccsRequest{};
  request.params.d = -1;
  expect_invalid(request, "d = -1");
  request = DccsRequest{};
  request.algorithm = static_cast<DccsAlgorithm>(42);
  expect_invalid(request, "out-of-enum algorithm");
  request = DccsRequest{};
  request.params.dcc_engine = static_cast<DccEngine>(7);
  expect_invalid(request, "out-of-enum dcc engine");

  // The engine keeps serving after rejecting garbage.
  EXPECT_TRUE(engine.Run(DccsRequest{}).ok());
}

TEST(EngineTest, LatticeSearchesRejectMoreThan64Layers) {
  GraphBuilder builder(/*num_vertices=*/4, /*num_layers=*/65);
  for (LayerId layer = 0; layer < 65; ++layer) {
    builder.AddEdge(layer, 0, 1);
    builder.AddEdge(layer, 1, 2);
    builder.AddEdge(layer, 0, 2);
  }
  MultiLayerGraph graph = builder.Build();
  Engine engine(&graph);

  DccsRequest request;
  request.params.d = 2;
  request.params.s = 2;
  request.params.k = 2;
  request.algorithm = DccsAlgorithm::kBottomUp;
  Expected<DccsResult> bu = engine.Run(request);
  EXPECT_FALSE(bu.ok());
  EXPECT_EQ(bu.status().code, StatusCode::kInvalidArgument);

  request.algorithm = DccsAlgorithm::kTopDown;
  Expected<DccsResult> td = engine.Run(request);
  EXPECT_FALSE(td.ok());
  EXPECT_EQ(td.status().code, StatusCode::kInvalidArgument);

  // GD-DCCS has no 64-layer restriction: C(65, 2) is tiny.
  request.algorithm = DccsAlgorithm::kGreedy;
  Expected<DccsResult> greedy = engine.Run(request);
  ASSERT_TRUE(greedy.ok());
  EXPECT_FALSE(greedy->cores.empty());
}

TEST(EngineTest, GreedyRejectsIntractableSubsetCounts) {
  GraphBuilder builder(/*num_vertices=*/3, /*num_layers=*/40);
  builder.AddEdge(0, 0, 1);
  MultiLayerGraph graph = builder.Build();
  Engine engine(&graph);

  DccsRequest request;
  request.params.s = 20;  // C(40, 20) ≈ 1.4e11 candidates
  request.algorithm = DccsAlgorithm::kGreedy;
  Expected<DccsResult> response = engine.Run(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code, StatusCode::kUnsupported);
}

TEST(EngineTest, FindCommunityMatchesFreeFunction) {
  MultiLayerGraph graph = EngineGraph(17);
  Engine engine(&graph);

  CommunityRequest request;
  request.d = 3;
  request.s = 2;
  bool compared = false;
  for (VertexId query = 0; query < 40; ++query) {
    request.query = query;
    Expected<CommunitySearchResult> response = engine.FindCommunity(request);
    ASSERT_TRUE(response.ok());
    CommunitySearchResult reference =
        SearchCommunity(graph, query, request.d, request.s);
    EXPECT_EQ(response->layers, reference.layers) << "query " << query;
    EXPECT_EQ(response->community, reference.community) << "query " << query;
    compared |= reference.Found();
  }
  EXPECT_TRUE(compared) << "mix produced no non-trivial community";
  // Repeat queries share the base d-core cache with DCCS preprocessing.
  EXPECT_GT(engine.cache_stats().base_core_hits, 0);

  request.query = graph.NumVertices();
  Expected<CommunitySearchResult> out_of_range =
      engine.FindCommunity(request);
  EXPECT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code, StatusCode::kInvalidArgument);
}

// The §4 contract, extended to the service: any interleaving of concurrent
// Run calls yields the same bits as running each query alone.
TEST(EngineConcurrencyTest, ConcurrentRunsBitIdenticalToSequential) {
  MultiLayerGraph graph = EngineGraph(18);
  const std::vector<DccsRequest> requests = RequestMix();

  // Reference: every query answered alone on a fresh engine.
  std::vector<DccsResult> reference;
  {
    Engine engine(&graph);
    for (const DccsRequest& request : requests) {
      Expected<DccsResult> response = engine.Run(request);
      ASSERT_TRUE(response.ok());
      reference.push_back(std::move(*response));
    }
  }

  constexpr int kThreads = 8;
  Engine engine(&graph, Engine::Options{.num_threads = 2});
  std::vector<std::vector<DccsResult>> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger the starting offset so threads hit different cache entries
      // (and each other's in-flight computations) in different orders.
      for (size_t i = 0; i < requests.size(); ++i) {
        const size_t slot =
            (i + static_cast<size_t>(t)) % requests.size();
        Expected<DccsResult> response = engine.Run(requests[slot]);
        ASSERT_TRUE(response.ok());
        per_thread[static_cast<size_t>(t)].push_back(std::move(*response));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const size_t slot = (i + static_cast<size_t>(t)) % requests.size();
      ExpectSameCores(per_thread[static_cast<size_t>(t)][i], reference[slot],
                      "thread " + std::to_string(t) + " slot " +
                          std::to_string(slot));
    }
  }
}

// Batches racing single queries: slots must still match solo answers.
TEST(EngineConcurrencyTest, BatchesAndRunsInterleave) {
  MultiLayerGraph graph = EngineGraph(19);
  const std::vector<DccsRequest> requests = RequestMix();

  std::vector<DccsResult> reference;
  {
    Engine engine(&graph);
    for (const DccsRequest& request : requests) {
      reference.push_back(std::move(*engine.Run(request)));
    }
  }

  Engine engine(&graph, Engine::Options{.num_threads = 3});
  std::vector<std::vector<Expected<DccsResult>>> batches(2);
  std::vector<DccsResult> singles;
  std::thread batch_a([&] { batches[0] = engine.RunBatch(requests); });
  std::thread batch_b([&] { batches[1] = engine.RunBatch(requests); });
  for (const DccsRequest& request : requests) {
    singles.push_back(std::move(*engine.Run(request)));
  }
  batch_a.join();
  batch_b.join();

  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameCores(singles[i], reference[i],
                    "single " + std::to_string(i));
    for (auto& batch : batches) {
      ASSERT_TRUE(batch[i].ok());
      ExpectSameCores(*batch[i], reference[i],
                      "batched " + std::to_string(i));
    }
  }
}

// ResetStats zeroes every cache and scheduler counter under their locks
// without touching cache *contents*: the next identical query is still a
// hit, and it is counted from a clean slate — deltas instead of
// cumulative totals.
TEST(EngineTest, ResetStatsClearsCountersButKeepsCacheContents) {
  MultiLayerGraph graph = EngineGraph(21);
  Engine engine(&graph);
  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;
  ASSERT_TRUE(engine.Run(request).ok());
  ASSERT_GT(engine.cache_stats().preprocess_misses, 0);
  ASSERT_GT(engine.scheduler_stats().executed, 0);

  engine.ResetStats();
  EngineCacheStats cache = engine.cache_stats();
  EXPECT_EQ(cache.preprocess_hits, 0);
  EXPECT_EQ(cache.preprocess_misses, 0);
  EXPECT_EQ(cache.base_core_hits, 0);
  EXPECT_EQ(cache.base_core_misses, 0);
  EXPECT_EQ(cache.seed_hits, 0);
  EXPECT_EQ(cache.seed_misses, 0);
  EXPECT_EQ(cache.revisions_emitted, 0);
  SchedulerStats sched = engine.scheduler_stats();
  EXPECT_EQ(sched.submitted, 0);
  EXPECT_EQ(sched.executed, 0);

  // The caches themselves survived: the repeat query is a pure hit.
  ASSERT_TRUE(engine.Run(request).ok());
  cache = engine.cache_stats();
  EXPECT_EQ(cache.preprocess_hits, 1);
  EXPECT_EQ(cache.preprocess_misses, 0);
  EXPECT_EQ(engine.scheduler_stats().executed, 1);
}

// The subscription counters ride in EngineCacheStats: one emitted
// revision per delivered epoch, unchanged-skip accounting for epochs the
// generational keys proved irrelevant, and coalescing for folded buffer
// entries (exercised in depth by tests/subscription_test.cc).
TEST(EngineTest, SubscriptionCountersTrackRevisions) {
  GraphBuilder builder(/*num_vertices=*/8, /*num_layers=*/2);
  for (LayerId layer = 0; layer < 2; ++layer) {
    for (VertexId u = 0; u < 4; ++u) {
      for (VertexId v = u + 1; v < 4; ++v) builder.AddEdge(layer, u, v);
    }
  }
  GraphStore::Options store_options;
  store_options.tracked_degrees = {3};
  Engine engine(std::make_shared<GraphStore>(builder.Build(), store_options));

  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;
  request.params.k = 2;
  Expected<Subscription> subscribed = engine.Subscribe(request);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  ASSERT_TRUE(sub.Next().has_value());  // initial revision (computed)

  // Background churn between spare vertices: absorbed as unchanged.
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Insert(0, 5, 6)).ok());
  std::optional<ResultRevision> unchanged = sub.Next();
  ASSERT_TRUE(unchanged.has_value());
  EXPECT_TRUE(unchanged->unchanged);

  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.revisions_emitted, 2);
  EXPECT_EQ(stats.revisions_unchanged_skipped, 1);
  EXPECT_EQ(stats.revisions_coalesced, 0);
  sub.Cancel();
}

// One warm Engine::Run must produce a complete span tree in the slow-query
// log: submission-phase spans (snapshot pin, admission wait), the
// "query.run" root, and the preprocess/search/cover phases parented under
// it, all with committed timings. This is the acceptance check for the
// per-query tracing pipeline end to end (DESIGN.md §12).
TEST(ObsEngineTest, RunProducesSpanTree) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  MultiLayerGraph graph = EngineGraph(23);
  Engine engine(&graph);
  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;
  request.params.k = 4;
  request.algorithm = DccsAlgorithm::kBottomUp;
  ASSERT_TRUE(engine.Run(request).ok());  // cold: fill caches
  engine.ResetStats();
  ASSERT_TRUE(engine.Run(request).ok());  // warm: the traced run

  const EngineStatsReport report = engine.stats_report();
  ASSERT_EQ(report.slow_queries.size(), 1u);
  const obs::TraceSummary& trace = report.slow_queries[0];
  EXPECT_NE(trace.label.find("bu"), std::string::npos);
  EXPECT_NE(trace.label.find("d=3"), std::string::npos);
  EXPECT_EQ(trace.dropped_spans, 0);
  EXPECT_GT(trace.total_ms, 0.0);

  auto find = [&trace](const char* name) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& span : trace.spans) {
      if (std::string(span.name) == name) return &span;
    }
    return nullptr;
  };
  const obs::SpanRecord* pin = find("query.snapshot_pin");
  const obs::SpanRecord* wait = find("query.admission_wait");
  const obs::SpanRecord* run = find("query.run");
  const obs::SpanRecord* preprocess = find("query.preprocess");
  const obs::SpanRecord* search = find("query.search");
  const obs::SpanRecord* cover = find("query.cover");
  ASSERT_NE(pin, nullptr);
  ASSERT_NE(wait, nullptr);
  ASSERT_NE(run, nullptr);
  ASSERT_NE(preprocess, nullptr);
  ASSERT_NE(search, nullptr);
  ASSERT_NE(cover, nullptr);
  // Submission-phase spans predate the run root, so they are top-level.
  EXPECT_EQ(pin->parent, 0u);
  EXPECT_EQ(wait->parent, 0u);
  EXPECT_EQ(run->parent, 0u);
  EXPECT_EQ(preprocess->parent, run->id);
  EXPECT_EQ(search->parent, run->id);
  EXPECT_EQ(cover->parent, run->id);
  EXPECT_GT(run->wall_ms, 0.0);
  EXPECT_GE(run->wall_ms, search->wall_ms);

  // The same run also fed the query latency histograms.
  bool saw_total_hist = false;
  for (const obs::MetricSnapshot& m : report.metrics) {
    if (m.name == "engine.query.total_ms") {
      saw_total_hist = true;
      EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
      EXPECT_EQ(m.hist.count, 1);
      EXPECT_GT(m.hist.sum, 0.0);
    }
  }
  EXPECT_TRUE(saw_total_hist);
}

// stats_report() merges engine- and store-scoped metrics into one sorted
// view, and ResetStats clears only the engine prefix plus the slow log.
TEST(ObsEngineTest, StatsReportMergesAndResets) {
  MultiLayerGraph graph = EngineGraph(24);
  Engine engine(&graph);
  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;
  ASSERT_TRUE(engine.Run(request).ok());

  EngineStatsReport report = engine.stats_report();
  ASSERT_FALSE(report.metrics.empty());
  for (size_t i = 1; i < report.metrics.size(); ++i) {
    EXPECT_LE(report.metrics[i - 1].name, report.metrics[i].name);
  }
  bool saw_engine = false;
  bool saw_store = false;
  for (const obs::MetricSnapshot& m : report.metrics) {
    if (m.name.rfind("engine.", 0) == 0) saw_engine = true;
    if (m.name.rfind("store.", 0) == 0) saw_store = true;
  }
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_store);

  engine.ResetStats();
  report = engine.stats_report();
  EXPECT_TRUE(report.slow_queries.empty());
  for (const obs::MetricSnapshot& m : report.metrics) {
    if (m.kind == obs::MetricKind::kCounter &&
        m.name.rfind("engine.", 0) == 0) {
      EXPECT_EQ(m.value, 0) << m.name;
    }
  }
}

// Satellite regression: an out-of-enum algorithm used to fall through
// SolveDccs's switch and silently return an empty result; it now dies with
// the engine's validation message.
TEST(DccsWrapperDeathTest, SolveDccsAbortsOnUnknownAlgorithm) {
  MultiLayerGraph graph = EngineGraph(20);
  DccsParams params;
  EXPECT_DEATH(SolveDccs(graph, params, static_cast<DccsAlgorithm>(42)),
               "unknown DccsAlgorithm");
}

}  // namespace
}  // namespace mlcore
