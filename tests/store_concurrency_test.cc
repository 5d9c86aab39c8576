// Concurrency contract of the dynamic GraphStore + Engine integration
// (DESIGN.md §8), run under TSan/ASan in CI:
//
//  * queries racing ApplyUpdate always answer from exactly one epoch —
//    every result is bit-identical to the sequential answer for the epoch
//    it reports (no torn snapshots);
//  * a query submitted before an update is pinned to its submission-time
//    snapshot even when the update publishes first;
//  * unchanged-content caches stay warm across epochs (hit counters prove
//    it), and changed content is never served stale;
//  * cancelled/finished queries do not pin retired snapshots forever.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace mlcore {
namespace {

MultiLayerGraph StoreGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 220;
  config.num_layers = 5;
  config.num_communities = 6;
  config.community_size_min = 10;
  config.community_size_max = 20;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

// Deterministic churn batch for round r against the epoch-(r) graph:
// removes a few present edges and inserts a few absent ones.
UpdateBatch ChurnBatch(const MultiLayerGraph& graph, uint64_t round) {
  Rng rng(round * 7919 + 3);
  UpdateBatch batch;
  const int32_t n = graph.NumVertices();
  for (int i = 0; i < 4; ++i) {
    auto layer = static_cast<LayerId>(rng.Uniform(0, graph.NumLayers() - 1));
    auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
    auto nbrs = graph.Neighbors(layer, v);
    if (nbrs.empty()) continue;
    VertexId u = nbrs[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(nbrs.size()) - 1))];
    bool dup = false;
    for (const EdgeUpdate& e : batch.remove_edges) {
      if (e.layer == layer && std::minmax(e.u, e.v) == std::minmax(u, v)) {
        dup = true;
      }
    }
    if (!dup) batch.Remove(layer, u, v);
  }
  for (int i = 0; i < 6; ++i) {
    auto layer = static_cast<LayerId>(rng.Uniform(0, graph.NumLayers() - 1));
    auto u = static_cast<VertexId>(rng.Uniform(0, n - 1));
    auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
    if (u == v || graph.HasEdge(layer, std::min(u, v), std::max(u, v))) {
      continue;
    }
    bool dup = false;
    for (const EdgeUpdate& e : batch.insert_edges) {
      if (e.layer == layer && std::minmax(e.u, e.v) == std::minmax(u, v)) {
        dup = true;
      }
    }
    for (const EdgeUpdate& e : batch.remove_edges) {
      if (e.layer == layer && std::minmax(e.u, e.v) == std::minmax(u, v)) {
        dup = true;
      }
    }
    if (!dup) batch.Insert(layer, u, v);
  }
  return batch;
}

DccsRequest StoreRequest() {
  DccsRequest request;
  request.params.d = 3;
  request.params.s = 2;
  request.params.k = 4;
  request.algorithm = DccsAlgorithm::kBottomUp;
  return request;
}

void ExpectSameCores(const DccsResult& actual, const DccsResult& expected,
                     uint64_t epoch) {
  ASSERT_EQ(actual.cores.size(), expected.cores.size()) << "epoch " << epoch;
  for (size_t i = 0; i < actual.cores.size(); ++i) {
    ASSERT_EQ(actual.cores[i].layers, expected.cores[i].layers)
        << "epoch " << epoch << " core " << i;
    ASSERT_EQ(actual.cores[i].vertices, expected.cores[i].vertices)
        << "epoch " << epoch << " core " << i;
  }
}

TEST(StoreConcurrencyTest, RacingQueriesAreSelfConsistentWithOneEpoch) {
  constexpr uint64_t kEpochs = 6;

  // Sequential pass: the expected result per epoch, and the batches.
  std::vector<UpdateBatch> batches;
  std::vector<DccsResult> expected;
  {
    GraphStore::Options options;
    options.tracked_degrees = {3};
    auto store = std::make_shared<GraphStore>(StoreGraph(5), options);
    Engine engine(store);
    for (uint64_t e = 0; e <= kEpochs; ++e) {
      Expected<DccsResult> response = engine.Run(StoreRequest());
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->epoch, e);
      expected.push_back(*response);
      if (e < kEpochs) {
        batches.push_back(ChurnBatch(store->snapshot()->graph(), e));
        ASSERT_TRUE(engine.ApplyUpdate(batches.back()).ok());
      }
    }
  }

  // Racing pass: one writer replays the same batches while reader threads
  // hammer the engine. Every OK result must match the sequential answer
  // for the epoch it reports.
  GraphStore::Options options;
  options.tracked_degrees = {3};
  auto store = std::make_shared<GraphStore>(StoreGraph(5), options);
  Engine engine(store, Engine::Options{.num_threads = 2, .query_workers = 2});

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        Expected<DccsResult> response = engine.Run(StoreRequest());
        ASSERT_TRUE(response.ok());
        ASSERT_LE(response->epoch, kEpochs);
        ExpectSameCores(*response,
                        expected[static_cast<size_t>(response->epoch)],
                        response->epoch);
      }
    });
  }
  for (const UpdateBatch& batch : batches) {
    auto outcome = engine.ApplyUpdate(batch);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message;
    // Let queries interleave with the published epoch for a moment.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // The final epoch serves the final expected answer.
  Expected<DccsResult> last = engine.Run(StoreRequest());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->epoch, kEpochs);
  ExpectSameCores(*last, expected.back(), kEpochs);
}

TEST(StoreConcurrencyTest, SubmittedQueryIsPinnedToItsSubmissionEpoch) {
  auto store = std::make_shared<GraphStore>(StoreGraph(6));
  // query_workers = 0: the submitted query only runs when we Wait, which
  // is guaranteed to be after the update below has published.
  Engine engine(store, Engine::Options{.query_workers = 0});

  QueryHandle handle = engine.Submit(StoreRequest());
  ASSERT_TRUE(engine.ApplyUpdate(
                  ChurnBatch(store->snapshot()->graph(), 42)).ok());
  ASSERT_EQ(engine.snapshot_epoch(), 1u);

  const Expected<DccsResult>& outcome = handle.Wait();
  ASSERT_TRUE(outcome.ok());
  // Ran after the update, but answers from the submission-time snapshot.
  EXPECT_EQ(outcome->epoch, 0u);

  Expected<DccsResult> fresh = engine.Run(StoreRequest());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch, 1u);
}

TEST(StoreConcurrencyTest, UnchangedCoreSubgraphsKeepPreprocessCachesWarm) {
  GraphStore::Options options;
  options.tracked_degrees = {3};
  auto store = std::make_shared<GraphStore>(StoreGraph(7), options);
  Engine engine(store);

  ASSERT_TRUE(engine.Run(StoreRequest()).ok());  // cold build
  EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.preprocess_misses, 1);
  EXPECT_EQ(stats.preprocess_hits, 0);

  // A background-only update: two fresh vertices joined by one edge can
  // never enter a 3-core, so d=3's core subgraphs are untouched...
  // except that growing the id space conservatively bumps the generation.
  // Use an isolated-background edge between existing low-degree vertices
  // instead: vertices outside every 3-core with degree < 3 afterwards.
  const MultiLayerGraph& graph = store->snapshot()->graph();
  const TrackedCores* tracked = store->snapshot()->tracked(3);
  ASSERT_NE(tracked, nullptr);
  std::vector<uint8_t> in_core(static_cast<size_t>(graph.NumVertices()), 0);
  for (const auto& core : tracked->cores) {
    for (VertexId v : *core) in_core[static_cast<size_t>(v)] = 1;
  }
  VertexId a = -1, b = -1;
  for (VertexId v = 0; v < graph.NumVertices() && b < 0; ++v) {
    if (in_core[static_cast<size_t>(v)] != 0 || graph.Degree(0, v) > 0) {
      continue;
    }
    if (a < 0) {
      a = v;
    } else {
      b = v;
    }
  }
  ASSERT_GE(b, 0) << "planted graph should have layer-0 isolated vertices";
  const uint64_t generation_before = store->snapshot()->core_generation(3);
  // Toggle the background edge for six epochs: every epoch changes graph
  // content, none touches a 3-core, so every query hits the warm entry.
  constexpr int kEpochs = 6;
  for (int epoch = 1; epoch <= kEpochs; ++epoch) {
    UpdateBatch toggle;
    if (epoch % 2 == 1) {
      toggle.Insert(0, a, b);
    } else {
      toggle.Remove(0, a, b);
    }
    ASSERT_TRUE(engine.ApplyUpdate(toggle).ok());
    EXPECT_EQ(engine.snapshot_epoch(), static_cast<uint64_t>(epoch));
    EXPECT_EQ(store->snapshot()->core_generation(3), generation_before)
        << "epoch " << epoch
        << ": a degree-1 background edge cannot touch any 3-core";

    Expected<DccsResult> warm = engine.Run(StoreRequest());
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->epoch, static_cast<uint64_t>(epoch));
    stats = engine.cache_stats();
    EXPECT_EQ(stats.preprocess_misses, 1)
        << "epoch " << epoch << ": warm entry must survive";
    EXPECT_EQ(stats.preprocess_hits, epoch);
  }

  // Now rip an edge out of a 3-core: the generation must move and the
  // next query must rebuild.
  const MultiLayerGraph& now = store->snapshot()->graph();
  tracked = store->snapshot()->tracked(3);
  VertexId cu = -1, cv = -1;
  for (LayerId layer = 0; layer < now.NumLayers() && cu < 0; ++layer) {
    const VertexSet& core = *tracked->cores[static_cast<size_t>(layer)];
    for (VertexId v : core) {
      for (VertexId u : now.Neighbors(layer, v)) {
        if (u > v && std::binary_search(core.begin(), core.end(), u)) {
          cu = v;
          cv = u;
          ASSERT_TRUE(
              engine.ApplyUpdate(UpdateBatch{}.Remove(layer, cu, cv)).ok());
          break;
        }
      }
      if (cu >= 0) break;
    }
  }
  ASSERT_GE(cu, 0);
  EXPECT_GT(store->snapshot()->core_generation(3), generation_before);
  ASSERT_TRUE(engine.Run(StoreRequest()).ok());
  stats = engine.cache_stats();
  EXPECT_EQ(stats.preprocess_misses, 2) << "core edit must invalidate";
  EXPECT_EQ(stats.preprocess_hits, kEpochs);
}

TEST(StoreConcurrencyTest, RetiredSnapshotsAreNotPinnedForever) {
  auto store = std::make_shared<GraphStore>(StoreGraph(8));
  Engine engine(store, Engine::Options{.query_workers = 0});

  std::weak_ptr<const GraphSnapshot> retired;
  {
    // A submitted-then-cancelled query and a completed query both pin
    // epoch 0 only as long as their handles live.
    QueryHandle cancelled = engine.Submit(StoreRequest());
    cancelled.Cancel();
    EXPECT_EQ(cancelled.Wait().status().code, StatusCode::kCancelled);
    Expected<DccsResult> completed = engine.Run(StoreRequest());
    ASSERT_TRUE(completed.ok());
    retired = store->snapshot();
    ASSERT_TRUE(
        engine.ApplyUpdate(ChurnBatch(store->snapshot()->graph(), 9)).ok());
  }
  // Handles are gone and the store has moved on; the only remaining pins
  // are engine caches (cores/solvers), which ClearCache drops. The next
  // query re-warms everything for the current epoch.
  engine.ClearCache();
  EXPECT_TRUE(retired.expired())
      << "epoch-0 snapshot is still pinned after cancel + update + "
         "ClearCache";
  Expected<DccsResult> fresh = engine.Run(StoreRequest());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch, 1u);
}

}  // namespace
}  // namespace mlcore
