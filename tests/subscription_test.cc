// Tests for the continuous-DCCS surface (Engine::Subscribe, DESIGN.md §9):
// the determinism oracle — every revision's result and delta must be
// bit-identical to a cold Engine::Run of the same request against that
// epoch's snapshot, at several thread/worker counts — plus the
// unchanged-skip fast path (zero recomputation, counter-verified),
// bounded-buffer coalescing, callback-mode ordering, cancellation, and
// engine-destruction semantics. The CI TSan and ASan+UBSan jobs run this
// file; SubscriptionRaceTest is the dedicated data-race probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "service/delta.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace mlcore {
namespace {

constexpr int kTrackedD = 3;

MultiLayerGraph SubscriptionGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 200;
  config.num_layers = 4;
  config.num_communities = 6;
  config.community_size_min = 8;
  config.community_size_max = 16;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

// Two 4-cliques on both layers (each a d = 3 core) plus spare low-degree
// vertices 8..13 whose edges can never touch a 3-core — the controllable
// background for unchanged-skip tests.
MultiLayerGraph TwoCliqueGraph() {
  GraphBuilder builder(/*num_vertices=*/14, /*num_layers=*/2);
  for (LayerId layer = 0; layer < 2; ++layer) {
    for (VertexId u = 0; u < 4; ++u) {
      for (VertexId v = u + 1; v < 4; ++v) builder.AddEdge(layer, u, v);
    }
    for (VertexId u = 4; u < 8; ++u) {
      for (VertexId v = u + 1; v < 8; ++v) builder.AddEdge(layer, u, v);
    }
  }
  return builder.Build();
}

std::shared_ptr<GraphStore> MakeStore(MultiLayerGraph graph) {
  GraphStore::Options options;
  options.tracked_degrees = {kTrackedD};
  return std::make_shared<GraphStore>(std::move(graph), options);
}

DccsRequest MakeRequest(DccsAlgorithm algorithm, int k = 4) {
  DccsRequest request;
  request.params.d = kTrackedD;
  request.params.s = 2;
  request.params.k = k;
  request.algorithm = algorithm;
  return request;
}

// Deterministic churn batch against the current graph: removals of
// present edges and insertions of absent pairs, valid by construction.
UpdateBatch ChurnBatch(const MultiLayerGraph& graph, Rng& rng) {
  UpdateBatch batch;
  const int32_t n = graph.NumVertices();
  const int32_t l = graph.NumLayers();
  std::vector<std::tuple<LayerId, VertexId, VertexId>> touched;
  auto fresh = [&](LayerId layer, VertexId u, VertexId v) {
    const auto key = std::make_tuple(layer, std::min(u, v), std::max(u, v));
    if (std::find(touched.begin(), touched.end(), key) != touched.end()) {
      return false;
    }
    touched.push_back(key);
    return true;
  };
  for (int i = 0; i < 8; ++i) {
    const auto layer = static_cast<LayerId>(rng.Uniform(0, l - 1));
    const auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
    const auto nbrs = graph.Neighbors(layer, v);
    if (nbrs.empty()) continue;
    const VertexId u = nbrs[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(nbrs.size()) - 1))];
    if (fresh(layer, u, v)) batch.Remove(layer, u, v);
  }
  for (int i = 0; i < 8; ++i) {
    const auto layer = static_cast<LayerId>(rng.Uniform(0, l - 1));
    const auto u = static_cast<VertexId>(rng.Uniform(0, n - 1));
    const auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
    if (u == v || graph.HasEdge(layer, std::min(u, v), std::max(u, v))) {
      continue;
    }
    if (fresh(layer, u, v)) batch.Insert(layer, u, v);
  }
  return batch;
}

void ExpectSameResult(const DccsResult& actual, const DccsResult& expected,
                      const std::string& label) {
  ASSERT_EQ(actual.cores.size(), expected.cores.size()) << label;
  for (size_t i = 0; i < actual.cores.size(); ++i) {
    EXPECT_EQ(actual.cores[i], expected.cores[i]) << label << " core " << i;
  }
  EXPECT_EQ(actual.stats.candidates_generated,
            expected.stats.candidates_generated)
      << label;
  EXPECT_EQ(actual.stats.nodes_visited, expected.stats.nodes_visited)
      << label;
  EXPECT_EQ(actual.Cover(), expected.Cover()) << label;
}

// Waits (bounded) until `predicate` holds; subscriptions process epochs
// asynchronously, so counter assertions poll.
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 10000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

TEST(SubscriptionTest, ValidationRejectsMalformedRequests) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  DccsRequest bad = MakeRequest(DccsAlgorithm::kAuto);
  bad.params.s = 0;
  Expected<Subscription> sub = engine.Subscribe(bad);
  EXPECT_FALSE(sub.ok());
  EXPECT_EQ(sub.status().code, StatusCode::kInvalidArgument);
}

TEST(SubscriptionTest, InitialRevisionMatchesRunAndReportsFullDelta) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  const DccsRequest request = MakeRequest(DccsAlgorithm::kBottomUp);

  Expected<DccsResult> reference = engine.Run(request);
  ASSERT_TRUE(reference.ok());

  Expected<Subscription> subscribed = engine.Subscribe(request);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  std::optional<ResultRevision> revision = sub.Next();
  ASSERT_TRUE(revision.has_value());
  EXPECT_EQ(revision->sequence, 1u);
  EXPECT_EQ(revision->epoch, 0u);
  EXPECT_FALSE(revision->unchanged);
  ExpectSameResult(revision->result, *reference, "initial revision");
  // The first revision's delta is its whole result.
  EXPECT_EQ(revision->delta.cover_added, revision->result.Cover());
  EXPECT_TRUE(revision->delta.cover_removed.empty());
  EXPECT_EQ(revision->delta.cores_appeared, revision->result.cores);
  EXPECT_TRUE(revision->delta.cores_vanished.empty());
  EXPECT_TRUE(revision->delta.cores_changed.empty());
  EXPECT_TRUE(sub.active());
}

// The acceptance-criteria determinism oracle: for every epoch of a
// randomized update stream, each subscription's revision (result AND
// delta) is bit-identical to a cold Engine::Run of the same request
// against that epoch's snapshot — at 1/2/8 threads, including the
// zero-worker donation mode.
TEST(SubscriptionTest, RevisionsMatchColdRunsAtEveryEpoch) {
  const MultiLayerGraph initial = SubscriptionGraph(41);
  const std::vector<DccsRequest> requests = {
      MakeRequest(DccsAlgorithm::kBottomUp),
      MakeRequest(DccsAlgorithm::kGreedy)};
  constexpr int kEpochs = 5;

  // Pre-generate the batch stream and per-epoch cold references on a
  // scratch store (epoch e's reference is a fresh single-query engine
  // over that epoch's pinned snapshot).
  std::vector<UpdateBatch> batches;
  std::vector<std::vector<DccsResult>> reference;  // [epoch][request]
  {
    auto scratch = MakeStore(initial);
    Rng rng(2718);
    for (int epoch = 0; epoch <= kEpochs; ++epoch) {
      if (epoch > 0) {
        UpdateBatch batch = ChurnBatch(scratch->snapshot()->graph(), rng);
        auto outcome = scratch->ApplyUpdate(batch);
        ASSERT_TRUE(outcome.ok()) << outcome.status().message;
        batches.push_back(std::move(batch));
      }
      auto snap = scratch->snapshot();
      Engine cold(&snap->graph(),
                  Engine::Options{.num_threads = 1, .query_workers = 0});
      std::vector<DccsResult> row;
      for (const DccsRequest& request : requests) {
        Expected<DccsResult> response = cold.Run(request);
        ASSERT_TRUE(response.ok());
        row.push_back(std::move(*response));
      }
      reference.push_back(std::move(row));
    }
  }

  struct Config {
    int num_threads;
    int query_workers;
  };
  for (const Config& config :
       {Config{1, 1}, Config{2, 2}, Config{8, 8}, Config{1, 0}}) {
    SCOPED_TRACE("threads=" + std::to_string(config.num_threads) +
                 " workers=" + std::to_string(config.query_workers));
    Engine engine(MakeStore(initial),
                  Engine::Options{.num_threads = config.num_threads,
                                  .query_workers = config.query_workers});
    std::vector<Subscription> subs;
    for (const DccsRequest& request : requests) {
      SubscriptionOptions options;
      options.max_buffered_revisions = kEpochs + 2;  // no coalescing here
      Expected<Subscription> subscribed = engine.Subscribe(request, options);
      ASSERT_TRUE(subscribed.ok());
      subs.push_back(*subscribed);
    }

    for (int epoch = 0; epoch <= kEpochs; ++epoch) {
      if (epoch > 0) {
        ASSERT_TRUE(engine.ApplyUpdate(batches[static_cast<size_t>(
                        epoch - 1)]).ok());
      }
      for (size_t r = 0; r < subs.size(); ++r) {
        const std::string label =
            "epoch " + std::to_string(epoch) + " request " + std::to_string(r);
        std::optional<ResultRevision> revision = subs[r].Next();
        ASSERT_TRUE(revision.has_value()) << label;
        EXPECT_EQ(revision->epoch, static_cast<uint64_t>(epoch)) << label;
        EXPECT_EQ(revision->sequence, static_cast<uint64_t>(epoch + 1))
            << label;
        EXPECT_EQ(revision->coalesced, 0) << label;
        const DccsResult& cold =
            reference[static_cast<size_t>(epoch)][r];
        ExpectSameResult(revision->result, cold, label);
        const DccsResult empty;
        const DccsResult& prev =
            epoch == 0 ? empty
                       : reference[static_cast<size_t>(epoch - 1)][r];
        EXPECT_EQ(revision->delta, ComputeResultDelta(prev, cold)) << label;
      }
    }
  }
}

// Acceptance criterion: an epoch whose updates leave the (d, s)-relevant
// core-subgraph generations untouched produces an "unchanged" revision
// with zero preprocess/search work, verified through the engine counters.
TEST(SubscriptionTest, UnchangedEpochEmitsRevisionWithoutRecomputation) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  const DccsRequest request = MakeRequest(DccsAlgorithm::kBottomUp);

  Expected<Subscription> subscribed = engine.Subscribe(request);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  std::optional<ResultRevision> initial = sub.Next();
  ASSERT_TRUE(initial.has_value());
  ASSERT_FALSE(initial->result.cores.empty());

  engine.ResetStats();

  // Background churn: an edge between spare low-degree vertices cannot
  // touch any 3-core subgraph, so the tracked generation must not move.
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Insert(0, 8, 9)).ok());
  std::optional<ResultRevision> unchanged = sub.Next();
  ASSERT_TRUE(unchanged.has_value());
  EXPECT_TRUE(unchanged->unchanged);
  EXPECT_EQ(unchanged->epoch, 1u);
  EXPECT_TRUE(unchanged->delta.empty());
  ExpectSameResult(unchanged->result, initial->result, "unchanged revision");
  // ... and it must equal a cold run against the new epoch's snapshot.
  {
    auto snap = engine.store()->snapshot();
    Engine cold(&snap->graph(),
                Engine::Options{.num_threads = 1, .query_workers = 0});
    Expected<DccsResult> response = cold.Run(request);
    ASSERT_TRUE(response.ok());
    ExpectSameResult(unchanged->result, *response, "unchanged vs cold");
  }

  // Zero work, counter-verified: nothing entered the scheduler, no cache
  // was consulted or built.
  const EngineCacheStats cache = engine.cache_stats();
  const SchedulerStats sched = engine.scheduler_stats();
  EXPECT_EQ(sched.submitted, 0);
  EXPECT_EQ(sched.executed, 0);
  EXPECT_EQ(cache.preprocess_hits, 0);
  EXPECT_EQ(cache.preprocess_misses, 0);
  EXPECT_EQ(cache.base_core_hits, 0);
  EXPECT_EQ(cache.base_core_misses, 0);
  EXPECT_EQ(cache.revisions_unchanged_skipped, 1);
  EXPECT_EQ(cache.revisions_emitted, 1);

  // Core churn (removing a clique edge) must re-evaluate: the revision is
  // a fresh computation and the scheduler saw it.
  engine.ResetStats();
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Remove(0, 0, 1)).ok());
  std::optional<ResultRevision> recomputed = sub.Next();
  ASSERT_TRUE(recomputed.has_value());
  EXPECT_FALSE(recomputed->unchanged);
  EXPECT_EQ(recomputed->epoch, 2u);
  EXPECT_EQ(engine.scheduler_stats().executed, 1);
  EXPECT_EQ(engine.cache_stats().revisions_unchanged_skipped, 0);
}

TEST(SubscriptionTest, SilentUnchangedAbsorptionWhenEmitDisabled) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  SubscriptionOptions options;
  options.emit_unchanged = false;
  Expected<Subscription> subscribed =
      engine.Subscribe(MakeRequest(DccsAlgorithm::kBottomUp), options);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  ASSERT_TRUE(sub.Next().has_value());

  engine.ResetStats();
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Insert(1, 10, 11)).ok());
  ASSERT_TRUE(WaitFor([&] {
    return engine.cache_stats().revisions_unchanged_skipped == 1;
  }));
  EXPECT_EQ(engine.cache_stats().revisions_emitted, 0);
  EXPECT_FALSE(sub.TryNext().has_value());
}

// Latest-epoch-wins coalescing under a bounded buffer: a consumer that
// stops reading keeps only the newest revision, with the folded steps
// accounted in `coalesced` and a delta re-anchored to the last revision
// it actually saw.
TEST(SubscriptionTest, CoalescingBoundsTheBufferAndKeepsDeltasChained) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  const DccsRequest request = MakeRequest(DccsAlgorithm::kBottomUp);
  SubscriptionOptions options;
  options.max_buffered_revisions = 1;
  Expected<Subscription> subscribed = engine.Subscribe(request, options);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  std::optional<ResultRevision> initial = sub.Next();
  ASSERT_TRUE(initial.has_value());

  // Toggle a clique edge (core churn — every epoch re-evaluates), pacing
  // each update on the emission counter so every epoch gets its own
  // revision before the next lands on the full buffer.
  const int kEpochs = 4;
  for (int e = 1; e <= kEpochs; ++e) {
    UpdateBatch batch = e % 2 == 1 ? UpdateBatch{}.Remove(0, 0, 1)
                                   : UpdateBatch{}.Insert(0, 0, 1);
    ASSERT_TRUE(engine.ApplyUpdate(batch).ok());
    ASSERT_TRUE(WaitFor([&] {
      return engine.cache_stats().revisions_emitted >=
             static_cast<int64_t>(e + 1);
    }));
  }

  const EngineCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.revisions_emitted, kEpochs + 1);
  EXPECT_EQ(stats.revisions_coalesced, kEpochs - 1);

  // Exactly one buffered revision survives: the newest epoch, carrying
  // the folded count and a delta against the *initial* revision (the last
  // one the consumer saw). Epoch 4 restored the initial graph, so that
  // delta is empty.
  std::optional<ResultRevision> last = sub.TryNext();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->epoch, static_cast<uint64_t>(kEpochs));
  EXPECT_EQ(last->sequence, static_cast<uint64_t>(kEpochs + 1));
  EXPECT_EQ(last->coalesced, kEpochs - 1);
  EXPECT_FALSE(last->unchanged);
  EXPECT_EQ(last->delta, ComputeResultDelta(initial->result, last->result));
  EXPECT_TRUE(last->delta.empty());
  EXPECT_FALSE(sub.TryNext().has_value());
}

// The never-silently-starved guarantee: an evaluation shed by a full
// admission queue runs inline on the dispatcher thread instead of being
// dropped.
TEST(SubscriptionTest, ShedEvaluationRunsInlineOnTheDispatcher) {
  // query_workers = 0 and a one-slot queue: the parked Submit below is
  // never executed (nobody waits on it), so every subscription evaluation
  // finds the queue full of equal-priority work and is shed → inline.
  Engine engine(MakeStore(TwoCliqueGraph()),
                Engine::Options{.query_workers = 0,
                                .max_pending_queries = 1});
  QueryHandle parked = engine.Submit(MakeRequest(DccsAlgorithm::kBottomUp));
  ASSERT_EQ(parked.TryGet(), nullptr);  // admitted, not executed

  Expected<Subscription> subscribed =
      engine.Subscribe(MakeRequest(DccsAlgorithm::kBottomUp));
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  std::optional<ResultRevision> initial = sub.Next();
  ASSERT_TRUE(initial.has_value());
  EXPECT_GE(engine.scheduler_stats().rejected, 1);

  // Core churn: the re-evaluation is shed → inline too, and still equals
  // a cold run of the new epoch.
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Remove(0, 0, 1)).ok());
  std::optional<ResultRevision> recomputed = sub.Next();
  ASSERT_TRUE(recomputed.has_value());
  EXPECT_EQ(recomputed->epoch, 1u);
  EXPECT_GE(engine.scheduler_stats().rejected, 2);
  {
    auto snap = engine.store()->snapshot();
    Engine cold(&snap->graph(),
                Engine::Options{.num_threads = 1, .query_workers = 0});
    Expected<DccsResult> response =
        cold.Run(MakeRequest(DccsAlgorithm::kBottomUp));
    ASSERT_TRUE(response.ok());
    ExpectSameResult(recomputed->result, *response, "shed-inline vs cold");
  }
  sub.Cancel();
  parked.Cancel();
}

TEST(SubscriptionTest, CallbackModeDeliversInOrder) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  std::mutex mu;
  std::vector<ResultRevision> received;
  SubscriptionOptions options;
  options.on_revision = [&](const ResultRevision& revision) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(revision);
  };
  Expected<Subscription> subscribed =
      engine.Subscribe(MakeRequest(DccsAlgorithm::kBottomUp), options);
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;

  auto received_count = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return received.size();
  };
  ASSERT_TRUE(WaitFor([&] { return received_count() == 1; }));
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Remove(0, 0, 1)).ok());
  ASSERT_TRUE(WaitFor([&] { return received_count() == 2; }));
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Insert(0, 8, 9)).ok());
  ASSERT_TRUE(WaitFor([&] { return received_count() == 3; }));

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(received.size(), 3u);
  for (size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].sequence, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(received[i].epoch, static_cast<uint64_t>(i));
    if (i > 0) {
      EXPECT_EQ(received[i].delta,
                ComputeResultDelta(received[i - 1].result,
                                   received[i].result));
    }
  }
  EXPECT_FALSE(received[1].unchanged);  // core churn
  EXPECT_TRUE(received[2].unchanged);   // background churn
  // Callback-mode revisions never buffer.
  EXPECT_FALSE(sub.TryNext().has_value());
}

TEST(SubscriptionTest, CancelStopsTheStream) {
  Engine engine(MakeStore(TwoCliqueGraph()));
  Expected<Subscription> subscribed =
      engine.Subscribe(MakeRequest(DccsAlgorithm::kBottomUp));
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;
  ASSERT_TRUE(sub.Next().has_value());
  ASSERT_TRUE(sub.active());

  sub.Cancel();
  EXPECT_FALSE(sub.active());
  const int64_t emitted_before = engine.cache_stats().revisions_emitted;
  ASSERT_TRUE(engine.ApplyUpdate(UpdateBatch{}.Remove(0, 0, 1)).ok());
  // The update is fully processed by other observers before we assert
  // nothing reached the cancelled subscription.
  Expected<Subscription> probe =
      engine.Subscribe(MakeRequest(DccsAlgorithm::kBottomUp));
  ASSERT_TRUE(probe.ok());
  Subscription probe_sub = *probe;
  ASSERT_TRUE(probe_sub.Next().has_value());
  EXPECT_EQ(engine.cache_stats().revisions_emitted, emitted_before + 1);
  EXPECT_FALSE(sub.Next().has_value());  // terminal, drained: no block
  probe_sub.Cancel();
}

TEST(SubscriptionTest, EngineDestructionTerminatesSubscriptions) {
  auto store = MakeStore(TwoCliqueGraph());
  auto engine = std::make_unique<Engine>(store);
  Expected<Subscription> subscribed =
      engine->Subscribe(MakeRequest(DccsAlgorithm::kBottomUp));
  ASSERT_TRUE(subscribed.ok());
  Subscription sub = *subscribed;

  // One consumer blocks in Next while the engine dies.
  std::optional<ResultRevision> from_blocked;
  std::thread blocked([&] {
    Subscription copy = sub;
    copy.Next();                    // initial revision
    from_blocked = copy.Next();     // blocks until ~Engine
  });
  // Let the blocked thread reach its second Next (the initial revision is
  // the only one coming).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.reset();
  blocked.join();
  EXPECT_FALSE(from_blocked.has_value());

  // Handles remain safe after destruction.
  EXPECT_FALSE(sub.active());
  EXPECT_FALSE(sub.Next().has_value());
  sub.Cancel();  // idempotent, engine-free

  // The store outlives the engine; updates keep applying.
  EXPECT_TRUE(store->ApplyUpdate(UpdateBatch{}.Insert(0, 8, 9)).ok());
}

// The TSan probe demanded by the acceptance criteria: ApplyUpdate,
// Subscribe, Next/TryNext, Cancel and engine destruction all race. The
// assertions are deliberately light — the value is the interleaving under
// the sanitizer jobs.
TEST(SubscriptionRaceTest, RacesUpdatesSubscribeCancelAndDestruction) {
  for (int iteration = 0; iteration < 2; ++iteration) {
    auto store = MakeStore(SubscriptionGraph(90 + iteration));
    // A small admission queue plus mixed subscription priorities below
    // push the interleaving through the shed-inline and
    // displaced-then-retried evaluation paths as well.
    auto engine = std::make_unique<Engine>(
        store, Engine::Options{.num_threads = 2,
                               .query_workers = 2,
                               .max_pending_queries = 2});
    std::atomic<bool> stop_updates{false};
    std::atomic<bool> stop_subscribing{false};

    std::atomic<int> done_subscribing{0};

    std::thread updater([&] {
      Rng rng(7 + iteration);
      while (!stop_updates.load(std::memory_order_acquire)) {
        UpdateBatch batch = ChurnBatch(store->snapshot()->graph(), rng);
        EXPECT_TRUE(store->ApplyUpdate(batch).ok());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    std::vector<std::thread> subscribers;
    for (int t = 0; t < 3; ++t) {
      subscribers.emplace_back([&, t] {
        Rng rng(100 + t);
        std::vector<Subscription> held;
        // Phase 1: Subscribe/TryNext/Cancel race ApplyUpdate and each
        // other (but not destruction — Subscribe vs ~Engine is UB, like
        // Submit).
        while (!stop_subscribing.load(std::memory_order_acquire)) {
          SubscriptionOptions options;
          options.max_buffered_revisions = 2;
          options.priority = t - 1;  // mixed priorities drive displacement
          Expected<Subscription> subscribed = engine->Subscribe(
              MakeRequest(t % 2 == 0 ? DccsAlgorithm::kBottomUp
                                     : DccsAlgorithm::kGreedy),
              options);
          ASSERT_TRUE(subscribed.ok());
          Subscription sub = *subscribed;
          sub.TryNext();
          if (rng.Bernoulli(0.5) || held.size() > 4) {
            sub.Cancel();
          } else {
            held.push_back(sub);
          }
        }
        done_subscribing.fetch_add(1, std::memory_order_acq_rel);
        // Phase 2: Next/Cancel on held subscriptions race ~Engine and the
        // still-running updater.
        for (Subscription& sub : held) {
          while (sub.Next().has_value()) {
          }
          sub.Cancel();
        }
      });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    stop_subscribing.store(true, std::memory_order_release);
    while (done_subscribing.load(std::memory_order_acquire) < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine.reset();  // races Next/Cancel on held subscriptions + updates
    stop_updates.store(true, std::memory_order_release);
    for (std::thread& thread : subscribers) thread.join();
    updater.join();
  }
}

}  // namespace
}  // namespace mlcore
