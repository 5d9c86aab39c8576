// Tests for the dynamic GraphStore subsystem (DESIGN.md §8): EditedCopy
// against a from-scratch rebuild, ApplyUpdate validation (a rejected batch
// changes nothing), epoch/snapshot isolation, incremental-vs-recompute
// path equivalence, the update-stream text format, and the strictened
// graph loader. The engine-facing behaviour (snapshot pinning, warm
// caches across epochs) lives in store_concurrency_test.cc.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/dcore.h"
#include "dccs/dccs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/io.h"
#include "store/graph_store.h"
#include "test_temp.h"
#include "util/rng.h"

namespace mlcore {
namespace {

using EdgeList = MultiLayerGraph::EdgeList;

// Collects every edge of `graph` as (layer, u, v) triples, u < v.
std::set<std::tuple<LayerId, VertexId, VertexId>> AllEdges(
    const MultiLayerGraph& graph) {
  std::set<std::tuple<LayerId, VertexId, VertexId>> edges;
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (v < u) edges.emplace(layer, v, u);
      }
    }
  }
  return edges;
}

void ExpectSameGraph(const MultiLayerGraph& actual,
                     const MultiLayerGraph& expected) {
  ASSERT_EQ(actual.NumVertices(), expected.NumVertices());
  ASSERT_EQ(actual.NumLayers(), expected.NumLayers());
  EXPECT_EQ(AllEdges(actual), AllEdges(expected));
  // CSR invariants: sorted neighbour lists, symmetric degrees.
  for (LayerId layer = 0; layer < actual.NumLayers(); ++layer) {
    for (VertexId v = 0; v < actual.NumVertices(); ++v) {
      auto nbrs = actual.Neighbors(layer, v);
      EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    }
  }
}

TEST(StoreEditedCopyTest, MatchesRebuiltGraphOnRandomEdits) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    MultiLayerGraph graph = GenerateErdosRenyi(60, 3, 0.08, 100 + seed);
    Rng rng(seed);

    // Pick random removals from present edges and additions from absent
    // pairs, then compare EditedCopy to a graph rebuilt from scratch.
    auto edges = AllEdges(graph);
    std::vector<EdgeList> removed(3), added(3);
    std::vector<std::tuple<LayerId, VertexId, VertexId>> flat(edges.begin(),
                                                              edges.end());
    for (int i = 0; i < 20 && !flat.empty(); ++i) {
      size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(flat.size()) - 1));
      auto [layer, u, v] = flat[pick];
      flat.erase(flat.begin() + static_cast<int64_t>(pick));
      removed[static_cast<size_t>(layer)].emplace_back(u, v);
      edges.erase({layer, u, v});
    }
    const int32_t extra = 2;
    for (int i = 0; i < 25; ++i) {
      auto layer = static_cast<LayerId>(rng.Uniform(0, 2));
      auto u = static_cast<VertexId>(rng.Uniform(0, 61));  // may hit new ids
      auto v = static_cast<VertexId>(rng.Uniform(0, 61));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if ((u < 60 && v < 60 && graph.HasEdge(layer, u, v)) ||
          edges.count({layer, u, v}) != 0) {
        continue;
      }
      added[static_cast<size_t>(layer)].emplace_back(u, v);
      edges.emplace(layer, u, v);
    }
    for (auto& list : removed) std::sort(list.begin(), list.end());
    for (auto& list : added) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    MultiLayerGraph edited = graph.EditedCopy(extra, added, removed);
    GraphBuilder builder(62, 3);
    for (const auto& [layer, u, v] : edges) builder.AddEdge(layer, u, v);
    ExpectSameGraph(edited, builder.Build());
  }
}

TEST(StoreEditedCopyTest, UnchangedLayersAndVertexPadding) {
  MultiLayerGraph graph = GenerateErdosRenyi(30, 2, 0.2, 7);
  std::vector<EdgeList> none(2);
  MultiLayerGraph padded = graph.EditedCopy(3, none, none);
  ASSERT_EQ(padded.NumVertices(), 33);
  for (LayerId layer = 0; layer < 2; ++layer) {
    EXPECT_EQ(padded.NumEdges(layer), graph.NumEdges(layer));
    for (VertexId v = 30; v < 33; ++v) EXPECT_EQ(padded.Degree(layer, v), 0);
  }
}

MultiLayerGraph TriangleGraph() {
  GraphBuilder builder(5, 2);
  builder.AddEdge(0, 0, 1);
  builder.AddEdge(0, 1, 2);
  builder.AddEdge(0, 0, 2);
  builder.AddEdge(1, 2, 3);
  return builder.Build();
}

TEST(GraphStoreTest, ValidationRejectsMalformedBatches) {
  GraphStore store(TriangleGraph());
  auto expect_rejected = [&](const UpdateBatch& batch, const char* label) {
    auto outcome = store.ApplyUpdate(batch);
    EXPECT_FALSE(outcome.ok()) << label;
    EXPECT_EQ(store.epoch(), 0u) << label << ": a rejected batch must not "
                                              "publish an epoch";
  };

  expect_rejected(UpdateBatch{}.Insert(0, 2, 2), "self-loop");
  expect_rejected(UpdateBatch{}.Insert(0, 0, 1), "insert existing edge");
  expect_rejected(UpdateBatch{}.Insert(2, 0, 1), "layer out of range");
  expect_rejected(UpdateBatch{}.Insert(0, 0, 9), "vertex out of range");
  expect_rejected(UpdateBatch{}.Insert(0, 3, 4).Insert(0, 4, 3),
                  "duplicate insert (either orientation)");
  expect_rejected(UpdateBatch{}.Remove(0, 1, 3), "remove missing edge");
  expect_rejected(UpdateBatch{}.Remove(0, 0, 1).Remove(0, 0, 1),
                  "duplicate remove");
  expect_rejected(UpdateBatch{}.Remove(1, 2, 3).Insert(1, 2, 3),
                  "insert+remove conflict");
  expect_rejected(UpdateBatch{}.RemoveVertex(9), "remove vertex out of range");
  expect_rejected(UpdateBatch{}.RemoveVertex(2).Insert(1, 2, 4),
                  "insert touching a vertex removed in the same batch");
  UpdateBatch negative;
  negative.add_vertices = -1;
  expect_rejected(negative, "negative add_vertices");
  // Vertex counts past the int32 id space must be rejected, not overflow
  // into a std::length_error abort while the new graph is allocated.
  const int32_t n = store.snapshot()->graph().NumVertices();
  expect_rejected(UpdateBatch{}.AddVertices(INT32_MAX), "add_vertices max");
  expect_rejected(UpdateBatch{}.AddVertices(INT32_MAX - n + 1),
                  "add_vertices one past the id space");

  // The failed batches must have changed nothing.
  EXPECT_EQ(AllEdges(store.snapshot()->graph()), AllEdges(TriangleGraph()));
  EXPECT_EQ(store.stats().batches_applied, 0);
  EXPECT_GT(store.stats().batches_rejected, 0);
}

TEST(GraphStoreTest, EpochsPublishAndSnapshotsAreImmutable) {
  GraphStore store(TriangleGraph());
  std::shared_ptr<const GraphSnapshot> epoch0 = store.snapshot();
  EXPECT_EQ(epoch0->epoch(), 0u);

  auto outcome = store.ApplyUpdate(UpdateBatch{}.Insert(1, 0, 3));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->epoch, 1u);
  EXPECT_EQ(outcome->edges_inserted, 1);
  EXPECT_EQ(store.epoch(), 1u);

  // The old snapshot still serves the old graph.
  EXPECT_FALSE(epoch0->graph().HasEdge(1, 0, 3));
  EXPECT_TRUE(store.snapshot()->graph().HasEdge(1, 0, 3));

  // Layer generations: only the edited layer moved.
  EXPECT_EQ(store.snapshot()->layer_generation(0), 0u);
  EXPECT_EQ(store.snapshot()->layer_generation(1), 1u);

  // An empty batch is a no-op.
  auto noop = store.ApplyUpdate(UpdateBatch{});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->epoch, 1u);
  EXPECT_EQ(store.epoch(), 1u);
}

TEST(GraphStoreTest, VertexAddAndRemoveSemantics) {
  GraphStore::Options options;
  options.tracked_degrees = {2};
  GraphStore store(TriangleGraph(), options);

  // Append two vertices and wire one into the layer-0 triangle.
  UpdateBatch grow;
  grow.AddVertices(2).Insert(0, 5, 0).Insert(0, 5, 1).Insert(0, 5, 2);
  auto outcome = store.ApplyUpdate(grow);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(store.snapshot()->graph().NumVertices(), 7);
  EXPECT_EQ(outcome->core_entries, 1);  // vertex 5 joins the layer-0 2-core

  const TrackedCores* tracked = store.snapshot()->tracked(2);
  ASSERT_NE(tracked, nullptr);
  EXPECT_EQ(*tracked->cores[0], (VertexSet{0, 1, 2, 5}));

  // Isolating vertex 1 drops its edges everywhere and cascades the core.
  auto removal = store.ApplyUpdate(UpdateBatch{}.RemoveVertex(1));
  ASSERT_TRUE(removal.ok());
  EXPECT_EQ(removal->vertices_removed, 1);
  EXPECT_EQ(removal->edges_removed, 3);  // 0-1, 1-2 on layer 0; 5-1
  const MultiLayerGraph& graph = store.snapshot()->graph();
  EXPECT_EQ(graph.Degree(0, 1), 0);
  tracked = store.snapshot()->tracked(2);
  EXPECT_EQ(*tracked->cores[0], (VertexSet{0, 2, 5}));
  // The id remains usable: reconnecting is legal.
  EXPECT_TRUE(store.ApplyUpdate(UpdateBatch{}.Insert(1, 1, 4)).ok());
}

TEST(GraphStoreTest, EpochListenersObserveEveryPublishedEpoch) {
  GraphStore store(TriangleGraph());
  std::vector<uint64_t> seen;
  const uint64_t id = store.AddEpochListener(
      [&](const std::shared_ptr<const GraphSnapshot>& snap) {
        seen.push_back(snap->epoch());
      });

  ASSERT_TRUE(store.ApplyUpdate(UpdateBatch{}.Insert(1, 0, 3)).ok());
  ASSERT_TRUE(store.ApplyUpdate(UpdateBatch{}.Remove(1, 0, 3)).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));

  // Neither empty nor rejected batches publish, so neither notifies.
  ASSERT_TRUE(store.ApplyUpdate(UpdateBatch{}).ok());
  EXPECT_FALSE(store.ApplyUpdate(UpdateBatch{}.Insert(0, 2, 2)).ok());
  EXPECT_EQ(seen.size(), 2u);

  // After removal the listener never fires again.
  store.RemoveEpochListener(id);
  ASSERT_TRUE(store.ApplyUpdate(UpdateBatch{}.Insert(1, 0, 3)).ok());
  EXPECT_EQ(seen.size(), 2u);
  store.RemoveEpochListener(id);  // unknown/stale ids are ignored
}

TEST(GraphStoreTest, IncrementalAndRecomputePathsAgree) {
  // Same update stream through a bounded-recore store and a forced
  // full-recompute store: tracked cores must be identical at every epoch.
  const uint64_t kSeed = 11;
  MultiLayerGraph initial = GenerateErdosRenyi(80, 3, 0.06, kSeed);

  GraphStore::Options incremental_options;
  incremental_options.tracked_degrees = {1, 2, 3};
  incremental_options.recore_damage_threshold = 1 << 20;  // never fall back
  GraphStore incremental(initial, incremental_options);

  GraphStore::Options recompute_options = incremental_options;
  recompute_options.recore_damage_threshold = -1;  // always fall back
  GraphStore recompute(initial, recompute_options);

  Rng rng(kSeed);
  for (int round = 0; round < 10; ++round) {
    const MultiLayerGraph& graph = incremental.snapshot()->graph();
    UpdateBatch batch;
    auto edges = AllEdges(graph);
    std::vector<std::tuple<LayerId, VertexId, VertexId>> flat(edges.begin(),
                                                              edges.end());
    for (int i = 0; i < 6 && !flat.empty(); ++i) {
      size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(flat.size()) - 1));
      auto [layer, u, v] = flat[pick];
      flat.erase(flat.begin() + static_cast<int64_t>(pick));
      batch.Remove(layer, u, v);
    }
    for (int i = 0; i < 10;) {
      auto layer = static_cast<LayerId>(rng.Uniform(0, 2));
      auto u = static_cast<VertexId>(
          rng.Uniform(0, graph.NumVertices() - 1));
      auto v = static_cast<VertexId>(
          rng.Uniform(0, graph.NumVertices() - 1));
      if (u == v || graph.HasEdge(layer, std::min(u, v), std::max(u, v))) {
        continue;
      }
      bool dup = false;
      for (const EdgeUpdate& e : batch.insert_edges) {
        if (e.layer == layer && std::minmax(e.u, e.v) == std::minmax(u, v)) {
          dup = true;
          break;
        }
      }
      if (!dup) batch.Insert(layer, u, v);
      ++i;
    }

    auto a = incremental.ApplyUpdate(batch);
    auto b = recompute.ApplyUpdate(batch);
    ASSERT_TRUE(a.ok()) << a.status().message;
    ASSERT_TRUE(b.ok()) << b.status().message;
    EXPECT_EQ(a->core_exits, b->core_exits) << "round " << round;
    EXPECT_EQ(a->core_entries, b->core_entries) << "round " << round;

    auto sa = incremental.snapshot();
    auto sb = recompute.snapshot();
    for (int d : incremental_options.tracked_degrees) {
      const TrackedCores* ta = sa->tracked(d);
      const TrackedCores* tb = sb->tracked(d);
      ASSERT_NE(ta, nullptr);
      ASSERT_NE(tb, nullptr);
      for (LayerId layer = 0; layer < 3; ++layer) {
        ASSERT_EQ(*ta->cores[static_cast<size_t>(layer)],
                  *tb->cores[static_cast<size_t>(layer)])
            << "round " << round << " d " << d << " layer " << layer;
      }
      ASSERT_EQ(*ta->support, *tb->support) << "round " << round;
    }
  }
  // The paths must actually differ in how they worked: the bounded store
  // never fell back, the forced store recomputed every insertion layer.
  EXPECT_GT(incremental.stats().incremental_layer_updates, 0);
  EXPECT_EQ(incremental.stats().full_layer_recomputes, 0);
  EXPECT_GT(recompute.stats().full_layer_recomputes, 0);
}

// One seeded batch of 1-6 records against `graph`: mostly valid inserts and
// removes, mixed with hostile records (ids in [-2, n+2], layers in [-1, l],
// self-loops, duplicates, insert/remove conflicts) and add_vertices drawn
// from {-1, 0, small, INT32_MAX - n + 1, INT32_MAX}. A large but
// representable count is never drawn: it would allocate gigabytes.
UpdateBatch MutatedBatch(const MultiLayerGraph& graph, Rng& rng) {
  const int32_t n = graph.NumVertices();
  const int32_t l = graph.NumLayers();
  UpdateBatch batch;
  const int64_t add_pick = rng.Uniform(0, 9);
  if (add_pick == 0) batch.add_vertices = -1;
  if (add_pick >= 6 && add_pick <= 7) {
    batch.add_vertices = static_cast<int32_t>(rng.Uniform(1, 3));
  }
  if (add_pick == 8) batch.add_vertices = INT32_MAX - n + 1;
  if (add_pick == 9) batch.add_vertices = INT32_MAX;

  const int64_t records = rng.Uniform(1, 6);
  for (int64_t i = 0; i < records; ++i) {
    auto layer = static_cast<LayerId>(rng.Uniform(0, l - 1));
    auto u = static_cast<VertexId>(rng.Uniform(0, n - 1));
    auto v = static_cast<VertexId>(rng.Uniform(0, n - 1));
    switch (rng.Uniform(0, 9)) {
      case 0:  // hostile ids and layer
        batch.Insert(static_cast<LayerId>(rng.Uniform(-1, l)),
                     static_cast<VertexId>(rng.Uniform(-2, n + 2)),
                     static_cast<VertexId>(rng.Uniform(-2, n + 2)));
        break;
      case 1:  // self-loop
        batch.Insert(layer, u, u);
        break;
      case 2:  // duplicate or conflicting record
        if (!batch.insert_edges.empty()) {
          const EdgeUpdate e = batch.insert_edges.back();
          if (rng.Bernoulli(0.5)) {
            batch.Insert(e.layer, e.v, e.u);
          } else {
            batch.Remove(e.layer, e.u, e.v);
          }
        }
        break;
      case 3:  // vertex removal, possibly out of range
        batch.RemoveVertex(static_cast<VertexId>(rng.Uniform(-2, n + 2)));
        break;
      case 4:
      case 5:
      case 6: {  // remove an edge that exists
        auto nbrs = graph.Neighbors(layer, v);
        if (nbrs.empty()) break;
        VertexId w = nbrs[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(nbrs.size()) - 1))];
        batch.Remove(layer, v, w);
        break;
      }
      default:  // insert, usually of an absent edge
        if (u != v) batch.Insert(layer, u, v);
        break;
    }
  }
  return batch;
}

TEST(GraphStoreFuzzTest, MutatedBatchesAreRejectedOrApplied) {
  constexpr int kD = 3;
  for (uint64_t seed : {21, 22, 23}) {
    GraphStore::Options options;
    options.tracked_degrees = {kD};
    GraphStore store(GenerateErdosRenyi(40, 3, 0.12, seed), options);
    Rng rng(seed);
    int applied = 0, rejected = 0;
    for (int round = 0; round < 120; ++round) {
      std::shared_ptr<const GraphSnapshot> before = store.snapshot();
      const UpdateBatch batch = MutatedBatch(before->graph(), rng);
      auto outcome = store.ApplyUpdate(batch);
      std::shared_ptr<const GraphSnapshot> after = store.snapshot();
      if (!outcome.ok()) {
        ++rejected;
        ASSERT_EQ(after->epoch(), before->epoch())
            << "seed " << seed << " round " << round;
        ASSERT_EQ(AllEdges(after->graph()), AllEdges(before->graph()))
            << "seed " << seed << " round " << round;
        continue;
      }
      ++applied;
      ASSERT_EQ(outcome->epoch, before->epoch() + (batch.empty() ? 0 : 1))
          << "seed " << seed << " round " << round;
      const MultiLayerGraph& graph = after->graph();
      const TrackedCores* tracked = after->tracked(kD);
      ASSERT_NE(tracked, nullptr);
      for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
        ASSERT_EQ(*tracked->cores[static_cast<size_t>(layer)],
                  DCore(graph, layer, kD))
            << "seed " << seed << " round " << round << " layer " << layer;
      }
    }
    EXPECT_GT(applied, 10) << "seed " << seed;
    EXPECT_GT(rejected, 10) << "seed " << seed;
  }
}

TEST(UpdateStreamIoTest, RoundTripsBatches) {
  std::vector<UpdateBatch> batches;
  batches.push_back(UpdateBatch{}.Insert(0, 1, 2).Remove(1, 3, 4));
  UpdateBatch second;
  second.AddVertices(3).RemoveVertex(7).Insert(2, 5, 9);
  batches.push_back(second);

  const std::string path = TestTempPath("update_stream_test.txt");
  ASSERT_TRUE(SaveUpdateStream(batches, path).ok());
  std::vector<UpdateBatch> loaded;
  Status status = LoadUpdateStream(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(loaded.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(loaded[i].add_vertices, batches[i].add_vertices);
    EXPECT_EQ(loaded[i].remove_vertices, batches[i].remove_vertices);
    EXPECT_EQ(loaded[i].insert_edges, batches[i].insert_edges);
    EXPECT_EQ(loaded[i].remove_edges, batches[i].remove_edges);
  }
  std::remove(path.c_str());
}

TEST(UpdateStreamIoTest, RejectsMalformedRecordsWithLineNumbers) {
  const std::string path = TestTempPath("update_stream_bad.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# header\n+ 0 1 2\nbogus 1 2 3\n", f);
    std::fclose(f);
  }
  std::vector<UpdateBatch> batches;
  Status status = LoadUpdateStream(path, &batches);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find(":3:"), std::string::npos) << status.message;
  std::remove(path.c_str());
}

// Comments and blank lines interleave freely with records; a trailing
// batch without `commit` still loads, and record-free batches are
// dropped. Comments may be indented, fields tab-separated, and lines may
// end in CRLF, as in edge lists.
TEST(UpdateStreamIoTest, ParsesThroughCommentsAndBlankLines) {
  const std::string path = TestTempPath("update_stream_comments.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "# day 1\n"
        "\n"
        "+ 0 1 2\n"
        "  # indented mid-batch note\r\n"
        "\t-\t1 3 4 \r\n"
        "commit\r\n"
        "\n"
        "commit\n"          // empty batch: dropped
        "# day 2\n"
        "addv 2\n"
        "delv 5\n"
        "+ 2 6 7\n",        // trailing batch, no commit
        f);
    std::fclose(f);
  }
  std::vector<UpdateBatch> batches;
  Status status = LoadUpdateStream(path, &batches);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].insert_edges,
            (std::vector<EdgeUpdate>{{0, 1, 2}}));
  EXPECT_EQ(batches[0].remove_edges,
            (std::vector<EdgeUpdate>{{1, 3, 4}}));
  EXPECT_EQ(batches[1].add_vertices, 2);
  EXPECT_EQ(batches[1].remove_vertices, (VertexSet{5}));
  EXPECT_EQ(batches[1].insert_edges,
            (std::vector<EdgeUpdate>{{2, 6, 7}}));
  std::remove(path.c_str());
}

// A file with comments and blank lines round-trips: Save writes a header
// comment, Load ignores it and reproduces the batches bit-for-bit.
TEST(UpdateStreamIoTest, SaveLoadRoundTripPreservesBatchesThroughComments) {
  std::vector<UpdateBatch> batches;
  batches.push_back(UpdateBatch{}.Insert(0, 1, 2).Insert(1, 2, 3));
  UpdateBatch second;
  second.AddVertices(4).RemoveVertex(1).Remove(0, 1, 2);
  batches.push_back(second);

  const std::string path = TestTempPath("update_stream_roundtrip.txt");
  ASSERT_TRUE(SaveUpdateStream(batches, path).ok());
  // Splice extra comments/blank lines into the saved file; the reload
  // must be unaffected.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("\n# trailing commentary\n\n", f);
    std::fclose(f);
  }
  std::vector<UpdateBatch> loaded;
  Status status = LoadUpdateStream(path, &loaded);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_EQ(loaded.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(loaded[i].add_vertices, batches[i].add_vertices) << i;
    EXPECT_EQ(loaded[i].remove_vertices, batches[i].remove_vertices) << i;
    EXPECT_EQ(loaded[i].insert_edges, batches[i].insert_edges) << i;
    EXPECT_EQ(loaded[i].remove_edges, batches[i].remove_edges) << i;
  }
  std::remove(path.c_str());
}

// Every malformed record kind is rejected with path:line context and a
// description of the expected form — the structural half of the
// validation story (GraphStore::ApplyUpdate owns the graph-dependent
// half).
TEST(UpdateStreamIoTest, EveryRecordKindRejectsWithPathLineContext) {
  const std::string path = TestTempPath("update_stream_records.txt");
  struct Case {
    const char* content;
    const char* needle;  // expected fragment of the message
  };
  const std::vector<Case> cases = {
      {"+ 0 1\n", "expected '+ <layer> <u> <v>'"},
      {"- 0 -1 2\n", "expected '- <layer> <u> <v>'"},
      {"+ 0 1 99999999999\n", "expected '+ <layer> <u> <v>'"},
      {"addv -3\n", "expected 'addv <count>'"},
      {"delv\n", "expected 'delv <v>'"},
      {"insert 0 1 2\n", "unknown record 'insert'"},
      // A record is exactly its fields: no fractional tail, no trailing
      // field, no suffix glued to a number.
      {"+ 0 1 2.5\n", "expected '+ <layer> <u> <v>'"},
      {"+ 0 1 2 junk\n", "expected '+ <layer> <u> <v>'"},
      {"- 0 1 2 7\n", "expected '- <layer> <u> <v>'"},
      {"addv 3x\n", "expected 'addv <count>'"},
      {"delv 4 5\n", "expected 'delv <v>'"},
      {"commit x\n", "expected 'commit'"},
  };
  for (const Case& c : cases) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fputs("# header\n\n", f);  // the record lands on line 3
      std::fputs(c.content, f);
      std::fclose(f);
    }
    std::vector<UpdateBatch> batches;
    Status status = LoadUpdateStream(path, &batches);
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument) << c.content;
    EXPECT_NE(status.message.find(path + ":3:"), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find(c.needle), std::string::npos)
        << status.message;
  }
  std::remove(path.c_str());
}

// A path that opens but cannot be read is an error, not an empty stream
// or graph.
TEST(UpdateStreamIoTest, UnreadablePathIsAnError) {
  const std::string dir = TestTempPath("a_directory");
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  std::vector<UpdateBatch> batches;
  const Status stream = LoadUpdateStream(dir, &batches);
  EXPECT_EQ(stream.code, StatusCode::kInvalidArgument);
  EXPECT_NE(stream.message.find("read error"), std::string::npos)
      << stream.message;
  MultiLayerGraph graph;
  EXPECT_FALSE(LoadMultiLayerGraph(dir, &graph).ok());
}

// The edge-list counterpart of EveryRecordKindRejectsWithPathLineContext:
// the header and edge records are exactly their fields.
TEST(GraphLoaderTest, EveryRecordKindRejectsWithPathLineContext) {
  const std::string path = TestTempPath("loader_records.txt");
  struct Case {
    const char* content;  // follows a comment and a blank line
    const char* line;     // expected `:<line>:` fragment
    const char* needle;   // expected fragment of the message
  };
  const std::vector<Case> cases = {
      {"n 4 1 9\n", ":3:", "expected header 'n <vertices> <layers>'"},
      {"n 4 1 junk\n", ":3:", "expected header 'n <vertices> <layers>'"},
      {"n 4 1\n0 1 2 7\n", ":4:", "expected '<layer> <u> <v>'"},
      {"n 4 1\n0 1 2 junk\n", ":4:", "expected '<layer> <u> <v>'"},
      {"n 4 1\n0 0 1 trailing-weight-token\r\n", ":4:",
       "expected '<layer> <u> <v>'"},
  };
  for (const Case& c : cases) {
    {
      std::FILE* f = std::fopen(path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fputs("# header\n\n", f);
      std::fputs(c.content, f);
      std::fclose(f);
    }
    MultiLayerGraph graph;
    Status status = LoadMultiLayerGraph(path, &graph);
    EXPECT_EQ(status.code, StatusCode::kInvalidArgument) << c.content;
    EXPECT_NE(status.message.find(path + c.line), std::string::npos)
        << status.message;
    EXPECT_NE(status.message.find(c.needle), std::string::npos)
        << status.message;
  }
}

TEST(GraphLoaderTest, RejectsDuplicateAndSelfLoopEdgesWithLineNumbers) {
  const std::string path = TestTempPath("loader_strict.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("n 4 2\n0 0 1\n0 1 0\n", f);  // duplicate in flipped order
    std::fclose(f);
  }
  MultiLayerGraph graph;
  Status status = LoadMultiLayerGraph(path, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find(":3:"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("duplicate"), std::string::npos)
      << status.message;

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("n 4 2\n1 2 2\n", f);  // self-loop
    std::fclose(f);
  }
  status = LoadMultiLayerGraph(path, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find(":2:"), std::string::npos) << status.message;
  EXPECT_NE(status.message.find("self-loop"), std::string::npos)
      << status.message;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlcore
