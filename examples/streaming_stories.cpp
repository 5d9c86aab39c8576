// Streaming story identification as a *standing query* (DESIGN.md §9):
// the paper's time-sliced story scenario, served continuously through
// Engine::Subscribe instead of poll-and-rerun.
//
// Layers are interaction channels (co-click, co-comment, share, ...).
// Stories are dense vertex groups recurring on several channels; the
// stream interleaves story arrivals (edge-insertion batches), story decay
// (edge-removal batches) and fresh users (vertex adds). One subscription
// stands for the whole week: every ApplyUpdate publishes an epoch, and
// the engine pushes an epoch-tagged ResultRevision — the full top-k plus
// a vertex-level delta against the previous revision.
//
// What to watch in the output:
//   * each revision reports the epoch it answers from and *what changed*:
//     users entering/leaving the covered set, stories appearing,
//     vanishing, or shifting membership;
//   * the quiet day only touches edges far from any d-core, so its
//     revision arrives marked "unchanged" — the engine proved the result
//     current from the store's core-subgraph generations without any
//     preprocessing or search (revisions_unchanged_skipped moves, the
//     scheduler does not);
//   * the store maintains per-layer d-cores incrementally — the
//     maintenance column shows exits/entries instead of full rebuilds.
//
// The stream is also round-tripped through the graph/io.h text format
// ("+/-" records), demonstrating the replay file dccs_cli --updates
// consumes (and dccs_cli --subscribe serves the same way).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "store/graph_store.h"
#include "util/rng.h"

namespace {

constexpr int kD = 3;          // degree threshold
constexpr int kS = 2;          // support threshold (channels per story)
constexpr int kLayers = 4;

// A story: a clique-ish vertex group planted on a subset of channels.
mlcore::UpdateBatch StoryArrival(const mlcore::MultiLayerGraph& graph,
                                 const mlcore::VertexSet& members,
                                 const mlcore::LayerSet& channels,
                                 mlcore::Rng& rng) {
  mlcore::UpdateBatch batch;
  const int32_t n = graph.NumVertices();  // members may be fresh ids >= n
  for (mlcore::LayerId channel : channels) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (!rng.Bernoulli(0.8)) continue;
        if (members[j] < n &&
            graph.HasEdge(channel, members[i], members[j])) {
          continue;
        }
        batch.Insert(channel, members[i], members[j]);
      }
    }
  }
  return batch;
}

// Decay: remove whatever edges a story region still has on its channels.
mlcore::UpdateBatch StoryDecay(const mlcore::MultiLayerGraph& graph,
                               const mlcore::VertexSet& members,
                               const mlcore::LayerSet& channels) {
  mlcore::UpdateBatch batch;
  for (mlcore::LayerId channel : channels) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (graph.HasEdge(channel, members[i], members[j])) {
          batch.Remove(channel, members[i], members[j]);
        }
      }
    }
  }
  return batch;
}

// Quiet-day chatter: toggle edges between low-degree users that cannot
// reach any d-core — content changes, no story does.
mlcore::UpdateBatch BackgroundChatter(const mlcore::MultiLayerGraph& graph) {
  mlcore::UpdateBatch batch;
  mlcore::VertexId prev = -1;
  for (mlcore::VertexId v = 0;
       v < graph.NumVertices() && batch.insert_edges.size() < 8; ++v) {
    if (graph.Degree(0, v) > kD - 2) continue;
    if (prev < 0) {
      prev = v;
    } else if (!graph.HasEdge(0, prev, v)) {
      batch.Insert(0, prev, v);
      prev = -1;
    }
  }
  return batch;
}

std::string JoinLayers(const mlcore::LayerSet& layers) {
  std::string out;
  for (size_t i = 0; i < layers.size(); ++i) {
    out += (i ? "," : "") + std::to_string(layers[i]);
  }
  return out;
}

void PrintRevision(const mlcore::ResultRevision& revision) {
  const mlcore::DccsResult& result = revision.result;
  std::printf("  revision #%llu @ epoch %llu%s: |Cov(R)| = %lld across %zu "
              "stories (preprocess %.2f ms, total %.2f ms)\n",
              static_cast<unsigned long long>(revision.sequence),
              static_cast<unsigned long long>(revision.epoch),
              revision.unchanged ? " [unchanged — proven, not recomputed]"
                                 : "",
              static_cast<long long>(result.CoverSize()),
              result.cores.size(), result.stats.preprocess_seconds * 1e3,
              result.stats.total_seconds * 1e3);
  const mlcore::ResultDelta& delta = revision.delta;
  if (delta.empty()) {
    std::printf("    delta: none\n");
    return;
  }
  std::printf("    delta: +%zu/-%zu covered users", delta.cover_added.size(),
              delta.cover_removed.size());
  for (const auto& core : delta.cores_appeared) {
    std::printf(", story appears on {%s} (%zu users)",
                JoinLayers(core.layers).c_str(), core.vertices.size());
  }
  for (const auto& core : delta.cores_vanished) {
    std::printf(", story on {%s} vanishes",
                JoinLayers(core.layers).c_str());
  }
  for (const auto& change : delta.cores_changed) {
    std::printf(", story on {%s} shifts +%zu/-%zu",
                JoinLayers(change.layers).c_str(), change.added.size(),
                change.removed.size());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // Day 0: a quiet interaction graph — background chatter only.
  mlcore::PlantedGraphConfig config;
  config.num_vertices = 600;
  config.num_layers = kLayers;
  config.num_communities = 3;
  config.community_size_min = 10;
  config.community_size_max = 16;
  config.seed = 20180416;
  mlcore::MultiLayerGraph initial =
      mlcore::GeneratePlanted(config).graph;

  mlcore::GraphStore::Options store_options;
  store_options.tracked_degrees = {kD};
  auto store = std::make_shared<mlcore::GraphStore>(std::move(initial),
                                                    store_options);
  mlcore::Engine engine(store, mlcore::Engine::Options{.num_threads = 2});

  mlcore::DccsRequest query;
  query.params.d = kD;
  query.params.s = kS;
  query.params.k = 5;

  // The standing query: one Subscribe, one revision per published epoch.
  mlcore::SubscriptionOptions subscription_options;
  subscription_options.max_buffered_revisions = 16;
  auto subscribed = engine.Subscribe(query, subscription_options);
  MLCORE_CHECK_MSG(subscribed.ok(), subscribed.status().message.c_str());
  mlcore::Subscription subscription = *subscribed;

  std::printf("== day 0: baseline ==\n");
  std::optional<mlcore::ResultRevision> revision = subscription.Next();
  MLCORE_CHECK(revision.has_value());
  PrintRevision(*revision);

  // Script the week: three breaking stories arrive, the oldest decays,
  // one day is pure background chatter, new users join. Batches are built
  // against the store's current snapshot and collected into a replayable
  // stream file as we go.
  mlcore::Rng rng(7);
  std::vector<mlcore::UpdateBatch> stream;
  std::vector<mlcore::VertexSet> story_members;
  std::vector<mlcore::LayerSet> story_channels;
  for (int day = 1; day <= 6; ++day) {
    std::printf("\n== day %d ==\n", day);
    auto snap = store->snapshot();
    const mlcore::MultiLayerGraph& graph = snap->graph();

    mlcore::UpdateBatch batch;
    if (day <= 3) {
      // A new story breaks among fresh + existing users on two channels.
      mlcore::VertexSet members;
      for (int i = 0; i < 6; ++i) {
        members.push_back(graph.NumVertices() + i);
      }
      for (int i = 0; i < 6; ++i) {
        members.push_back(static_cast<mlcore::VertexId>(
            rng.Uniform(0, graph.NumVertices() - 1)));
      }
      std::sort(members.begin(), members.end());
      members.erase(std::unique(members.begin(), members.end()),
                    members.end());
      mlcore::LayerSet channels = {
          static_cast<mlcore::LayerId>((day - 1) % kLayers),
          static_cast<mlcore::LayerId>((day + 1) % kLayers)};
      std::sort(channels.begin(), channels.end());
      channels.erase(std::unique(channels.begin(), channels.end()),
                     channels.end());
      batch = StoryArrival(graph, members, channels, rng);
      batch.add_vertices = 6;
      story_members.push_back(members);
      story_channels.push_back(channels);
      std::printf("story #%zu breaks: %zu users, channels {%d,%d}\n",
                  story_members.size(), members.size(), channels[0],
                  channels[1]);
    } else if (day == 4) {
      // Quiet day: chatter among low-degree users, no story involved —
      // this one must come back "unchanged" without recomputation.
      batch = BackgroundChatter(graph);
      std::printf("quiet day: %zu background edges, no story touched\n",
                  batch.insert_edges.size());
    } else {
      // The oldest stories fade from the feed.
      size_t victim = static_cast<size_t>(day - 5);
      batch = StoryDecay(graph, story_members[victim],
                         story_channels[victim]);
      std::printf("story #%zu decays: %lld edges removed\n", victim + 1,
                  static_cast<long long>(batch.remove_edges.size()));
    }

    auto outcome = engine.ApplyUpdate(batch);
    MLCORE_CHECK_MSG(outcome.ok(), outcome.status().message.c_str());
    stream.push_back(batch);
    std::printf("  published epoch %llu: +%lld/-%lld edges, "
                "core entries %lld / exits %lld "
                "(%lld incremental layer updates, %lld full recomputes)\n",
                static_cast<unsigned long long>(outcome->epoch),
                static_cast<long long>(outcome->edges_inserted),
                static_cast<long long>(outcome->edges_removed),
                static_cast<long long>(outcome->core_entries),
                static_cast<long long>(outcome->core_exits),
                static_cast<long long>(outcome->incremental_layer_updates),
                static_cast<long long>(outcome->full_layer_recomputes));

    // The subscription pushes the revision; no re-query, no polling.
    revision = subscription.Next();
    MLCORE_CHECK(revision.has_value());
    MLCORE_CHECK(revision->epoch == outcome->epoch);
    PrintRevision(*revision);
  }

  const mlcore::EngineCacheStats stats = engine.cache_stats();
  std::printf("\nsubscription: %lld revisions emitted, %lld epochs absorbed "
              "as unchanged, %lld coalesced; preprocess cache %lld hits / "
              "%lld misses over %d days\n",
              static_cast<long long>(stats.revisions_emitted),
              static_cast<long long>(stats.revisions_unchanged_skipped),
              static_cast<long long>(stats.revisions_coalesced),
              static_cast<long long>(stats.preprocess_hits),
              static_cast<long long>(stats.preprocess_misses), 6 + 1);
  subscription.Cancel();

  // Round-trip the stream through the text format — the same file feeds
  // `dccs_cli --graph=... --updates=stream.txt [--subscribe]`.
  const std::string stream_path = "/tmp/mlcore_story_stream.txt";
  mlcore::Status saved = SaveUpdateStream(stream, stream_path);
  MLCORE_CHECK_MSG(saved.ok(), saved.message.c_str());
  std::vector<mlcore::UpdateBatch> replayed;
  MLCORE_CHECK(LoadUpdateStream(stream_path, &replayed).ok());
  MLCORE_CHECK(replayed.size() == stream.size());
  std::printf("update stream round-tripped through %s (%zu batches)\n",
              stream_path.c_str(), replayed.size());
  return 0;
}
