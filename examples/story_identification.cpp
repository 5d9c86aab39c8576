// Story identification in social media (paper Application 2): each layer is
// a snapshot graph of entity co-occurrence in the posts of one time slice;
// a "story" is a group of entities strongly associated across several
// consecutive snapshots. Diversified d-CC search surfaces the k most
// prominent non-overlapping stories in the window.
//
//   ./examples/story_identification [--d=4] [--s=3] [--k=5] [--hours=12]

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "dccs/dccs.h"
#include "eval/metrics.h"
#include "graph/generators.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

// Synthesises a window of snapshot graphs: a few "stories" (entity groups
// that co-occur densely over a contiguous range of hours) over background
// chatter. Mirrors how [1] (Angel et al.) models real-time stories.
mlcore::PlantedGraph BuildSnapshotWindow(int32_t entities, int32_t hours,
                                         uint64_t seed) {
  mlcore::PlantedGraphConfig config;
  config.num_vertices = entities;
  config.num_layers = hours;
  config.num_communities = 8;
  config.community_size_min = 8;
  config.community_size_max = 20;
  config.all_layers_fraction = 0.1;  // an "evergreen" topic or two
  config.community_layers_min = 3;   // stories persist a few hours
  config.internal_prob_min = 0.6;
  config.internal_prob_max = 0.9;
  config.background_avg_degree = 1.7;
  config.seed = seed;
  return mlcore::GeneratePlanted(config);
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  if (!flags.CheckKnown({"d", "entities", "hours", "k", "s"})) return 1;
  const auto hours = static_cast<int32_t>(flags.GetInt("hours", 12));
  mlcore::PlantedGraph window = BuildSnapshotWindow(
      static_cast<int32_t>(flags.GetInt("entities", 2000)), hours,
      /*seed=*/20180416);

  mlcore::DccsParams params;
  params.d = static_cast<int>(flags.GetInt("d", 4));
  params.s = static_cast<int>(flags.GetInt("s", 3));
  params.k = static_cast<int>(flags.GetInt("k", 5));

  std::printf("snapshot window: %d entities x %d hourly snapshots, "
              "%lld co-occurrence edges\n",
              window.graph.NumVertices(), window.graph.NumLayers(),
              static_cast<long long>(window.graph.TotalEdges()));

  // One engine per snapshot window: a streaming deployment re-queries the
  // window as posts arrive, amortising preprocessing until the window rolls.
  mlcore::Engine engine(&window.graph);
  mlcore::DccsRequest request{params, mlcore::DccsAlgorithm::kAuto};
  mlcore::DccsResult result = std::move(*engine.Run(request));

  std::printf("top-%d stories (%s, %.1f ms):\n", params.k,
              mlcore::AlgorithmName(engine.ResolvedAlgorithm(request)).c_str(),
              result.stats.total_seconds * 1e3);
  for (size_t i = 0; i < result.cores.size(); ++i) {
    const auto& story = result.cores[i];
    std::string when;
    for (size_t h = 0; h < story.layers.size(); ++h) {
      when += (h ? "," : "") + std::to_string(story.layers[h]) + "h";
    }
    std::printf("  story %zu: %zu entities, trending at [%s]\n", i + 1,
                story.vertices.size(), when.c_str());
  }
  std::printf("coverage: %lld distinct entities across the %zu stories\n",
              static_cast<long long>(result.CoverSize()),
              result.cores.size());

  // Sanity: how many planted stories were recovered (≥80%% of members),
  // and how sharp is the best-match recovery overall?
  int recovered = 0;
  mlcore::VertexSet cover = result.Cover();
  std::vector<mlcore::VertexSet> truth, found;
  for (const auto& community : window.communities) {
    if (static_cast<int>(community.layers.size()) < params.s) continue;
    truth.push_back(community.vertices);
    auto hit = mlcore::IntersectSorted(cover, community.vertices);
    if (hit.size() * 10 >= community.vertices.size() * 8) ++recovered;
  }
  for (const auto& story : result.cores) found.push_back(story.vertices);
  std::printf("%d planted stories recovered; best-match recovery F1 = "
              "%.3f\n",
              recovered, mlcore::CommunityRecoveryScore(truth, found));
  return 0;
}
