#include <gtest/gtest.h>

#include "dccs/dccs.h"
#include "graph/generators.h"
#include "util/thread_pool.h"

namespace mlcore {
namespace {

MultiLayerGraph ParallelGraph(uint64_t seed) {
  PlantedGraphConfig config;
  config.num_vertices = 400;
  config.num_layers = 8;
  config.num_communities = 10;
  config.community_size_min = 12;
  config.community_size_max = 28;
  config.seed = seed;
  return GeneratePlanted(config).graph;
}

class ParallelGreedyTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelGreedyTest, IdenticalToSequential) {
  MultiLayerGraph graph = ParallelGraph(33);
  for (int s : {2, 3, 5}) {
    DccsParams params;
    params.d = 3;
    params.s = s;
    params.k = 6;
    DccsResult sequential = GreedyDccs(graph, params);
    ThreadPool pool(GetParam());
    DccsResult parallel =
        GreedyDccs(graph, params, DccsExecution{.pool = &pool});
    ASSERT_EQ(parallel.cores.size(), sequential.cores.size()) << "s=" << s;
    for (size_t i = 0; i < parallel.cores.size(); ++i) {
      EXPECT_EQ(parallel.cores[i].layers, sequential.cores[i].layers);
      EXPECT_EQ(parallel.cores[i].vertices, sequential.cores[i].vertices);
    }
    EXPECT_EQ(parallel.stats.candidates_generated,
              sequential.stats.candidates_generated);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelGreedyTest,
                         ::testing::Values(2, 3, 4, 8));

TEST(ParallelGreedyTest, MoreThreadsThanSubsets) {
  // l = 3, s = 3 → a single subset; 8 workers must degrade gracefully.
  MultiLayerGraph graph = GenerateErdosRenyi(60, 3, 0.12, 9);
  DccsParams params;
  params.d = 2;
  params.s = 3;
  params.k = 2;
  DccsResult sequential = GreedyDccs(graph, params);
  ThreadPool pool(8);
  DccsResult parallel = GreedyDccs(graph, params, DccsExecution{.pool = &pool});
  EXPECT_EQ(parallel.CoverSize(), sequential.CoverSize());
}

}  // namespace
}  // namespace mlcore
