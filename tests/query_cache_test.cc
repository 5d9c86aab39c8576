// Tests for the two building blocks of the Engine's query cache
// (service/query_cache.h): the BuildOnce cell — one builder at a time,
// publish whole or nothing, hit/miss reported to the caller — and the
// LruTable. The Engine-level counters are pinned by
// EngineTest.CacheCountersPerStage and the cancellation suites; the CI
// sanitizer jobs run this file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "service/query_cache.h"

namespace mlcore {
namespace {

TEST(BuildOnceTest, FirstGetBuildsLaterGetsHit) {
  BuildOnce<int> cell;
  EXPECT_EQ(cell.Peek(), nullptr);
  int builds = 0;
  auto build = [&]() -> std::optional<int> {
    ++builds;
    return 42;
  };
  bool built = false;
  const int* first = cell.Get(build, &built);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 42);
  EXPECT_TRUE(built);
  const int* second = cell.Get(build, &built);
  EXPECT_EQ(second, first);
  EXPECT_FALSE(built);
  EXPECT_EQ(cell.Peek(), first);
  EXPECT_EQ(builds, 1);
}

TEST(BuildOnceTest, AbandonedBuildPublishesNothing) {
  BuildOnce<int> cell;
  bool built = true;
  EXPECT_EQ(cell.Get([]() -> std::optional<int> { return std::nullopt; },
                     &built),
            nullptr);
  EXPECT_FALSE(built);
  EXPECT_EQ(cell.Peek(), nullptr);
  // The next caller builds again.
  const int* value = cell.Get([] { return std::optional<int>(7); }, &built);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
  EXPECT_TRUE(built);
}

TEST(BuildOnceTest, StoppedCallerNeverBuilds) {
  BuildOnce<int> cell;
  CancellationToken token;
  token.RequestCancel();
  const QueryControl control(token, std::nullopt);
  QueryStop stop = QueryStop::kNone;
  bool built = true;
  bool ran = false;
  const int* value = cell.Get(
      [&] {
        ran = true;
        return std::optional<int>(1);
      },
      &built, &control, &stop);
  EXPECT_EQ(value, nullptr);
  EXPECT_EQ(stop, QueryStop::kCancelled);
  EXPECT_FALSE(built);
  EXPECT_FALSE(ran);
  EXPECT_EQ(cell.Peek(), nullptr);
}

TEST(BuildOnceTest, ConcurrentCallersShareOneBuild) {
  BuildOnce<std::vector<int>> cell;
  std::atomic<int> builds{0};
  std::atomic<int> misses{0};
  constexpr int kThreads = 8;
  std::vector<const std::vector<int>*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool built = false;
      seen[static_cast<size_t>(t)] = cell.Get(
          [&] {
            builds.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::optional<std::vector<int>>(std::vector<int>{1, 2, 3});
          },
          &built);
      if (built) misses.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(misses.load(), 1);
  for (const std::vector<int>* value : seen) {
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(value, seen[0]);
  }
  EXPECT_EQ(*seen[0], (std::vector<int>{1, 2, 3}));
}

TEST(BuildOnceTest, ControlledWaiterLeavesWhileBuilderContinues) {
  BuildOnce<int> cell;
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  std::thread builder([&] {
    bool built = false;
    const int* value = cell.Get(
        [&] {
          building.store(true);
          while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return std::optional<int>(5);
        },
        &built);
    EXPECT_NE(value, nullptr);
    EXPECT_TRUE(built);
  });
  while (!building.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A waiter whose query is cancelled mid-wait leaves without the value
  // and without waiting for the builder.
  CancellationToken token;
  const QueryControl control(token, std::nullopt);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.RequestCancel();
  });
  QueryStop stop = QueryStop::kNone;
  bool built = true;
  const int* value = cell.Get(
      [] {
        ADD_FAILURE() << "a waiter must not build";
        return std::optional<int>(0);
      },
      &built, &control, &stop);
  canceller.join();
  EXPECT_EQ(value, nullptr);
  EXPECT_EQ(stop, QueryStop::kCancelled);
  EXPECT_FALSE(built);

  release.store(true);
  builder.join();
  ASSERT_NE(cell.Peek(), nullptr);
  EXPECT_EQ(*cell.Peek(), 5);
}

TEST(LruTableTest, EvictsLeastRecentlyUsed) {
  LruTable<int, int> table(2);
  std::shared_ptr<int> one = table.Acquire(1);
  *one = 1;
  *table.Acquire(2) = 2;
  EXPECT_EQ(table.Acquire(1), one);  // 1 is now more recent than 2
  *table.Acquire(3) = 3;             // evicts 2
  EXPECT_EQ(table.Acquire(1), one);
  EXPECT_EQ(*table.Acquire(2), 0);  // a fresh entry; evicts 3
  EXPECT_EQ(*table.Acquire(1), 1);
  EXPECT_EQ(*table.Acquire(3), 0);  // a fresh entry; evicts 2
}

TEST(LruTableTest, EvictedEntryStaysAliveForItsHolder) {
  LruTable<int, int> table(1);
  std::shared_ptr<int> held = table.Acquire(1);
  *held = 9;
  table.Acquire(2);
  EXPECT_EQ(*held, 9);
  EXPECT_NE(table.Acquire(1), held);
  table.Clear();
  EXPECT_EQ(*held, 9);
}

TEST(LruTableTest, BelowIsTheRelatedPredecessor) {
  using Key = std::pair<int, int>;
  LruTable<Key, int> table(8);
  auto same_first = [](const Key& a, const Key& b) {
    return a.first == b.first;
  };
  std::shared_ptr<int> below;
  std::shared_ptr<int> old = table.Acquire({3, 1}, &below, same_first);
  EXPECT_EQ(below, nullptr);
  std::shared_ptr<int> newer = table.Acquire({3, 5}, &below, same_first);
  EXPECT_EQ(below, old);
  table.Acquire({4, 2});
  // (3, 5) sits directly below (3, 7), and (3, 7) directly below (4, 1),
  // whose first component differs.
  table.Acquire({3, 7}, &below, same_first);
  EXPECT_EQ(below, newer);
  table.Acquire({4, 1}, &below, same_first);
  EXPECT_EQ(below, nullptr);
}

}  // namespace
}  // namespace mlcore
