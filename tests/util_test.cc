#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/bitset.h"
#include "util/cancellation.h"
#include "util/flags.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timing.h"

namespace mlcore {
namespace {

TEST(BitsetTest, SetTestClear) {
  Bitset bits(130);
  EXPECT_EQ(bits.Count(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.Count(), 3u);
  bits.Clear(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.Count(), 2u);
}

TEST(BitsetTest, ToVectorSorted) {
  Bitset bits(200);
  bits.Set(150);
  bits.Set(3);
  bits.Set(63);
  bits.Set(64);
  EXPECT_EQ(bits.ToVector(), (std::vector<int>{3, 63, 64, 150}));
}

TEST(BitsetTest, SetAllRespectsSize) {
  Bitset bits(70);
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70u);
  EXPECT_TRUE(bits.Test(69));
}

TEST(BitsetTest, IntersectAndUnion) {
  Bitset a(100), b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  b.Set(99);
  b.Set(2);
  Bitset inter = a;
  inter.IntersectWith(b);
  EXPECT_EQ(inter.ToVector(), (std::vector<int>{50, 99}));
  Bitset uni = a;
  uni.UnionWith(b);
  EXPECT_EQ(uni.ToVector(), (std::vector<int>{1, 2, 50, 99}));
}

TEST(BitsetTest, ResetClearsEverything) {
  Bitset bits(80);
  bits.SetAll();
  bits.Reset();
  EXPECT_EQ(bits.Count(), 0u);
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SkewedIndexInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.SkewedIndex(100, 0.4);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--k=10", "--gamma=0.8", "--name=stack",
                        "--quick"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 0), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("gamma", 0.0), 0.8);
  EXPECT_EQ(flags.GetString("name", ""), "stack");
  EXPECT_TRUE(flags.GetBool("quick", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_TRUE(flags.Has("k"));
  EXPECT_FALSE(flags.Has("j"));
}

TEST(FlagsTest, UnknownListsNamesOutsideTheAcceptedSet) {
  const char* argv[] = {"prog", "--k=10", "--algo=bu", "positional",
                        "--quick", "--engnie=bins"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.Unknown({"k", "quick", "algorithm"}),
            (std::vector<std::string>{"algo", "engnie"}));
  EXPECT_TRUE(flags.Unknown({"k", "quick", "algo", "engnie"}).empty());
  EXPECT_EQ(flags.Unknown({}).size(), 4u);
}

TEST(FlagsTest, CheckKnownPassesOnlyWhenEveryNameIsAccepted) {
  const char* argv[] = {"prog", "--quick", "--threads=4"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_FALSE(flags.CheckKnown({"quick", "scale"}));
  EXPECT_TRUE(flags.CheckKnown({"quick", "threads"}));
}

TEST(TableTest, CsvRoundTrip) {
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  table.AddRow({"x", "y"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\nx,y\n");
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Int(42), "42");
}

TEST(TimingTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(0.25), "250ms");
  EXPECT_EQ(FormatSeconds(4.2), "4.20s");
  EXPECT_EQ(FormatSeconds(151.0), "2m31s");
}

TEST(TimingTest, FormatSecondsSubMillisecondTier) {
  // Sub-ms durations (preprocess-cache hits) used to round to "0ms".
  EXPECT_EQ(FormatSeconds(0.000031), "31us");
  EXPECT_EQ(FormatSeconds(0.00099), "990us");
  EXPECT_EQ(FormatSeconds(0.0), "0us");
  EXPECT_EQ(FormatSeconds(0.001), "1ms");
}

TEST(TimingTest, ThreadCpuTimerMeasuresWork) {
  if (!ThreadCpuTimer::Supported()) {
    GTEST_SKIP() << "no CLOCK_THREAD_CPUTIME_ID on this platform";
  }
  ThreadCpuTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i;
  const double cpu = timer.Seconds();
  EXPECT_GE(cpu, 0.0);
  EXPECT_GE(timer.Millis(), 0.0);
  // A sleeping thread accrues (almost) no CPU time; just confirm Restart
  // rebases the clock instead of asserting on scheduler behaviour.
  timer.Restart();
  EXPECT_LT(timer.Seconds(), cpu + 1.0);
}

TEST(TimingTest, TimerAdvances) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.Seconds(), 0.0);
}

TEST(CancellationTest, TokenSharesStateAcrossCopies) {
  CancellationToken token;
  CancellationToken copy = token;
  EXPECT_FALSE(copy.cancel_requested());
  token.RequestCancel();
  EXPECT_TRUE(copy.cancel_requested());
  copy.RequestCancel();  // idempotent
  EXPECT_TRUE(token.cancel_requested());
}

TEST(CancellationTest, InactiveControlNeverStops) {
  QueryControl control;
  EXPECT_FALSE(control.active());
  EXPECT_EQ(control.Check(), QueryStop::kNone);
}

TEST(CancellationTest, ControlReportsCancelAndDeadline) {
  CancellationToken token;
  QueryControl no_deadline = QueryControl::WithDeadline(token, 0.0);
  EXPECT_TRUE(no_deadline.active());
  EXPECT_FALSE(no_deadline.has_deadline());
  EXPECT_EQ(no_deadline.Check(), QueryStop::kNone);

  CancellationToken expired_token;
  QueryControl expired = QueryControl::WithDeadline(expired_token, 1e-9);
  while (expired.Check() == QueryStop::kNone) {
  }
  EXPECT_EQ(expired.Check(), QueryStop::kDeadline);

  // Cancellation wins the tie against an expired deadline.
  expired_token.RequestCancel();
  EXPECT_EQ(expired.Check(), QueryStop::kCancelled);

  token.RequestCancel();
  EXPECT_EQ(no_deadline.Check(), QueryStop::kCancelled);
}

namespace {
std::shared_ptr<int> Payload(int value) {
  return std::make_shared<int>(value);
}
int PayloadValue(const PriorityTaskQueue::Entry& entry) {
  return *std::static_pointer_cast<int>(entry.payload);
}
}  // namespace

TEST(PriorityTaskQueueTest, PopsByPriorityThenFifo) {
  PriorityTaskQueue queue(8);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  ASSERT_EQ(queue.TryPush(1, Payload(10), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(3, Payload(30), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(3, Payload(31), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(2, Payload(20), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);

  PriorityTaskQueue::Entry entry;
  std::vector<int> order;
  while (queue.TryPop(&entry)) order.push_back(PayloadValue(entry));
  EXPECT_EQ(order, (std::vector<int>{30, 31, 20, 10}));
}

TEST(PriorityTaskQueueTest, FullQueueRejectsEqualAndDisplacesLower) {
  PriorityTaskQueue queue(2);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  ASSERT_EQ(queue.TryPush(1, Payload(11), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(2, Payload(22), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);

  // Equal priority to the lowest queued: shed the newcomer.
  EXPECT_EQ(queue.TryPush(1, Payload(12), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kRejected);
  EXPECT_EQ(queue.size(), 2u);

  // Strictly higher: displace the (youngest) lowest-priority entry.
  EXPECT_EQ(queue.TryPush(3, Payload(33), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAcceptedDisplacing);
  EXPECT_EQ(PayloadValue(displaced), 11);
  EXPECT_EQ(queue.size(), 2u);

  PriorityTaskQueue::Entry entry;
  std::vector<int> order;
  while (queue.TryPop(&entry)) order.push_back(PayloadValue(entry));
  EXPECT_EQ(order, (std::vector<int>{33, 22}));
}

TEST(PriorityTaskQueueTest, TryRemoveClaimsExactlyOnce) {
  PriorityTaskQueue queue(4);
  uint64_t id_a = 0, id_b = 0;
  PriorityTaskQueue::Entry displaced;
  ASSERT_EQ(queue.TryPush(0, Payload(1), &id_a, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(0, Payload(2), &id_b, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);

  PriorityTaskQueue::Entry entry;
  EXPECT_TRUE(queue.TryRemove(id_a, &entry));
  EXPECT_EQ(PayloadValue(entry), 1);
  EXPECT_FALSE(queue.TryRemove(id_a, &entry));  // already claimed

  EXPECT_TRUE(queue.TryPop(&entry));
  EXPECT_EQ(PayloadValue(entry), 2);
  EXPECT_FALSE(queue.TryRemove(id_b, &entry));  // popped first
}

TEST(PriorityTaskQueueTest, ShutdownWakesAndDrains) {
  PriorityTaskQueue queue(4);
  uint64_t id = 0;
  PriorityTaskQueue::Entry displaced;
  ASSERT_EQ(queue.TryPush(5, Payload(50), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  ASSERT_EQ(queue.TryPush(7, Payload(70), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kAccepted);
  queue.Shutdown();
  EXPECT_TRUE(queue.shut_down());
  // Post-shutdown pushes are refused.
  EXPECT_EQ(queue.TryPush(9, Payload(90), &id, &displaced),
            PriorityTaskQueue::PushOutcome::kRejected);

  std::vector<PriorityTaskQueue::Entry> drained = queue.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(PayloadValue(drained[0]), 70);  // highest priority first
  EXPECT_EQ(PayloadValue(drained[1]), 50);

  PriorityTaskQueue::Entry entry;
  EXPECT_FALSE(queue.WaitPop(&entry));  // shut down and empty: no block
}

// ---------------------------------------------------------------------------
// util::Mutex wrappers (DESIGN.md §11)
// ---------------------------------------------------------------------------

TEST(MutexTest, MutualExclusionCounter) {
  util::Mutex mu;
  int counter = 0;  // guarded by mu (GUARDED_BY only applies to members)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  util::MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, CondVarWaitAndNotify) {
  util::Mutex mu;
  util::CondVar cv;
  bool ready = false;  // guarded by mu
  std::thread producer([&] {
    util::MutexLock lock(mu);
    ready = true;
    cv.NotifyAll();
  });
  {
    util::MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(MutexTest, CondVarWaitForTimesOut) {
  util::Mutex mu;
  util::CondVar cv;
  util::MutexLock lock(mu);
  // Nobody ever notifies: the deadline must fire and the lock must be
  // held again on return (the dtor unlocking below would abort the debug
  // acquisition stack otherwise).
  EXPECT_EQ(cv.WaitFor(mu, std::chrono::milliseconds(5)),
            std::cv_status::timeout);
}

TEST(MutexTest, MutexLockRelock) {
  util::Mutex mu;
  util::MutexLock lock(mu);
  lock.Unlock();
  // While released, another thread can take the mutex.
  std::atomic<bool> got{false};
  std::thread other([&] {
    util::MutexLock inner(mu);
    got = true;
  });
  other.join();
  EXPECT_TRUE(got.load());
  lock.Lock();  // dtor releases
}

TEST(MutexTest, RankedInOrderAcquisitionIsClean) {
  // Strictly increasing ranks: always legal, in every build mode.
  util::Mutex outer(util::lock_rank::kStoreWriter, "test_outer");
  util::Mutex inner(util::lock_rank::kEngineCache, "test_inner");
  util::MutexLock lock_outer(outer);
  util::MutexLock lock_inner(inner);
  SUCCEED();
}

// The debug lock-hierarchy checker must catch an A->B / B->A inversion
// deterministically — on the first out-of-rank acquisition, not only on
// the racy interleaving that deadlocks.
using LockHierarchyDeathTest = ::testing::Test;

TEST(LockHierarchyDeathTest, RankInversionAborts) {
  if (!util::Mutex::kRankCheckingEnabled) {
    GTEST_SKIP() << "lock-hierarchy checker compiled out (NDEBUG without "
                    "MLCORE_LOCK_DEBUG)";
  }
  EXPECT_DEATH(
      {
        util::Mutex a(util::lock_rank::kStoreWriter, "death_a");
        util::Mutex b(util::lock_rank::kEngineCache, "death_b");
        util::MutexLock lock_b(b);
        util::MutexLock lock_a(a);  // rank 150 after rank 450: inversion
      },
      "lock hierarchy violation");
}

TEST(LockHierarchyDeathTest, RecursiveAcquisitionAborts) {
  if (!util::Mutex::kRankCheckingEnabled) {
    GTEST_SKIP() << "lock-hierarchy checker compiled out (NDEBUG without "
                    "MLCORE_LOCK_DEBUG)";
  }
  EXPECT_DEATH(
      {
        util::Mutex mu;  // even unranked mutexes detect self-deadlock
        util::MutexLock first(mu);
        mu.Lock();
      },
      "recursive acquisition");
}

TEST(LockHierarchyDeathTest, EqualRankAborts) {
  if (!util::Mutex::kRankCheckingEnabled) {
    GTEST_SKIP() << "lock-hierarchy checker compiled out (NDEBUG without "
                    "MLCORE_LOCK_DEBUG)";
  }
  // The order must be *strictly* increasing — two locks at the same level
  // can deadlock against each other, so blocking on an equal rank aborts.
  EXPECT_DEATH(
      {
        util::Mutex a(util::lock_rank::kSubscription, "death_eq_a");
        util::Mutex b(util::lock_rank::kSubscription, "death_eq_b");
        util::MutexLock lock_a(a);
        util::MutexLock lock_b(b);
      },
      "lock hierarchy violation");
}

}  // namespace
}  // namespace mlcore
