#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "test_temp.h"
#include "util/thread_pool.h"

// Observability primitives (DESIGN.md §12). Every suite here is named
// Obs* so the CI sanitizer jobs can select the whole family with one
// gtest filter. Assertions that depend on latency instrumentation
// (Histogram::Record, span recording) are gated on obs::kEnabled so the
// MLCORE_OBS_DISABLED build still passes; counter/gauge semantics are
// asserted unconditionally because they back correctness surfaces
// (cache_stats / scheduler_stats) in every build.

namespace mlcore {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricKind;
using obs::MetricSnapshot;
using obs::Registry;
using obs::SlowQueryLog;
using obs::Span;
using obs::SpanRecord;
using obs::Trace;
using obs::TraceSummary;

TEST(ObsCounterTest, AddValueReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(ObsGaugeTest, SetAddReset) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
  g.Set(100);
  EXPECT_EQ(g.value(), 100);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogramTest, EmptySnapshot) {
  Histogram h({1.0, 2.0, 4.0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  ASSERT_EQ(s.counts.size(), 4u);  // 3 finite + overflow
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 0.0);
}

TEST(ObsHistogramTest, SingleSample) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  Histogram h({1.0, 2.0, 4.0});
  h.Record(1.5);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.sum, 1.5);
  EXPECT_EQ(s.counts[1], 1);  // (1, 2] bucket
  // Every quantile of a single sample interpolates inside its bucket:
  // rank 1 of 1 → lower + (upper - lower) * 1/1 = the upper edge.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 2.0);
}

TEST(ObsHistogramTest, ExactBoundaryIsInclusive) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  Histogram h({1.0, 2.0});
  h.Record(1.0);  // bounds are inclusive upper edges → first bucket
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 1);
  EXPECT_EQ(s.counts[1], 0);
}

TEST(ObsHistogramTest, OverflowClampsQuantile) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  Histogram h({1.0, 2.0});
  h.Record(5.0);  // past the last bound → overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[2], 1);
  // The histogram cannot see past its last finite bound.
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 2.0);
  EXPECT_DOUBLE_EQ(s.sum, 5.0);  // sum stays exact
}

TEST(ObsHistogramTest, KnownDistributionQuantiles) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  // 1..100 with bounds 10, 20, ..., 100: each bucket holds exactly 10
  // samples, and linear interpolation lands quantiles on the integers.
  std::vector<double> bounds;
  for (int b = 10; b <= 100; b += 10) bounds.push_back(b);
  Histogram h(bounds);
  for (int v = 1; v <= 100; ++v) h.Record(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.90), 90.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 99.0);
}

TEST(ObsRegistryTest, GetOrCreateIsIdempotent) {
  Registry reg;
  Counter* a = reg.GetCounter("test.count");
  Counter* b = reg.GetCounter("test.count");
  EXPECT_EQ(a, b);
  Gauge* g1 = reg.GetGauge("test.gauge");
  Gauge* g2 = reg.GetGauge("test.gauge");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.GetHistogram("test.hist_ms", {1.0, 2.0});
  // The first caller fixes the boundaries; later bounds are ignored.
  Histogram* h2 = reg.GetHistogram("test.hist_ms", {99.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h2->bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(h2->bounds()[0], 1.0);
}

TEST(ObsRegistryTest, SnapshotSortedByName) {
  Registry reg;
  reg.GetCounter("zz.last")->Add(3);
  reg.GetGauge("aa.first")->Set(1);
  reg.GetCounter("mm.middle")->Add(2);
  const std::vector<MetricSnapshot> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa.first");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, 1);
  EXPECT_EQ(snap[1].name, "mm.middle");
  EXPECT_EQ(snap[2].name, "zz.last");
  EXPECT_EQ(snap[2].value, 3);
}

TEST(ObsRegistryTest, ResetPrefixIsSelective) {
  Registry reg;
  Counter* engine = reg.GetCounter("engine.sched.executed");
  Counter* store = reg.GetCounter("store.epochs");
  engine->Add(5);
  store->Add(7);
  reg.Reset("engine.");
  EXPECT_EQ(engine->value(), 0);
  EXPECT_EQ(store->value(), 7);
  reg.Reset();  // "" resets everything
  EXPECT_EQ(store->value(), 0);
  // Cached pointers stay valid across Reset.
  engine->Add(1);
  EXPECT_EQ(engine->value(), 1);
}

TEST(ObsTraceTest, ParentChildNesting) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  Trace trace;
  obs::SpanId root_id = 0;
  {
    Span root(&trace, "query.run");
    root_id = root.id();
    EXPECT_NE(root_id, 0u);
    {
      Span child(&trace, "query.search", root.id());
      Span grandchild(&trace, "search.lane", child.id());
    }
  }
  const std::vector<SpanRecord> records = trace.records();
  ASSERT_EQ(records.size(), 3u);
  // Committed innermost-first (destruction order), sorted by start.
  const SpanRecord* root = nullptr;
  const SpanRecord* child = nullptr;
  const SpanRecord* lane = nullptr;
  for (const SpanRecord& r : records) {
    if (std::string(r.name) == "query.run") root = &r;
    if (std::string(r.name) == "query.search") child = &r;
    if (std::string(r.name) == "search.lane") lane = &r;
  }
  ASSERT_NE(root, nullptr);
  ASSERT_NE(child, nullptr);
  ASSERT_NE(lane, nullptr);
  EXPECT_EQ(root->id, root_id);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_EQ(child->parent, root->id);
  EXPECT_EQ(lane->parent, child->id);
  EXPECT_GE(root->wall_ms, child->wall_ms);
  EXPECT_EQ(trace.dropped(), 0);
}

// Trace::Add / Commit are unconditional primitives (Span gating happens at
// the call site), so these two tests run in the MLCORE_OBS_DISABLED build
// too.
TEST(ObsTraceTest, ManualAdd) {
  Trace trace;
  const obs::SpanId id =
      trace.Add("query.admission_wait", /*parent=*/0, /*start_ms=*/0.0,
                /*wall_ms=*/12.5);
  EXPECT_NE(id, 0u);
  const std::vector<SpanRecord> records = trace.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].name, "query.admission_wait");
  EXPECT_DOUBLE_EQ(records[0].wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(records[0].cpu_ms, -1.0);
}

TEST(ObsTraceTest, OverflowDropsAndCounts) {
  Trace trace(/*capacity=*/2);
  trace.Add("a", 0, 0.0, 1.0);
  trace.Add("b", 0, 0.0, 1.0);
  trace.Add("c", 0, 0.0, 1.0);  // no slot left
  EXPECT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.dropped(), 1);
}

// Spans committed from ThreadPool workers parent correctly under their
// driver's root span — the shape speculative lattice evaluations produce.
TEST(ObsTraceTest, NestingAcrossPoolWorkers) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "MLCORE_OBS_DISABLED";
  constexpr int kLanes = 4;
  constexpr int kTasks = 8;
  Trace trace;
  std::atomic<int> done{0};
  {
    Span root(&trace, "query.search");
    const obs::SpanId root_id = root.id();
    ThreadPool pool(kLanes);
    pool.ParallelFor(kTasks, [&trace, &done, root_id](int /*worker*/,
                                                      int64_t /*item*/) {
      Span lane(&trace, "search.lane", root_id);
      done.fetch_add(1, std::memory_order_relaxed);
    });
    // ParallelFor returns after every item finished, so every lane span
    // has committed before the trace is read below.
    EXPECT_EQ(done.load(std::memory_order_relaxed), kTasks);
  }
  const std::vector<SpanRecord> records = trace.records();
  ASSERT_EQ(records.size(), 1u + kTasks);
  int lanes = 0;
  for (const SpanRecord& r : records) {
    if (std::string(r.name) != "search.lane") continue;
    ++lanes;
    const SpanRecord* parent = nullptr;
    for (const SpanRecord& p : records) {
      if (p.id == r.parent) parent = &p;
    }
    ASSERT_NE(parent, nullptr);
    EXPECT_STREQ(parent->name, "query.search");
  }
  EXPECT_EQ(lanes, kTasks);
  EXPECT_EQ(trace.dropped(), 0);
}

// The TSan target: concurrent Record/Add/Commit from many threads must be
// race-free, and totals must be exact once the writers join.
TEST(ObsConcurrentRecordTest, TotalsAddUpAfterQuiescence) {
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  Registry reg;
  Counter* counter = reg.GetCounter("test.concurrent.count");
  Histogram* hist =
      reg.GetHistogram("test.concurrent.ms", Histogram::LatencyBoundsMs());
  Trace trace(/*capacity=*/64);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, hist, &trace, t] {
      for (int i = 0; i < kIters; ++i) {
        counter->Add(1);
        hist->Record(0.1 * ((t + i) % 7));
        trace.Add("search.lane", /*parent=*/1, /*start_ms=*/0.0,
                  /*wall_ms=*/0.01);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter->value(), kThreads * kIters);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(hist->snapshot().count, kThreads * kIters);
  }
  const int64_t committed = static_cast<int64_t>(trace.records().size());
  EXPECT_EQ(committed + trace.dropped(), kThreads * kIters);
  EXPECT_EQ(committed, 64);  // capacity-bounded, rest dropped
}

TEST(ObsSlowLogTest, KeepsSlowestSortedAndClears) {
  SlowQueryLog log(/*capacity=*/2);
  auto offer = [&log](double total_ms) {
    TraceSummary s;
    s.label = "q" + std::to_string(total_ms);
    s.total_ms = total_ms;
    log.Offer(std::move(s));
  };
  offer(5.0);
  offer(1.0);
  offer(9.0);
  offer(0.5);
  offer(7.0);
  const std::vector<TraceSummary> snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].total_ms, 9.0);
  EXPECT_DOUBLE_EQ(snap[1].total_ms, 7.0);
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(ObsExportTest, JsonShape) {
  Registry reg;
  reg.GetCounter("engine.sched.executed")->Add(3);
  reg.GetGauge("store.epoch")->Set(11);
  Histogram* hist =
      reg.GetHistogram("engine.query.total_ms", {1.0, 10.0});
  hist->Record(0.5);
  std::vector<TraceSummary> slow;
  TraceSummary summary;
  summary.label = "bu d=3 s=2 k=5";
  summary.epoch = 11;
  summary.total_ms = 4.25;
  SpanRecord span;
  span.name = "query.run";
  span.id = 1;
  span.wall_ms = 4.25;
  summary.spans.push_back(span);
  slow.push_back(summary);
  const std::string json = obs::ToJson(reg.Snapshot(), slow);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"engine.sched.executed\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"counter\", \"value\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"store.epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"gauge\", \"value\": 11"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"bu d=3 s=2 k=5\""), std::string::npos);
  EXPECT_NE(json.find("\"query.run\""), std::string::npos);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  }
}

TEST(ObsExportTest, PrometheusShape) {
  Registry reg;
  reg.GetCounter("engine.sched.executed")->Add(3);
  Histogram* hist = reg.GetHistogram("engine.query.total_ms", {1.0, 10.0});
  hist->Record(0.5);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE mlcore_engine_sched_executed counter"),
            std::string::npos);
  EXPECT_NE(text.find("mlcore_engine_sched_executed 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mlcore_engine_query_total_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mlcore_engine_query_total_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mlcore_engine_query_total_ms_count"),
            std::string::npos);
}

TEST(ObsExportTest, WriteFileRoundTrip) {
  const std::string path = TestTempPath("obs_export_test.json");
  ASSERT_TRUE(obs::WriteFile(path, "{\"version\": 1}\n"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "{\"version\": 1}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlcore
