// Async service benchmark (not a paper figure): the cost and the payoff of
// the Engine v2 submission layer (DESIGN.md §7).
//
// Part 1 — checkpoint overhead. The cooperative stop checkpoints
// (subset-lattice nodes, greedy candidate boundaries, preprocess rounds)
// run on every query, cancelled or not. This measures the same search with
// exec.control = nullptr vs an armed (never-firing) control; the target is
// <= 2% on an uncancelled query.
//
// Part 2 — open-loop load. A submitter thread issues requests on a fixed
// arrival clock (open loop: arrivals don't wait for completions) against a
// worker-drained engine, once with a bounded pending queue (admission
// control sheds overload with kResourceExhausted) and once with an
// effectively unbounded queue. Reports p50/p99 latency of served queries,
// throughput, and shed counts: with admission, tail latency stays near the
// queue bound x service time; without, it grows with the whole backlog.
//
//   ./bench_async_load [--quick] [--scale=F] [--rounds=N] [--json=path]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "dccs/execution.h"
#include "graph/generators.h"
#include "service/engine.h"

namespace {

// The figure-dataset stand-ins finish their searches in ~1 ms, far too
// fast to resolve a 2% effect; the overhead A/B instead runs on a planted
// graph big enough for multi-ms searches (same generator the cancellation
// tests use, scaled up).
mlcore::MultiLayerGraph OverheadGraph() {
  mlcore::PlantedGraphConfig config;
  config.num_vertices = 6000;
  config.num_layers = 10;
  config.num_communities = 60;
  config.community_size_min = 14;
  config.community_size_max = 40;
  config.seed = 4242;
  return mlcore::GeneratePlanted(config).graph;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct OverheadRow {
  std::string label;
  double plain_s = 0.0;      // mean search seconds, control = nullptr
  double controlled_s = 0.0; // mean search seconds, armed control
  double overhead_pct = 0.0;
};

// Mean search_seconds over `rounds` runs of one algorithm with shared
// (precomputed) preprocessing, with and without an armed QueryControl.
OverheadRow MeasureOverhead(const mlcore::MultiLayerGraph& graph,
                            const mlcore::DccsParams& params,
                            mlcore::DccsAlgorithm algorithm,
                            const std::string& label, int rounds) {
  mlcore::PreprocessResult preprocess = mlcore::Preprocess(
      graph, params.d, params.s, params.vertex_deletion);
  mlcore::DccSolver solver(graph);
  mlcore::CancellationToken token;  // never cancelled
  // Armed cancellation-only control — what every Engine::Submit attaches:
  // each checkpoint pays one acquire load of the shared flag. (A deadline
  // additionally costs a steady_clock read per checkpoint, only when the
  // caller asked for one.)
  mlcore::QueryControl control =
      mlcore::QueryControl::WithDeadline(token, 0.0);

  OverheadRow row;
  row.label = label;
  auto run_once = [&](const mlcore::QueryControl* exec_control) {
    mlcore::DccsExecution exec;
    exec.preprocess = &preprocess;
    exec.solver = &solver;
    exec.control = exec_control;
    mlcore::DccsResult result;
    switch (algorithm) {
      case mlcore::DccsAlgorithm::kGreedy:
        result = GreedyDccs(graph, params, exec);
        break;
      case mlcore::DccsAlgorithm::kBottomUp:
        result = BottomUpDccs(graph, params, exec);
        break;
      default:
        result = TopDownDccs(graph, params, exec);
        break;
    }
    MLCORE_CHECK_MSG(!result.stats.budget_exhausted,
                     "armed control fired during the overhead benchmark");
    return result.stats.search_seconds;
  };
  // Interleaved A/B pairs + medians, so clock drift and one-off stalls hit
  // both arms alike instead of biasing the ratio.
  run_once(nullptr);
  run_once(&control);  // warmup
  std::vector<double> plain, controlled;
  for (int r = 0; r < rounds; ++r) {
    plain.push_back(run_once(nullptr));
    controlled.push_back(run_once(&control));
  }
  row.plain_s = Median(plain);
  row.controlled_s = Median(controlled);
  row.overhead_pct = 100.0 * (row.controlled_s - row.plain_s) /
                     std::max(row.plain_s, 1e-12);
  return row;
}

struct LoadRow {
  std::string label;
  int requests = 0;
  int served = 0;
  int shed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_qps = 0.0;  // served per wall second
};

// Open-loop run: `total` submissions, one every `interval_ms`, against
// `engine`. Latency = submit -> terminal, measured by a polling collector
// that runs *concurrently* with the submitter (collecting only after all
// submissions would charge every early completion the remainder of the
// submission window); discovery error is bounded by the 100 us poll.
LoadRow RunOpenLoopLoad(mlcore::Engine& engine,
                        const std::vector<mlcore::DccsRequest>& mix,
                        int total, double interval_ms,
                        const std::string& label) {
  using Clock = std::chrono::steady_clock;
  std::vector<mlcore::QueryHandle> handles(static_cast<size_t>(total));
  std::vector<Clock::time_point> submitted(static_cast<size_t>(total));
  std::vector<double> latency_ms(static_cast<size_t>(total), -1.0);
  std::vector<bool> resolved(static_cast<size_t>(total), false);
  std::atomic<int> submitted_count{0};

  mlcore::WallTimer wall;
  const Clock::time_point t0 = Clock::now();
  std::thread submitter([&] {
    for (int i = 0; i < total; ++i) {
      // Open loop: the i-th arrival happens at t0 + i*interval regardless
      // of how far behind service is.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(i * interval_ms)));
      const auto slot = static_cast<size_t>(i);
      submitted[slot] = Clock::now();
      handles[slot] = engine.Submit(mix[slot % mix.size()]);
      submitted_count.store(i + 1, std::memory_order_release);
    }
  });

  LoadRow row;
  row.label = label;
  row.requests = total;
  // Collect concurrently: poll every handle the submitter has published.
  int outstanding = total;
  while (outstanding > 0) {
    const int visible = submitted_count.load(std::memory_order_acquire);
    for (int i = 0; i < visible; ++i) {
      const auto slot = static_cast<size_t>(i);
      if (resolved[slot]) continue;
      const mlcore::Expected<mlcore::DccsResult>* terminal =
          handles[slot].TryGet();
      if (terminal == nullptr) continue;
      resolved[slot] = true;
      --outstanding;
      if (terminal->ok()) {
        latency_ms[slot] = std::chrono::duration<double, std::milli>(
                               Clock::now() - submitted[slot])
                               .count();
      } else {
        MLCORE_CHECK(terminal->status().code ==
                     mlcore::StatusCode::kResourceExhausted);
        ++row.shed;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  submitter.join();
  const double wall_s = wall.Seconds();

  std::vector<double> served;
  for (double ms : latency_ms) {
    if (ms >= 0) served.push_back(ms);
  }
  std::sort(served.begin(), served.end());
  row.served = static_cast<int>(served.size());
  if (!served.empty()) {
    row.p50_ms = served[served.size() / 2];
    row.p99_ms = served[std::min(served.size() - 1,
                                 (served.size() * 99) / 100)];
  }
  row.throughput_qps = row.served / std::max(wall_s, 1e-9);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(flags, {"rounds", "json"});
  const int rounds =
      static_cast<int>(flags.GetInt("rounds", context.quick ? 3 : 8));
  const std::string json_path = flags.GetString("json", "");

  mlcore::bench::PrintFigureHeader(
      "Engine v2 async load: checkpoint overhead + admission control",
      "uncancelled checkpoint overhead <= 2%; bounded queue keeps p99 flat "
      "and sheds overload, unbounded queue's p99 grows with the backlog");

  // --- Part 1: checkpoint overhead on uncancelled queries. ---
  const mlcore::Dataset& dataset = context.Load("ppi");
  std::vector<OverheadRow> overhead;
  {
    const mlcore::MultiLayerGraph overhead_graph = OverheadGraph();
    mlcore::DccsParams params;
    params.d = 2;
    params.k = 10;
    params.s = 7;
    overhead.push_back(MeasureOverhead(overhead_graph, params,
                                       mlcore::DccsAlgorithm::kBottomUp,
                                       "planted/BU d=2 s=7", rounds));
    params.s = 3;
    overhead.push_back(MeasureOverhead(overhead_graph, params,
                                       mlcore::DccsAlgorithm::kGreedy,
                                       "planted/GD d=2 s=3", rounds));
    params.s = 5;
    overhead.push_back(MeasureOverhead(overhead_graph, params,
                                       mlcore::DccsAlgorithm::kTopDown,
                                       "planted/TD d=2 s=5", rounds));
  }
  mlcore::Table overhead_table(
      {"case", "plain search (s)", "checkpointed (s)", "overhead %"});
  for (const OverheadRow& row : overhead) {
    overhead_table.AddRow({row.label, mlcore::Table::Num(row.plain_s),
                           mlcore::Table::Num(row.controlled_s),
                           mlcore::Table::Num(row.overhead_pct)});
  }
  overhead_table.Print();

  // --- Part 2: open-loop load, bounded vs unbounded admission. ---
  // Repeat-key queries so steady state serves from the preprocessing cache
  // (the online regime the engine is built for), arrivals ~2x faster than
  // service so the queue actually builds up.
  std::vector<mlcore::DccsRequest> mix;
  for (int k = 2; k <= 5; ++k) {
    mlcore::DccsRequest request;
    request.params.d = 4;
    request.params.s = 3;
    request.params.k = k;
    request.algorithm = mlcore::DccsAlgorithm::kBottomUp;
    mix.push_back(request);
  }
  const int total = context.quick ? 60 : 200;

  // Calibrate the mean warm service time to set an overloading arrival rate.
  double service_ms;
  {
    mlcore::Engine probe(&dataset.graph);
    probe.Run(mix[0]);  // warm the (d, s) cache
    mlcore::WallTimer timer;
    const int probes = 20;
    for (int i = 0; i < probes; ++i) probe.Run(mix[i % mix.size()]);
    service_ms = timer.Seconds() * 1e3 / probes;
  }
  const double interval_ms = std::max(0.05, service_ms / 2.0);  // ~2x overload

  std::vector<LoadRow> load_rows;
  {
    mlcore::Engine bounded(&dataset.graph,
                           mlcore::Engine::Options{.query_workers = 2,
                                                   .max_pending_queries = 8});
    bounded.Run(mix[0]);  // warm cache so the load run is steady-state
    load_rows.push_back(RunOpenLoopLoad(bounded, mix, total, interval_ms,
                                        "bounded (admission, 8 pending)"));
  }
  {
    mlcore::Engine unbounded(
        &dataset.graph,
        mlcore::Engine::Options{.query_workers = 2,
                                .max_pending_queries = 1 << 20});
    unbounded.Run(mix[0]);
    load_rows.push_back(RunOpenLoopLoad(unbounded, mix, total, interval_ms,
                                        "unbounded (no admission)"));
  }

  std::printf("\nopen loop: %d requests, one every %.2f ms "
              "(mean warm service %.2f ms, 2 query workers)\n",
              total, interval_ms, service_ms);
  mlcore::Table load_table({"config", "served", "shed", "p50 (ms)",
                            "p99 (ms)", "throughput (q/s)"});
  for (const LoadRow& row : load_rows) {
    load_table.AddRow({row.label,
                       mlcore::Table::Int(row.served),
                       mlcore::Table::Int(row.shed),
                       mlcore::Table::Num(row.p50_ms),
                       mlcore::Table::Num(row.p99_ms),
                       mlcore::Table::Num(row.throughput_qps)});
  }
  load_table.Print();

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n"
        "  \"description\": \"bench_async_load: (1) overhead of the "
        "cooperative cancellation/deadline checkpoints on uncancelled "
        "searches (armed never-firing QueryControl vs none; target <= 2%%), "
        "(2) open-loop concurrent load through Engine::Submit at ~2x the "
        "warm service rate, with a bounded admission queue (sheds overload "
        "as kResourceExhausted) vs an effectively unbounded one.\",\n"
        "  \"scale\": %.3f,\n  \"rounds\": %d,\n"
        "  \"checkpoint_overhead\": [\n",
        context.scale, rounds);
    for (size_t i = 0; i < overhead.size(); ++i) {
      const OverheadRow& row = overhead[i];
      std::fprintf(out,
                   "    {\"case\": \"%s\", \"plain_search_s\": %.6f, "
                   "\"checkpointed_search_s\": %.6f, "
                   "\"overhead_pct\": %.2f}%s\n",
                   row.label.c_str(), row.plain_s, row.controlled_s,
                   row.overhead_pct, i + 1 < overhead.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"open_loop\": {\"requests\": %d, "
                 "\"arrival_interval_ms\": %.3f, "
                 "\"warm_service_ms\": %.3f, \"configs\": [\n",
                 total, interval_ms, service_ms);
    for (size_t i = 0; i < load_rows.size(); ++i) {
      const LoadRow& row = load_rows[i];
      std::fprintf(out,
                   "    {\"config\": \"%s\", \"served\": %d, \"shed\": %d, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                   "\"throughput_qps\": %.1f}%s\n",
                   row.label.c_str(), row.served, row.shed, row.p50_ms,
                   row.p99_ms, row.throughput_qps,
                   i + 1 < load_rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]}\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
