// Workload runner of the repository benchmark (perfbench/README.md).
//
//   mlbench gen --out F --log2n N --layers L --edges E --seed S
//   mlbench ref --graph F --out F
//   mlbench run --workload explore|churn --graph F --ref F
//               --seed N --seconds T --trace 0|1 [--trace-out F]
//
// `run` prints one JSON object on its last stdout line: the result keys
// (correct, attempted, failed, metrics) plus a "record" object with sample
// counts, thread split and per-layer self times. run.py builds this binary,
// generates and caches the graphs, and wraps the output into a run record.
//
// Nothing inside src/ is instrumented: the traced run (--trace 1) wraps the
// public entry points of each layer in spans recorded here, from outside.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/dcc.h"
#include "core/dcore.h"
#include "dccs/bottom_up.h"
#include "dccs/cover.h"
#include "dccs/execution.h"
#include "dccs/greedy.h"
#include "dccs/preprocess.h"
#include "dccs/top_down.h"
#include "dccs/vertex_index.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "service/delta.h"
#include "service/engine.h"
#include "store/graph_store.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef MLBENCH_BUILD_TYPE
#define MLBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using mlcore::DccsAlgorithm;
using mlcore::DccsRequest;
using mlcore::DccsResult;
using mlcore::Engine;
using mlcore::GraphStore;
using mlcore::LayerSet;
using mlcore::MultiLayerGraph;
using mlcore::VertexSet;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double NowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "mlbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Small statistics and JSON helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string Num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Insertion-ordered metric list: name → (value, unit).
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.emplace_back(name, value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      const auto& [name, value, unit] = items[i];
      if (i > 0) out += ", ";
      out += Quote(name) + ": {\"value\": " + Num(value) +
             ", \"unit\": " + Quote(unit) + "}";
    }
    return out + "}";
  }
};

// ---------------------------------------------------------------------------
// Spans: recorded only by the traced run, around calls into public layer
// functions. Kept in memory and written out (Chrome trace-event JSON) at
// exit.
// ---------------------------------------------------------------------------

struct SpanRec {
  std::string name;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t query = 0;   // shared by every span of one request
  double start_ms = 0;
  double end_ms = 0;
};

class Tracer {
 public:
  int64_t Begin(const std::string& name, int64_t parent, int64_t query) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRec rec;
    rec.name = name;
    rec.id = static_cast<int64_t>(spans_.size()) + 1;
    rec.parent = parent;
    rec.query = query;
    rec.start_ms = NowMs();
    spans_.push_back(rec);
    return rec.id;
  }
  double End(int64_t id) {
    const double now = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRec& rec = spans_[static_cast<size_t>(id - 1)];
    rec.end_ms = now;
    return rec.end_ms - rec.start_ms;
  }
  /// Records an interval observed after the fact (e.g. a delivery).
  void Add(const std::string& name, int64_t query, double start_ms,
           double end_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, static_cast<int64_t>(spans_.size()) + 1, 0, query,
                      start_ms, end_ms});
  }
  int64_t NewQuery() { return next_query_.fetch_add(1) + 1; }

  /// Self time per span name: duration minus the union of its children's
  /// intervals.
  std::map<std::string, double> SelfMs() const {
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const SpanRec& s : spans_) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ms, s.end_ms);
    }
    std::map<std::string, double> self;
    for (const SpanRec& s : spans_) {
      double covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_lo = -1, cur_hi = -1;
        for (const auto& [lo, hi] : iv) {
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
      self[s.name] += (s.end_ms - s.start_ms) - covered;
    }
    return self;
  }

  void WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      out << (i > 0 ? ",\n" : "") << "{\"name\": " << Quote(s.name)
          << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.query
          << ", \"ts\": " << Num(s.start_ms * 1e3)
          << ", \"dur\": " << Num((s.end_ms - s.start_ms) * 1e3)
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"query\": " << s.query << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::mutex mu_;
  std::vector<SpanRec> spans_;
  std::atomic<int64_t> next_query_{0};
};

/// RAII span; a null tracer records nothing (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int64_t parent = 0,
       int64_t query = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, query) : 0),
        start_ms_(NowMs()) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }
  /// Ends the span and returns its wall time in ms.
  double End() {
    if (!ended_) {
      ended_ = true;
      ms_ = NowMs() - start_ms_;
      if (tracer_ != nullptr) tracer_->End(id_);
    }
    return ms_;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
  double start_ms_;
  double ms_ = 0;
  bool ended_ = false;
};

/// Engine cache hit ratios, read through Engine::cache_stats. A cache that
/// was never consulted (e.g. base cores behind a warm preprocess entry)
/// reads 1: every lookup that happened hit.
void SetCacheRatios(const mlcore::EngineCacheStats& c, Metrics* m) {
  auto hit = [](int64_t hits, int64_t misses) {
    return hits + misses == 0 ? 1.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  m->Set("service.cache.preprocess_hit_ratio",
         hit(c.preprocess_hits, c.preprocess_misses), "ratio");
  m->Set("service.cache.base_core_hit_ratio",
         hit(c.base_core_hits, c.base_core_misses), "ratio");
  m->Set("service.cache.seed_hit_ratio", hit(c.seed_hits, c.seed_misses),
         "ratio");
  m->Set("service.cache.index_hit_ratio", hit(c.index_hits, c.index_misses),
         "ratio");
}

// ---------------------------------------------------------------------------
// Requests, reference answers and answer checks.
// ---------------------------------------------------------------------------

DccsRequest Request(int d, int s, int k, DccsAlgorithm algorithm) {
  DccsRequest r;
  r.params.d = d;
  r.params.s = s;
  r.params.k = k;
  r.algorithm = algorithm;
  return r;
}

std::string AlgoTag(DccsAlgorithm a) {
  switch (a) {
    case DccsAlgorithm::kGreedy: return "gd";
    case DccsAlgorithm::kBottomUp: return "bu";
    case DccsAlgorithm::kTopDown: return "td";
    case DccsAlgorithm::kAuto: return "auto";
  }
  return "?";
}

std::string Key(const DccsRequest& r) {
  return "d" + std::to_string(r.params.d) + "-s" + std::to_string(r.params.s) +
         "-k" + std::to_string(r.params.k) + "-" + AlgoTag(r.algorithm);
}

/// The (algorithm, s) pairs of the query menu: GD at s∈{2,3,6}, BU at
/// s∈{2,3,4,6}, kAuto at s∈{2,3,7}.
std::vector<std::pair<DccsAlgorithm, int>> MenuShapes() {
  return {{DccsAlgorithm::kGreedy, 2},   {DccsAlgorithm::kGreedy, 3},
          {DccsAlgorithm::kGreedy, 6},   {DccsAlgorithm::kBottomUp, 2},
          {DccsAlgorithm::kBottomUp, 3}, {DccsAlgorithm::kBottomUp, 4},
          {DccsAlgorithm::kBottomUp, 6}, {DccsAlgorithm::kAuto, 2},
          {DccsAlgorithm::kAuto, 3},     {DccsAlgorithm::kAuto, 7}};
}

/// explore: d=4, k∈{10,20} over the menu shapes (20 requests).
std::vector<DccsRequest> ExploreMenu() {
  std::vector<DccsRequest> menu;
  for (int k : {10, 20}) {
    for (auto [a, s] : MenuShapes()) menu.push_back(Request(4, s, k, a));
  }
  return menu;
}

/// churn: the three standing queries (GD, BU and TD requests) at d=4.
std::vector<DccsRequest> ChurnRequests() {
  return {Request(4, 2, 10, DccsAlgorithm::kGreedy),
          Request(4, 2, 10, DccsAlgorithm::kBottomUp),
          Request(4, 3, 10, DccsAlgorithm::kTopDown)};
}

/// FNV-1a over every core's layers and vertices, in result order: equal
/// hashes ⇔ bit-identical answers (up to 64-bit collisions).
uint64_t ResultHash(const std::vector<mlcore::ResultCore>& cores) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(cores.size());
  for (const auto& c : cores) {
    mix(c.layers.size());
    for (auto l : c.layers) mix(static_cast<uint64_t>(l));
    mix(c.vertices.size());
    for (auto v : c.vertices) mix(static_cast<uint64_t>(v));
  }
  return h;
}

struct Answer {
  uint64_t hash = 0;
  int64_t cover = 0;
};

Answer AnswerOf(const DccsResult& r) {
  return {ResultHash(r.cores), r.CoverSize()};
}

/// Reference answers keyed by request, computed by a sequential single-lane
/// Engine (`mlbench ref`, its own process so that the measured run's peak
/// RSS excludes it) and cached in a file next to the graph.
using RefTable = std::map<std::string, Answer>;

void WriteReference(const std::string& path,
                    const std::shared_ptr<const MultiLayerGraph>& g,
                    const std::vector<DccsRequest>& menu) {
  Engine::Options opt;
  opt.num_threads = 1;
  opt.search_threads = 1;
  opt.query_workers = 0;
  Engine ref(std::make_shared<GraphStore>(g), opt);
  std::ofstream out(path);
  for (const auto& r : menu) {
    auto res = ref.Run(r);
    if (!res.ok()) {
      Die("reference query " + Key(r) + ": " + res.status().message);
    }
    const Answer a = AnswerOf(*res);
    out << Key(r) << ' ' << a.hash << ' ' << a.cover << '\n';
  }
  if (!out.flush()) Die("cannot write " + path);
}

RefTable ReadReference(const std::string& path,
                       const std::vector<DccsRequest>& menu) {
  RefTable table;
  std::ifstream in(path);
  std::string key;
  Answer a;
  while (in >> key >> a.hash >> a.cover) table[key] = a;
  for (const auto& r : menu) {
    if (table.count(Key(r)) == 0) Die(path + " lacks " + Key(r));
  }
  return table;
}

/// Seeded query list: consecutive rounds, each a fresh permutation of the
/// whole menu, so every prefix of whole rounds has the same request mix.
std::vector<int> QueryList(size_t menu_size, int rounds, uint64_t seed) {
  mlcore::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  std::vector<int> list;
  std::vector<int> round(menu_size);
  for (int r = 0; r < rounds; ++r) {
    std::iota(round.begin(), round.end(), 0);
    std::shuffle(round.begin(), round.end(), rng.engine());
    list.insert(list.end(), round.begin(), round.end());
  }
  return list;
}

// ---------------------------------------------------------------------------
// Host probe and process stats.
// ---------------------------------------------------------------------------

/// Fixed-work spin loop on `threads` threads, each doing the same work;
/// returns the wall time in ms. On a machine delivering all its cores the
/// result is flat in `threads`.
double ProbeMs(int threads) {
  std::atomic<uint64_t> sink{0};
  const double t0 = NowMs();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(t);
      for (int i = 0; i < 40'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x);
    });
  }
  for (auto& th : pool) th.join();
  return NowMs() - t0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---------------------------------------------------------------------------
// Run context shared by the workloads.
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  std::string graph_path;
  std::string ref_path;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  Metrics metrics;
  std::vector<std::pair<std::string, std::string>> record;  // raw JSON values

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) Fail(why);
  }
};

std::shared_ptr<const MultiLayerGraph> LoadGraph(const std::string& path,
                                                 Tracer* tracer,
                                                 mlcore::format::MlgLoadStats*
                                                     stats = nullptr) {
  auto graph = std::make_shared<MultiLayerGraph>();
  Span span(tracer, "format.load");
  mlcore::Status st = mlcore::format::LoadMlgGraph(path, graph.get(), stats);
  if (!st.ok()) Die("load " + path + ": " + st.message);
  return graph;
}

/// The layer a span belongs to: format, store, service, dccs.preprocess,
/// dccs.search, core or dccs.cover ("query" roots count as service).
std::string LayerOf(const std::string& span) {
  for (const char* layer :
       {"format", "store", "service", "dccs.preprocess", "dccs.search", "core",
        "dccs.cover"}) {
    const std::string prefix = std::string(layer) + ".";
    if (span.rfind(prefix, 0) == 0) return layer;
  }
  return "service";
}

/// Adds per-span and per-layer self times (ms) to the run record.
void RecordSelfTimes(const Tracer& tracer, Outcome* out) {
  std::map<std::string, double> layers;
  std::string spans = "{";
  for (const auto& [name, ms] : tracer.SelfMs()) {
    layers[LayerOf(name)] += ms;
    if (spans.size() > 1) spans += ", ";
    spans += Quote(name) + ": " + Num(ms);
  }
  std::string json = "{";
  for (const auto& [layer, ms] : layers) {
    if (json.size() > 1) json += ", ";
    json += Quote(layer) + ": " + Num(ms);
  }
  out->record.emplace_back("layers_self_ms", json + "}");
  out->record.emplace_back("spans_self_ms", spans + "}");
}

// ---------------------------------------------------------------------------
// Layer decomposition (traced run only): replays one request by calling the
// public functions of each layer directly, each under its own span.
// ---------------------------------------------------------------------------

struct Decomposition {
  std::vector<double> base_dcore_ms, fixpoint_ms, seeds_ms, index_ms;
  std::vector<double> seed_calls, active_ratio;
  std::map<std::string, std::vector<double>> search_ms;  // by algorithm tag
  double search_lanes_ms = 0, search_1lane_ms = 0;
  int64_t committed_1lane_calls = 0;
  mlcore::SearchStats counts;  // summed over decomposed requests
  int64_t speculative = 0, committed_lanes = 0;
  std::vector<double> dcc_us;     // per DccSolver::Compute call
  std::vector<double> cover_ms, delta_ms;
  std::set<std::pair<int, int>> dcc_done;  // (d, s) already timed
  std::map<std::string, int64_t> gd_cover;  // "d-s-k" → GD |Cov|
  std::vector<std::tuple<std::string, int64_t>> bound_checks;  // BU/TD
  std::vector<mlcore::ResultCore> previous;
  int requests = 0;
};

void AddCounts(mlcore::SearchStats* sum, const mlcore::SearchStats& s) {
  sum->candidates_generated += s.candidates_generated;
  sum->nodes_visited += s.nodes_visited;
  sum->pruned_eq1 += s.pruned_eq1;
  sum->pruned_order += s.pruned_order;
  sum->pruned_layer += s.pruned_layer;
  sum->pruned_potential += s.pruned_potential;
  sum->updates_accepted += s.updates_accepted;
}

std::vector<LayerSet> Subsets(int l, int s) {
  std::vector<LayerSet> out;
  LayerSet cur;
  std::function<void(int)> rec = [&](int next) {
    if (static_cast<int>(cur.size()) == s) {
      out.push_back(cur);
      return;
    }
    for (int i = next; i < l; ++i) {
      cur.push_back(i);
      rec(i + 1);
      cur.pop_back();
    }
  };
  rec(0);
  return out;
}

DccsResult RunSearch(const MultiLayerGraph& g, DccsAlgorithm algo,
                     const mlcore::DccsParams& params,
                     const mlcore::DccsExecution& exec) {
  switch (algo) {
    case DccsAlgorithm::kGreedy: return mlcore::GreedyDccs(g, params, exec);
    case DccsAlgorithm::kBottomUp: return mlcore::BottomUpDccs(g, params, exec);
    default: return mlcore::TopDownDccs(g, params, exec);
  }
}

/// Decomposes `request` on `g` and returns the answer the injected search
/// produced (checked by the caller against the reference). Checks that the
/// 1-lane and multi-lane searches agree.
Answer Decompose(const MultiLayerGraph& g, const DccsRequest& request,
                 DccsAlgorithm algo, int lanes, int pool_threads,
                 Tracer* tracer, Decomposition* dec, Outcome* out) {
  const mlcore::DccsParams& p = request.params;
  const int64_t qid = tracer->NewQuery();
  Span root(tracer, "query", 0, qid);
  ++dec->requests;

  std::vector<VertexSet> base(static_cast<size_t>(g.NumLayers()));
  {
    Span span(tracer, "dccs.preprocess.base_dcore", root.id(), qid);
    for (int layer = 0; layer < g.NumLayers(); ++layer) {
      base[static_cast<size_t>(layer)] = mlcore::DCore(g, layer, p.d);
    }
    dec->base_dcore_ms.push_back(span.End());
  }
  mlcore::ThreadPool pool(pool_threads);
  mlcore::PreprocessResult pre;
  {
    Span span(tracer, "dccs.preprocess.fixpoint", root.id(), qid);
    pre = mlcore::Preprocess(g, p.d, p.s, p.vertex_deletion, &pool, &base);
    dec->fixpoint_ms.push_back(span.End());
  }
  dec->active_ratio.push_back(Ratio(static_cast<double>(pre.active.size()),
                                    g.NumVertices()));
  mlcore::DccSolver solver(g);
  mlcore::InitSeeds seeds;
  if (algo != DccsAlgorithm::kGreedy && p.init_result) {
    Span span(tracer, "dccs.preprocess.seeds", root.id(), qid);
    seeds = mlcore::ComputeInitSeeds(g, p, pre, solver);
    dec->seeds_ms.push_back(span.End());
    dec->seed_calls.push_back(static_cast<double>(seeds.solver_calls));
  }
  std::unique_ptr<mlcore::VertexLevelIndex> index;
  if (algo == DccsAlgorithm::kTopDown) {
    Span span(tracer, "dccs.preprocess.index", root.id(), qid);
    index = std::make_unique<mlcore::VertexLevelIndex>(g, p.d, pre.active);
    dec->index_ms.push_back(span.End());
  }

  mlcore::DccsExecution exec;
  exec.preprocess = &pre;
  exec.seeds = algo != DccsAlgorithm::kGreedy && p.init_result ? &seeds
                                                                : nullptr;
  exec.index = index.get();
  exec.solver = &solver;
  const std::string tag = AlgoTag(algo);
  // Search at the workload's lanes (GD: candidate fan-out over the pool).
  exec.search_threads = lanes;
  exec.pool = algo == DccsAlgorithm::kGreedy ? &pool : nullptr;
  DccsResult result;
  {
    Span span(tracer, "dccs.search." + tag, root.id(), qid);
    result = RunSearch(g, algo, p, exec);
    const double ms = span.End();
    dec->search_ms[tag].push_back(ms);
    dec->search_lanes_ms += ms;
  }
  dec->speculative += result.stats.speculative_evals;
  dec->committed_lanes += result.stats.candidates_generated;
  // Same search on one lane: the parallel-speedup baseline.
  exec.search_threads = 1;
  exec.pool = nullptr;
  mlcore::DccSolver solver1(g);
  exec.solver = &solver1;
  DccsResult sequential;
  {
    Span span(tracer, "dccs.search." + tag + ".1lane", root.id(), qid);
    sequential = RunSearch(g, algo, p, exec);
    dec->search_1lane_ms += span.End();
  }
  dec->committed_1lane_calls += sequential.stats.candidates_generated;
  AddCounts(&dec->counts, sequential.stats);

  // The d-CC kernel alone: every size-s layer subset over the active set.
  if (dec->dcc_done.insert({p.d, p.s}).second) {
    Span span(tracer, "core.dcc", root.id(), qid);
    VertexSet out;
    for (const LayerSet& layers : Subsets(g.NumLayers(), p.s)) {
      const double t0 = NowMs();
      solver.Compute(layers, p.d, pre.active, &out, p.dcc_engine);
      dec->dcc_us.push_back((NowMs() - t0) * 1e3);
    }
  }
  {
    Span span(tracer, "dccs.cover.cover_of", root.id(), qid);
    mlcore::CoverOf(result.cores);
    dec->cover_ms.push_back(span.End());
  }
  {
    DccsResult prev;
    prev.cores = dec->previous;
    Span span(tracer, "dccs.cover.delta", root.id(), qid);
    mlcore::ComputeResultDelta(prev, result);
    dec->delta_ms.push_back(span.End());
  }
  dec->previous = result.cores;

  const std::string dsk = std::to_string(p.d) + "-" + std::to_string(p.s) +
                          "-" + std::to_string(p.k);
  if (algo == DccsAlgorithm::kGreedy) {
    dec->gd_cover[dsk] = result.CoverSize();
  } else {
    dec->bound_checks.emplace_back(dsk, result.CoverSize());
  }
  out->Check(ResultHash(sequential.cores) == ResultHash(result.cores),
             "1-lane and multi-lane searches disagree on " + Key(request));
  return AnswerOf(result);
}

/// Paper bound (Theorems 3–4): BU/TD cover ≥ ¼·GD cover. Computes the GD
/// counterpart when the decomposition did not already, for C(l, s) ≤ 28.
void CheckPaperBound(const MultiLayerGraph& g, Decomposition* dec,
                     Outcome* out) {
  for (const auto& [dsk, cover] : dec->bound_checks) {
    int d = 0, s = 0, k = 0;
    std::sscanf(dsk.c_str(), "%d-%d-%d", &d, &s, &k);
    if (dec->gd_cover.count(dsk) == 0) {
      if (Subsets(g.NumLayers(), s).size() > 28) continue;
      DccsRequest r = Request(d, s, k, DccsAlgorithm::kGreedy);
      dec->gd_cover[dsk] = mlcore::GreedyDccs(g, r.params).CoverSize();
    }
    out->Check(4 * cover >= dec->gd_cover[dsk],
               "paper bound BU/TD >= GD/4 violated at " + dsk);
  }
}

void EmitDecomposition(const Decomposition& dec, Metrics* m) {
  m->Set("preprocess.base_dcore_ms", Quantile(dec.base_dcore_ms, 0.5), "ms");
  m->Set("preprocess.fixpoint_ms", Quantile(dec.fixpoint_ms, 0.5), "ms");
  m->Set("preprocess.seeds_ms", Quantile(dec.seeds_ms, 0.5), "ms");
  m->Set("preprocess.seed_dcc_calls", Mean(dec.seed_calls), "count");
  m->Set("preprocess.index_ms", Quantile(dec.index_ms, 0.5), "ms");
  m->Set("preprocess.active_ratio", Mean(dec.active_ratio), "ratio");
  for (const char* tag : {"gd", "bu", "td"}) {
    auto it = dec.search_ms.find(tag);
    m->Set(std::string("search.") + tag + "_ms.p50",
           it == dec.search_ms.end() ? 0.0 : Quantile(it->second, 0.5), "ms");
  }
  const auto& c = dec.counts;
  m->Set("search.nodes_visited", static_cast<double>(c.nodes_visited),
         "count");
  m->Set("search.dcc_calls", static_cast<double>(c.candidates_generated),
         "count");
  m->Set("search.pruned_eq1", static_cast<double>(c.pruned_eq1), "count");
  m->Set("search.pruned_order", static_cast<double>(c.pruned_order), "count");
  m->Set("search.pruned_layer", static_cast<double>(c.pruned_layer), "count");
  m->Set("search.pruned_potential", static_cast<double>(c.pruned_potential),
         "count");
  m->Set("search.updates_accepted", static_cast<double>(c.updates_accepted),
         "count");
  m->Set("search.speculative_waste_ratio",
         Ratio(static_cast<double>(dec.speculative),
               static_cast<double>(dec.speculative + dec.committed_lanes)),
         "ratio");
  m->Set("search.parallel_speedup",
         Ratio(dec.search_1lane_ms, dec.search_lanes_ms), "x");
  const double us = Quantile(dec.dcc_us, 0.5);
  m->Set("core.dcc_us_per_call", us, "us");
  m->Set("core.kernel_share",
         Ratio(static_cast<double>(dec.committed_1lane_calls) * us / 1e3,
               dec.search_1lane_ms),
         "ratio");
}

// ---------------------------------------------------------------------------
// Query workload: explore (warm caches, 2 clients).
// ---------------------------------------------------------------------------

struct QuerySample {
  int request = 0;
  double ms = 0;
  double overhead_ms = 0;
  double end_ms = 0;
};

struct LoopResult {
  std::vector<QuerySample> samples;
  double wall_ms = 0;
  size_t next = 0;  // first list position not started
};

/// Closed loop: `clients` threads take the next request from `list`
/// (starting at `start`, a round boundary) and verify each answer against
/// the reference. The loop serves whole rounds of the menu only — it stops
/// at the first round boundary after `seconds` have passed and at least
/// `min_samples` requests started — so every run sees the same request
/// mix, whatever the seed's order.
LoopResult ClosedLoop(Engine& engine, const std::vector<DccsRequest>& menu,
                      const std::vector<int>& list, size_t start,
                      int clients, double seconds, size_t min_samples,
                      const RefTable& ref, Tracer* tracer,
                      Outcome* out) {
  std::mutex mu;
  size_t next = start;
  bool finished = false;
  LoopResult loop;
  const double t0 = NowMs();
  const double deadline = t0 + seconds * 1e3;
  auto take = [&]() -> std::optional<size_t> {
    std::lock_guard<std::mutex> lock(mu);
    if (!finished && (next - start) % menu.size() == 0 &&
        next - start >= min_samples && NowMs() >= deadline) {
      finished = true;
    }
    if (finished || next >= list.size()) return std::nullopt;
    return next++;
  };
  auto client = [&] {
    std::vector<QuerySample> mine;
    std::vector<std::string> errors;
    int64_t checked = 0;
    while (const std::optional<size_t> pos = take()) {
      const DccsRequest& req = menu[static_cast<size_t>(list[*pos])];
      const int64_t qid = tracer != nullptr ? tracer->NewQuery() : 0;
      Span span(tracer, "service.run", 0, qid);
      auto res = engine.Run(req);
      QuerySample s;
      s.request = list[*pos];
      s.ms = span.End();
      s.end_ms = NowMs();
      ++checked;
      if (!res.ok()) {
        errors.push_back(Key(req) + ": " + res.status().message);
        continue;
      }
      s.overhead_ms = s.ms - res->stats.total_seconds * 1e3;
      const Answer a = AnswerOf(*res);
      const auto it = ref.find(Key(req));
      if (it == ref.end() || it->second.hash != a.hash ||
          it->second.cover != a.cover) {
        errors.push_back("answer differs from reference: " + Key(req));
      }
      mine.push_back(s);
    }
    std::lock_guard<std::mutex> lock(mu);
    loop.samples.insert(loop.samples.end(), mine.begin(), mine.end());
    out->attempted += checked;
    for (const auto& e : errors) out->Fail(e);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (auto& t : threads) t.join();
  for (const auto& s : loop.samples) {
    loop.wall_ms = std::max(loop.wall_ms, s.end_ms - t0);
  }
  loop.next = next;
  return loop;
}

/// Each untraced run times at least this many queries, so the p90 has at
/// least ten samples beyond it.
constexpr size_t kMinSamples = 100;

struct QueryWorkload {
  std::vector<DccsRequest> menu;
  int clients = 1;
  Engine::Options options;
};

QueryWorkload MakeQueryWorkload() {
  QueryWorkload w;
  const int nproc = Nproc();
  w.options.query_workers = 0;  // Run donates the calling thread
  // 2 clients, each query may use 1 extra pool thread or 1 extra search
  // lane: at most 4 busy threads.
  w.menu = ExploreMenu();
  w.clients = 2;
  w.options.num_threads = std::max(1, std::min(2, nproc / 2));
  w.options.search_threads = std::max(1, std::min(2, nproc / 2));
  return w;
}

std::string ThreadsJson(int clients, const Engine::Options& o) {
  return "{\"nproc\": " + std::to_string(Nproc()) +
         ", \"clients\": " + std::to_string(clients) +
         ", \"pool_threads\": " + std::to_string(o.num_threads) +
         ", \"search_lanes\": " + std::to_string(o.search_threads) +
         ", \"query_workers\": " + std::to_string(o.query_workers) + "}";
}

struct QuerySession {
  std::shared_ptr<const MultiLayerGraph> graph;
  std::shared_ptr<GraphStore> store;
  std::unique_ptr<Engine> engine;
  mlcore::format::MlgLoadStats load;
  double store_init_ms = 0;
};

/// One set-up: map + validate the graph, build the store and engine, and
/// run the warm-up pass that fills every cache.
QuerySession SetUpQuerySession(const Config& cfg, const QueryWorkload& w,
                               const RefTable& ref, Tracer* tracer,
                               Outcome* out) {
  QuerySession s;
  s.graph = LoadGraph(cfg.graph_path, tracer, &s.load);
  {
    Span span(tracer, "store.init");
    s.store = std::make_shared<GraphStore>(s.graph);
    s.store_init_ms = span.End();
  }
  {
    Span span(tracer, "service.engine_init");
    s.engine = std::make_unique<Engine>(s.store, w.options);
  }
  // One round of the menu, sequentially: a deterministic cache build.
  std::vector<int> round(w.menu.size());
  std::iota(round.begin(), round.end(), 0);
  ClosedLoop(*s.engine, w.menu, round, 0, 1, 0, round.size(), ref, tracer,
             out);
  return s;
}

/// Whether to set up once more: the untraced run sets up at least 3 times,
/// and cheap set-ups repeat until 1.5 s were spent (at most 15 times) so
/// that the reported median is steady; the traced run sets up once.
bool MoreSetUps(const Config& cfg, const std::vector<double>& setups_s) {
  if (cfg.trace) return setups_s.empty();
  const double spent = std::accumulate(setups_s.begin(), setups_s.end(), 0.0);
  const size_t n = setups_s.size();
  return n < 3 || (spent < 1.5 && n < 15);
}

void RunQueryWorkload(const Config& cfg, Outcome* out) {
  const QueryWorkload w = MakeQueryWorkload();
  Tracer tracer;
  Tracer* tr = cfg.trace ? &tracer : nullptr;

  RefTable ref = ReadReference(cfg.ref_path, w.menu);

  // Set-up, repeated; the last session serves the measured loop.
  QuerySession session;
  std::vector<double> setups;
  while (MoreSetUps(cfg, setups)) {
    session = QuerySession{};  // release the previous set-up first
    const double t0 = NowMs();
    session = SetUpQuerySession(cfg, w, ref, tr, out);
    setups.push_back((NowMs() - t0) / 1e3);
  }
  Engine& engine = *session.engine;
  const std::vector<int> list = QueryList(w.menu.size(), 400, cfg.seed);
  engine.ResetStats();

  auto answer_metrics = [&](const LoopResult& loop, Metrics* m) {
    std::vector<double> ms;
    std::set<int> distinct;
    double cover_sum = 0;
    for (const auto& s : loop.samples) {
      ms.push_back(s.ms);
      if (distinct.insert(s.request).second) {
        cover_sum += static_cast<double>(
            ref[Key(w.menu[static_cast<size_t>(s.request)])].cover);
      }
    }
    m->Set("setup_s", Quantile(setups, 0.5), "s");
    m->Set("answer_p50_ms", Quantile(ms, 0.5), "ms");
    m->Set("answer_p90_ms", Quantile(ms, 0.9), "ms");
    m->Set("answers_per_s", Ratio(static_cast<double>(ms.size()) * 1e3,
                                  loop.wall_ms),
           "1/s");
    m->Set("cover_mean", Ratio(cover_sum, static_cast<double>(distinct.size())),
           "count");
    m->Set("peak_rss_mb", PeakRssMb(), "MB");
    out->record.emplace_back("samples", std::to_string(ms.size()));
    out->record.emplace_back("distinct_requests",
                             std::to_string(distinct.size()));
  };

  out->record.emplace_back("threads", ThreadsJson(w.clients, w.options));
  if (!cfg.trace) {
    LoopResult loop =
        ClosedLoop(engine, w.menu, list, 0, w.clients, cfg.seconds,
                   kMinSamples, ref, nullptr, out);
    answer_metrics(loop, &out->metrics);
    return;
  }

  // Traced run: untraced half, traced half (the overhead ratio), then the
  // layer decomposition of the distinct requests the loop served.
  LoopResult plain = ClosedLoop(engine, w.menu, list, 0, w.clients,
                                cfg.seconds / 2, 0, ref, nullptr, out);
  mlcore::EngineCacheStats cache;
  {
    Span span(tr, "service.cache_stats");
    cache = engine.cache_stats();
  }
  LoopResult traced =
      ClosedLoop(engine, w.menu, list, plain.next, w.clients, cfg.seconds / 2,
                 0, ref, tr, out);
  std::vector<double> plain_ms, traced_ms, overhead_ms;
  for (const auto& s : plain.samples) plain_ms.push_back(s.ms);
  for (const auto& s : traced.samples) {
    traced_ms.push_back(s.ms);
    overhead_ms.push_back(s.overhead_ms);
  }

  Metrics& m = out->metrics;
  m.Set("format.load_ms", session.load.load_ms, "ms");
  m.Set("format.mapped_mb",
        static_cast<double>(session.load.mapped_bytes) / (1 << 20), "MB");
  m.Set("store.init_ms", session.store_init_ms, "ms");
  m.Set("store.apply_ms.p50", 0, "ms");
  m.Set("store.apply_ms.p90", 0, "ms");
  m.Set("store.core_changes_per_batch", 0, "count");
  m.Set("store.incremental_ratio", 0, "ratio");
  m.Set("service.overhead_ms.p50", Quantile(overhead_ms, 0.5), "ms");
  SetCacheRatios(cache, &m);
  m.Set("service.subs.delivery_lag_ms.p50", 0, "ms");
  m.Set("service.subs.unchanged_ratio", 0, "ratio");
  m.Set("service.subs.coalesced_ratio", 0, "ratio");

  Decomposition dec;
  const double budget_end = NowMs() + cfg.seconds * 1e3;
  std::set<int> seen;
  const MultiLayerGraph& g = *session.graph;
  const int lanes = w.options.search_threads;
  for (size_t pos = 0; pos < traced.next && NowMs() < budget_end; ++pos) {
    const int idx = list[pos];
    if (!seen.insert(idx).second) continue;
    const DccsRequest& r = w.menu[static_cast<size_t>(idx)];
    const Answer a = Decompose(g, r, engine.ResolvedAlgorithm(r), lanes,
                               w.options.num_threads, &tracer, &dec, out);
    const Answer& want = ref[Key(r)];
    out->Check(a.hash == want.hash && a.cover == want.cover,
               "decomposed answer differs from reference: " + Key(r));
  }
  CheckPaperBound(g, &dec, out);
  EmitDecomposition(dec, &m);
  m.Set("cover.ms", Quantile(dec.cover_ms, 0.5), "ms");
  m.Set("delta.ms", Quantile(dec.delta_ms, 0.5), "ms");
  m.Set("bench.gen_lag_ms.p90", 0, "ms");
  m.Set("bench.trace_overhead",
        Ratio(Quantile(traced_ms, 0.5), Quantile(plain_ms, 0.5)), "x");
  out->record.emplace_back("decomposed_requests",
                           std::to_string(dec.requests));
  out->record.emplace_back("samples", std::to_string(plain_ms.size()));
  out->record.emplace_back("traced_samples", std::to_string(traced_ms.size()));

  RecordSelfTimes(tracer, out);
  if (!cfg.trace_out.empty()) tracer.WriteChromeTrace(cfg.trace_out);
}

// ---------------------------------------------------------------------------
// churn: an open-loop writer beside three standing subscriptions.
// ---------------------------------------------------------------------------

constexpr int kChurnD = 4;
// Batches per second. At 2.5/s the p90 freshness stays well below the batch
// period, so one batch's re-evaluations rarely queue behind the previous
// batch's and freshness tracks the work rather than a backlog.
constexpr double kChurnRate = 2.5;
constexpr int kBatchEdges = 64;     // half removals, half insertions

struct Batch {
  mlcore::UpdateBatch batch;
  bool low = false;  // touches only vertices of degree < d: cores unchanged
};

/// Seeded update stream over `g`. Every edge is touched at most once, so
/// each removal hits an edge still present and each insertion one still
/// absent. Regular batches edit edges between vertices of degree ≥ d; one
/// batch in four ("low") edits only edges between vertices of degree < d
/// that can never reach degree d, so no d-core subgraph changes.
std::vector<Batch> MakeStream(const MultiLayerGraph& g, size_t count,
                              uint64_t seed) {
  mlcore::Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  const int l = g.NumLayers();
  const int n = g.NumVertices();
  std::set<std::tuple<int, int, int>> touched;
  std::vector<std::vector<int>> extra(static_cast<size_t>(l),
                                      std::vector<int>(static_cast<size_t>(n)));
  // Per layer: high-degree vertices, and edges between low-degree ones.
  std::vector<std::vector<int>> high(static_cast<size_t>(l));
  std::vector<std::vector<int>> low(static_cast<size_t>(l));
  std::vector<std::vector<std::pair<int, int>>> low_edges(
      static_cast<size_t>(l));
  for (int layer = 0; layer < l; ++layer) {
    for (int v = 0; v < n; ++v) {
      const int deg = g.Degree(layer, v);
      if (deg >= kChurnD) high[static_cast<size_t>(layer)].push_back(v);
      if (deg < kChurnD) {
        low[static_cast<size_t>(layer)].push_back(v);
        for (int u : g.Neighbors(layer, v)) {
          if (u > v && g.Degree(layer, u) < kChurnD) {
            low_edges[static_cast<size_t>(layer)].emplace_back(v, u);
          }
        }
      }
    }
    std::shuffle(low_edges[static_cast<size_t>(layer)].begin(),
                 low_edges[static_cast<size_t>(layer)].end(), rng.engine());
  }
  std::vector<size_t> low_edge_pos(static_cast<size_t>(l), 0);
  auto pick = [&](const std::vector<int>& pool) {
    return pool[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  auto fresh = [&](int layer, int u, int v) {
    return touched.insert({layer, std::min(u, v), std::max(u, v)}).second;
  };
  std::vector<Batch> stream;
  for (size_t i = 0; i < count; ++i) {
    Batch b;
    b.low = i % 4 == 3;
    for (int attempt = 0;
         attempt < 10000 &&
         static_cast<int>(b.batch.remove_edges.size()) < kBatchEdges / 2;
         ++attempt) {
      const int layer = static_cast<int>(rng.Uniform(0, l - 1));
      const auto li = static_cast<size_t>(layer);
      if (b.low) {
        if (low_edge_pos[li] >= low_edges[li].size()) continue;
        auto [u, v] = low_edges[li][low_edge_pos[li]++];
        if (fresh(layer, u, v)) b.batch.Remove(layer, u, v);
      } else {
        if (high[li].empty()) continue;
        const int u = pick(high[li]);
        auto nb = g.Neighbors(layer, u);
        const int v = nb[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(nb.size()) - 1))];
        if (g.Degree(layer, v) >= kChurnD && fresh(layer, u, v)) {
          b.batch.Remove(layer, u, v);
        }
      }
    }
    for (int attempt = 0;
         attempt < 10000 &&
         static_cast<int>(b.batch.insert_edges.size()) < kBatchEdges / 2;
         ++attempt) {
      const int layer = static_cast<int>(rng.Uniform(0, l - 1));
      const auto li = static_cast<size_t>(layer);
      const auto& pool = b.low ? low[li] : high[li];
      if (pool.size() < 2) continue;
      const int u = pick(pool);
      const int v = pick(pool);
      if (u == v || g.HasEdge(layer, u, v)) continue;
      if (b.low) {
        // Stay below d: degree + insertions so far + this one < d.
        auto& eu = extra[li][static_cast<size_t>(u)];
        auto& ev = extra[li][static_cast<size_t>(v)];
        if (g.Degree(layer, u) + eu + 1 >= kChurnD ||
            g.Degree(layer, v) + ev + 1 >= kChurnD) {
          continue;
        }
        if (!fresh(layer, u, v)) continue;
        ++eu;
        ++ev;
      } else if (!fresh(layer, u, v)) {
        continue;
      }
      b.batch.Insert(layer, u, v);
    }
    if (b.batch.empty()) Die("update stream ran out of edits");
    stream.push_back(std::move(b));
  }
  return stream;
}

struct Delivery {
  int sub = 0;
  uint64_t epoch = 0;
  double at_ms = 0;
};

/// Collects every revision each subscription delivers (callback mode).
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Delivery> deliveries;
  std::vector<std::vector<mlcore::ResultCore>> last;  // per subscription
  std::vector<uint64_t> last_epoch;
  std::vector<int64_t> revisions;
  std::vector<std::vector<std::vector<mlcore::ResultCore>>> kept;  // traced
  bool keep = false;

  explicit Inbox(size_t subs)
      : last(subs), last_epoch(subs, 0), revisions(subs, 0), kept(subs) {}

  void Receive(int sub, const mlcore::ResultRevision& rev) {
    const double at = NowMs();
    std::lock_guard<std::mutex> lock(mu);
    deliveries.push_back({sub, rev.epoch, at});
    const auto i = static_cast<size_t>(sub);
    last[i] = rev.result.cores;  // every revision carries the full result
    if (keep) kept[i].push_back(rev.result.cores);
    last_epoch[i] = rev.epoch;
    ++revisions[i];
    cv.notify_all();
  }

  /// Waits until every subscription delivered `epoch` (or later) and at
  /// least `min_revisions` revisions; false on timeout.
  bool WaitFor(uint64_t epoch, int64_t min_revisions, double timeout_ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms), [&] {
          for (size_t i = 0; i < last.size(); ++i) {
            if (revisions[i] < min_revisions || last_epoch[i] < epoch) {
              return false;
            }
          }
          return true;
        });
  }
};

struct ChurnSession {
  std::shared_ptr<const MultiLayerGraph> graph;
  std::shared_ptr<GraphStore> store;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Inbox> inbox;
  std::vector<mlcore::Subscription> subs;
  mlcore::format::MlgLoadStats load;
  double store_init_ms = 0;

  ~ChurnSession() {
    for (auto& s : subs) s.Cancel();
    engine.reset();
  }
};

Engine::Options ChurnEngineOptions() {
  // One query worker per subscription, so no re-evaluation waits for
  // another; the pool and search stay sequential. The writer and the
  // dispatcher are idle while the workers evaluate: at most 4 busy threads.
  Engine::Options o;
  o.num_threads = 1;
  o.search_threads = 1;
  o.query_workers = 3;
  return o;
}

std::unique_ptr<ChurnSession> SetUpChurn(const Config& cfg, Tracer* tracer,
                                         Outcome* out) {
  auto s = std::make_unique<ChurnSession>();
  s->graph = LoadGraph(cfg.graph_path, tracer, &s->load);
  {
    Span span(tracer, "store.init");
    GraphStore::Options so;
    so.tracked_degrees = {kChurnD};
    s->store = std::make_shared<GraphStore>(s->graph, so);
    s->store_init_ms = span.End();
  }
  {
    Span span(tracer, "service.engine_init");
    s->engine = std::make_unique<Engine>(s->store, ChurnEngineOptions());
  }
  const auto requests = ChurnRequests();
  s->inbox = std::make_unique<Inbox>(requests.size());
  Inbox* inbox = s->inbox.get();
  for (size_t i = 0; i < requests.size(); ++i) {
    mlcore::SubscriptionOptions so;
    so.on_revision = [inbox, i](const mlcore::ResultRevision& rev) {
      inbox->Receive(static_cast<int>(i), rev);
    };
    Span span(tracer, "service.subscribe");
    auto sub = s->engine->Subscribe(requests[i], so);
    if (!sub.ok()) Die("subscribe: " + sub.status().message);
    s->subs.push_back(*sub);
  }
  out->Check(inbox->WaitFor(0, 1, 120e3), "first revisions never arrived");
  return s;
}

struct WriterResult {
  std::vector<double> due_ms, update_ms, apply_ms, lag_ms, done_ms;
  std::vector<uint64_t> epochs;
  std::vector<int64_t> queries;  // trace query id per batch
  int64_t core_changes = 0, incremental = 0, full = 0;
  size_t next = 0;
};

/// Open loop: batch i is due at start + i / rate, whatever the store is
/// doing; latency counts from the due time.
WriterResult Writer(ChurnSession& s, const std::vector<Batch>& stream,
                    size_t start, double seconds, Tracer* tracer,
                    Outcome* out) {
  WriterResult w;
  const double t0 = NowMs();
  size_t i = start;
  for (; i < stream.size(); ++i) {
    const double due = t0 + static_cast<double>(i - start) * 1e3 / kChurnRate;
    if (due > t0 + seconds * 1e3) break;
    const double now = NowMs();
    if (due > now) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(due - now));
    }
    const double sent = NowMs();
    const int64_t qid = tracer != nullptr ? tracer->NewQuery() : 0;
    Span span(tracer, "store.apply", 0, qid);
    auto outcome = s.store->ApplyUpdate(stream[i].batch);
    const double apply = span.End();
    const double done = NowMs();
    ++out->attempted;
    if (!outcome.ok()) {
      out->Fail("ApplyUpdate: " + outcome.status().message);
      continue;
    }
    w.due_ms.push_back(due);
    w.lag_ms.push_back(sent - due);
    w.apply_ms.push_back(apply);
    w.update_ms.push_back(done - due);
    w.done_ms.push_back(done);
    w.epochs.push_back(outcome->epoch);
    w.queries.push_back(qid);
    w.core_changes += outcome->core_exits + outcome->core_entries;
    w.incremental += outcome->incremental_layer_updates;
    w.full += outcome->full_layer_recomputes;
  }
  w.next = i;
  return w;
}

struct Freshness {
  std::vector<double> fresh_ms, lag_ms;
  // Revisions delivered ÷ (last delivery − first due time).
  double deliveries_per_s = 0;
};

/// Per (batch, subscription): due time → first delivery with epoch ≥ the
/// batch's epoch. Also checks that epochs strictly increase. A non-null
/// `tracer` gets a "service.subs.revision" span per pair, from ApplyUpdate's
/// return to the delivery, in the batch's query.
Freshness ComputeFreshness(const WriterResult& w,
                           const std::vector<Delivery>& deliveries,
                           size_t subs, Tracer* tracer, Outcome* out) {
  Freshness f;
  std::vector<std::vector<Delivery>> per(subs);
  double last_ms = 0;
  for (const auto& d : deliveries) {
    per[static_cast<size_t>(d.sub)].push_back(d);
    last_ms = std::max(last_ms, d.at_ms);
  }
  if (!w.due_ms.empty() && last_ms > w.due_ms.front()) {
    f.deliveries_per_s = static_cast<double>(deliveries.size()) * 1e3 /
                         (last_ms - w.due_ms.front());
  }
  for (size_t s = 0; s < subs; ++s) {
    const auto& ds = per[s];
    for (size_t j = 1; j < ds.size(); ++j) {
      out->Check(ds[j].epoch > ds[j - 1].epoch,
                 "revision epochs not strictly increasing");
    }
    size_t j = 0;
    for (size_t b = 0; b < w.epochs.size(); ++b) {
      while (j < ds.size() && ds[j].epoch < w.epochs[b]) ++j;
      ++out->attempted;
      if (j == ds.size()) {
        out->Fail("epoch " + std::to_string(w.epochs[b]) + " never delivered");
        continue;
      }
      f.fresh_ms.push_back(ds[j].at_ms - w.due_ms[b]);
      f.lag_ms.push_back(ds[j].at_ms - w.done_ms[b]);
      if (tracer != nullptr) {
        tracer->Add("service.subs.revision", w.queries[b], w.done_ms[b],
                    ds[j].at_ms);
      }
    }
  }
  return f;
}

void RunChurn(const Config& cfg, Outcome* out) {
  Tracer tracer;
  Tracer* tr = cfg.trace ? &tracer : nullptr;
  const auto requests = ChurnRequests();

  std::vector<double> setups;
  std::unique_ptr<ChurnSession> session;
  while (MoreSetUps(cfg, setups)) {
    session.reset();
    const double t0 = NowMs();
    session = SetUpChurn(cfg, tr, out);
    setups.push_back((NowMs() - t0) / 1e3);
  }
  ChurnSession& s = *session;
  const auto batches = static_cast<size_t>(cfg.seconds * kChurnRate) + 8;
  const std::vector<Batch> stream = MakeStream(*s.graph, batches, cfg.seed);
  s.engine->ResetStats();
  const auto subs = requests.size();
  {
    std::lock_guard<std::mutex> lock(s.inbox->mu);
    s.inbox->deliveries.clear();
    s.inbox->keep = cfg.trace;
  }

  auto drain = [&](const WriterResult& w) {
    const uint64_t final_epoch = w.epochs.empty() ? 0 : w.epochs.back();
    out->Check(s.inbox->WaitFor(final_epoch, 1, 60e3),
               "subscriptions did not reach the final epoch");
  };
  auto take = [&] {
    std::lock_guard<std::mutex> lock(s.inbox->mu);
    std::vector<Delivery> d = std::move(s.inbox->deliveries);
    s.inbox->deliveries.clear();
    return d;
  };

  Metrics& m = out->metrics;
  WriterResult w;
  Freshness f;
  out->record.emplace_back(
      "threads", "{\"nproc\": " + std::to_string(Nproc()) +
                     ", \"writer\": 1, \"query_workers\": 3, "
                     "\"dispatcher\": 1, \"pool_threads\": 1, "
                     "\"search_lanes\": 1}");
  if (!cfg.trace) {
    w = Writer(s, stream, 0, cfg.seconds, nullptr, out);
    drain(w);
    f = ComputeFreshness(w, take(), subs, nullptr, out);
  } else {
    WriterResult plain = Writer(s, stream, 0, cfg.seconds / 2, nullptr, out);
    drain(plain);
    Freshness fp = ComputeFreshness(plain, take(), subs, nullptr, out);
    mlcore::EngineCacheStats cache;
    {
      Span span(tr, "service.cache_stats");
      cache = s.engine->cache_stats();
    }
    w = Writer(s, stream, plain.next, cfg.seconds / 2, tr, out);
    drain(w);
    const std::vector<Delivery> traced = take();
    f = ComputeFreshness(w, traced, subs, tr, out);
    m.Set("bench.trace_overhead",
          Ratio(Quantile(f.fresh_ms, 0.5), Quantile(fp.fresh_ms, 0.5)), "x");
    SetCacheRatios(cache, &m);
    const mlcore::EngineCacheStats all = s.engine->cache_stats();
    m.Set("service.subs.unchanged_ratio",
          Ratio(static_cast<double>(all.revisions_unchanged_skipped),
                static_cast<double>(all.revisions_emitted)),
          "ratio");
    m.Set("service.subs.coalesced_ratio",
          Ratio(static_cast<double>(all.revisions_coalesced),
                static_cast<double>(all.revisions_emitted)),
          "ratio");
    m.Set("service.subs.delivery_lag_ms.p50", Quantile(f.lag_ms, 0.5), "ms");
    w.core_changes += plain.core_changes;
    w.incremental += plain.incremental;
    w.full += plain.full;
    w.apply_ms.insert(w.apply_ms.begin(), plain.apply_ms.begin(),
                      plain.apply_ms.end());
    w.lag_ms.insert(w.lag_ms.begin(), plain.lag_ms.begin(), plain.lag_ms.end());
  }

  // Final check: each subscription's last revision equals a fresh
  // Engine::Run on the final snapshot.
  const auto final_snap = s.store->snapshot();
  std::vector<Answer> finals;
  double cover_sum = 0;
  {
    Engine::Options o;
    o.query_workers = 0;
    Engine fresh(std::make_shared<GraphStore>(final_snap->graph_ptr()), o);
    std::lock_guard<std::mutex> lock(s.inbox->mu);
    for (size_t i = 0; i < subs; ++i) {
      auto res = fresh.Run(requests[i]);
      const Answer got{ResultHash(s.inbox->last[i]),
                       static_cast<int64_t>(
                           mlcore::CoverOf(s.inbox->last[i]).size())};
      out->Check(res.ok() && AnswerOf(*res).hash == got.hash &&
                     AnswerOf(*res).cover == got.cover,
                 "final revision differs from a fresh Run: " +
                     Key(requests[i]));
      cover_sum += static_cast<double>(got.cover);
      finals.push_back(got);
    }
  }

  if (!cfg.trace) {
    m.Set("setup_s", Quantile(setups, 0.5), "s");
    m.Set("answer_p50_ms", Quantile(f.fresh_ms, 0.5), "ms");
    m.Set("answer_p90_ms", Quantile(f.fresh_ms, 0.9), "ms");
    m.Set("answers_per_s", f.deliveries_per_s, "1/s");
    m.Set("cover_mean", cover_sum / static_cast<double>(subs), "count");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    out->record.emplace_back("samples", std::to_string(f.fresh_ms.size()));
    out->record.emplace_back("update_p50_ms",
                             Num(Quantile(w.update_ms, 0.5)));
    out->record.emplace_back("update_p90_ms",
                             Num(Quantile(w.update_ms, 0.9)));
    return;
  }

  const double batches_applied = static_cast<double>(w.apply_ms.size());
  m.Set("format.load_ms", s.load.load_ms, "ms");
  m.Set("format.mapped_mb",
        static_cast<double>(s.load.mapped_bytes) / (1 << 20), "MB");
  m.Set("store.init_ms", s.store_init_ms, "ms");
  m.Set("store.apply_ms.p50", Quantile(w.apply_ms, 0.5), "ms");
  m.Set("store.apply_ms.p90", Quantile(w.apply_ms, 0.9), "ms");
  m.Set("store.core_changes_per_batch",
        Ratio(static_cast<double>(w.core_changes), batches_applied), "count");
  m.Set("store.incremental_ratio",
        Ratio(static_cast<double>(w.incremental),
              static_cast<double>(w.incremental + w.full)),
        "ratio");
  m.Set("service.overhead_ms.p50", 0, "ms");

  // Decompose the three standing queries on the final snapshot; their
  // answers must equal the final revisions.
  Decomposition dec;
  const MultiLayerGraph& g = final_snap->graph();
  for (size_t i = 0; i < subs; ++i) {
    const Answer a = Decompose(g, requests[i], requests[i].algorithm, 1, 1,
                               &tracer, &dec, out);
    out->Check(a.hash == finals[i].hash,
               "decomposed answer differs from final revision: " +
                   Key(requests[i]));
  }
  CheckPaperBound(g, &dec, out);
  EmitDecomposition(dec, &m);
  // Cover and delta over the revision streams the subscriptions received.
  std::vector<double> cover_ms, delta_ms;
  {
    std::lock_guard<std::mutex> lock(s.inbox->mu);
    for (const auto& revs : s.inbox->kept) {
      for (size_t j = 0; j < revs.size(); ++j) {
        const int64_t qid = tracer.NewQuery();
        {
          Span span(&tracer, "dccs.cover.cover_of", 0, qid);
          mlcore::CoverOf(revs[j]);
          cover_ms.push_back(span.End());
        }
        if (j == 0) continue;
        DccsResult prev, next;
        prev.cores = revs[j - 1];
        next.cores = revs[j];
        Span span(&tracer, "dccs.cover.delta", 0, qid);
        mlcore::ComputeResultDelta(prev, next);
        delta_ms.push_back(span.End());
      }
    }
  }
  m.Set("cover.ms", Quantile(cover_ms, 0.5), "ms");
  m.Set("delta.ms", Quantile(delta_ms, 0.5), "ms");
  m.Set("bench.gen_lag_ms.p90", Quantile(w.lag_ms, 0.9), "ms");
  out->record.emplace_back("samples", std::to_string(f.fresh_ms.size()));
  out->record.emplace_back("decomposed_requests",
                           std::to_string(dec.requests));
  RecordSelfTimes(tracer, out);
  if (!cfg.trace_out.empty()) tracer.WriteChromeTrace(cfg.trace_out);
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) Die("bad argument: " + a);
    flags[a.substr(2)] = argv[++i];
  }
  return flags;
}

std::string Need(const std::map<std::string, std::string>& f,
                 const std::string& key) {
  auto it = f.find(key);
  if (it == f.end()) Die("missing --" + key);
  return it->second;
}

int Gen(const std::map<std::string, std::string>& f) {
  mlcore::format::MlgGenConfig c;
  c.num_vertices = 1 << std::stoi(Need(f, "log2n"));
  c.num_layers = std::stoi(Need(f, "layers"));
  c.edges_per_layer = std::stoll(Need(f, "edges"));
  c.seed = std::stoull(Need(f, "seed"));
  mlcore::format::MlgGenStats stats;
  mlcore::Status st = mlcore::format::GenerateMlg(c, Need(f, "out"), &stats);
  if (!st.ok()) Die("generate: " + st.message);
  std::printf("{\"edges\": %lld, \"gen_ms\": %s}\n",
              static_cast<long long>(stats.edges_written),
              Num(stats.gen_ms).c_str());
  return 0;
}

int Run(const std::map<std::string, std::string>& f) {
  Config cfg;
  cfg.workload = Need(f, "workload");
  cfg.graph_path = Need(f, "graph");
  if (f.count("ref")) cfg.ref_path = f.at("ref");
  cfg.seed = std::stoull(Need(f, "seed"));
  cfg.seconds = std::stod(Need(f, "seconds"));
  cfg.trace = Need(f, "trace") == "1";
  if (f.count("trace-out")) cfg.trace_out = f.at("trace-out");

  Outcome out;
  out.record.emplace_back(
      "probe_ms", "{\"threads_1\": " + Num(ProbeMs(1)) + ", \"threads_" +
                      std::to_string(Nproc()) + "\": " + Num(ProbeMs(Nproc())) +
                      "}");
  if (cfg.workload == "explore") {
    RunQueryWorkload(cfg, &out);
  } else if (cfg.workload == "churn") {
    RunChurn(cfg, &out);
  } else {
    Die("unknown workload " + cfg.workload);
  }
  std::string record = "{\"build_type\": " + Quote(MLBENCH_BUILD_TYPE);
  for (const auto& [k, v] : out.record) record += ", " + Quote(k) + ": " + v;
  record += ", \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); ++i) {
    record += (i > 0 ? ", " : "") + Quote(out.failures[i]);
  }
  record += "]}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s, \"record\": %s}\n",
      out.failed == 0 ? "true" : "false",
      static_cast<long long>(std::max<int64_t>(out.attempted, 1)),
      static_cast<long long>(out.failed), out.metrics.Json().c_str(),
      record.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: mlbench gen|ref|run --flag value ...");
  const std::string mode = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (mode == "gen") return Gen(flags);
  if (mode == "ref") {
    WriteReference(Need(flags, "out"), LoadGraph(Need(flags, "graph"), nullptr),
                   MakeQueryWorkload().menu);
    return 0;
  }
  if (mode == "run") return Run(flags);
  Die("unknown mode " + mode);
}
