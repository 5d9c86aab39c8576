// Fig 26: time vs vertex-sampling fraction p (GD/BU small s, GD/TD
//         large s).
// Fig 27: time vs layer-sampling fraction q (same algorithms).
//
// Expected shapes (paper §VI): all algorithms scale roughly linearly in p
// (d-CC computation is linear in the vertex count); time grows with q and
// GD-DCCS grows much faster than BU/TD (C(l, s) explosion vs pruning).
//
// By default the sweeps run on the Stack stand-in dataset. With any of
//   --gen_scale=S --gen_edges=E --gen_layers=L --gen_seed=R
// they instead run on a generated MLG1 graph (format/generator.h): 2^S
// vertices, E edge draws per layer, L layers — the path for probing
// scales beyond the committed stand-ins.
//
// Either way the binary also measures the ingest formats themselves —
// text-parse vs zero-copy mmap load of the same graph, plus a query-result
// parity check between the two loads — and writes the record to
// --json (default BENCH_format.json). --format_only skips the Fig 26/27
// sweeps, leaving just that ingest comparison: the mode for huge generated
// graphs (10⁷+ edges) where a full GD sweep would run for hours.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/io.h"
#include "graph/sampling.h"

namespace {

/// Text-parse vs mmap ingest of `graph`, with a BU query-parity check
/// between the two loaded copies. Returns the BENCH_format.json document.
std::string FormatComparisonJson(const mlcore::MultiLayerGraph& graph,
                                 const std::string& source) {
  const std::string text_path = "/tmp/mlcore_bench_format.txt";
  const std::string bin_path = "/tmp/mlcore_bench_format.mlg";
  mlcore::Status saved = SaveMultiLayerGraph(graph, text_path);
  MLCORE_CHECK_MSG(saved.ok(), saved.message.c_str());
  mlcore::Status written = mlcore::format::WriteMlgGraph(graph, bin_path);
  MLCORE_CHECK_MSG(written.ok(), written.message.c_str());

  mlcore::MultiLayerGraph from_text;
  mlcore::WallTimer text_timer;
  mlcore::Status loaded = LoadMultiLayerGraph(text_path, &from_text);
  const double text_ms = text_timer.Millis();
  MLCORE_CHECK_MSG(loaded.ok(), loaded.message.c_str());

  mlcore::MultiLayerGraph mapped;
  mlcore::format::MlgLoadStats stats;
  mlcore::Status mmapped =
      mlcore::format::LoadMlgGraph(bin_path, &mapped, &stats);
  MLCORE_CHECK_MSG(mmapped.ok(), mmapped.message.c_str());

  mlcore::DccsParams params;
  params.d = 2;
  params.s = std::min(2, graph.NumLayers());
  params.k = 5;
  // Same algorithm on both copies: any divergence is the storage seam's
  // fault, not tie-breaking between different exact methods.
  const auto text_run = mlcore::bench::RunAlgorithm(
      from_text, params, mlcore::DccsAlgorithm::kBottomUp);
  const auto mmap_run = mlcore::bench::RunAlgorithm(
      mapped, params, mlcore::DccsAlgorithm::kBottomUp);
  const bool parity = text_run.cover == mmap_run.cover;

  const double speedup = stats.load_ms > 0 ? text_ms / stats.load_ms : 0.0;
  std::printf("[format] text load %.2f ms, mmap load %.2f ms "
              "(%.1fx), parity %s\n",
              text_ms, stats.load_ms, speedup, parity ? "ok" : "MISMATCH");

  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"version\": 1, \"source\": \"%s\",\n"
      " \"vertices\": %lld, \"layers\": %lld, \"edges\": %lld,\n"
      " \"text_load_ms\": %.3f, \"mmap_load_ms\": %.3f,\n"
      " \"mmap_speedup\": %.2f, \"mapped_bytes\": %lld,\n"
      " \"query\": {\"d\": %d, \"s\": %d, \"k\": %d,\n"
      "   \"cover_text_bu\": %lld, \"cover_mmap_bu\": %lld,\n"
      "   \"parity\": %s}}\n",
      source.c_str(), static_cast<long long>(stats.num_vertices),
      static_cast<long long>(stats.num_layers),
      static_cast<long long>(stats.total_edges), text_ms, stats.load_ms,
      speedup, static_cast<long long>(stats.mapped_bytes), params.d,
      params.s, params.k, static_cast<long long>(text_run.cover),
      static_cast<long long>(mmap_run.cover), parity ? "true" : "false");
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::bench::BenchContext context(
      flags, {"gen_scale", "gen_edges", "gen_layers", "gen_seed",
              "format_only", "json"});

  // Sweep target: Stack by default, a generated MLG1 graph when any
  // --gen_* flag is present. The generated container round-trips through
  // the real binary ingest path (write, mmap-load) rather than staying
  // in memory — the bench measures what users of mlggen get.
  const bool generated = flags.Has("gen_scale") || flags.Has("gen_edges") ||
                         flags.Has("gen_layers") || flags.Has("gen_seed");
  mlcore::MultiLayerGraph target;
  std::string source = "stack";
  if (generated) {
    mlcore::format::MlgGenConfig config;
    config.num_vertices =
        1 << flags.GetInt("gen_scale", context.quick ? 12 : 15);
    config.edges_per_layer =
        flags.GetInt("gen_edges", 8LL * config.num_vertices);
    config.num_layers = static_cast<int32_t>(flags.GetInt("gen_layers", 6));
    config.seed = static_cast<uint64_t>(flags.GetInt("gen_seed", 1));
    const std::string path = "/tmp/mlcore_bench_gen.mlg";
    std::printf("[bench] generating 2^%lld-vertex, %d-layer MLG1 graph...\n",
                flags.GetInt("gen_scale", context.quick ? 12 : 15),
                config.num_layers);
    mlcore::format::MlgGenStats gen_stats;
    mlcore::Status status = GenerateMlg(config, path, &gen_stats);
    MLCORE_CHECK_MSG(status.ok(), status.message.c_str());
    status = mlcore::format::LoadMlgGraph(path, &target);
    MLCORE_CHECK_MSG(status.ok(), status.message.c_str());
    std::printf("[bench] generated %lld edges in %.0f ms\n",
                static_cast<long long>(gen_stats.edges_written),
                gen_stats.gen_ms);
    source = "generated";
  } else {
    target = context.Load("stack").graph;
  }

  std::vector<double> fractions =
      context.quick ? std::vector<double>{0.4, 1.0}
                    : std::vector<double>{0.2, 0.4, 0.6, 0.8, 1.0};
  constexpr uint64_t kSampleSeed = 20180417;
  if (flags.GetBool("format_only", false)) fractions.clear();

  auto run_pair = [&](const mlcore::MultiLayerGraph& graph, int s,
                      mlcore::DccsAlgorithm search) {
    mlcore::DccsParams params;
    params.s = s;
    auto gd = mlcore::bench::RunAlgorithm(graph, params,
                                          mlcore::DccsAlgorithm::kGreedy);
    auto other = mlcore::bench::RunAlgorithm(graph, params, search);
    return std::make_pair(gd, other);
  };

  if (!fractions.empty()) {
    mlcore::bench::PrintFigureHeader(
        "Fig 26: time vs vertex fraction p on " + source,
        "all algorithms scale ~linearly with p");
  }
  mlcore::Table p_table({"p", "GD s=3 (s)", "BU s=3 (s)", "GD s=l-2 (s)",
                         "TD s=l-2 (s)"});
  for (double p : fractions) {
    mlcore::MultiLayerGraph sampled =
        mlcore::SampleVertices(target, p, kSampleSeed);
    auto [gd_small, bu] = run_pair(sampled, std::min(3, sampled.NumLayers()),
                                   mlcore::DccsAlgorithm::kBottomUp);
    auto [gd_large, td] =
        run_pair(sampled, std::max(1, sampled.NumLayers() - 2),
                 mlcore::DccsAlgorithm::kTopDown);
    p_table.AddRow({mlcore::Table::Num(p, 1),
                    mlcore::Table::Num(gd_small.seconds),
                    mlcore::Table::Num(bu.seconds),
                    mlcore::Table::Num(gd_large.seconds),
                    mlcore::Table::Num(td.seconds)});
  }
  if (!fractions.empty()) {
    p_table.Print();
    std::printf("\n");
    mlcore::bench::PrintFigureHeader(
        "Fig 27: time vs layer fraction q on " + source,
        "time grows with q; GD-DCCS grows much faster than BU/TD");
  }
  mlcore::Table q_table({"q", "layers", "GD s=3 (s)", "BU s=3 (s)",
                         "GD s=l-2 (s)", "TD s=l-2 (s)"});
  for (double q : fractions) {
    mlcore::MultiLayerGraph sampled =
        mlcore::SampleLayers(target, q, kSampleSeed);
    const int l = sampled.NumLayers();
    // Small-s runs need s <= l; q = 0.2 keeps only 4 layers, still >= 3.
    auto [gd_small, bu] = run_pair(sampled, std::min(3, l),
                                   mlcore::DccsAlgorithm::kBottomUp);
    auto [gd_large, td] = run_pair(sampled, std::max(1, l - 2),
                                   mlcore::DccsAlgorithm::kTopDown);
    q_table.AddRow({mlcore::Table::Num(q, 1), mlcore::Table::Int(l),
                    mlcore::Table::Num(gd_small.seconds),
                    mlcore::Table::Num(bu.seconds),
                    mlcore::Table::Num(gd_large.seconds),
                    mlcore::Table::Num(td.seconds)});
  }
  if (!fractions.empty()) {
    q_table.Print();
    std::printf("\n");
  }

  const std::string json_path =
      flags.GetString("json", "BENCH_format.json");
  const std::string json = FormatComparisonJson(target, source);
  if (mlcore::obs::WriteFile(json_path, json) && json_path != "-") {
    std::printf("[bench] format comparison written to %s\n",
                json_path.c_str());
  }
  return 0;
}
