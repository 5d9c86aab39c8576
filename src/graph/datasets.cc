#include "graph/datasets.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <type_traits>

#include "format/mlg.h"
#include "util/check.h"
#include "util/rng.h"

namespace mlcore {

namespace {

struct DatasetSpec {
  const char* name;
  int32_t num_vertices;
  int32_t num_layers;
  int num_communities;
  int community_size_min;
  int community_size_max;
  double background_avg_degree;
  // Community density band. PPI/Author carry near-clique communities (the
  // paper's quasi-clique comparison requires γ=0.8 quasi-cliques to exist
  // on ≥ l/2 layers); the scaled large graphs use a looser band.
  double internal_prob_min;
  double internal_prob_max;
  int community_layers_min;
  // All-layer community share and size cap: controls how large the cores
  // at s ≈ l are (the paper's Stack/Wiki covers shrink to 10^0–10^3 there).
  double all_layers_fraction;
  int all_layers_size_cap;
  uint64_t seed;
  bool with_complexes;
};

// Layer counts match the paper's Fig 12 (PPI 8, Author 10, German 14,
// Wiki 24, English 15, Stack 24). Vertex counts for the four large graphs
// are scaled to laptop size; PPI and Author match the paper exactly.
constexpr DatasetSpec kSpecs[] = {
    {"ppi", 328, 8, 14, 8, 26, 2.2, 0.85, 0.97, 4, 0.15, 0,
     0x9e3779b97f4a7c15ULL, true},
    {"author", 1017, 10, 18, 10, 34, 2.0, 0.85, 0.97, 5, 0.15, 0,
     0xbf58476d1ce4e5b9ULL, false},
    {"german", 40000, 14, 40, 30, 90, 2.0, 0.45, 0.75, 2, 0.12, 0,
     0x94d049bb133111ebULL, false},
    {"wiki", 60000, 24, 50, 30, 90, 1.4, 0.45, 0.75, 2, 0.05, 45,
     0xd6e8feb86659fd93ULL, false},
    {"english", 90000, 15, 60, 30, 100, 1.8, 0.45, 0.75, 2, 0.10, 60,
     0xa5a5a5a55a5a5a5aULL, false},
    {"stack", 130000, 24, 70, 30, 110, 2.2, 0.45, 0.75, 2, 0.05, 45,
     0xc2b2ae3d27d4eb4fULL, false},
};

const DatasetSpec* FindSpec(const std::string& name) {
  for (const auto& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Derives planted "protein complexes" (Fig 32 ground truth) as dense
// sub-groups of planted communities: each complex is a 3..8-vertex subset of
// a community, so it is densely connected on the community's layers by
// construction — exactly the property the MIPS complexes have on PPI.
std::vector<VertexSet> DeriveComplexes(
    const std::vector<PlantedCommunity>& communities, uint64_t seed) {
  Rng rng(seed ^ 0x5bf03635ULL);
  std::vector<VertexSet> complexes;
  for (const auto& community : communities) {
    int count = static_cast<int>(rng.Uniform(1, 2));
    for (int c = 0; c < count; ++c) {
      auto size = static_cast<size_t>(rng.Uniform(3, 8));
      if (size > community.vertices.size()) size = community.vertices.size();
      VertexSet shuffled = community.vertices;
      std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
      shuffled.resize(size);
      std::sort(shuffled.begin(), shuffled.end());
      complexes.push_back(std::move(shuffled));
    }
  }
  return complexes;
}

/// Writes one cache file under a temporary name in the same directory and
/// renames it over `path`. A reader never sees a half-written file, and one
/// that still has the previous file mapped keeps reading intact bytes (an
/// in-place truncation would SIGBUS it).
template <typename Write>
Status WriteAtomically(const std::string& path, Write write) {
  const std::string temp = path + ".tmp" + std::to_string(::getpid());
  Status status = write(temp);
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::InvalidArgument("cannot rename " + temp + " to " + path);
  }
  if (!status.ok()) std::remove(temp.c_str());
  return status;
}

/// The `.meta` sidecar: the name and the planted ground truth as text.
Status WriteMeta(const Dataset& dataset, const std::string& path) {
  std::ofstream meta(path);
  meta << dataset.name << "\n";
  meta << dataset.communities.size() << "\n";
  for (const auto& community : dataset.communities) {
    meta << community.internal_prob << " " << community.layers.size();
    for (LayerId layer : community.layers) meta << " " << layer;
    meta << " " << community.vertices.size();
    for (VertexId v : community.vertices) meta << " " << v;
    meta << "\n";
  }
  meta << dataset.complexes.size() << "\n";
  for (const auto& complex : dataset.complexes) {
    meta << complex.size();
    for (VertexId v : complex) meta << " " << v;
    meta << "\n";
  }
  meta.close();
  if (!meta) return Status::InvalidArgument("cannot write " + path);
  return Status::Ok();
}

}  // namespace

std::vector<std::string> DatasetNames() {
  std::vector<std::string> names;
  for (const auto& spec : kSpecs) names.emplace_back(spec.name);
  return names;
}

Dataset MakeDataset(const std::string& name, double scale) {
  const DatasetSpec* spec = FindSpec(name);
  MLCORE_CHECK_MSG(spec != nullptr, ("unknown dataset: " + name).c_str());
  MLCORE_CHECK(scale > 0.0 && scale <= 1.0);

  PlantedGraphConfig config;
  config.num_vertices = std::max<int32_t>(
      static_cast<int32_t>(std::lround(spec->num_vertices * scale)), 64);
  config.num_layers = spec->num_layers;
  config.num_communities = std::max<int>(
      static_cast<int>(std::lround(spec->num_communities * scale)), 4);
  config.community_size_min = spec->community_size_min;
  config.community_size_max = spec->community_size_max;
  config.background_avg_degree = spec->background_avg_degree;
  config.internal_prob_min = spec->internal_prob_min;
  config.internal_prob_max = spec->internal_prob_max;
  config.community_layers_min = spec->community_layers_min;
  config.all_layers_fraction = spec->all_layers_fraction;
  config.all_layers_size_cap = spec->all_layers_size_cap;
  config.seed = spec->seed;

  PlantedGraph planted = GeneratePlanted(config);

  Dataset dataset;
  dataset.name = name;
  dataset.graph = std::move(planted.graph);
  dataset.communities = std::move(planted.communities);
  if (spec->with_complexes) {
    dataset.complexes = DeriveComplexes(dataset.communities, spec->seed);
  }
  return dataset;
}

Status SaveDataset(const Dataset& dataset, const std::string& path) {
  Status status = WriteAtomically(path + ".mlg", [&](const std::string& temp) {
    return format::WriteMlgGraph(dataset.graph, temp);
  });
  if (!status.ok()) return status;
  return WriteAtomically(path + ".meta", [&](const std::string& temp) {
    return WriteMeta(dataset, temp);
  });
}

Status LoadDataset(const std::string& path, Dataset* dataset) {
  Status status = format::LoadMlgGraph(path + ".mlg", &dataset->graph);
  if (!status.ok()) return status;
  const std::string meta_path = path + ".meta";
  std::ifstream meta(meta_path);
  // Lists grow element by element, so a corrupt count fails at the end of
  // the file instead of allocating up front.
  auto read_list = [&meta](auto* values) {
    size_t size = 0;
    if (!(meta >> size)) return false;
    values->clear();
    while (values->size() < size) {
      typename std::decay_t<decltype(*values)>::value_type value{};
      if (!(meta >> value)) return false;
      values->push_back(value);
    }
    return true;
  };
  size_t count = 0;
  bool ok = static_cast<bool>(meta >> dataset->name >> count);
  dataset->communities.clear();
  while (ok && dataset->communities.size() < count) {
    PlantedCommunity& community = dataset->communities.emplace_back();
    ok = (meta >> community.internal_prob) && read_list(&community.layers) &&
         read_list(&community.vertices);
  }
  ok = ok && (meta >> count);
  dataset->complexes.clear();
  while (ok && dataset->complexes.size() < count) {
    ok = read_list(&dataset->complexes.emplace_back());
  }
  if (!ok) {
    return Status::InvalidArgument(meta_path +
                                   ": missing or malformed dataset metadata");
  }
  return Status::Ok();
}

}  // namespace mlcore
