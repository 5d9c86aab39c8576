// Seeded mutation fuzzer for the three input formats a deployment reads
// from disk: MLG1 containers (LoadMlgGraph, as mutated and with the
// checksums re-stamped, as a crafted file would carry them), text graphs
// (LoadMultiLayerGraph) and edge-update streams (LoadUpdateStream). Each case mutates a small valid file by bit flips,
// truncation or appended bytes under a fixed seed. Every mutant must either
// come back as an error status, or load into something that keeps the
// format's invariants and round-trips through its writer. The suite name
// carries the Format* prefix the ASan/UBSan CI filters select, so hostile
// bytes that reach undefined behaviour fail there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "format/mlg.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/multilayer_graph.h"
#include "mlg_restamp.h"
#include "store/update.h"
#include "test_temp.h"
#include "util/rng.h"

namespace mlcore {
namespace {

constexpr int kMutantsPerSeed = 150;
constexpr uint64_t kSeeds[] = {1, 2, 3};

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One mutant of `bytes`: 1–4 flipped bits, a truncation, or 1–64 appended
/// bytes (random, or a copy of a slice of the file so appended text stays
/// plausible).
std::vector<char> Mutate(const std::vector<char>& bytes, Rng& rng) {
  std::vector<char> out = bytes;
  const int64_t size = static_cast<int64_t>(out.size());
  switch (rng.Uniform(0, 2)) {
    case 0:
      for (int64_t flips = rng.Uniform(1, 4); flips > 0; --flips) {
        out[static_cast<size_t>(rng.Uniform(0, size - 1))] ^=
            static_cast<char>(1 << rng.Uniform(0, 7));
      }
      break;
    case 1:
      out.resize(static_cast<size_t>(rng.Uniform(0, size - 1)));
      break;
    default: {
      const int64_t count = rng.Uniform(1, 64);
      if (rng.Bernoulli(0.5)) {
        for (int64_t i = 0; i < count; ++i) {
          out.push_back(static_cast<char>(rng.Uniform(0, 255)));
        }
      } else {
        const int64_t from = rng.Uniform(0, size - 1);
        for (int64_t i = 0; i < count && from + i < size; ++i) {
          out.push_back(bytes[static_cast<size_t>(from + i)]);
        }
      }
    }
  }
  return out;
}

/// The invariants MultiLayerGraph::FromMappedCsr relies on, per layer:
/// n + 1 offsets from 0 to the neighbour count, non-decreasing, and each
/// list strictly ascending, in [0, n) and free of self-loops.
void ExpectCsrInvariants(const MultiLayerGraph& graph,
                         const std::string& label) {
  const int64_t n = graph.NumVertices();
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    const auto csr = graph.LayerCsr(layer);
    ASSERT_EQ(static_cast<int64_t>(csr.offsets.size()), n + 1) << label;
    ASSERT_EQ(csr.offsets.front(), 0) << label;
    ASSERT_EQ(csr.offsets.back(), static_cast<int64_t>(csr.neighbors.size()))
        << label;
    for (int64_t v = 0; v < n; ++v) {
      const int64_t begin = csr.offsets[static_cast<size_t>(v)];
      const int64_t end = csr.offsets[static_cast<size_t>(v) + 1];
      ASSERT_LE(begin, end) << label << " layer " << layer << " v " << v;
      VertexId prev = -1;
      for (int64_t i = begin; i < end; ++i) {
        const VertexId u = csr.neighbors[static_cast<size_t>(i)];
        ASSERT_GT(u, prev) << label << " layer " << layer << " v " << v;
        ASSERT_LT(u, n) << label << " layer " << layer << " v " << v;
        ASSERT_NE(u, v) << label << " layer " << layer;
        prev = u;
      }
    }
  }
}

/// Writes `graph` with MlgWriter, loads it back, and expects the same CSR
/// arrays entry for entry.
void ExpectMlgRoundTrip(const MultiLayerGraph& graph,
                        const std::string& label) {
  const std::string path = TestTempPath("roundtrip.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(graph, path).ok()) << label;
  MultiLayerGraph reloaded;
  const Status status = format::LoadMlgGraph(path, &reloaded);
  ASSERT_TRUE(status.ok()) << label << ": " << status.message;
  ASSERT_EQ(reloaded.NumVertices(), graph.NumVertices()) << label;
  ASSERT_EQ(reloaded.NumLayers(), graph.NumLayers()) << label;
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    const auto a = reloaded.LayerCsr(layer);
    const auto b = graph.LayerCsr(layer);
    ASSERT_TRUE(std::equal(a.offsets.begin(), a.offsets.end(),
                           b.offsets.begin(), b.offsets.end()))
        << label << " layer " << layer;
    ASSERT_TRUE(std::equal(a.neighbors.begin(), a.neighbors.end(),
                           b.neighbors.begin(), b.neighbors.end()))
        << label << " layer " << layer;
  }
}

MultiLayerGraph FuzzGraph() { return GenerateErdosRenyi(48, 3, 0.12, 17); }

/// Runs kMutantsPerSeed mutants of `original` per seed through `check`,
/// which loads the mutant at `path` and verifies whatever loaded. A
/// non-null `fix` edits each mutant before it is written.
template <typename Check>
void FuzzFile(const std::vector<char>& original, const std::string& path,
              const Check& check,
              void (*fix)(std::vector<char>*) = nullptr) {
  ASSERT_FALSE(original.empty());
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::vector<char> mutant = Mutate(original, rng);
      if (fix != nullptr) fix(&mutant);
      WriteBytes(path, mutant);
      check("seed=" + std::to_string(seed) + " mutant=" + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

void FuzzMlg(void (*fix)(std::vector<char>*)) {
  const std::string base = TestTempPath("base.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(FuzzGraph(), base).ok());
  const std::string path = TestTempPath("mutant.mlg");
  FuzzFile(
      ReadBytes(base), path,
      [&](const std::string& label) {
        MultiLayerGraph graph;
        if (!format::LoadMlgGraph(path, &graph).ok()) return;
        ExpectCsrInvariants(graph, label);
        ExpectMlgRoundTrip(graph, label);
      },
      fix);
}

TEST(FormatFuzzTest, MlgMutantsAreRejectedOrValid) { FuzzMlg(nullptr); }

// A mutant with re-stamped checksums passes the checksum checks, so only
// the structural validation stands between it and the graph.
TEST(FormatFuzzTest, RestampedMlgMutantsAreRejectedOrValid) {
  FuzzMlg(RestampMlgChecksums);
}

TEST(FormatFuzzTest, TextGraphMutantsAreRejectedOrValid) {
  const std::string base = TestTempPath("base.txt");
  ASSERT_TRUE(SaveMultiLayerGraph(FuzzGraph(), base).ok);
  const std::string path = TestTempPath("mutant.txt");
  FuzzFile(ReadBytes(base), path, [&](const std::string& label) {
    MultiLayerGraph graph;
    if (!LoadMultiLayerGraph(path, &graph).ok) return;
    ExpectCsrInvariants(graph, label);
    ExpectMlgRoundTrip(graph, label);
  });
}

TEST(FormatFuzzTest, UpdateStreamMutantsAreRejectedOrValid) {
  std::vector<UpdateBatch> batches(3);
  batches[0].Insert(0, 1, 2).Insert(1, 3, 40).Remove(2, 5, 6);
  batches[1].AddVertices(4).RemoveVertex(7).Insert(0, 48, 9);
  batches[2].Remove(0, 1, 2).RemoveVertex(11).Insert(2, 12, 13);
  const std::string base = TestTempPath("base.updates");
  ASSERT_TRUE(SaveUpdateStream(batches, base).ok);
  const std::string path = TestTempPath("mutant.updates");
  const std::string resaved = TestTempPath("resaved.updates");
  FuzzFile(ReadBytes(base), path, [&](const std::string& label) {
    std::vector<UpdateBatch> loaded;
    if (!LoadUpdateStream(path, &loaded).ok) return;
    // The loader's structural promise: non-negative ids and counts, and
    // no empty batch.
    for (const UpdateBatch& batch : loaded) {
      ASSERT_FALSE(batch.empty()) << label;
      ASSERT_GE(batch.add_vertices, 0) << label;
      for (VertexId v : batch.remove_vertices) ASSERT_GE(v, 0) << label;
      for (const auto* edges : {&batch.insert_edges, &batch.remove_edges}) {
        for (const EdgeUpdate& e : *edges) {
          ASSERT_TRUE(e.layer >= 0 && e.u >= 0 && e.v >= 0) << label;
        }
      }
    }
    std::vector<UpdateBatch> reloaded;
    ASSERT_TRUE(SaveUpdateStream(loaded, resaved).ok) << label;
    ASSERT_TRUE(LoadUpdateStream(resaved, &reloaded).ok) << label;
    ASSERT_EQ(reloaded.size(), loaded.size()) << label;
    for (size_t b = 0; b < loaded.size(); ++b) {
      EXPECT_EQ(reloaded[b].add_vertices, loaded[b].add_vertices) << label;
      EXPECT_EQ(reloaded[b].remove_vertices, loaded[b].remove_vertices)
          << label;
      EXPECT_EQ(reloaded[b].insert_edges, loaded[b].insert_edges) << label;
      EXPECT_EQ(reloaded[b].remove_edges, loaded[b].remove_edges) << label;
    }
  });
}

}  // namespace
}  // namespace mlcore
