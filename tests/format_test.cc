// Tests for the MLG1 binary graph subsystem (DESIGN.md §13): round-trip
// bit-identity between the text format and the container, the corruption
// matrix (structured Status on hostile input, never UB — CI runs this file
// under ASan), zero-copy mmap'd graphs served through GraphStore/Engine
// including an update epoch on a mapped base, generator determinism, and
// the strictened std::from_chars text parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dccs/dccs.h"
#include "format/generator.h"
#include "format/mlg.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"
#include "graph/io.h"
#include "graph/multilayer_graph.h"
#include "mlg_restamp.h"
#include "obs/span.h"
#include "store/graph_store.h"
#include "test_temp.h"
#include "util/mmap_file.h"

namespace mlcore {
namespace {

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// Adjacency-array-level equality: every layer's CSR block matches entry
/// for entry — stronger than edge-set equality, and exactly the bit
/// surface MLG1 serialises.
void ExpectIdenticalCsr(const MultiLayerGraph& actual,
                        const MultiLayerGraph& expected) {
  ASSERT_EQ(actual.NumVertices(), expected.NumVertices());
  ASSERT_EQ(actual.NumLayers(), expected.NumLayers());
  for (LayerId layer = 0; layer < actual.NumLayers(); ++layer) {
    const auto a = actual.LayerCsr(layer);
    const auto b = expected.LayerCsr(layer);
    ASSERT_EQ(a.offsets.size(), b.offsets.size()) << "layer " << layer;
    EXPECT_TRUE(std::equal(a.offsets.begin(), a.offsets.end(),
                           b.offsets.begin()))
        << "layer " << layer << " offsets differ";
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "layer " << layer;
    EXPECT_TRUE(std::equal(a.neighbors.begin(), a.neighbors.end(),
                           b.neighbors.begin()))
        << "layer " << layer << " neighbors differ";
  }
}

void ExpectSameResult(const DccsResult& actual, const DccsResult& expected) {
  ASSERT_EQ(actual.cores.size(), expected.cores.size());
  for (size_t i = 0; i < actual.cores.size(); ++i) {
    EXPECT_EQ(actual.cores[i].layers, expected.cores[i].layers) << i;
    EXPECT_EQ(actual.cores[i].vertices, expected.cores[i].vertices) << i;
  }
  EXPECT_EQ(actual.CoverSize(), expected.CoverSize());
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(FormatRoundTripTest, EveryDatasetSurvivesTextBinaryLoadBitIdentically) {
  for (const std::string& name : DatasetNames()) {
    const Dataset dataset = MakeDataset(name, 0.15);
    const std::string bin = TestTempPath("rt_" + name + ".mlg");
    ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, bin).ok()) << name;

    MultiLayerGraph mapped;
    format::MlgLoadStats stats;
    Status loaded = format::LoadMlgGraph(bin, &mapped, &stats);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.message;
    ExpectIdenticalCsr(mapped, dataset.graph);
    EXPECT_GT(mapped.MappedBytes(), 0) << name;
    EXPECT_EQ(stats.total_edges, dataset.graph.TotalEdges()) << name;
    EXPECT_EQ(stats.mapped_bytes, mapped.MappedBytes()) << name;
    std::remove(bin.c_str());
  }
}

TEST(FormatRoundTripTest, RewritingMappedGraphIsByteIdentical) {
  const Dataset dataset = MakeDataset("ppi");
  const std::string first = TestTempPath("bytes_a.mlg");
  const std::string second = TestTempPath("bytes_b.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, first).ok());

  MultiLayerGraph mapped;
  ASSERT_TRUE(format::LoadMlgGraph(first, &mapped).ok());
  // binary → graph → binary: the writer serialises the mapped views
  // straight back out, so the container reproduces byte for byte.
  ASSERT_TRUE(format::WriteMlgGraph(mapped, second).ok());
  EXPECT_EQ(ReadAllBytes(first), ReadAllBytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(FormatRoundTripTest, TextRoundTripThroughContainerPreservesGraph) {
  const Dataset dataset = MakeDataset("author", 0.2);
  const std::string text = TestTempPath("rt.txt");
  const std::string bin = TestTempPath("rt.mlg");
  ASSERT_TRUE(SaveMultiLayerGraph(dataset.graph, text).ok());

  MultiLayerGraph from_text;
  ASSERT_TRUE(LoadMultiLayerGraph(text, &from_text).ok());
  ASSERT_TRUE(format::WriteMlgGraph(from_text, bin).ok());
  MultiLayerGraph mapped;
  ASSERT_TRUE(format::LoadMlgGraph(bin, &mapped).ok());
  ExpectIdenticalCsr(mapped, dataset.graph);
  std::remove(text.c_str());
  std::remove(bin.c_str());
}

TEST(FormatRoundTripTest, MappedGraphAnswersQueriesIdentically) {
  const Dataset dataset = MakeDataset("ppi");
  const std::string bin = TestTempPath("query.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, bin).ok());
  MultiLayerGraph mapped;
  ASSERT_TRUE(format::LoadMlgGraph(bin, &mapped).ok());

  DccsParams params;
  params.d = 2;
  params.s = 2;
  params.k = 5;
  for (DccsAlgorithm algorithm :
       {DccsAlgorithm::kBottomUp, DccsAlgorithm::kTopDown,
        DccsAlgorithm::kGreedy}) {
    const DccsResult expected = SolveDccs(dataset.graph, params, algorithm);
    const DccsResult actual = SolveDccs(mapped, params, algorithm);
    ExpectSameResult(actual, expected);
  }
  std::remove(bin.c_str());
}

TEST(FormatRoundTripTest, LoadRecordsGraphLoadSpanAndStats) {
  const Dataset dataset = MakeDataset("ppi", 0.3);
  const std::string bin = TestTempPath("span.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, bin).ok());

  obs::Trace trace;
  MultiLayerGraph mapped;
  format::MlgLoadStats stats;
  ASSERT_TRUE(format::LoadMlgGraph(bin, &mapped, &stats, &trace).ok());
  EXPECT_GE(stats.load_ms, 0);
  EXPECT_EQ(stats.num_vertices, dataset.graph.NumVertices());
  EXPECT_EQ(stats.num_layers, dataset.graph.NumLayers());

  bool saw_load_span = false;
  for (const obs::SpanRecord& record : trace.records()) {
    saw_load_span |= std::string(record.name) == "graph.load";
  }
  EXPECT_TRUE(saw_load_span);
  std::remove(bin.c_str());
}

// ---------------------------------------------------------------------------
// Corruption matrix — every entry must yield a structured Status naming the
// file; none may crash (CI runs this under ASan).
// ---------------------------------------------------------------------------

class FormatCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath("corrupt.mlg");
    const Dataset dataset = MakeDataset("ppi", 0.3);
    ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, path_).ok());
    bytes_ = ReadAllBytes(path_);
    ASSERT_GE(bytes_.size(), 64u);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` over the container and expects the load to fail with
  /// a Status mentioning the file.
  void ExpectRejected(const std::vector<char>& bytes) {
    WriteAllBytes(path_, bytes);
    MultiLayerGraph graph;
    const Status status = format::LoadMlgGraph(path_, &graph);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message.find(path_), std::string::npos)
        << status.message;
  }

  uint64_t ReadU64(size_t offset) const {
    uint64_t value;
    std::memcpy(&value, bytes_.data() + offset, sizeof(value));
    return value;
  }

  /// Patches 8 bytes at `offset` and re-stamps the checksums so the
  /// tamper survives the checksum checks and reaches deeper validation.
  std::vector<char> PatchedWithValidChecksum(size_t offset, uint64_t value) {
    std::vector<char> patched = bytes_;
    std::memcpy(patched.data() + offset, &value, sizeof(value));
    RestampMlgChecksums(&patched);
    return patched;
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(FormatCorruptionTest, TruncationAtEveryBoundaryIsRejected) {
  for (const size_t size :
       {size_t{0}, size_t{1}, size_t{17}, size_t{63}, size_t{64},
        size_t{100}, bytes_.size() / 2, bytes_.size() - 1}) {
    std::vector<char> truncated(bytes_.begin(),
                                bytes_.begin() + static_cast<int64_t>(size));
    ExpectRejected(truncated);
  }
}

TEST_F(FormatCorruptionTest, BadMagicIsRejected) {
  std::vector<char> mangled = bytes_;
  mangled[0] = 'X';
  ExpectRejected(mangled);
  // The classic text-mode transfer accident: CR-LF expansion of byte 4.
  std::vector<char> crlf = bytes_;
  crlf.insert(crlf.begin() + 4, '\r');
  ExpectRejected(crlf);
}

TEST_F(FormatCorruptionTest, UnsupportedVersionIsRejected) {
  std::vector<char> mangled = bytes_;
  const uint32_t version = 99;
  std::memcpy(mangled.data() + 8, &version, sizeof(version));
  ExpectRejected(mangled);
}

TEST_F(FormatCorruptionTest, SectionOffsetPastEofIsRejected) {
  // Point layer 0's offsets section far past EOF (64-aligned so the
  // alignment check cannot mask the bounds check), with the header/table
  // checksum recomputed — the bounds validation itself must catch it.
  const uint64_t table_offset = ReadU64(40);
  // The entry holds kind+layer, then the offset.
  const size_t entry_offset_field = table_offset + 8;
  const uint64_t past_eof = (bytes_.size() + 4096) & ~uint64_t{63};
  ExpectRejected(PatchedWithValidChecksum(entry_offset_field, past_eof));
}

TEST_F(FormatCorruptionTest, SectionLengthOverflowIsRejected) {
  // A length that makes offset + length wrap uint64 must not bypass the
  // bounds check.
  const uint64_t table_offset = ReadU64(40);
  const size_t entry_length_field = table_offset + 16;
  ExpectRejected(PatchedWithValidChecksum(entry_length_field,
                                          UINT64_MAX - 32));
}

TEST_F(FormatCorruptionTest, FlippedDataByteFailsSectionChecksum) {
  std::vector<char> mangled = bytes_;
  mangled[128] ^= 0x01;  // inside the first (offsets) section
  ExpectRejected(mangled);
}

TEST_F(FormatCorruptionTest, TamperedSectionTableFailsFileChecksum) {
  std::vector<char> mangled = bytes_;
  const uint64_t table_offset = ReadU64(40);
  mangled[table_offset] ^= 0x01;
  ExpectRejected(mangled);
}

TEST_F(FormatCorruptionTest, CorruptCsrStructureWithValidChecksumsIsRejected) {
  // A crafted file carries valid checksums, so the structural CSR
  // validation is the last line of defence: break monotonicity of layer 0's
  // offsets array and re-stamp the checksums.
  WriteAllBytes(path_, PatchedWithValidChecksum(64 + 8, UINT64_MAX));  // -1
  MultiLayerGraph graph;
  const Status status = format::LoadMlgGraph(path_, &graph);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("CSR"), std::string::npos) << status.message;
}

TEST_F(FormatCorruptionTest, UnfinishedWriteIsRejected) {
  // Open writes a placeholder header with a zero checksum; without Finish
  // the file must not validate.
  const std::string partial = TestTempPath("partial.mlg");
  {
    format::MlgWriter writer;
    ASSERT_TRUE(writer.Open(partial, 4, 1).ok());
    const std::vector<int64_t> offsets = {0, 1, 2, 2, 2};
    const std::vector<VertexId> neighbors = {1, 0};
    ASSERT_TRUE(writer.AppendLayer(offsets, neighbors).ok());
    // no Finish(): destructor closes the file as-is
  }
  MultiLayerGraph graph;
  EXPECT_FALSE(format::LoadMlgGraph(partial, &graph).ok());
  std::remove(partial.c_str());
}

// ---------------------------------------------------------------------------
// Mapped graphs behind the service stack
// ---------------------------------------------------------------------------

TEST(FormatMappedEngineTest, UpdateEpochOnMappedBaseMatchesTextOracle) {
  const Dataset dataset = MakeDataset("ppi", 0.4);
  const std::string bin = TestTempPath("engine.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, bin).ok());
  auto mapped = std::make_shared<MultiLayerGraph>();
  ASSERT_TRUE(format::LoadMlgGraph(bin, mapped.get()).ok());
  auto owned = std::make_shared<MultiLayerGraph>(dataset.graph);

  DccsRequest request;
  request.params.d = 2;
  request.params.s = 2;
  request.params.k = 5;

  // One batch exercising every edit path on the mapped base: fresh vertex,
  // one insert touching it, one removal of a mapped edge.
  const VertexId u = 0;
  ASSERT_GT(mapped->Degree(0, u), 0);
  const VertexId v = mapped->Neighbors(0, u)[0];
  const VertexId fresh = mapped->NumVertices();
  UpdateBatch batch;
  batch.AddVertices(1).Remove(0, u, v).Insert(0, u, fresh);

  DccsResult results[2];
  for (int i = 0; i < 2; ++i) {
    auto base = i == 0 ? mapped : owned;
    GraphStore::Options store_options;
    store_options.tracked_degrees = {request.params.d};
    auto store = std::make_shared<GraphStore>(
        std::shared_ptr<const MultiLayerGraph>(base), store_options);
    Engine engine(store, Engine::Options{.num_threads = 1,
                                         .search_threads = 1});
    auto initial = engine.Run(request);
    ASSERT_TRUE(initial.ok()) << initial.status().message;
    auto outcome = engine.ApplyUpdate(batch);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message;
    EXPECT_EQ(outcome->edges_inserted, 1);
    EXPECT_EQ(outcome->edges_removed, 1);
    auto updated = engine.Run(request);
    ASSERT_TRUE(updated.ok()) << updated.status().message;
    results[i] = *updated;
  }
  ExpectSameResult(results[0], results[1]);
  std::remove(bin.c_str());
}

TEST(FormatMappedEngineTest, EditedCopyKeepsUntouchedLayersMapped) {
  const Dataset dataset = MakeDataset("ppi", 0.4);
  ASSERT_GE(dataset.graph.NumLayers(), 2);
  const std::string bin = TestTempPath("edited.mlg");
  ASSERT_TRUE(format::WriteMlgGraph(dataset.graph, bin).ok());
  MultiLayerGraph mapped;
  ASSERT_TRUE(format::LoadMlgGraph(bin, &mapped).ok());

  const VertexId u = 0;
  ASSERT_GT(mapped.Degree(0, u), 0);
  const VertexId v = mapped.Neighbors(0, u)[0];
  std::vector<MultiLayerGraph::EdgeList> added(
      static_cast<size_t>(mapped.NumLayers()));
  std::vector<MultiLayerGraph::EdgeList> removed(
      static_cast<size_t>(mapped.NumLayers()));
  removed[0].emplace_back(std::min(u, v), std::max(u, v));

  // Only layer 0 is rebuilt; every other layer's neighbours must still
  // alias the mapping (the zero-copy epoch property).
  const MultiLayerGraph copy = mapped.EditedCopy(0, added, removed);
  EXPECT_GT(copy.MappedBytes(), 0);
  EXPECT_LT(copy.MappedBytes(), mapped.MappedBytes());
  EXPECT_FALSE(copy.HasEdge(0, u, v));

  MultiLayerGraph oracle = dataset.graph.EditedCopy(0, added, removed);
  ExpectIdenticalCsr(copy, oracle);

  // Appending vertices to a mapped graph materialises only the offset
  // tables; the neighbour arrays stay mapped.
  const MultiLayerGraph grown = mapped.EditedCopy(
      2, std::vector<MultiLayerGraph::EdgeList>(added.size()),
      std::vector<MultiLayerGraph::EdgeList>(added.size()));
  EXPECT_EQ(grown.NumVertices(), mapped.NumVertices() + 2);
  EXPECT_GT(grown.MappedBytes(), 0);
  EXPECT_EQ(grown.Degree(0, grown.NumVertices() - 1), 0);
  std::remove(bin.c_str());
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

TEST(FormatGeneratorTest, SameSeedProducesByteIdenticalFiles) {
  format::MlgGenConfig config;
  config.num_vertices = 1 << 10;
  config.num_layers = 3;
  config.edges_per_layer = 1 << 12;
  config.seed = 42;

  const std::string a = TestTempPath("gen_a.mlg");
  const std::string b = TestTempPath("gen_b.mlg");
  format::MlgGenStats stats;
  ASSERT_TRUE(GenerateMlg(config, a, &stats).ok());
  ASSERT_TRUE(GenerateMlg(config, b).ok());
  EXPECT_GT(stats.edges_written, 0);
  EXPECT_EQ(ReadAllBytes(a), ReadAllBytes(b));

  config.seed = 43;
  ASSERT_TRUE(GenerateMlg(config, b).ok());
  EXPECT_NE(ReadAllBytes(a), ReadAllBytes(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(FormatGeneratorTest, GeneratedGraphLoadsAndOverlapSpansLayers) {
  format::MlgGenConfig config;
  config.num_vertices = 1 << 10;
  config.num_layers = 3;
  config.edges_per_layer = 1 << 12;
  config.layer_overlap = 0.5;

  const std::string path = TestTempPath("gen_load.mlg");
  ASSERT_TRUE(GenerateMlg(config, path, nullptr).ok());
  MultiLayerGraph graph;
  format::MlgLoadStats stats;
  ASSERT_TRUE(format::LoadMlgGraph(path, &graph, &stats).ok());
  EXPECT_EQ(graph.NumVertices(), config.num_vertices);
  EXPECT_EQ(graph.NumLayers(), config.num_layers);
  EXPECT_GT(graph.TotalEdges(), 0);
  // The shared stream puts the same edge mass on every layer, so the
  // distinct-edge count sits well below the per-layer sum.
  EXPECT_LT(graph.DistinctEdges(), graph.TotalEdges());

  // A generated graph is a valid query target end to end.
  DccsParams params;
  params.d = 2;
  params.s = 2;
  params.k = 3;
  const DccsResult result =
      SolveDccs(graph, params, DccsAlgorithm::kBottomUp);
  EXPECT_GE(result.CoverSize(), 0);
  std::remove(path.c_str());
}

TEST(FormatGeneratorTest, InvalidConfigsAreRejected) {
  const std::string path = TestTempPath("gen_bad.mlg");
  format::MlgGenConfig config;
  config.num_vertices = 1;
  EXPECT_FALSE(GenerateMlg(config, path).ok());
  config = {};
  config.rmat_a = 0.9;
  config.rmat_b = 0.09;
  config.rmat_c = 0.01;  // a + b + c == 1: no fourth quadrant
  EXPECT_FALSE(GenerateMlg(config, path).ok());
  config = {};
  config.layer_overlap = 1.5;
  EXPECT_FALSE(GenerateMlg(config, path).ok());
}

// ---------------------------------------------------------------------------
// MmapFile
// ---------------------------------------------------------------------------

TEST(MmapFileTest, MissingFileReturnsStatus) {
  util::MmapFile file;
  const Status status =
      util::MmapFile::Open(TestTempPath("does_not_exist"), &file);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("does_not_exist"), std::string::npos);
}

TEST(MmapFileTest, MapsContentsAndSupportsMoveAndReset) {
  const std::string path = TestTempPath("mmap.bin");
  WriteText(path, "hello mlg");
  util::MmapFile file;
  ASSERT_TRUE(util::MmapFile::Open(path, &file).ok());
  ASSERT_EQ(file.size(), 9u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(file.data()), 5),
            "hello");

  util::MmapFile moved = std::move(file);
  EXPECT_EQ(moved.size(), 9u);
  moved.Reset();
  EXPECT_TRUE(moved.empty());
  std::remove(path.c_str());
}

TEST(MmapFileTest, EmptyFileMapsAsEmpty) {
  const std::string path = TestTempPath("mmap_empty.bin");
  WriteText(path, "");
  util::MmapFile file;
  ASSERT_TRUE(util::MmapFile::Open(path, &file).ok());
  EXPECT_TRUE(file.empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Text parser hardening (the std::from_chars rewrite)
// ---------------------------------------------------------------------------

class FormatTextParserTest : public testing::Test {
 protected:
  Status Load(const std::string& text) {
    path_ = TestTempPath("parse.txt");
    WriteText(path_, text);
    MultiLayerGraph graph;
    Status status = LoadMultiLayerGraph(path_, &graph);
    std::remove(path_.c_str());
    return status;
  }
  std::string path_;
};

TEST_F(FormatTextParserTest, OverflowingVertexIdIsRejectedNotNarrowed) {
  // 2^33 + 1 truncates to 1 in int32 — the pre-from_chars parser would
  // have silently built edge (0, 1).
  const Status status = Load("n 4 1\n0 0 8589934593\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("id out of range"), std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find(":2:"), std::string::npos) << status.message;

  // Past even long long: from_chars reports overflow, same rejection.
  const Status huge = Load("n 4 1\n0 0 99999999999999999999999\n");
  EXPECT_FALSE(huge.ok());
  EXPECT_NE(huge.message.find("id out of range"), std::string::npos);
}

TEST_F(FormatTextParserTest, OverflowingHeaderCountsAreRejected) {
  const Status status = Load("n 99999999999999999999 2\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message.find("expected header"), std::string::npos);
  // Fits in long long but not int32: also not a valid vertex count.
  const Status wide = Load("n 4294967296 2\n");
  EXPECT_FALSE(wide.ok());
  EXPECT_NE(wide.message.find("expected header"), std::string::npos);
}

TEST_F(FormatTextParserTest, AcceptsCrlfAndIndentedComments) {
  const Status status = Load(
      "# comment\r\n"
      "  # indented comment\r\n"
      "\r\n"
      "n 3 2\r\n"
      "0 0 1\t\r\n"
      "1 1 2\r\n");
  EXPECT_TRUE(status.ok()) << status.message;
}

TEST_F(FormatTextParserTest, KeepsEstablishedErrorMessages) {
  EXPECT_NE(Load("0 1 2\n").message.find("expected header"), std::string::npos);
  EXPECT_NE(Load("n 3 1\n0 one 2\n").message.find("expected '<layer> <u> <v>'"),
            std::string::npos);
  EXPECT_NE(Load("n 3 1\n0 1 1\n").message.find("self-loop 1-1"),
            std::string::npos);
  EXPECT_NE(Load("n 3 1\n0 0 1\n0 1 0\n")
                .message.find("duplicate edge 1-0 on layer 0"),
            std::string::npos);
  EXPECT_NE(Load("# only comments\n").message.find("missing header line"),
            std::string::npos);
  EXPECT_NE(Load("n 3 1\n2 0 1\n").message.find("id out of range"),
            std::string::npos);
}

TEST_F(FormatTextParserTest, FinalLineWithoutNewlineParses) {
  const Status status = Load("n 3 1\n0 0 1");
  EXPECT_TRUE(status.ok()) << status.message;
}

}  // namespace
}  // namespace mlcore
