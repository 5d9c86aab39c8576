#include "format/mlg.h"

#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "util/mmap_file.h"

namespace mlcore::format {

// The on-disk encoding is little-endian by definition; the zero-copy read
// path reinterprets mapped bytes in place, so a big-endian host would need
// a byte-swapping (copying) loader that nobody has asked for yet.
static_assert(std::endian::native == std::endian::little,
              "MLG1 zero-copy load requires a little-endian host");

namespace {

/// Fixed 64-byte header. `checksum` covers bytes [0, offsetof(checksum))
/// of the final header plus the entire section table, so a truncated
/// write, a mangled table, or header field tampering all fail validation.
struct MlgHeader {
  uint8_t magic[8];
  uint32_t version;
  uint32_t flags;          // reserved, must be 0
  int64_t num_vertices;
  int64_t num_layers;
  int64_t section_count;   // always 2 * num_layers
  uint64_t table_offset;   // byte offset of the section table; 64-aligned
  uint64_t checksum;
  uint64_t reserved;       // must be 0
};
static_assert(sizeof(MlgHeader) == 64, "MLG1 header is 64 bytes");
constexpr size_t kChecksummedHeaderBytes = offsetof(MlgHeader, checksum);

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(path + ": " + what);
}

}  // namespace

uint64_t MlgChecksum(const void* data, size_t bytes) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t hash = kFnvOffset;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    hash = (hash ^ word) * kFnvPrime;
  }
  if (i < bytes) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, bytes - i);
    hash = (hash ^ word) * kFnvPrime;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

MlgWriter::~MlgWriter() { Close(); }

void MlgWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status MlgWriter::WriteBytes(const void* data, size_t bytes) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, file_) != bytes) {
    return Status::InvalidArgument("write failure on " + path_);
  }
  pos_ += bytes;
  return Status::Ok();
}

Status MlgWriter::PadToAlignment() {
  static constexpr char kZeros[kMlgSectionAlignment] = {};
  const uint64_t misaligned = pos_ % kMlgSectionAlignment;
  if (misaligned == 0) return Status::Ok();
  return WriteBytes(kZeros, kMlgSectionAlignment - misaligned);
}

Status MlgWriter::Open(const std::string& path, int64_t num_vertices,
                       int64_t num_layers) {
  if (file_ != nullptr) {
    return Status::InvalidArgument("MlgWriter already open on " + path_);
  }
  if (num_vertices < 0 || num_vertices > INT32_MAX) {
    return Status::InvalidArgument("MLG1 vertex count out of range");
  }
  if (num_layers < 1 || num_layers > INT32_MAX) {
    return Status::InvalidArgument("MLG1 layer count out of range");
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  path_ = path;
  num_vertices_ = num_vertices;
  num_layers_ = num_layers;
  pos_ = 0;
  layers_written_ = 0;
  finished_ = false;
  sections_.clear();
  io_buffer_.resize(1 << 20);
  std::setvbuf(file_, io_buffer_.data(), _IOFBF, io_buffer_.size());

  // Placeholder header: all-zero checksum/table offset. A load of an
  // unfinished file fails the checksum check, so partial writes are never
  // mistaken for valid containers.
  MlgHeader header{};
  std::memcpy(header.magic, kMlgMagic, sizeof(kMlgMagic));
  header.version = kMlgVersion;
  header.num_vertices = num_vertices_;
  header.num_layers = num_layers_;
  header.section_count = 2 * num_layers_;
  return WriteBytes(&header, sizeof(header));
}

Status MlgWriter::AppendLayer(std::span<const int64_t> offsets,
                              std::span<const VertexId> neighbors) {
  if (file_ == nullptr || finished_) {
    return Status::InvalidArgument("MlgWriter is not open");
  }
  if (layers_written_ >= num_layers_) {
    return Status::InvalidArgument(path_ + ": more layers than declared");
  }
  if (offsets.size() != static_cast<size_t>(num_vertices_) + 1 ||
      offsets.front() != 0 ||
      offsets.back() != static_cast<int64_t>(neighbors.size())) {
    return Status::InvalidArgument(path_ + ": layer " +
                                   std::to_string(layers_written_) +
                                   " CSR arrays are inconsistent");
  }

  Status status = PadToAlignment();
  if (!status.ok()) return status;
  MlgSection offsets_section{
      static_cast<uint32_t>(MlgSectionKind::kOffsets), layers_written_, pos_,
      offsets.size_bytes(), MlgChecksum(offsets.data(), offsets.size_bytes())};
  status = WriteBytes(offsets.data(), offsets.size_bytes());
  if (!status.ok()) return status;
  sections_.push_back(offsets_section);

  status = PadToAlignment();
  if (!status.ok()) return status;
  MlgSection neighbors_section{
      static_cast<uint32_t>(MlgSectionKind::kNeighbors), layers_written_,
      pos_, neighbors.size_bytes(),
      MlgChecksum(neighbors.data(), neighbors.size_bytes())};
  status = WriteBytes(neighbors.data(), neighbors.size_bytes());
  if (!status.ok()) return status;
  sections_.push_back(neighbors_section);

  ++layers_written_;
  return Status::Ok();
}

Status MlgWriter::Finish() {
  if (file_ == nullptr || finished_) {
    return Status::InvalidArgument("MlgWriter is not open");
  }
  if (layers_written_ != num_layers_) {
    return Status::InvalidArgument(
        path_ + ": " + std::to_string(layers_written_) + " of " +
        std::to_string(num_layers_) + " layers written");
  }
  Status status = PadToAlignment();
  if (!status.ok()) return status;
  const uint64_t table_offset = pos_;
  status = WriteBytes(sections_.data(), sections_.size() * sizeof(MlgSection));
  if (!status.ok()) return status;

  MlgHeader header{};
  std::memcpy(header.magic, kMlgMagic, sizeof(kMlgMagic));
  header.version = kMlgVersion;
  header.num_vertices = num_vertices_;
  header.num_layers = num_layers_;
  header.section_count = 2 * num_layers_;
  header.table_offset = table_offset;
  // The file checksum combines the header prefix and the section table:
  // corrupting either (or truncating before the table) fails validation.
  header.checksum =
      MlgChecksum(&header, kChecksummedHeaderBytes) ^
      MlgChecksum(sections_.data(), sections_.size() * sizeof(MlgSection));

  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(&header, 1, sizeof(header), file_) != sizeof(header) ||
      std::fflush(file_) != 0) {
    return Status::InvalidArgument("write failure on " + path_);
  }
  finished_ = true;
  Close();
  return Status::Ok();
}

Status WriteMlgGraph(const MultiLayerGraph& graph, const std::string& path) {
  MlgWriter writer;
  Status status = writer.Open(path, graph.NumVertices(), graph.NumLayers());
  if (!status.ok()) return status;
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    const MultiLayerGraph::MappedLayer csr = graph.LayerCsr(layer);
    status = writer.AppendLayer(csr.offsets, csr.neighbors);
    if (!status.ok()) return status;
  }
  return writer.Finish();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

const char* SectionKindName(uint32_t kind) {
  switch (static_cast<MlgSectionKind>(kind)) {
    case MlgSectionKind::kOffsets:
      return "offsets";
    case MlgSectionKind::kNeighbors:
      return "neighbors";
  }
  return "unknown";
}

/// Validates one layer's CSR views: monotone offsets starting at 0 and
/// ending at the neighbour count, neighbour ids in [0, n), each list
/// strictly ascending (sorted, duplicate-free) and self-loop-free.
bool ValidLayerCsr(std::span<const int64_t> offsets,
                   std::span<const VertexId> neighbors, int64_t n) {
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<int64_t>(neighbors.size())) {
    return false;
  }
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = offsets[static_cast<size_t>(v)];
    const int64_t end = offsets[static_cast<size_t>(v) + 1];
    if (begin > end) return false;
    VertexId prev = -1;
    for (int64_t i = begin; i < end; ++i) {
      const VertexId u = neighbors[static_cast<size_t>(i)];
      if (u <= prev || u >= n || u == v) return false;
      prev = u;
    }
  }
  return true;
}

}  // namespace

Status LoadMlgGraph(const std::string& path, MultiLayerGraph* graph,
                    MlgLoadStats* stats, obs::Trace* trace) {
  obs::Span span(trace, "graph.load");

  auto file = std::make_shared<util::MmapFile>();
  Status status = util::MmapFile::Open(path, file.get());
  if (!status.ok()) return status;
  const uint8_t* base = file->data();
  const uint64_t size = file->size();

  if (size < sizeof(MlgHeader)) {
    return Corrupt(path, "truncated header (" + std::to_string(size) +
                             " bytes, need 64)");
  }
  MlgHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMlgMagic, sizeof(kMlgMagic)) != 0) {
    return Corrupt(path, "bad magic (not an MLG1 container)");
  }
  if (header.version != kMlgVersion) {
    return Corrupt(path, "unsupported MLG1 version " +
                             std::to_string(header.version));
  }
  if (header.flags != 0 || header.reserved != 0) {
    return Corrupt(path, "corrupt header (reserved bits set)");
  }
  if (header.num_vertices < 0 || header.num_vertices > INT32_MAX ||
      header.num_layers < 1 || header.num_layers > INT32_MAX) {
    return Corrupt(path, "corrupt header (counts out of range)");
  }
  const int64_t n = header.num_vertices;
  const int64_t l = header.num_layers;
  if (header.section_count != 2 * l) {
    return Corrupt(path, "corrupt header (section count mismatch)");
  }
  // Overflow-safe bounds check of the section table: both operands stay in
  // uint64 and the division form never multiplies attacker-chosen counts.
  const auto section_count = static_cast<uint64_t>(header.section_count);
  if (header.table_offset % kMlgSectionAlignment != 0 ||
      header.table_offset > size ||
      section_count > (size - header.table_offset) / sizeof(MlgSection)) {
    return Corrupt(path, "section table out of bounds");
  }
  const uint8_t* table_bytes = base + header.table_offset;
  const uint64_t table_len = section_count * sizeof(MlgSection);
  if ((MlgChecksum(&header, kChecksummedHeaderBytes) ^
       MlgChecksum(table_bytes, table_len)) != header.checksum) {
    return Corrupt(path, "header/section-table checksum mismatch");
  }

  std::vector<MlgSection> sections(section_count);
  std::memcpy(sections.data(), table_bytes, table_len);

  std::vector<MultiLayerGraph::MappedLayer> layers(static_cast<size_t>(l));
  int64_t total_edges = 0;
  for (int64_t layer = 0; layer < l; ++layer) {
    for (int half = 0; half < 2; ++half) {
      const MlgSection& section =
          sections[static_cast<size_t>(2 * layer + half)];
      const auto expected_kind = half == 0 ? MlgSectionKind::kOffsets
                                           : MlgSectionKind::kNeighbors;
      const std::string where = "layer " + std::to_string(layer) + " " +
                                SectionKindName(section.kind) + " section";
      if (section.kind != static_cast<uint32_t>(expected_kind) ||
          section.layer != layer) {
        return Corrupt(path, "corrupt section table (layer " +
                                 std::to_string(layer) + " misordered)");
      }
      if (section.offset % kMlgSectionAlignment != 0 ||
          section.offset > size || section.length > size - section.offset) {
        return Corrupt(path, where + " out of bounds");
      }
      if (MlgChecksum(base + section.offset, section.length) !=
          section.checksum) {
        return Corrupt(path, where + " checksum mismatch");
      }
      if (half == 0) {
        if (section.length != (static_cast<uint64_t>(n) + 1) * 8) {
          return Corrupt(path, where + " has wrong length");
        }
        layers[static_cast<size_t>(layer)].offsets = {
            reinterpret_cast<const int64_t*>(base + section.offset),
            static_cast<size_t>(n) + 1};
      } else {
        if (section.length % sizeof(VertexId) != 0) {
          return Corrupt(path, where + " has wrong length");
        }
        layers[static_cast<size_t>(layer)].neighbors = {
            reinterpret_cast<const VertexId*>(base + section.offset),
            static_cast<size_t>(section.length / sizeof(VertexId))};
      }
    }
    const MultiLayerGraph::MappedLayer& views =
        layers[static_cast<size_t>(layer)];
    if (!ValidLayerCsr(views.offsets, views.neighbors, n)) {
      return Corrupt(path, "layer " + std::to_string(layer) +
                               " has corrupt CSR structure");
    }
    total_edges += static_cast<int64_t>(views.neighbors.size()) / 2;
  }

  *graph = MultiLayerGraph::FromMappedCsr(static_cast<int32_t>(n), layers,
                                          std::move(file));

  const double load_ms = span.timer().Millis();
  const int64_t mapped_bytes = graph->MappedBytes();
  obs::Registry& registry = obs::Registry::Global();
  registry
      .GetHistogram("format.load_ms", obs::Histogram::LatencyBoundsMs())
      ->Record(load_ms);
  registry.GetGauge("format.mmap_bytes")->Set(mapped_bytes);
  if (stats != nullptr) {
    stats->load_ms = load_ms;
    stats->mapped_bytes = mapped_bytes;
    stats->num_vertices = n;
    stats->num_layers = l;
    stats->total_edges = total_edges;
  }
  return Status::Ok();
}

}  // namespace mlcore::format
