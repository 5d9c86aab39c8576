#ifndef MLCORE_FORMAT_MLG_H_
#define MLCORE_FORMAT_MLG_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "graph/multilayer_graph.h"
#include "obs/span.h"
#include "service/status.h"

// MLG1: the binary multi-layer graph container (DESIGN.md §13).
//
// A fixed 64-byte little-endian header, one CSR block (offsets + neighbour
// ids) per layer as 64-byte-aligned sections, and a trailing section table
// that the header points at. Every section carries a checksum; the header
// and section table are covered by a whole-file checksum. The layout is
// mmap-friendly by construction: a validating reader hands the mapped
// offset/neighbour arrays straight to `MultiLayerGraph::FromMappedCsr`
// without copying a byte of adjacency data.
//
// All validation failures surface as structured `Status` errors naming the
// file and the failing check — never aborts, never UB on truncated or
// hostile input (tests/format_test.cc drives the corruption matrix under
// ASan).

namespace mlcore::format {

/// Container magic: "MLG1" plus the PNG-style CR-LF-SUB-LF tail that turns
/// text-mode transfer mangling into an immediate bad-magic error.
inline constexpr uint8_t kMlgMagic[8] = {'M', 'L', 'G', '1',
                                         '\r', '\n', 0x1A, '\n'};
inline constexpr uint32_t kMlgVersion = 1;
inline constexpr uint64_t kMlgSectionAlignment = 64;

/// Section kinds, one (offsets, neighbors) pair per layer, in layer order.
enum class MlgSectionKind : uint32_t {
  kOffsets = 1,    // (n + 1) little-endian int64 CSR offsets
  kNeighbors = 2,  // concatenated sorted neighbour lists, int32 vertex ids
};

/// One section-table entry (32 bytes on disk, written verbatim).
struct MlgSection {
  uint32_t kind = 0;      // MlgSectionKind
  int32_t layer = -1;     // owning layer
  uint64_t offset = 0;    // from file start; multiple of 64
  uint64_t length = 0;    // bytes
  uint64_t checksum = 0;  // MlgChecksum of the section bytes
};
static_assert(sizeof(MlgSection) == 32, "MLG1 section entries are 32 bytes");

/// The MLG1 content checksum: FNV-1a folded over little-endian 64-bit
/// words (zero-padded tail). Word-at-a-time keeps verification at memory
/// bandwidth instead of byte-loop speed, so checksummed mmap loads stay an
/// order of magnitude ahead of text parsing.
uint64_t MlgChecksum(const void* data, size_t bytes);

/// Streaming MLG1 writer: Open fixes the vertex/layer counts, AppendLayer
/// is called once per layer in layer order (the generator streams layers
/// through here without ever holding the whole graph), Finish writes the
/// section table and finalises the header. Output is buffered (1 MiB);
/// every path reports failures as Status and leaves no half-valid file
/// claiming to be complete — the header's checksum is written only by a
/// successful Finish, so an interrupted write fails validation on load.
class MlgWriter {
 public:
  MlgWriter() = default;
  ~MlgWriter();

  MlgWriter(const MlgWriter&) = delete;
  MlgWriter& operator=(const MlgWriter&) = delete;

  Status Open(const std::string& path, int64_t num_vertices,
              int64_t num_layers);

  /// Writes layer `layers_written()`'s CSR block. `offsets` must have
  /// num_vertices + 1 non-decreasing entries starting at 0;
  /// `offsets.back()` must equal `neighbors.size()`.
  Status AppendLayer(std::span<const int64_t> offsets,
                     std::span<const VertexId> neighbors);

  /// Writes the section table, rewrites the header with the final
  /// checksum, flushes, and closes. Fails unless exactly num_layers
  /// layers were appended.
  Status Finish();

  int32_t layers_written() const { return layers_written_; }

 private:
  Status WriteBytes(const void* data, size_t bytes);
  Status PadToAlignment();
  void Close();

  std::FILE* file_ = nullptr;
  std::string path_;
  int64_t num_vertices_ = 0;
  int64_t num_layers_ = 0;
  uint64_t pos_ = 0;
  int32_t layers_written_ = 0;
  bool finished_ = false;
  std::vector<MlgSection> sections_;
  std::vector<char> io_buffer_;
};

/// Serialises `graph` as an MLG1 container (convenience over MlgWriter).
Status WriteMlgGraph(const MultiLayerGraph& graph, const std::string& path);

struct MlgLoadStats {
  double load_ms = 0;        // validate + materialise time
  int64_t mapped_bytes = 0;  // adjacency bytes aliasing the mapping
  int64_t num_vertices = 0;
  int64_t num_layers = 0;
  int64_t total_edges = 0;
};

/// Memory-maps an MLG1 container and materialises a `MultiLayerGraph`
/// whose adjacency views point into the mapping (zero-copy; the mapping
/// is owned by the graph and lives as long as any copy sharing it).
///
/// Validates the header, section table, checksums and the CSR structural
/// invariants (monotone offsets, in-range sorted neighbour lists, no
/// self-loops) before any view escapes; corrupt input yields a structured
/// Status, never a crash. Records `format.load_ms` /
/// `format.mmap_bytes` into obs::Registry::Global() and, when `trace` is
/// non-null, a "graph.load" span (DESIGN.md §12).
Status LoadMlgGraph(const std::string& path, MultiLayerGraph* graph,
                    MlgLoadStats* stats = nullptr,
                    obs::Trace* trace = nullptr);

}  // namespace mlcore::format

#endif  // MLCORE_FORMAT_MLG_H_
