#include "graph/io.h"

#include <sys/types.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string_view>
#include <unordered_set>

#include "graph/graph_builder.h"

namespace mlcore {

namespace {

bool IsFieldSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

void SkipSpace(std::string_view* rest) {
  while (!rest->empty() && IsFieldSpace(rest->front())) {
    rest->remove_prefix(1);
  }
}

/// True when only field space is left: a record is exactly its fields.
bool AtEnd(std::string_view rest) {
  SkipSpace(&rest);
  return rest.empty();
}

/// Splits the next whitespace-delimited token off the front of `rest`.
std::string_view NextToken(std::string_view* rest) {
  SkipSpace(rest);
  size_t size = 0;
  while (size < rest->size() && !IsFieldSpace((*rest)[size])) ++size;
  const std::string_view token = rest->substr(0, size);
  rest->remove_prefix(size);
  return token;
}

/// Record reader shared by both text formats: stdio-buffered `getline`
/// into one reused buffer, blank and `#` comment lines skipped, and
/// failures reported with the current `path:line:`.
class LineScanner {
 public:
  explicit LineScanner(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "rb")) {}
  ~LineScanner() {
    std::free(line_);
    if (file_ != nullptr) std::fclose(file_);
  }
  LineScanner(const LineScanner&) = delete;
  LineScanner& operator=(const LineScanner&) = delete;

  bool is_open() const { return file_ != nullptr; }

  /// Advances to the next record — a line that is neither blank nor a
  /// comment — with its leading field space and line end stripped. Returns
  /// false at end of input. Views stay valid until the next call.
  bool NextRecord(std::string_view* record) {
    ssize_t size = 0;
    while ((size = ::getline(&line_, &capacity_, file_)) >= 0) {
      ++line_no_;
      *record = std::string_view(line_, static_cast<size_t>(size));
      if (!record->empty() && record->back() == '\n') record->remove_suffix(1);
      SkipSpace(record);
      if (!record->empty() && record->front() != '#') return true;
    }
    return false;
  }

  /// OK unless NextRecord stopped on a read error (say, the path is a
  /// directory) rather than at the end of the file.
  Status ReadStatus() const {
    if (std::ferror(file_) == 0) return Status::Ok();
    return Status::InvalidArgument(path_ + ": read error");
  }

  /// An InvalidArgument status `path:line: what` for the current record.
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(path_ + ":" + std::to_string(line_no_) +
                                   ": " + what);
  }

 private:
  std::string path_;
  std::FILE* file_;
  char* line_ = nullptr;  // getline's buffer, grown as needed
  size_t capacity_ = 0;
  size_t line_no_ = 0;
};

enum class FieldResult { kOk, kMalformed, kOutOfRange };

/// Parses one whitespace-delimited integer field off the front of `rest`.
/// Overflowing values are reported as kOutOfRange, not silently narrowed —
/// a 64-bit id must never wrap into a valid-looking small one.
FieldResult ParseIntField(std::string_view* rest, long long* value) {
  SkipSpace(rest);
  if (rest->empty()) return FieldResult::kMalformed;
  const char* begin = rest->data();
  const char* end = begin + rest->size();
  const auto [ptr, ec] = std::from_chars(begin, end, *value);
  if (ptr == begin || (ptr != end && !IsFieldSpace(*ptr))) {
    return FieldResult::kMalformed;
  }
  rest->remove_prefix(static_cast<size_t>(ptr - begin));
  if (ec == std::errc::result_out_of_range) return FieldResult::kOutOfRange;
  if (ec != std::errc()) return FieldResult::kMalformed;
  return FieldResult::kOk;
}

/// Parses the rest of an update record: one id in [0, INT32_MAX] per entry
/// of `values`, and nothing after them. Ids are range-checked before the
/// int32 casts: a 64-bit value must never wrap into a (valid-looking)
/// small id and silently describe a different update than the file does.
bool ParseIds(std::string_view rest, std::initializer_list<long long*> values) {
  for (long long* value : values) {
    if (ParseIntField(&rest, value) != FieldResult::kOk || *value < 0 ||
        *value > INT32_MAX) {
      return false;
    }
  }
  return AtEnd(rest);
}

}  // namespace

Status LoadMultiLayerGraph(const std::string& path, MultiLayerGraph* graph) {
  LineScanner scanner(path);
  if (!scanner.is_open()) return Status::InvalidArgument("cannot open " + path);

  std::string_view rest;
  if (!scanner.NextRecord(&rest)) {
    return Status::InvalidArgument(path + ": missing header line");
  }
  // Header `n <vertices> <layers>`. Counts above INT32_MAX are a malformed
  // header, not something to narrow into a small graph.
  long long n = 0, l = 0;
  if (NextToken(&rest) != "n" ||
      ParseIntField(&rest, &n) != FieldResult::kOk ||
      ParseIntField(&rest, &l) != FieldResult::kOk || !AtEnd(rest) || n < 0 ||
      l < 1 || n > INT32_MAX || l > INT32_MAX) {
    return scanner.Error("expected header 'n <vertices> <layers>'");
  }
  GraphBuilder builder(static_cast<int32_t>(n), static_cast<int32_t>(l));
  // Per-layer canonical (u << 32 | v) edge keys: a duplicate row is a
  // malformed file, not something to silently repair — the graph built
  // would otherwise differ from what the file plainly describes.
  std::vector<std::unordered_set<uint64_t>> seen(static_cast<size_t>(l));
  while (scanner.NextRecord(&rest)) {
    long long layer = 0, u = 0, v = 0;
    FieldResult worst = FieldResult::kOk;
    for (long long* field : {&layer, &u, &v}) {
      const FieldResult r = ParseIntField(&rest, field);
      if (r == FieldResult::kMalformed) {
        return scanner.Error("expected '<layer> <u> <v>'");
      }
      if (r == FieldResult::kOutOfRange) worst = r;
    }
    if (!AtEnd(rest)) return scanner.Error("expected '<layer> <u> <v>'");
    if (worst == FieldResult::kOutOfRange || layer < 0 || layer >= l ||
        u < 0 || u >= n || v < 0 || v >= n) {
      return scanner.Error("id out of range");
    }
    if (u == v) {
      return scanner.Error("self-loop " + std::to_string(u) + "-" +
                           std::to_string(v));
    }
    const uint64_t key = (static_cast<uint64_t>(std::min(u, v)) << 32) |
                         static_cast<uint64_t>(std::max(u, v));
    if (!seen[static_cast<size_t>(layer)].insert(key).second) {
      return scanner.Error("duplicate edge " + std::to_string(u) + "-" +
                           std::to_string(v) + " on layer " +
                           std::to_string(layer));
    }
    builder.AddEdge(static_cast<LayerId>(layer), static_cast<VertexId>(u),
                    static_cast<VertexId>(v));
  }
  *graph = builder.Build();
  return Status::Ok();
}

Status SaveMultiLayerGraph(const MultiLayerGraph& graph,
                           const std::string& path) {
  std::ofstream out(path);
  out << "# mlcore multi-layer edge list\n";
  out << "n " << graph.NumVertices() << " " << graph.NumLayers() << "\n";
  for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(layer, v)) {
        if (v < u) out << layer << " " << v << " " << u << "\n";
      }
    }
  }
  if (!out) return Status::InvalidArgument("cannot write " + path);
  return Status::Ok();
}

Status LoadUpdateStream(const std::string& path,
                        std::vector<UpdateBatch>* batches) {
  LineScanner scanner(path);
  if (!scanner.is_open()) return Status::InvalidArgument("cannot open " + path);

  batches->clear();
  UpdateBatch batch;
  auto flush = [&] {
    if (!batch.empty()) batches->push_back(std::move(batch));
    batch = UpdateBatch{};
  };
  std::string_view rest;
  while (scanner.NextRecord(&rest)) {
    const std::string_view tag = NextToken(&rest);
    if (tag == "+" || tag == "-") {
      long long layer = 0, u = 0, v = 0;
      if (!ParseIds(rest, {&layer, &u, &v})) {
        return scanner.Error("expected '" + std::string(tag) +
                             " <layer> <u> <v>'");
      }
      EdgeUpdate edge{static_cast<LayerId>(layer), static_cast<VertexId>(u),
                      static_cast<VertexId>(v)};
      (tag == "+" ? batch.insert_edges : batch.remove_edges).push_back(edge);
    } else if (tag == "addv") {
      long long count = 0;
      if (!ParseIds(rest, {&count}) ||
          count + batch.add_vertices > INT32_MAX) {
        return scanner.Error("expected 'addv <count>'");
      }
      batch.add_vertices += static_cast<int32_t>(count);
    } else if (tag == "delv") {
      long long v = 0;
      if (!ParseIds(rest, {&v})) return scanner.Error("expected 'delv <v>'");
      batch.remove_vertices.push_back(static_cast<VertexId>(v));
    } else if (tag == "commit") {
      if (!AtEnd(rest)) return scanner.Error("expected 'commit'");
      flush();
    } else {
      return scanner.Error("unknown record '" + std::string(tag) + "'");
    }
  }
  if (Status read = scanner.ReadStatus(); !read.ok()) return read;
  flush();
  return Status::Ok();
}

Status SaveUpdateStream(const std::vector<UpdateBatch>& batches,
                        const std::string& path) {
  std::ofstream out(path);
  out << "# mlcore edge-update stream\n";
  for (const UpdateBatch& batch : batches) {
    if (batch.add_vertices > 0) out << "addv " << batch.add_vertices << "\n";
    for (VertexId v : batch.remove_vertices) out << "delv " << v << "\n";
    for (const EdgeUpdate& e : batch.remove_edges) {
      out << "- " << e.layer << " " << e.u << " " << e.v << "\n";
    }
    for (const EdgeUpdate& e : batch.insert_edges) {
      out << "+ " << e.layer << " " << e.u << " " << e.v << "\n";
    }
    out << "commit\n";
  }
  if (!out) return Status::InvalidArgument("cannot write " + path);
  return Status::Ok();
}

}  // namespace mlcore
