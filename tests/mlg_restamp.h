#ifndef MLCORE_TESTS_MLG_RESTAMP_H_
#define MLCORE_TESTS_MLG_RESTAMP_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "format/mlg.h"

namespace mlcore {

/// Recomputes the checksums of the MLG1 image in `bytes` after a test has
/// tampered with it: each section-table entry whose section lies inside the
/// image gets the checksum of its bytes, then the header gets the whole-file
/// checksum over header bytes [0, 48) and the table. A crafted file carries
/// valid checksums, so this is how a test reaches the structural validation
/// behind them. An image too short for a header, or whose section table
/// lies outside it, is left as it is (the loader rejects it before any
/// checksum).
inline void RestampMlgChecksums(std::vector<char>* bytes) {
  constexpr size_t kSectionCountField = 32;
  constexpr size_t kTableOffsetField = 40;
  constexpr size_t kChecksumField = 48;
  constexpr uint64_t kEntryBytes = sizeof(format::MlgSection);
  if (bytes->size() < 64) return;
  char* data = bytes->data();
  const uint64_t size = bytes->size();
  int64_t count = 0;
  uint64_t table_offset = 0;
  std::memcpy(&count, data + kSectionCountField, sizeof(count));
  std::memcpy(&table_offset, data + kTableOffsetField, sizeof(table_offset));
  if (count < 0 || table_offset > size ||
      static_cast<uint64_t>(count) > (size - table_offset) / kEntryBytes) {
    return;
  }
  char* table = data + table_offset;
  for (int64_t i = 0; i < count; ++i) {
    char* entry = table + static_cast<uint64_t>(i) * kEntryBytes;
    format::MlgSection section;
    std::memcpy(&section, entry, sizeof(section));
    if (section.offset > size || section.length > size - section.offset) {
      continue;
    }
    section.checksum =
        format::MlgChecksum(data + section.offset, section.length);
    std::memcpy(entry, &section, sizeof(section));
  }
  const uint64_t checksum =
      format::MlgChecksum(data, kChecksumField) ^
      format::MlgChecksum(table, static_cast<uint64_t>(count) * kEntryBytes);
  std::memcpy(data + kChecksumField, &checksum, sizeof(checksum));
}

}  // namespace mlcore

#endif  // MLCORE_TESTS_MLG_RESTAMP_H_
