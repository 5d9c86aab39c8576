#ifndef MLCORE_UTIL_FLAGS_H_
#define MLCORE_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mlcore {

/// Tiny `--key=value` command-line parser for the examples and benchmark
/// binaries. Not a general flags library; supports exactly the `--k=10`
/// and `--quick` (boolean) forms the harness needs.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// Returns the flag value or `def` when absent.
  std::string GetString(const std::string& key, const std::string& def) const;
  long long GetInt(const std::string& key, long long def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  bool Has(const std::string& key) const;

  /// Parsed flag names that are not in `accepted`, sorted. A binary with
  /// strict flags passes every name it reads and treats a non-empty result
  /// as a usage error, so a misspelt flag is never silently ignored.
  std::vector<std::string> Unknown(
      const std::vector<std::string_view>& accepted) const;

  /// Strict-flags gate for a binary: true when every parsed name is in
  /// `accepted`. Otherwise prints each unknown name and a usage line
  /// listing the accepted flags to stderr and returns false; the binary
  /// then exits 1.
  bool CheckKnown(const std::vector<std::string_view>& accepted) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mlcore

#endif  // MLCORE_UTIL_FLAGS_H_
