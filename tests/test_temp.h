#ifndef MLCORE_TESTS_TEST_TEMP_H_
#define MLCORE_TESTS_TEST_TEMP_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <system_error>

namespace mlcore {

/// A path named `name` inside a directory private to the running test:
/// `<gtest TempDir>/mlcore_<pid>/<Suite.Test>/`. ctest runs every test case
/// as its own process, possibly in parallel, so a fixed file name shared by
/// two cases is a race; the pid separates processes and the test name
/// separates cases within one. The per-process directory is removed when
/// the process exits.
inline std::string TestTempPath(const std::string& name) {
  struct ProcessDir {
    std::filesystem::path path;
    ~ProcessDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ProcessDir process_dir{
      std::filesystem::path(testing::TempDir()) /
      ("mlcore_" + std::to_string(::getpid()))};

  std::string test = "no_test";
  if (const testing::TestInfo* info =
          testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : test) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '.') c = '_';
  }
  const std::filesystem::path dir = process_dir.path / test;
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

}  // namespace mlcore

#endif  // MLCORE_TESTS_TEST_TEMP_H_
