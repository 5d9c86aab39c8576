#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace mlcore {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.substr(0, 2) != "--") continue;
    arg.remove_prefix(2);
    auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "true";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

long long Flags::GetInt(const std::string& key, long long def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::atoll(it->second.c_str());
}

double Flags::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::atof(it->second.c_str());
}

bool Flags::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Flags::Has(const std::string& key) const { return values_.count(key) > 0; }

std::vector<std::string> Flags::Unknown(
    const std::vector<std::string_view>& accepted) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      unknown.push_back(key);
    }
  }
  return unknown;
}

bool Flags::CheckKnown(const std::vector<std::string_view>& accepted) const {
  const std::vector<std::string> unknown = Unknown(accepted);
  if (unknown.empty()) return true;
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
  }
  std::fputs("usage: accepted flags are", stderr);
  for (std::string_view name : accepted) {
    std::fprintf(stderr, " --%.*s", static_cast<int>(name.size()), name.data());
  }
  std::fputs("\n", stderr);
  return false;
}

}  // namespace mlcore
