// Minimal command-line option parsing for benches and examples.
//
// Supports `--key=value` and `--flag` arguments.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

namespace pgasnb {

class Options {
 public:
  Options() = default;

  Options(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (arg.rfind("--", 0) != 0) continue;
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(arg)] = "1";
      } else {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      }
    }
  }

  /// The command-line value of `key`, or `def` if it was not given.
  std::string str(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it != values_.end() ? it->second : def;
  }

  std::int64_t integer(const std::string& key, std::int64_t def) const {
    const std::string v = str(key);
    return v.empty() ? def : std::strtoll(v.c_str(), nullptr, 0);
  }

  double real(const std::string& key, double def) const {
    const std::string v = str(key);
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

  bool boolean(const std::string& key, bool def) const {
    const std::string v = str(key);
    if (v.empty()) return def;
    return v != "0" && v != "false" && v != "no";
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace pgasnb
