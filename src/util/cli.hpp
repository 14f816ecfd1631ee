// Minimal command-line option parsing for benches and examples.
//
// Supports `--key=value`, `--key value` and a bare `--flag` (value "1"). A
// word that no flag takes as its value is an error, and so is a flag the
// program never reads: after its last read a program calls rejectUnread(),
// which names each such flag on stderr and exits with status 2. A flag
// that did nothing never runs the defaults silently.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace pgasnb {

class Options {
 public:
  Options() = default;

  Options(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg(argv[i]);
      if (!isFlag(arg)) {
        std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
        std::exit(2);
      }
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
      } else if (i + 1 < argc && !isFlag(argv[i + 1])) {
        values_[std::string(arg)] = argv[++i];  // `--key value`
      } else {
        values_[std::string(arg)] = "1";
      }
    }
  }

  /// The command-line value of `key`, or `def` if it was not given.
  std::string str(const std::string& key, const std::string& def = "") const {
    read_.insert(key);
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

  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) != 0;
  }

  /// Exits with status 2, after naming each on stderr, if a flag was given
  /// that no read asked for. Call once the program has read every option.
  void rejectUnread() const {
    bool unread = false;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) != 0) continue;
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      unread = true;
    }
    if (unread) std::exit(2);
  }

 private:
  static bool isFlag(std::string_view arg) { return arg.rfind("--", 0) == 0; }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace pgasnb
