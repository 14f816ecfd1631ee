#include "runtime/config.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace pgasnb {

const char* toString(CommMode mode) noexcept {
  switch (mode) {
    case CommMode::none:
      return "none";
    case CommMode::ugni:
      return "ugni";
  }
  return "?";
}

CommMode parseCommMode(const std::string& text, CommMode def) {
  std::string lower(text);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "ugni" || lower == "rdma") return CommMode::ugni;
  if (lower == "none" || lower == "am") return CommMode::none;
  return def;
}

std::string RuntimeConfig::describe() const {
  std::ostringstream os;
  os << "locales=" << num_locales << " workers/locale=" << workers_per_locale
     << " comm=" << toString(comm_mode)
     << " inject=" << (inject_delays ? "yes" : "no")
     << " delay_scale=" << latency.delay_scale;
  return os.str();
}

}  // namespace pgasnb
