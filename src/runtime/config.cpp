#include "runtime/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
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

const char* toString(RemoteRetirePolicy policy) noexcept {
  switch (policy) {
    case RemoteRetirePolicy::scatter:
      return "scatter";
    case RemoteRetirePolicy::aggregated:
      return "aggregated";
  }
  return "?";
}

namespace {

const char* envOrNull(const char* name) { return std::getenv(name); }

}  // namespace

RuntimeConfig RuntimeConfig::fromEnv() {
  RuntimeConfig cfg;
  if (const char* v = envOrNull("PGASNB_NUM_LOCALES")) {
    cfg.num_locales = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = envOrNull("PGASNB_WORKERS")) {
    cfg.workers_per_locale =
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = envOrNull("PGASNB_COMM_MODE")) {
    cfg.comm_mode = parseCommMode(v, cfg.comm_mode);
  }
  if (const char* v = envOrNull("PGASNB_INJECT_DELAYS")) {
    cfg.inject_delays = std::strtol(v, nullptr, 0) != 0;
  }
  if (const char* v = envOrNull("PGASNB_DELAY_SCALE")) {
    cfg.latency.delay_scale = std::strtod(v, nullptr);
  }
  if (const char* v = envOrNull("PGASNB_RETIRE_BATCH")) {
    cfg.retire_batch_size =
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = envOrNull("PGASNB_AGG_OPS_PER_BATCH")) {
    cfg.aggregator_ops_per_batch =
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = envOrNull("PGASNB_AGG_MAX_BATCH_AGE")) {
    cfg.aggregator_max_batch_age_ns = std::strtoull(v, nullptr, 0);
  }
  if (const char* v = envOrNull("PGASNB_INTERVAL_ERA_FREQ")) {
    cfg.interval_era_freq =
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = envOrNull("PGASNB_RH_RESIZE_LOAD")) {
    cfg.rh_resize_load = std::strtod(v, nullptr);
  }
  if (const char* v = envOrNull("PGASNB_RH_MIGRATE_CHUNK")) {
    cfg.rh_migrate_chunk =
        static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
  }
  return cfg;
}

std::string RuntimeConfig::describe() const {
  std::ostringstream os;
  os << "locales=" << num_locales << " workers/locale=" << workers_per_locale
     << " comm=" << toString(comm_mode)
     << " retire=" << toString(remote_retire)
     << " rh_resize_load=" << rh_resize_load
     << " rh_migrate_chunk=" << rh_migrate_chunk
     << " inject=" << (inject_delays ? "yes" : "no")
     << " delay_scale=" << latency.delay_scale;
  return os.str();
}

}  // namespace pgasnb
