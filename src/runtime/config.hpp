// Runtime configuration: locale count, communication mode, latency model.
//
// CommMode mirrors the paper's CHPL_NETWORK_ATOMICS setting on the Cray
// XC-50 testbed:
//   * ugni  - RDMA network atomics: the NIC performs 64-bit atomics against
//             remote memory in ~1us with no target-CPU involvement.  These
//             atomics are NOT coherent with processor atomics, so *every*
//             network-visible atomic -- including ones whose target happens
//             to be local -- must go through the NIC (paper Sec. III).
//   * none  - no network atomics: remote atomic operations are shipped as
//             active messages and executed by the target locale's progress
//             thread; local atomics are plain (fast) processor atomics.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/latency_model.hpp"

namespace pgasnb {

enum class CommMode : std::uint8_t {
  none,  ///< remote atomics via active messages (CHPL_NETWORK_ATOMICS unset)
  ugni,  ///< RDMA network atomics (Gemini/Aries style)
};

const char* toString(CommMode mode) noexcept;

/// Parses "none"/"ugni" (case-insensitive); falls back to `def`.
CommMode parseCommMode(const std::string& text, CommMode def = CommMode::none);

/// How a DistDomain guard ships a retire whose object lives on another
/// locale:
///   * scatter    - paper baseline: push into the *local* limbo list; the
///                  reclaim pass sorts objects by owner and bulk-transfers
///                  each bucket (communication deferred to reclaim time).
///   * aggregated - per-task batching + comm::Aggregator: retires coalesce
///                  into one batched AM per destination (default).
enum class RemoteRetirePolicy : std::uint8_t {
  scatter,
  aggregated,
};

const char* toString(RemoteRetirePolicy policy) noexcept;

struct RuntimeConfig {
  /// Number of simulated locales (compute nodes). The pointer-compression
  /// scheme supports up to 2^16; see atomic/pointer_compression.hpp.
  std::uint32_t num_locales = 4;

  /// Worker threads per locale servicing `on`/`coforall` tasks. Waiting
  /// tasks help-execute queued work for their own locale, so 1 is deadlock
  /// free; 2 is the default to let reclamation overlap with mutators.
  std::uint32_t workers_per_locale = 2;

  CommMode comm_mode = CommMode::none;

  /// Cross-locale retire routing (see RemoteRetirePolicy).
  RemoteRetirePolicy remote_retire = RemoteRetirePolicy::aggregated;

  /// Interval manager: bump the shared era clock every N retires per locale
  /// (Hart-style retire-path amortization), so reservations age out even
  /// between explicit tryReclaim() calls. 0 = only tryReclaim advances.
  std::uint32_t interval_era_freq = 128;

  /// Aggregated retires: entries buffered per (guard, destination) before
  /// the batch is handed to the task's comm::Aggregator.
  std::uint32_t retire_batch_size = 64;

  /// comm::Aggregator: closures buffered per destination before a batched
  /// AM is injected (0 is treated as 1).
  std::uint32_t aggregator_ops_per_batch = 64;

  /// comm::Aggregator age flush: an under-filled bucket ships once its
  /// oldest buffered op is this many *simulated* nanoseconds old (checked
  /// at each enqueue and on flushAged()), instead of waiting for
  /// batch-full/unpin. 0 disables age-based flushing.
  std::uint64_t aggregator_max_batch_age_ns = 100'000;

  /// RobinHoodMap: per-segment load factor that starts an incremental
  /// doubling (shadow table + chunked migration). <= 0 disables resize, so
  /// a full segment rejects inserts (stats().full_rejects). create() with
  /// explicit RobinHoodOptions overrides this.
  double rh_resize_load = 0.85;

  /// RobinHoodMap: entries migrated per bounded chunk (per mutation / pump
  /// step; chunks round up to the enclosing probe run). 0 is treated as 1.
  std::uint32_t rh_migrate_chunk = 64;

  LatencyModel latency{};

  /// When true, communication costs are also *physically* injected as
  /// calibrated busy-waits (scaled by latency.delay_scale), so wall-clock
  /// measurements reflect the model. Tests disable this for speed.
  bool inject_delays = true;

  /// Virtual bytes reserved per locale for its arena (committed lazily).
  std::size_t arena_bytes_per_locale = std::size_t{64} << 20;

  /// Reads PGASNB_NUM_LOCALES, PGASNB_COMM_MODE, PGASNB_WORKERS,
  /// PGASNB_INJECT_DELAYS, PGASNB_DELAY_SCALE, PGASNB_INTERVAL_ERA_FREQ,
  /// PGASNB_RETIRE_BATCH, PGASNB_AGG_OPS_PER_BATCH,
  /// PGASNB_AGG_MAX_BATCH_AGE, PGASNB_RH_RESIZE_LOAD,
  /// PGASNB_RH_MIGRATE_CHUNK on top of the defaults (docs/API.md lists
  /// them with their fields and defaults). The remote-retire policy has
  /// no variable: it is chosen in code (cfg.remote_retire).
  static RuntimeConfig fromEnv();

  std::string describe() const;
};

}  // namespace pgasnb
