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

struct RuntimeConfig {
  /// Number of simulated locales (compute nodes). The pointer-compression
  /// scheme supports up to 2^16; see atomic/pointer_compression.hpp.
  std::uint32_t num_locales = 4;

  /// Worker threads per locale servicing `on`/`coforall` tasks. Waiting
  /// tasks help-execute queued work for their own locale, so 1 is deadlock
  /// free; 2 is the default to let reclamation overlap with mutators.
  std::uint32_t workers_per_locale = 2;

  CommMode comm_mode = CommMode::none;

  /// comm::Aggregator: ops or aggregated retires buffered per destination
  /// before a batched AM is injected (0 is treated as 1).
  std::uint32_t aggregator_ops_per_batch = 64;

  /// comm::Aggregator age flush: an under-filled bucket ships once its
  /// oldest buffered op is this many *simulated* nanoseconds old (checked
  /// at each enqueue and on flushAged()), instead of waiting for
  /// batch-full or an explicit flush. 0 disables age-based flushing.
  std::uint64_t aggregator_max_batch_age_ns = 100'000;

  LatencyModel latency{};

  /// When true, communication costs are also *physically* injected as
  /// calibrated busy-waits (scaled by latency.delay_scale), so wall-clock
  /// measurements reflect the model. Tests disable this for speed.
  bool inject_delays = true;

  /// Virtual bytes reserved per locale for its arena (committed lazily).
  std::size_t arena_bytes_per_locale = std::size_t{64} << 20;

  std::string describe() const;
};

}  // namespace pgasnb
