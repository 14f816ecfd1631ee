// Runtime-facing half of the self-tuning control loop: the park-slice
// policy needs the active RuntimeConfig (base slice), so it lives here
// rather than in the std-only tuner.hpp.

#include "runtime/tuner.hpp"

#include <chrono>

#include "runtime/comm.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb::comm::detail {

std::chrono::microseconds cqParkSliceFor(CqShared& q) noexcept {
  const std::uint32_t base = Runtime::active()
                                 ? Runtime::get().config().cq_park_slice_us
                                 : RuntimeConfig{}.cq_park_slice_us;
  const std::uint32_t slice = tuner::scaledParkSliceUs(
      q.ewma_gap_ns.load(std::memory_order_relaxed), base);
  // Count decisions, not probes: a parker re-reading the same slice is
  // steady state, only an actual change is a tuner adjustment.
  if (q.last_slice_us.exchange(slice, std::memory_order_relaxed) != slice) {
    noteTunerSliceAdjust(slice);
  }
  return std::chrono::microseconds(slice);
}

}  // namespace pgasnb::comm::detail
