// ReclaimStats: the one statistics record shared by every reclamation
// domain (paper Sec. II.C exposes the same counters for both the
// distributed EpochManager and the shared-memory LocalEpochManager; the
// seed duplicated the struct per manager).
//
// Counter semantics:
//   deferred   objects handed to retire()/deferDelete (not yet freed)
//   reclaimed  objects whose deleter has run
//   advances   successful epoch advances won by this domain
//   elections_lost_local   tryReclaim attempts bounced off the locale-local
//                          FCFS flag (the only election a LocalDomain has)
//   elections_lost_global  attempts that won locally but lost the global
//                          flag (always 0 for a LocalDomain)
//   scans_unsafe           elections won whose token scan found a pinned
//                          task outside the current epoch
//   max_pending            high-water mark of pending() (deferred minus
//                          reclaimed), updated at every retire. The
//                          garbage-bound assertions are made against this
//                          peak, not the instantaneous value.
#pragma once

#include <atomic>
#include <cstdint>

namespace pgasnb {

namespace detail {

/// Lock-free fetch-max: raise `peak` to at least `value` (relaxed -- peaks
/// feed diagnostics and quiescent-exact assertions, not synchronization).
inline void raiseMax(std::atomic<std::uint64_t>& peak,
                     std::uint64_t value) noexcept {
  std::uint64_t cur = peak.load(std::memory_order_relaxed);
  while (cur < value &&
         !peak.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

struct ReclaimStats {
  std::uint64_t deferred = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t advances = 0;
  std::uint64_t elections_lost_local = 0;
  std::uint64_t elections_lost_global = 0;
  std::uint64_t scans_unsafe = 0;
  std::uint64_t max_pending = 0;

  std::uint64_t electionsLost() const noexcept {
    return elections_lost_local + elections_lost_global;
  }
  std::uint64_t pending() const noexcept { return deferred - reclaimed; }

  ReclaimStats& operator+=(const ReclaimStats& o) noexcept {
    deferred += o.deferred;
    reclaimed += o.reclaimed;
    advances += o.advances;
    elections_lost_local += o.elections_lost_local;
    elections_lost_global += o.elections_lost_global;
    scans_unsafe += o.scans_unsafe;
    // Summing per-locale peaks gives a conservative upper bound on the
    // global peak (the locales need not have peaked simultaneously), which
    // is the right direction for "pending stayed bounded" assertions.
    max_pending += o.max_pending;
    return *this;
  }
};

}  // namespace pgasnb
