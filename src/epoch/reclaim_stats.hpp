// ReclaimStats: the one statistics record shared by every reclamation
// domain (paper Sec. II.C exposes the same counters for both the
// distributed and the shared-memory epoch manager), and ReclaimCounters,
// the one block of atomics every domain instance counts into.
//
// Counter semantics:
//   deferred   retired objects filed for a later free (a distributed
//              domain's retire counts once its run reaches its owner's list)
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

/// The live counters behind ReclaimStats: one block per LocalDomain, one per
/// locale instance of a distributed domain. Relaxed throughout -- they feed
/// diagnostics and quiescent-exact assertions, not synchronization.
struct ReclaimCounters {
  std::atomic<std::uint64_t> deferred{0};
  std::atomic<std::uint64_t> reclaimed{0};
  std::atomic<std::uint64_t> advances{0};
  std::atomic<std::uint64_t> elections_lost_local{0};
  std::atomic<std::uint64_t> elections_lost_global{0};
  std::atomic<std::uint64_t> scans_unsafe{0};
  std::atomic<std::uint64_t> max_pending{0};

  /// Count `n` fresh deferrals and raise the max_pending high-water mark.
  void noteDeferred(std::uint64_t n) noexcept {
    const std::uint64_t total =
        deferred.fetch_add(n, std::memory_order_relaxed) + n;
    const std::uint64_t pending =
        total - reclaimed.load(std::memory_order_relaxed);
    std::uint64_t peak = max_pending.load(std::memory_order_relaxed);
    while (peak < pending && !max_pending.compare_exchange_weak(
                                 peak, pending, std::memory_order_relaxed)) {
    }
  }

  ReclaimStats snapshot() const noexcept {
    return {deferred.load(std::memory_order_relaxed),
            reclaimed.load(std::memory_order_relaxed),
            advances.load(std::memory_order_relaxed),
            elections_lost_local.load(std::memory_order_relaxed),
            elections_lost_global.load(std::memory_order_relaxed),
            scans_unsafe.load(std::memory_order_relaxed),
            max_pending.load(std::memory_order_relaxed)};
  }

  /// Zero every counter, the high-water mark included. Limbo lists and
  /// tokens are untouched; call at a quiescent point (typically right after
  /// clear()), since resetting while retires are pending skews pending().
  void reset() noexcept {
    for (auto* c : {&deferred, &reclaimed, &advances, &elections_lost_local,
                    &elections_lost_global, &scans_unsafe, &max_pending}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

}  // namespace pgasnb
