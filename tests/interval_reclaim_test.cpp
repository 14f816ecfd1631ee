// The slow-locale garbage bound (PR 8 tentpole): one harness, two domain
// models. A straggler guard stays pinned for K reclamation rounds while
// every locale keeps retiring garbage. Under the interval domain the
// pending high-water mark is bounded by a constant independent of K (the
// straggler holds back only the garbage whose lifetime interval crosses
// its reservation); under EBR the same harness grows pending ~linearly in
// K (the lagging pin vetoes every epoch advance). The assertions are
// self-enforcing: the bound is computed from the workload's shape, not
// tuned to observed numbers.
//
// The DISABLED_ variant is the `ctest -L stress` version: a much longer
// stall.
#include <gtest/gtest.h>

#include <cstdint>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

struct Garbage {
  std::uint64_t payload[8] = {0};
};

/// K rounds of (every locale retires `per_locale` objects, then one
/// reclamation scan), all while a straggler guard pinned *before* round 0
/// never unpins. Returns the domain's max_pending high-water mark over the
/// run, then drains so the domain tears down clean.
template <typename Domain>
std::uint64_t stragglerPeakPending(Domain& domain, int rounds,
                                   int per_locale) {
  auto straggler = domain.pin();
  for (int r = 0; r < rounds; ++r) {
    coforallLocales([domain, per_locale] {
      auto guard = domain.pin();
      for (int i = 0; i < per_locale; ++i) {
        guard.retire(Domain::template make<Garbage>());
      }
    });
    domain.tryReclaim();  // EBR: fails once the straggler lags; IBR: never
  }
  const std::uint64_t peak = domain.stats().max_pending;
  straggler.unpin();
  domain.clear();
  return peak;
}

class IntervalGarbageBoundTest : public RuntimeTest {};

class IntervalProtectOnceTest : public RuntimeTest {};

TEST_F(IntervalProtectOnceTest, EraMoveMidOpReportsUncoveredAfterOneRun) {
  startRuntime(2);
  IntervalDomain domain = IntervalDomain::create();
  {
    auto guard = domain.pin();
    int runs = 0;
    EXPECT_TRUE(guard.protectOnce([&] { ++runs; }))
        << "an era that holds still covers what the op observed";
    EXPECT_EQ(runs, 1);
    runs = 0;
    EXPECT_FALSE(guard.protectOnce([&] {
      ++runs;
      intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
    })) << "the era moved mid-op: the op's observations are not covered";
    EXPECT_EQ(runs, 1) << "protectOnce never re-runs its op (it may be a CAS)";
    // protect(), by contrast, re-runs its load until the era holds still.
    runs = 0;
    EXPECT_EQ(guard.protect([&] {
      if (++runs == 1) {
        intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
      }
      return runs;
    }),
              2);
  }
  domain.destroy();
}

TEST_F(IntervalGarbageBoundTest, StalledGuardBoundsIntervalPendingNotEbr) {
  startRuntime(4);
  constexpr int kPerLocale = 64;
  constexpr std::uint64_t kNloc = 4;
  constexpr int kShort = 6;
  constexpr int kLong = 12;

  IntervalDomain interval = IntervalDomain::create();
  const std::uint64_t ipeak_short =
      stragglerPeakPending(interval, kShort, kPerLocale);
  interval.resetStats();
  const std::uint64_t ipeak_long =
      stragglerPeakPending(interval, kLong, kPerLocale);
  interval.destroy();

  DistDomain ebr = DistDomain::create();
  const std::uint64_t epeak_short =
      stragglerPeakPending(ebr, kShort, kPerLocale);
  ebr.resetStats();
  const std::uint64_t epeak_long = stragglerPeakPending(ebr, kLong, kPerLocale);
  ebr.destroy();

  // Interval bound: the straggler pins at most the round-0 garbage (whose
  // intervals cross its reservation) plus the round in flight -- 2 rounds'
  // worth, doubled for slack (max_pending sums per-locale peaks, which is
  // conservative). Crucially, the bound does NOT contain K.
  const std::uint64_t bound = 4 * kPerLocale * kNloc;
  EXPECT_LE(ipeak_short, bound);
  EXPECT_LE(ipeak_long, bound)
      << "interval pending must stay bounded however long the stall lasts";
  EXPECT_LE(ipeak_long, ipeak_short + kPerLocale * kNloc)
      << "doubling the stall must not move the interval peak by a round";

  // EBR control: same harness, pending grows with K (kLong = 2 * kShort
  // should roughly double it; require 1.5x to stay robust).
  EXPECT_GE(epeak_long, epeak_short + epeak_short / 2)
      << "EBR pending must grow with the stall length in this harness";
  EXPECT_GT(epeak_long, ipeak_long)
      << "the interval domain must beat EBR under a stalled guard";
}

TEST_F(IntervalGarbageBoundTest, RetirePathEraAmortizationFreesWithoutScans) {
  // Every kEraFreq-th retire bumps the era on its own, so a fresh
  // reservation pinned *after* a burst no longer covers it -- one scan
  // then frees the burst even though nobody called tryReclaim while it
  // was building up.
  startRuntime(2);
  IntervalDomain domain = IntervalDomain::create();
  const std::uint64_t era_before = domain.currentEpoch();
  {
    auto guard = domain.pin();
    for (std::uint64_t i = 0; i < 2 * IntervalManagerImpl::kEraFreq; ++i) {
      guard.retire(IntervalDomain::make<Garbage>());
    }
  }
  EXPECT_GT(domain.currentEpoch(), era_before)
      << "the retire path must advance the era every kEraFreq retires";
  EXPECT_TRUE(domain.tryReclaim());
  EXPECT_EQ(domain.stats().pending(), 0u);
  domain.destroy();
}

// --- `ctest -L stress` variants ---------------------------------------------

class IntervalStressTest : public RuntimeTest {};

TEST_F(IntervalStressTest, DISABLED_GarbageBoundUnderLongStall) {
  // The tier-1 shape at stress scale: a straggler stalled for 400 rounds.
  // The interval peak must match the 50-round peak to within one round's
  // garbage; the EBR control grows ~8x over the same span.
  startRuntime(4);
  constexpr int kPerLocale = 128;
  constexpr std::uint64_t kNloc = 4;

  IntervalDomain interval = IntervalDomain::create();
  const std::uint64_t ipeak_short =
      stragglerPeakPending(interval, 50, kPerLocale);
  interval.resetStats();
  const std::uint64_t ipeak_long =
      stragglerPeakPending(interval, 400, kPerLocale);
  interval.destroy();

  DistDomain ebr = DistDomain::create();
  const std::uint64_t epeak_short = stragglerPeakPending(ebr, 50, kPerLocale);
  ebr.resetStats();
  const std::uint64_t epeak_long = stragglerPeakPending(ebr, 400, kPerLocale);
  ebr.destroy();

  EXPECT_LE(ipeak_long, ipeak_short + kPerLocale * kNloc)
      << "8x the stall length must not move the interval peak by a round";
  EXPECT_LE(ipeak_long, 4 * kPerLocale * kNloc);
  EXPECT_GE(epeak_long, 4 * epeak_short)
      << "EBR pending must keep growing across the longer stall";
}

}  // namespace
}  // namespace pgasnb
