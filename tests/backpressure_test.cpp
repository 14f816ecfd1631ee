// End-to-end backpressure on the deferred-continuation path (PR 8):
// DrainGroup cap/saturation semantics and the deferred_peak counter
// (runtime-free), the issue-side throttle in routeContinuation
// (backpressure_stalls + help-drain), the Aggregator's hold-batches
// throttle with its 4x overflow valve, and the deferred-continuation
// exception contract (PGASNB_CHECK abort in runOneDeferred).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

template <typename Pred>
void spinUntil(Pred&& pred) {
  while (!pred()) std::this_thread::yield();
}

class BackpressureTest : public RuntimeTest {
 protected:
  void SetUp() override { comm::resetCounters(); }
};

// --- DrainGroup cap semantics (no runtime needed) ----------------------------

TEST(DrainGroupCapTest, SaturationTripsAtHalfCapAndPeakIsRecorded) {
  comm::resetCounters();
  comm::DrainGroup group;
  EXPECT_EQ(group.deferredCap(), 0u);
  EXPECT_FALSE(group.saturated()) << "cap 0 means uncapped: never saturated";

  int ran = 0;
  for (int i = 0; i < 3; ++i) group.defer([&ran] { ++ran; });
  group.setDeferredCap(8);
  EXPECT_EQ(group.deferredCap(), 8u);
  EXPECT_FALSE(group.saturated()) << "3*2 < 8: below the throttle mark";
  group.defer([&ran] { ++ran; });
  EXPECT_TRUE(group.saturated()) << "4*2 >= 8: at the throttle mark";
  for (int i = 0; i < 4; ++i) group.defer([&ran] { ++ran; });
  EXPECT_EQ(group.deferredDepth(), 8u);

  // defer() itself never drops or blocks at the cap; draining clears the
  // saturation without losing bodies.
  while (group.saturated()) {
    EXPECT_TRUE(group.runOneDeferred());
  }
  EXPECT_LT(group.deferredDepth() * 2, 8u);
  while (group.runOneDeferred()) {
  }
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(group.deferredDepth(), 0u);
  EXPECT_GE(comm::counters().deferred_peak, 8u)
      << "the high-water hook must have seen the full queue";
}

// --- issue-side throttle (routeContinuation / throttleDeferredBacklog) -------

TEST_F(BackpressureTest, IssuerThrottlesAndHelpsOnASaturatedQueue) {
  // One worker, pinned by a spinning task: nobody else can drain the
  // deferred queue, so saturation at issue time is deterministic.
  startRuntime(1, CommMode::none, /*workers=*/1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(0, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });

  comm::DrainGroup& group = Runtime::get().locale(0).drainGroup();
  group.setDeferredCap(32);
  std::atomic<int> drained{0};
  for (int i = 0; i < 16; ++i) {
    group.defer([&drained] { drained.fetch_add(1); });
  }
  ASSERT_TRUE(group.saturated());

  // Routing a worker-policy continuation while saturated must count a
  // stall and work the backlog down before producing more.
  std::atomic<int> body{0};
  auto derived = comm::readyHandle().then([&body] { body.fetch_add(1); },
                                          comm::ExecPolicy::worker);
  EXPECT_GE(comm::counters().backpressure_stalls, 1u);
  EXPECT_GE(drained.load(), 1) << "the issuer must have helped drain";

  release.store(true);
  pin_worker.wait();
  derived.wait();
  EXPECT_EQ(body.load(), 1);
  spinUntil([&] { return drained.load() == 16; });
  EXPECT_GE(comm::counters().deferred_peak, 16u);
}

TEST_F(BackpressureTest, UncappedQueueNeverThrottles) {
  startRuntime(1, CommMode::none, /*workers=*/1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(0, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });

  comm::DrainGroup& group = Runtime::get().locale(0).drainGroup();
  group.setDeferredCap(0);  // explicit: uncapped
  std::atomic<int> drained{0};
  for (int i = 0; i < 64; ++i) {
    group.defer([&drained] { drained.fetch_add(1); });
  }
  auto derived = comm::readyHandle().then([] {}, comm::ExecPolicy::worker);
  EXPECT_EQ(comm::counters().backpressure_stalls, 0u);
  release.store(true);
  pin_worker.wait();
  derived.wait();
  spinUntil([&] { return drained.load() == 64; });
}

// --- Aggregator hold-batches throttle ----------------------------------------

TEST_F(BackpressureTest, AggregatorHoldsBatchesForASaturatedDestination) {
  startRuntime(2, CommMode::none, /*workers=*/1);
  // Pin locale 1's only worker so its deferred queue cannot drain.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(1, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });

  comm::DrainGroup& dest = Runtime::get().locale(1).drainGroup();
  dest.setDeferredCap(8);
  std::atomic<int> stuck{0};
  for (int i = 0; i < 4; ++i) dest.defer([&stuck] { stuck.fetch_add(1); });
  ASSERT_TRUE(dest.saturated());

  // A threshold-full bucket for the saturated destination is *held*: the
  // batch keeps buffering instead of shipping.
  constexpr std::size_t kBatch = 4;
  comm::Aggregator agg(kBatch);
  std::atomic<int> ran{0};
  for (std::size_t i = 0; i < kBatch; ++i) {
    agg.enqueue(1, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(agg.pendingFor(1), kBatch) << "threshold flush must be declined";
  EXPECT_EQ(ran.load(), 0);
  EXPECT_GE(comm::counters().backpressure_stalls, 1u);

  // The overflow valve: a bucket at 4x the threshold ships regardless, so
  // one slow destination cannot pin unbounded sender-side memory.
  while (agg.pendingFor(1) != 0) {
    agg.enqueue(1, [&ran] { ran.fetch_add(1); });
  }
  spinUntil([&] { return ran.load() == 4 * static_cast<int>(kBatch); });

  // Once the destination drains below the mark, threshold flushes resume.
  release.store(true);
  pin_worker.wait();
  spinUntil([&] { return stuck.load() == 4; });
  ASSERT_FALSE(dest.saturated());
  for (std::size_t i = 0; i < kBatch; ++i) {
    agg.enqueue(1, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(agg.pendingFor(1), 0u) << "unsaturated destination: batch ships";
  spinUntil([&] { return ran.load() == 5 * static_cast<int>(kBatch); });
}

TEST_F(BackpressureTest, OverflowValveTracksTheAdaptiveThreshold) {
  // ISSUE 10 regression: the 4x overflow valve must scale with the
  // *effective* (tuner-adjusted) batch threshold, not the configured base.
  // With base 8 shrunk to 2, a held bucket must ship at 4 * 2 = 8 buffered
  // ops -- under the old behavior it would sit on 4 * 8 = 32.
  RuntimeConfig cfg = testing::testConfig(2, CommMode::none, /*workers=*/1);
  cfg.aggregator_ops_per_batch = 8;
  cfg.tuner_batch_min = 2;
  runtime_ = std::make_unique<Runtime>(cfg);

  // Phase 1: sparse production (1 ms per op) walks the task aggregator's
  // threshold down to the clamp floor.
  comm::Aggregator& agg = comm::taskAggregator();
  std::atomic<int> ran{0};
  std::uint64_t t = sim::now();
  for (int i = 0; i < 32; ++i) {
    t += 1'000'000;
    sim::setNow(t);
    agg.enqueue(1, [&ran] { ran.fetch_add(1); });
  }
  agg.flushAll();
  ASSERT_EQ(agg.opsPerBatch(), 2u) << "tuner must have reached the floor";
  spinUntil([&] { return ran.load() == 32; });

  // Phase 2: pin locale 1's only worker and saturate its deferred queue so
  // threshold flushes are declined.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(1, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });
  comm::DrainGroup& dest = Runtime::get().locale(1).drainGroup();
  dest.setDeferredCap(8);
  std::atomic<int> stuck{0};
  for (int i = 0; i < 4; ++i) dest.defer([&stuck] { stuck.fetch_add(1); });
  ASSERT_TRUE(dest.saturated());

  // No sim-clock gaps now, so the age flush stays out of the picture: the
  // bucket holds past the 2-op threshold and ships exactly at the valve.
  std::size_t buffered = 0;
  while (buffered < 64) {
    agg.enqueue(1, [&ran] { ran.fetch_add(1); });
    ++buffered;
    if (agg.pendingFor(1) == 0) break;
  }
  EXPECT_EQ(buffered, 4u * agg.opsPerBatch())
      << "the valve must track the effective threshold";
  EXPECT_GE(comm::counters().backpressure_stalls, 1u);

  release.store(true);
  pin_worker.wait();
  spinUntil([&] { return stuck.load() == 4; });
  spinUntil([&] { return ran.load() == 32 + static_cast<int>(buffered); });
}

TEST_F(BackpressureTest, ExplicitFlushShipsAHeldBatch) {
  // Forward-progress guarantee: flush()/flushAll() bypass the hold.
  startRuntime(2, CommMode::none, /*workers=*/1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(1, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });
  comm::DrainGroup& dest = Runtime::get().locale(1).drainGroup();
  dest.setDeferredCap(8);
  for (int i = 0; i < 4; ++i) dest.defer([] {});
  ASSERT_TRUE(dest.saturated());

  comm::Aggregator agg(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) agg.enqueue(1, [&ran] { ran.fetch_add(1); });
  ASSERT_EQ(agg.pendingFor(1), 4u);
  agg.flushAll();
  EXPECT_EQ(agg.pendingFor(1), 0u);
  spinUntil([&] { return ran.load() == 4; });
  release.store(true);
  pin_worker.wait();
  spinUntil([&] { return !dest.hasDeferred(); });
}

// --- the deferred-continuation exception contract ----------------------------

using DrainGroupDeathTest = ::testing::Test;

TEST(DrainGroupDeathTest, ThrowingDeferredBodyAbortsWithAttribution) {
  // A deferred body's exception has no owner to land on; the contract is
  // fail-fast with an attributable message, not an escape into whichever
  // task thread happened to drain it.
  comm::DrainGroup group;
  group.defer([] { throw std::runtime_error("boom"); });
  EXPECT_DEATH(group.runOneDeferred(), "must not throw");
}

// --- the config knob ---------------------------------------------------------

TEST(BackpressureConfigTest, DeferredCapKnobDefaultsAndParsesFromEnv) {
  EXPECT_EQ(RuntimeConfig{}.drain_deferred_cap, 4096u);
  ::setenv("PGASNB_DRAIN_DEFERRED_CAP", "128", 1);
  EXPECT_EQ(RuntimeConfig::fromEnv().drain_deferred_cap, 128u);
  ::unsetenv("PGASNB_DRAIN_DEFERRED_CAP");
}

TEST(BackpressureConfigTest, RuntimeWiresTheCapIntoEveryLocale) {
  RuntimeConfig cfg = testing::testConfig(2);
  cfg.drain_deferred_cap = 10;
  Runtime rt(cfg);
  EXPECT_EQ(rt.locale(0).drainGroup().deferredCap(), 10u);
  EXPECT_EQ(rt.locale(1).drainGroup().deferredCap(), 10u);
}

}  // namespace
}  // namespace pgasnb
