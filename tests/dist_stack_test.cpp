// DistStack: the global-view distributed Treiber stack (paper Listing 1
// on distributed building blocks), Domain-generic.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParamTest;
using testing::RuntimeTest;

class DistStackModeTest : public RuntimeParamTest {};

TEST_P(DistStackModeTest, PushPopSingleLocaleView) {
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  {
    auto guard = domain.pin();
    EXPECT_TRUE(stack->emptyApprox());
    stack->push(guard, 11);
    stack->push(guard, 22);
    EXPECT_EQ(*stack->pop(guard), 22u);
    EXPECT_EQ(*stack->pop(guard), 11u);
    EXPECT_FALSE(stack->pop(guard).has_value());
  }
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_P(DistStackModeTest, EveryLocalePushesAndDrainConserves) {
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  constexpr std::uint64_t kPerLocale = 200;
  const std::uint64_t nloc = runtime_->numLocales();

  coforallLocales([domain, stack] {
    auto guard = domain.pin();
    const std::uint64_t base = Runtime::here() * kPerLocale;
    for (std::uint64_t i = 0; i < kPerLocale; ++i) {
      stack->push(guard, base + i);
    }
  });

  // Drain from locale 0 and verify each value shows up exactly once.
  std::set<std::uint64_t> seen;
  {
    auto guard = domain.pin();
    while (auto v = stack->pop(guard)) {
      EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
    }
  }
  EXPECT_EQ(seen.size(), kPerLocale * nloc);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), kPerLocale * nloc - 1);

  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_P(DistStackModeTest, ConcurrentMixedOpsConserve) {
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  constexpr int kIters = 150;
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> pushed{0};

  coforallLocales([domain, stack, &popped, &pushed] {
    auto guard = domain.attach();
    Xoshiro256 rng(Runtime::here() * 7 + 3);
    for (int i = 0; i < kIters; ++i) {
      guard.pin();
      if (rng.nextBool(0.6)) {
        stack->push(guard, rng.next());
        pushed.fetch_add(1, std::memory_order_relaxed);
      } else if (stack->pop(guard).has_value()) {
        popped.fetch_add(1, std::memory_order_relaxed);
      }
      guard.unpin();
      if ((i & 63) == 0) guard.tryReclaim();
    }
  });

  std::uint64_t rest = 0;
  {
    auto guard = domain.pin();
    while (stack->pop(guard).has_value()) ++rest;
  }
  EXPECT_EQ(popped.load() + rest, pushed.load());

  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistStackModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

class DistStackTest : public RuntimeTest {};

TEST_F(DistStackTest, NodesLiveOnPushingLocale) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  coforallLocales([domain, stack] {
    auto guard = domain.pin();
    stack->push(guard, Runtime::here());
  });
  // Walk the chain: each node's owner must equal the value pushed by it.
  {
    auto guard = domain.pin();
    std::set<std::uint32_t> owners;
    for (int i = 0; i < 4; ++i) {
      auto v = stack->pop(guard);
      ASSERT_TRUE(v.has_value());
      owners.insert(static_cast<std::uint32_t>(*v));
    }
    EXPECT_EQ(owners.size(), 4u) << "one node per locale";
  }
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(DistStackTest, ReclaimShipsNodesHome) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  std::vector<std::uint64_t> live_before(3);
  for (std::uint32_t l = 0; l < 3; ++l) {
    live_before[l] = runtime_->locale(l).arena().liveBlocks();
  }
  // Push from every locale, pop everything from locale 0, then reclaim:
  // node frees must land back on the pushing locales' arenas (no aborts
  // from the owner assert = scatter worked).
  coforallLocales([domain, stack] {
    auto guard = domain.pin();
    for (int i = 0; i < 64; ++i) stack->push(guard, i);
  });
  {
    auto guard = domain.pin();
    while (stack->pop(guard).has_value()) {
    }
  }
  domain.clear();
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, 3u * 64u);
  EXPECT_EQ(s.reclaimed, s.deferred);
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
  // Allow pooled limbo nodes/tokens to remain; payload nodes must be gone.
  for (std::uint32_t l = 0; l < 3; ++l) {
    EXPECT_LE(runtime_->locale(l).arena().liveBlocks(), live_before[l] + 80);
  }
}

TEST_F(DistStackTest, UncontendedOpsRoundTripsUnderUgni) {
  startRuntime(2, CommMode::ugni);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/1);
  {
    auto guard = domain.pin();
    comm::resetCounters();
    stack->push(guard, 7);
    auto c = comm::counters();
    // The 16-byte {pointer, count} head never rides the NIC: its read and
    // its DCAS are each one remote-execution round trip.
    EXPECT_EQ(c.nic_atomics, 0u);
    EXPECT_EQ(c.am_sync, 2u) << "head read, head DCAS";
    EXPECT_EQ(c.dcas_remote, 1u);
    comm::resetCounters();
    EXPECT_EQ(stack->pop(guard), std::optional<std::uint64_t>(7));
    c = comm::counters();
    EXPECT_EQ(c.nic_atomics, 0u);
    EXPECT_EQ(c.am_sync, 2u) << "head read, head DCAS";
    EXPECT_EQ(c.gets, 1u) << "node snapshot";
    EXPECT_EQ(c.dcas_remote, 1u);
  }
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(DistStackTest, HeadPlacementIsConfigurable) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/2);
  EXPECT_EQ(localeOf(stack), 2u);
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(DistStackTest, LocalDomainInstantiationSharesTheAlgorithm) {
  // The same DistStack body on a LocalDomain: heap nodes, processor
  // atomics, direct loads -- no runtime primitives on the hot path.
  startRuntime(1);
  LocalDomain domain;
  auto* stack = DistStack<std::uint64_t, LocalDomain>::create(domain);
  {
    auto guard = domain.pin();
    for (std::uint64_t i = 0; i < 100; ++i) stack->push(guard, i);
    for (std::uint64_t i = 100; i-- > 0;) {
      auto v = stack->pop(guard);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(stack->pop(guard).has_value());
  }
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, 100u);
  DistStack<std::uint64_t, LocalDomain>::destroy(stack);
  EXPECT_EQ(domain.stats().reclaimed, s.deferred);
}

}  // namespace
}  // namespace pgasnb
