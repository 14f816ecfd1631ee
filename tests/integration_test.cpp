// End-to-end integration: the paper's usage patterns, whole-stack, via the
// Domain/Guard API.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "epoch_workload.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

class IntegrationTest : public RuntimeTest {};

TEST_F(IntegrationTest, PaperListing3UsagePattern) {
  // var em = new EpochManager();
  // Serial: pin/unpin within one guard scope.
  // Parallel+distributed: forall with task-private guards; domain.clear().
  startRuntime(4);
  DistDomain domain = DistDomain::create();

  {
    auto guard = domain.pin();
    guard.unpin();
  }  // automatic unregister

  struct C {
    std::uint64_t bits = 0xabcdef;
  };
  std::vector<C*> objs(128);
  for (std::uint64_t i = 0; i < objs.size(); ++i) {
    objs[i] = gnewOn<C>(static_cast<std::uint32_t>(i % 4));
  }
  bench::forallCyclic(
      objs, 2, [domain] { return domain.attach(); },
      [](DistGuard& guard, C*& x) {
        guard.pin();
        guard.retire(x);
        x = nullptr;
        guard.unpin();
      });  // automatic unregister per task
  domain.clear();  // Reclaim everything at once.
  EXPECT_EQ(domain.stats().reclaimed, 128u);
  domain.destroy();
}

TEST_F(IntegrationTest, PaperListing5Microbenchmark) {
  // The EpochManager microbenchmark: randomized object locales, periodic
  // tryReclaim, final clear -- the shape of Figures 4-6.
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  constexpr std::uint64_t kNumObjects = 1024;

  struct C {
    std::uint64_t payload[2] = {1, 2};
  };
  std::vector<C*> objs(kNumObjects);
  Xoshiro256 rng(42);
  const std::uint32_t nloc = runtime_->numLocales();
  for (std::uint64_t i = 0; i < kNumObjects; ++i) {
    // randomizeObjs: allocate each object on a random locale.
    objs[i] = gnewOn<C>(static_cast<std::uint32_t>(rng.nextBelow(nloc)));
  }

  bench::forallCyclic(
      objs, 2,
      [domain] { return std::pair<DistGuard, int>(domain.attach(), 0); },
      [](auto& state, C*& obj) {
        auto& [guard, m] = state;
        guard.pin();
        guard.retire(obj);
        obj = nullptr;
        guard.unpin();
        if (++m % 64 == 0) guard.tryReclaim();  // perIteration = 64
      });

  domain.clear();
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, kNumObjects);
  EXPECT_EQ(s.reclaimed, kNumObjects);
  domain.destroy();
}

TEST_F(IntegrationTest, DistributedWorkQueueOverDistStack) {
  // Producer/consumer across locales: locale 0 produces work items, all
  // locales consume and accumulate; EBR reclaims the nodes.
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain);
  constexpr std::uint64_t kItems = 400;

  {
    auto guard = domain.pin();
    for (std::uint64_t i = 1; i <= kItems; ++i) stack->push(guard, i);
  }

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
  coforallLocales([domain, stack, &sum, &count] {
    auto guard = domain.attach();
    while (true) {
      guard.pin();
      auto item = stack->pop(guard);
      guard.unpin();
      if (!item.has_value()) break;
      sum.fetch_add(*item, std::memory_order_relaxed);
      count.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(count.load(), kItems);
  EXPECT_EQ(sum.load(), kItems * (kItems + 1) / 2);

  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(IntegrationTest, HashTableAndStackShareOneDomain) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(32, domain);
  auto* stack = DistStack<std::uint64_t>::create(domain);

  coforallLocales([domain, table, stack] {
    auto guard = domain.attach();
    const std::uint64_t base = Runtime::here() * 1000;
    for (std::uint64_t i = 0; i < 50; ++i) {
      table.insert(base + i, i);
      guard.pin();
      stack->push(guard, base + i);
      guard.unpin();
    }
    guard.tryReclaim();
  });

  EXPECT_EQ(table.sizeApprox(), 150u);
  std::uint64_t drained = 0;
  {
    auto guard = domain.pin();
    while (stack->pop(guard).has_value()) ++drained;
  }
  EXPECT_EQ(drained, 150u);

  DistStack<std::uint64_t>::destroy(stack);
  table.destroy();
  domain.destroy();
}

TEST_F(IntegrationTest, CommModesProduceIdenticalResults) {
  // Functional equivalence: ugni vs none must differ only in cost.
  std::uint64_t results[2] = {0, 0};
  int idx = 0;
  for (const CommMode mode : {CommMode::none, CommMode::ugni}) {
    startRuntime(3, mode);
    DistDomain domain = DistDomain::create();
    auto table = InterlockedHashTable<std::uint64_t>::create(16, domain);
    for (std::uint64_t k = 0; k < 100; ++k) table.insert(k, k * 3);
    for (std::uint64_t k = 0; k < 100; k += 3) table.erase(k);
    std::uint64_t checksum = 0;
    for (std::uint64_t k = 0; k < 100; ++k) {
      if (auto v = table.find(k)) checksum += *v + k;
    }
    results[idx++] = checksum;
    table.destroy();
    domain.destroy();
    TearDown();
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST_F(IntegrationTest, MixedDomainsCoexistInOneProcess) {
  // A shared-memory LocalDomain structure working alongside the
  // distributed stack of a DistDomain: one program, both faces of the
  // unified API.
  startRuntime(2);
  DistDomain dist = DistDomain::create();
  LocalDomain local;

  auto* stack = DistStack<std::uint64_t>::create(dist);
  EbrStack<std::uint64_t, LocalDomain> scratch(local);

  {
    auto dguard = dist.pin();
    auto lguard = local.pin();
    for (std::uint64_t i = 0; i < 32; ++i) {
      stack->push(dguard, i);
      scratch.push(lguard, i * 10);
    }
    std::uint64_t moved = 0;
    while (auto v = scratch.pop(lguard)) {
      stack->push(dguard, *v);
      ++moved;
    }
    EXPECT_EQ(moved, 32u);
  }

  std::uint64_t drained = 0;
  {
    auto guard = dist.pin();
    while (stack->pop(guard).has_value()) ++drained;
  }
  EXPECT_EQ(drained, 64u);

  local.clear();
  EXPECT_EQ(local.stats().reclaimed, local.stats().deferred);
  DistStack<std::uint64_t>::destroy(stack);
  dist.destroy();
}

TEST_F(IntegrationTest, SimulatedTimeIsDeterministicEnough) {
  // Two identical single-task runs must charge identical model time
  // (the model is deterministic when there is no cross-task contention).
  std::uint64_t elapsed[2];
  for (int round = 0; round < 2; ++round) {
    startRuntime(2, CommMode::ugni);
    DistAtomicU64* a = gnewOn<DistAtomicU64>(1, 0u);
    sim::setNow(0);
    for (int i = 0; i < 100; ++i) a->fetchAdd(1);
    elapsed[round] = sim::now();
    onLocale(1, [a] { gdelete(a); });
    TearDown();
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
}

}  // namespace
}  // namespace pgasnb
