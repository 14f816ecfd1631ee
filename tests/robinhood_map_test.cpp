// RobinHoodMap: the open-addressed distributed hash table (Robin Hood
// probing, backward-shift deletion, per-locale contiguous segments).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::assertRobinHoodInvariants;
using testing::RuntimeParamTest;
using testing::RuntimeTest;

/// Pin the pre-resize behaviour: segments keep their create()-time size and
/// a full one rejects (the tests below are about the fixed-capacity probing
/// algebra, not growth -- robinhood_resize_test.cpp covers that).
constexpr RobinHoodOptions kNoResize{.resize_load = 0.0, .migrate_chunk = 64};

// --- LocalDomain: the probing algebra without a runtime ---------------------

TEST(RobinHoodLocalDomain, InsertFindErase) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(64, domain);
  EXPECT_TRUE(map.valid());

  EXPECT_TRUE(map.insert(1, 100));
  EXPECT_TRUE(map.insert(2, 200));
  EXPECT_FALSE(map.insert(1, 999)) << "duplicate key";

  EXPECT_EQ(*map.find(1), 100u);
  EXPECT_EQ(*map.find(2), 200u);
  EXPECT_FALSE(map.find(3).has_value());
  EXPECT_TRUE(map.contains(2));

  auto erased = map.erase(1);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(*erased, 100u);
  EXPECT_FALSE(map.find(1).has_value());
  EXPECT_FALSE(map.erase(1).has_value());

  map.destroy();
  EXPECT_FALSE(map.valid());
}

TEST(RobinHoodLocalDomain, PutUpsertsInPlace) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(32, domain);
  EXPECT_TRUE(map.put(7, 1)) << "put of a fresh key inserts";
  EXPECT_FALSE(map.put(7, 2)) << "put of a present key overwrites";
  EXPECT_EQ(*map.find(7), 2u);
  EXPECT_EQ(map.sizeApprox(), 1u);
  map.destroy();
}

TEST(RobinHoodLocalDomain, DisplacementOrderingHoldsAtHighLoadFactor) {
  LocalDomain domain;
  constexpr std::uint64_t kSlots = 256;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(kSlots, domain,
                                                              kNoResize);
  // Fill to ~94%: long probe runs, many displacement chains.
  constexpr std::uint64_t kN = 240;
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(map.insert(k, k * 2)) << "k=" << k;
    ASSERT_TRUE(assertRobinHoodInvariants(map)) << "after insert of k=" << k;
  }
  EXPECT_EQ(map.sizeApprox(), kN);
  const auto stats = map.stats();
  EXPECT_GT(stats.max_displacement, 0u)
      << "a 94%-full table must have displaced entries";
  for (std::uint64_t k = 0; k < kN; ++k) {
    EXPECT_EQ(*map.find(k), k * 2);
  }
  map.destroy();
}

TEST(RobinHoodLocalDomain, BackwardShiftEraseKeepsRemainderFindable) {
  LocalDomain domain;
  constexpr std::uint64_t kSlots = 128;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(kSlots, domain);
  constexpr std::uint64_t kN = 100;
  for (std::uint64_t k = 0; k < kN; ++k) ASSERT_TRUE(map.insert(k, k + 1));
  // Erase every other key; after each backward shift the ordering invariant
  // must still hold and every survivor must still be findable.
  for (std::uint64_t k = 0; k < kN; k += 2) {
    ASSERT_TRUE(map.erase(k).has_value()) << "k=" << k;
    ASSERT_TRUE(assertRobinHoodInvariants(map)) << "after erase of k=" << k;
  }
  EXPECT_EQ(map.sizeApprox(), kN / 2);
  for (std::uint64_t k = 0; k < kN; ++k) {
    EXPECT_EQ(map.find(k).has_value(), k % 2 == 1) << "k=" << k;
    if (k % 2 == 1) {
      EXPECT_EQ(*map.find(k), k + 1);
    }
  }
  // Churn the survivors back in: no tombstones means probe runs shrink.
  for (std::uint64_t k = 0; k < kN; k += 2) {
    ASSERT_TRUE(map.insert(k, k + 1));
  }
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  EXPECT_EQ(map.sizeApprox(), kN);
  map.destroy();
}

TEST(RobinHoodLocalDomain, FullSegmentRejectsFreshKeys) {
  LocalDomain domain;
  auto map =
      RobinHoodMap<std::uint64_t, LocalDomain>::create(8, domain, kNoResize);
  const std::uint64_t slots = map.capacity();
  std::uint64_t inserted = 0;
  for (std::uint64_t k = 0; inserted < slots; ++k) {
    if (map.insert(k, k)) ++inserted;
  }
  EXPECT_EQ(map.sizeApprox(), slots);
  EXPECT_FALSE(map.insert(~std::uint64_t{1}, 1)) << "full table must reject";
  EXPECT_GT(map.stats().full_rejects, 0u);
  // In-place update of a present key must still work when full.
  EXPECT_FALSE(map.put(0, 42));
  EXPECT_EQ(*map.find(0), 42u);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
}

// --- DistDomain: the (locales x comm mode) sweep ----------------------------

class RobinHoodModeTest : public RuntimeParamTest {};

TEST_P(RobinHoodModeTest, InsertFindEraseAcrossLocales) {
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(512, domain);
  constexpr std::uint64_t kN = 300;
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(map.insert(k, k * 2));
  }
  EXPECT_EQ(map.sizeApprox(), kN);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  for (std::uint64_t k = 0; k < kN; k += 2) {
    EXPECT_TRUE(map.erase(k).has_value());
  }
  EXPECT_EQ(map.sizeApprox(), kN / 2);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  for (std::uint64_t k = 0; k < kN; ++k) {
    EXPECT_EQ(map.find(k).has_value(), k % 2 == 1);
  }
  map.destroy();
  domain.destroy();
}

TEST_P(RobinHoodModeTest, AggregatedOpsMatchSyncSemantics) {
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(256, domain);

  EXPECT_TRUE(map.insertAsyncAggregated(1, 10).value());
  EXPECT_FALSE(map.insertAsyncAggregated(1, 11).value()) << "duplicate key";
  EXPECT_TRUE(map.putAsyncAggregated(2, 20).value());
  EXPECT_FALSE(map.putAsyncAggregated(2, 21).value())
      << "upsert of present key";

  EXPECT_EQ(*map.findAsyncAggregated(1).value(), 10u);
  EXPECT_EQ(*map.findAsyncAggregated(2).value(), 21u);
  EXPECT_FALSE(map.findAsyncAggregated(3).value().has_value());

  auto erased = map.eraseAsyncAggregated(1).value();
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(*erased, 10u);
  EXPECT_FALSE(map.eraseAsyncAggregated(1).value().has_value());

  map.destroy();
  domain.destroy();
}

TEST_P(RobinHoodModeTest, AggregatedWindowedOpsResolveTogether) {
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(512, domain);
  constexpr std::uint64_t kN = 200;
  std::vector<comm::Handle<bool>> inserts;
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kN; ++k) {
      inserts.push_back(map.insertAsyncAggregated(k, k * 3));
    }
  }  // close: auto-flush + join
  for (auto& h : inserts) EXPECT_TRUE(h.value());
  EXPECT_EQ(map.sizeApprox(), kN);

  std::vector<comm::Handle<std::optional<std::uint64_t>>> finds;
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kN; ++k) {
      finds.push_back(map.findAsyncAggregated(k));
    }
  }
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(finds[k].value().has_value()) << "k=" << k;
    EXPECT_EQ(*finds[k].value(), k * 3);
  }

  std::vector<comm::Handle<std::optional<std::uint64_t>>> erases;
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kN; k += 2) {
      erases.push_back(map.eraseAsyncAggregated(k));
    }
  }
  for (auto& h : erases) EXPECT_TRUE(h.value().has_value());
  EXPECT_EQ(map.sizeApprox(), kN / 2);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RobinHoodModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

// --- own-locale keys inside a window ------------------------------------------

class RobinHoodTest : public RuntimeTest {};

/// The first `n` keys (from 1 up) whose owner is `loc`.
std::vector<std::uint64_t> keysOwnedBy(const RobinHoodMap<std::uint64_t>& map,
                                       std::uint32_t loc, std::size_t n) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (map.ownerOfKey(k) == loc) keys.push_back(k);
  }
  return keys;
}

TEST_F(RobinHoodTest, OwnLocaleAggregatedOpsKeepPerKeyFifoInAWindow) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(512, domain);
  const std::uint64_t k = keysOwnedBy(map, Runtime::here(), 1).front();
  comm::Handle<bool> first, second;
  comm::Handle<std::optional<std::uint64_t>> found;
  {
    comm::OpWindow window;
    first = map.putAsyncAggregated(k, 1);
    second = map.putAsyncAggregated(k, 2);
    found = map.findAsyncAggregated(k);
    EXPECT_FALSE(found.ready()) << "own-locale ops buffer in a window";
    EXPECT_FALSE(map.find(k).has_value())
        << "a sync op does not observe an unjoined aggregated op";
  }
  EXPECT_TRUE(first.value()) << "the first put inserts";
  EXPECT_FALSE(second.value()) << "the second put overwrites";
  ASSERT_TRUE(found.value().has_value());
  EXPECT_EQ(*found.value(), 2u) << "per-key FIFO: the find runs last";
  map.destroy();
  domain.destroy();
}

TEST_F(RobinHoodTest, OwnLocaleInsertWindowAcrossResizeKeepsInvariants) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  // 128-slot segments: 300 own-locale inserts cross the 0.85 threshold
  // twice, so the migrations start, finish and retire their old tables
  // inside the window's own-locale runs (at the batch threshold and at
  // close).
  auto map = RobinHoodMap<std::uint64_t>::create(
      256, domain, RobinHoodOptions{.resize_load = 0.85, .migrate_chunk = 8});
  const std::vector<std::uint64_t> keys = keysOwnedBy(map, Runtime::here(), 300);
  std::vector<comm::Handle<bool>> inserted;
  {
    comm::OpWindow window;
    for (const std::uint64_t k : keys) {
      inserted.push_back(map.insertAsyncAggregated(k, k * 5));
    }
  }
  for (auto& h : inserted) EXPECT_TRUE(h.value());
  EXPECT_GE(map.stats().resizes, 2u);
  for (const std::uint64_t k : keys) {
    const auto v = map.find(k);
    ASSERT_TRUE(v.has_value()) << "k=" << k;
    EXPECT_EQ(*v, k * 5);
  }
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
  domain.destroy();
}

TEST_F(RobinHoodTest, WindowedFindsCountOnlyRemoteKeysAsAggregated) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(1024, domain);
  constexpr std::uint64_t kN = 200;
  std::vector<std::uint64_t> keys;
  std::uint64_t remote = 0;
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(map.insert(k, k + 1));
    keys.push_back(k);
    if (map.ownerOfKey(k) != Runtime::here()) ++remote;
  }
  ASSERT_GT(remote, 0u);
  ASSERT_LT(remote, kN);
  std::vector<comm::Handle<std::optional<std::uint64_t>>> finds;
  const auto before = comm::counters();
  {
    comm::OpWindow window;
    for (const std::uint64_t k : keys) {
      finds.push_back(map.findAsyncAggregated(k));
    }
  }
  const auto after = comm::counters();
  EXPECT_EQ(after.ops_aggregated - before.ops_aggregated, remote)
      << "remote finds count once each; own-locale finds run inline";
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(finds[k].value().has_value()) << "k=" << k;
    EXPECT_EQ(*finds[k].value(), k + 1);
  }
  map.destroy();
  domain.destroy();
}

// --- cross-locale contention ------------------------------------------------

TEST_F(RobinHoodTest, ExactlyOnceInsertUnderCrossLocaleContention) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(512, domain);
  // Every locale races to insert the SAME keys: exactly one winner per key.
  constexpr std::uint64_t kKeys = 100;
  std::atomic<std::uint64_t> successes{0};
  coforallLocales([map, &successes] {
    std::uint64_t won = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      if (map.insert(k, Runtime::here() * 1000 + k)) ++won;
    }
    successes.fetch_add(won, std::memory_order_relaxed);
  });
  EXPECT_EQ(successes.load(), kKeys) << "each key must insert exactly once";
  EXPECT_EQ(map.sizeApprox(), kKeys);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  // The surviving value is one locale's coherent write.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto v = map.find(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v % 1000, k);
  }
  map.destroy();
  domain.destroy();
}

TEST_F(RobinHoodTest, ConcurrentMixedChurnStaysCoherent) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(256, domain);
  constexpr int kIters = 400;
  constexpr std::uint64_t kKeySpace = 128;
  std::atomic<long> net{0};
  coforallLocales([map, &net] {
    Xoshiro256 rng(Runtime::here() * 31 + 7);
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t key = rng.nextBelow(kKeySpace);
      if (rng.nextBool(0.5)) {
        if (map.insert(key, key * 2)) net.fetch_add(1);
      } else {
        if (map.erase(key).has_value()) net.fetch_sub(1);
      }
    }
  });
  EXPECT_EQ(map.sizeApprox(), static_cast<std::uint64_t>(net.load()));
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  long present = 0;
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    if (auto v = map.find(k)) {
      EXPECT_EQ(*v, k * 2);
      ++present;
    }
  }
  EXPECT_EQ(present, net.load());
  map.destroy();
  domain.destroy();
}

TEST_F(RobinHoodTest, ReadersRaceStructuralMutationsSafely) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(128, domain);
  // Stable keys that are never erased; churn keys move around them, forcing
  // backward shifts underneath concurrent seqlock-validated readers.
  constexpr std::uint64_t kStable = 40;
  for (std::uint64_t k = 0; k < kStable; ++k) {
    ASSERT_TRUE(map.insert(k, k + 1));
  }
  coforallLocales([map] {
    Xoshiro256 rng(Runtime::here() * 17 + 3);
    for (int i = 0; i < 400; ++i) {
      if (Runtime::here() % 2 == 0) {
        // Reader locale: stable keys must ALWAYS be found, mid-shift or not.
        const std::uint64_t k = rng.nextBelow(kStable);
        const auto v = map.find(k);
        ASSERT_TRUE(v.has_value()) << "stable key lost mid-churn, k=" << k;
        ASSERT_EQ(*v, k + 1);
      } else {
        // Churn locale: insert/erase disjoint keys, forcing slot movement.
        const std::uint64_t k = kStable + rng.nextBelow(40);
        if (rng.nextBool(0.5)) {
          map.insert(k, k + 1);
        } else {
          map.erase(k);
        }
      }
    }
  });
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
  domain.destroy();
}

// --- stress: locales x load-factor sweep (PGASNB_STRESS, -L stress) ---------

TEST(RobinHoodStress, DISABLED_LocalesLoadFactorSweep) {
  for (const std::uint32_t locales : {2u, 4u, 8u}) {
    for (const double load_factor : {0.25, 0.5, 0.85}) {
      auto cfg = pgasnb::testing::testConfig(locales);
      Runtime rt(cfg);
      DistDomain domain = DistDomain::create();
      constexpr std::uint64_t kSlots = 2048;
      auto map = RobinHoodMap<std::uint64_t>::create(kSlots, domain);
      const auto prefill = static_cast<std::uint64_t>(
          static_cast<double>(map.capacity()) * load_factor);
      for (std::uint64_t k = 0; k < prefill; ++k) {
        ASSERT_TRUE(map.insert(k, k * 2));
      }
      // Concurrent churn from every locale over the prefilled range plus a
      // per-locale private range (windowed aggregated ops).
      coforallLocales([map, prefill] {
        Xoshiro256 rng(Runtime::here() * 101 + 13);
        std::vector<comm::Handle<bool>> writes;
        for (int round = 0; round < 6; ++round) {
          writes.clear();
          {
            comm::OpWindow window;
            for (int i = 0; i < 64; ++i) {
              const std::uint64_t key = rng.nextBelow(prefill);
              if (rng.nextBool(0.5)) {
                writes.push_back(map.putAsyncAggregated(key, key * 2));
              } else {
                (void)map.eraseAsyncAggregated(key);
              }
            }
          }
          for (auto& h : writes) (void)h.value();
        }
      });
      EXPECT_TRUE(assertRobinHoodInvariants(map))
          << "locales=" << locales << " lf=" << load_factor;
      // Erase-then-reinsert audit over the full prefill range.
      for (std::uint64_t k = 0; k < prefill; ++k) {
        map.put(k, k * 2);
      }
      EXPECT_EQ(map.sizeApprox(), prefill);
      for (std::uint64_t k = 0; k < prefill; ++k) {
        ASSERT_EQ(*map.find(k), k * 2) << "k=" << k;
      }
      map.destroy();
      domain.destroy();
    }
  }
}

}  // namespace
}  // namespace pgasnb
