// RobinHoodMap incremental resize: the migration state machine.
//
// LocalDomain has no progress thread, so migration advances ONLY by
// piggybacking on mutations -- which makes mid-migration states fully
// deterministic: with migrate_chunk=1 every mutation drains one bounded
// chunk, and an erase of an absent key is a pure "step the migration"
// primitive. The distributed tests layer the self-targeted pump and real
// cross-locale traffic on top, under both DistDomain (EBR) and
// IntervalDomain (IBR), and the torture tests race readers/writers/erasers
// against forced chunked migrations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::assertRobinHoodInvariants;
using testing::RuntimeTest;

/// A key no test ever inserts: erasing it is a no-op mutation that still
/// drains one migration chunk (the piggyback path).
constexpr std::uint64_t kAbsentKey = ~std::uint64_t{0} - 1;

/// Drive a LocalDomain map's in-flight migrations to completion via
/// absent-key erases (each one steps a chunk); returns the steps taken.
template <typename Map>
std::uint64_t drainMigration(const Map& map) {
  std::uint64_t steps = 0;
  while (map.stats().migrating_segments != 0) {
    map.erase(kAbsentKey);
    ++steps;
    EXPECT_LT(steps, 1u << 20) << "migration failed to complete";
    if (steps >= (1u << 20)) break;
  }
  return steps;
}

/// Spin until a distributed map's pump finishes every migration.
template <typename Map>
void awaitQuiescentMigration(const Map& map) {
  Backoff backoff;
  while (map.stats().migrating_segments != 0) backoff.pause();
}

/// Generate `per_owner` distinct keys for every locale, bucketed by the
/// map's fixed hash partition (resize never moves ownership, so this is
/// how a test guarantees every segment crosses its doubling thresholds).
template <typename Map>
std::vector<std::vector<std::uint64_t>> keysByOwner(const Map& map,
                                                    std::uint32_t locales,
                                                    std::uint64_t per_owner) {
  std::vector<std::vector<std::uint64_t>> buckets(locales);
  std::size_t filled = 0;
  for (std::uint64_t k = 1; filled < locales; ++k) {
    auto& bucket = buckets[map.ownerOfKey(k)];
    if (bucket.size() < per_owner) {
      bucket.push_back(k);
      if (bucket.size() == per_owner) ++filled;
    }
  }
  return buckets;
}

// --- LocalDomain: deterministic migration correctness -----------------------

TEST(RobinHoodResizeLocal, InsertsGrowPastCreateCapacity) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(
      16, domain, RobinHoodOptions{.resize_load = 0.85, .migrate_chunk = 4});
  constexpr std::uint64_t kN = 200;  // 12.5x the seed capacity
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(map.insert(k, k * 3)) << "insert must never hit a full "
                                         "segment while resize is on, k="
                                      << k;
  }
  drainMigration(map);
  const auto stats = map.stats();
  EXPECT_EQ(stats.full_rejects, 0u);
  EXPECT_GE(stats.resizes, 4u) << "16 slots cannot hold 200 keys without "
                                  "several doublings";
  EXPECT_GE(stats.slots, 256u);
  EXPECT_EQ(stats.used, kN);
  EXPECT_GT(stats.migrate_chunks, stats.resizes)
      << "chunked migration must take multiple bounded steps";
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(*map.find(k), k * 3) << "k=" << k;
  }
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
}

TEST(RobinHoodResizeLocal, AllKeysFindableMidAndPostMigration) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(
      256, domain, RobinHoodOptions{.resize_load = 0.8, .migrate_chunk = 1});
  // Fill until the resize trips (threshold = 0.8 * 256 = 204).
  std::vector<std::uint64_t> keys;
  std::uint64_t k = 0;
  while (map.stats().migrating_segments == 0) {
    ASSERT_TRUE(map.insert(k, k + 1));
    keys.push_back(k);
    ++k;
    ASSERT_LT(k, 256u) << "resize never started";
  }
  // Mid-migration: step chunk by chunk, checking EVERY key after each step
  // (some still in the old table, some already in the shadow).
  std::uint64_t steps = 0;
  while (map.stats().migrating_segments != 0) {
    for (const std::uint64_t key : keys) {
      ASSERT_EQ(*map.find(key), key + 1) << "key lost mid-migration after "
                                         << steps << " chunks, key=" << key;
    }
    ASSERT_TRUE(assertRobinHoodInvariants(map)) << "after chunk " << steps;
    map.erase(kAbsentKey);  // advance one chunk
    ++steps;
    ASSERT_LT(steps, 4096u);
  }
  EXPECT_GT(steps, 1u) << "migrate_chunk=1 must take many bounded steps";
  // Post-resize: everything still there, and new inserts keep working.
  for (const std::uint64_t key : keys) {
    ASSERT_EQ(*map.find(key), key + 1);
  }
  for (std::uint64_t fresh = 1000; fresh < 1040; ++fresh) {
    ASSERT_TRUE(map.insert(fresh, fresh + 1));
  }
  drainMigration(map);
  EXPECT_EQ(map.stats().full_rejects, 0u);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
}

TEST(RobinHoodResizeLocal, EraseAndUpdateStraddleTheMigrationBoundary) {
  LocalDomain domain;
  // 256 slots so the ~204-entry old table holds far more probe runs than
  // the handful of chunk steps below can drain: the straddle ops are
  // guaranteed to execute mid-migration.
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(
      256, domain, RobinHoodOptions{.resize_load = 0.8, .migrate_chunk = 1});
  std::vector<std::uint64_t> old_side;
  std::uint64_t k = 0;
  while (map.stats().migrating_segments == 0) {
    ASSERT_TRUE(map.insert(k, k + 1));
    old_side.push_back(k);
    ++k;
  }
  // Fresh inserts now land in the shadow table (each also drains a chunk).
  std::vector<std::uint64_t> new_side;
  for (std::uint64_t fresh = 500; fresh < 508; ++fresh) {
    ASSERT_TRUE(map.insert(fresh, fresh + 1));
    new_side.push_back(fresh);
  }
  ASSERT_EQ(map.stats().migrating_segments, 1u)
      << "8 run-bounded chunks cannot drain a 204-entry table";
  // Backward-shift erase works on both sides of the boundary, and in-place
  // updates hit the key wherever it currently lives.
  const std::uint64_t victim_old = old_side[1];
  const std::uint64_t victim_new = new_side[1];
  auto e1 = map.erase(victim_old);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(*e1, victim_old + 1);
  auto e2 = map.erase(victim_new);
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(*e2, victim_new + 1);
  EXPECT_FALSE(map.put(old_side[2], 77)) << "update, not insert";
  EXPECT_FALSE(map.put(new_side[2], 88)) << "update, not insert";
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  drainMigration(map);
  EXPECT_FALSE(map.find(victim_old).has_value());
  EXPECT_FALSE(map.find(victim_new).has_value());
  EXPECT_EQ(*map.find(old_side[2]), 77u);
  EXPECT_EQ(*map.find(new_side[2]), 88u);
  for (const std::uint64_t key : old_side) {
    if (key == victim_old) continue;
    const std::uint64_t expect = key == old_side[2] ? 77u : key + 1;
    ASSERT_EQ(*map.find(key), expect) << "key=" << key;
  }
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
}

// Satellite regression: stats() must stay consistent mid-migration (slots
// reporting the live shadow capacity instead of the stale create()-time
// scalar, used never double-counting an entry).
TEST(RobinHoodResizeLocal, StatsReportLiveSlotsMidMigration) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(
      32, domain, RobinHoodOptions{.resize_load = 0.8, .migrate_chunk = 1});
  EXPECT_EQ(map.stats().slots, 32u);
  std::uint64_t inserted = 0;
  while (map.stats().migrating_segments == 0) {
    ASSERT_TRUE(map.insert(inserted, inserted));
    ++inserted;
  }
  const auto mid = map.stats();
  EXPECT_EQ(mid.migrating_segments, 1u);
  EXPECT_EQ(mid.slots, 64u) << "mid-migration capacity is the shadow's";
  EXPECT_EQ(mid.used, inserted) << "entries must not be double-counted";
  EXPECT_EQ(mid.resizes, 1u);
  EXPECT_LE(map.loadFactor(), 1.0);
  drainMigration(map);
  const auto done = map.stats();
  EXPECT_EQ(done.slots, 64u);
  EXPECT_EQ(done.used, inserted);
  EXPECT_EQ(done.migrating_segments, 0u);
  EXPECT_EQ(done.migrated_entries, inserted)
      << "every pre-resize entry crossed exactly once";
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  map.destroy();
}

TEST(RobinHoodResizeLocal, RetiredTablesFlowThroughTheDomain) {
  LocalDomain domain;
  auto map = RobinHoodMap<std::uint64_t, LocalDomain>::create(
      16, domain, RobinHoodOptions{.resize_load = 0.8, .migrate_chunk = 64});
  for (std::uint64_t k = 0; k < 120; ++k) {
    ASSERT_TRUE(map.insert(k, k));
  }
  drainMigration(map);
  const auto resizes = map.stats().resizes;
  ASSERT_GE(resizes, 3u);
  const auto reclaim = domain.stats();
  EXPECT_GE(reclaim.deferred, resizes)
      << "each completed migration must retire its old table through the "
         "domain, never free it in place";
  map.destroy();
  domain.clear();
  const auto after = domain.stats();
  EXPECT_EQ(after.pending(), 0u);
  EXPECT_GE(after.reclaimed, resizes);
}

// --- distributed: cross-locale resize under both reclaim domains ------------

class RobinHoodResizeDist : public RuntimeTest {};

/// Shared body: force >= 2 doublings on EVERY locale's segment, then audit.
/// With per-segment seed size S and per-owner key count > 2.2 * S, the
/// pigeonhole forces each segment past 0.85*S and 0.85*2S.
template <typename Domain>
void runCrossLocaleResize(Domain& domain) {
  constexpr std::uint32_t kLocales = 4;
  constexpr std::uint64_t kCapacity = 256;  // 64 slots per segment
  auto map = RobinHoodMap<std::uint64_t, Domain>::create(
      kCapacity, domain,
      RobinHoodOptions{.resize_load = 0.85, .migrate_chunk = 8});
  const std::uint64_t per_owner = (kCapacity / kLocales) * 22 / 10;  // 140
  const auto buckets = keysByOwner(map, kLocales, per_owner);
  // Each locale inserts its own segment's keys (aggregated, windowed), so
  // every segment crosses two doubling thresholds under concurrent remote
  // traffic and its own migration pump.
  std::atomic<std::uint64_t> inserted{0};
  const auto* buckets_ptr = &buckets;
  coforallLocales([map, buckets_ptr, &inserted] {
    const auto& mine = (*buckets_ptr)[Runtime::here()];
    std::uint64_t ok = 0;
    std::vector<comm::Handle<bool>> writes;
    {
      comm::OpWindow window;
      for (const std::uint64_t key : mine) {
        // Route through a rotating remote issuer pattern: even indices go
        // sync (owner-local fast path), odd ride the aggregator.
        if (key % 2 == 0) {
          if (map.insert(key, key * 5)) ++ok;
        } else {
          writes.push_back(map.insertAsyncAggregated(key, key * 5));
        }
      }
    }
    for (auto& h : writes) {
      if (h.value()) ++ok;
    }
    inserted.fetch_add(ok, std::memory_order_relaxed);
  });
  const std::uint64_t total = per_owner * kLocales;
  EXPECT_EQ(inserted.load(), total);
  awaitQuiescentMigration(map);
  const auto stats = map.stats();
  EXPECT_EQ(stats.full_rejects, 0u);
  EXPECT_GE(stats.resizes, 2u * kLocales)
      << "every segment must have doubled at least twice";
  EXPECT_EQ(stats.migrating_segments, 0u);
  EXPECT_EQ(stats.used, total);
  EXPECT_GE(stats.slots, 4 * kCapacity);
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  // Batched audit: every key readable with the right value.
  std::vector<std::uint64_t> keys;
  for (const auto& bucket : buckets) {
    keys.insert(keys.end(), bucket.begin(), bucket.end());
  }
  std::vector<comm::Handle<std::optional<std::uint64_t>>> out;
  {
    comm::OpWindow window;
    for (const std::uint64_t k : keys) {
      out.push_back(map.findAsyncAggregated(k));
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(out[i].value().has_value()) << "key=" << keys[i];
    EXPECT_EQ(*out[i].value(), keys[i] * 5);
  }
  map.destroy();
}

TEST_F(RobinHoodResizeDist, CrossLocaleResizeUnderDistDomain) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  runCrossLocaleResize(domain);
  domain.destroy();
}

TEST_F(RobinHoodResizeDist, CrossLocaleResizeUnderIntervalDomain) {
  startRuntime(4);
  IntervalDomain domain = IntervalDomain::create();
  runCrossLocaleResize(domain);
  // The retired seed/intermediate tables are birth-tagged IBR blocks; after
  // the structure quiesces a couple of advances must free them.
  domain.advance();
  domain.advance();
  const auto reclaim = domain.stats();
  EXPECT_GE(reclaim.deferred, 8u) << "4 segments x >=2 retired tables";
  domain.destroy();
}

// --- home spread: grown segments use their whole table ----------------------

/// Parameterized over the locale count. With an even count a doubled table
/// size divides (or equals) the create()-time capacity, so homing a key by
/// `hash % nslots` would re-use the hash bits that picked its owner and
/// crowd a segment's keys into one seed-size slice of its grown table. Three
/// locales is the odd-count control, where that slice effect never arises.
class RobinHoodResizeSpread
    : public RuntimeTest,
      public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(RobinHoodResizeSpread, GrownSegmentsSpreadOverTheWholeTable) {
  const std::uint32_t locales = GetParam();
  startRuntime(locales);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(
      256 * locales, domain, RobinHoodOptions{.resize_load = 0.85});
  // ~1024 keys per 256-slot segment: every segment doubles three times.
  const std::uint64_t total = 1024 * std::uint64_t{locales};
  std::atomic<std::uint64_t> inserted{0};
  coforallLocales([map, locales, total, &inserted] {
    std::uint64_t ok = 0;
    for (std::uint64_t key = 1 + Runtime::here(); key <= total;
         key += locales) {
      if (map.insert(key, key * 3)) ++ok;
    }
    inserted.fetch_add(ok, std::memory_order_relaxed);
  });
  EXPECT_EQ(inserted.load(), total);
  awaitQuiescentMigration(map);
  const auto stats = map.stats();
  EXPECT_EQ(stats.full_rejects, 0u);
  EXPECT_GE(stats.resizes, 3u * locales)
      << "every segment must have doubled at least three times";
  EXPECT_TRUE(map.validateInvariants());
  for (std::uint64_t key = 1; key <= total; ++key) {
    const auto v = map.find(key);
    ASSERT_TRUE(v.has_value()) << "key=" << key;
    EXPECT_EQ(*v, key * 3);
  }
  // Uniform homes keep Robin Hood's expected probe length O(1); a pile-up
  // into one seed-size slice drives this into the hundreds.
  EXPECT_LE(stats.max_displacement, 32u);
  map.destroy();
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(
    Locales, RobinHoodResizeSpread, ::testing::Values(3u, 4u, 8u),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
      return std::to_string(info.param) + "loc";
    });

// --- torture: concurrent mutators during forced chunked migrations ----------

/// Readers, writers, and erasers race while every segment migrates with a
/// tiny chunk bound (so migrations stay in flight for most of the test).
/// Asserted: exactly-once insert semantics for contended keys, stable keys
/// never lost mid-migration, and a coherent final census. The DISABLED_
/// sweep variant runs the same body at stress scale via `ctest -L stress`
/// (TSan in the nightly matrix).
void runResizeTorture(std::uint32_t locales, std::uint32_t migrate_chunk,
                      int iters) {
  auto cfg = pgasnb::testing::testConfig(locales);
  Runtime rt(cfg);
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(
      64 * locales, domain,
      RobinHoodOptions{.resize_load = 0.7,
                       .migrate_chunk = migrate_chunk});
  // Stable prefix, present for the whole run.
  constexpr std::uint64_t kStable = 48;
  for (std::uint64_t k = 0; k < kStable; ++k) {
    ASSERT_TRUE(map.insert(k, k + 1));
  }
  // Contended range: every locale races to insert the same keys.
  constexpr std::uint64_t kContended = 64;
  std::atomic<std::uint64_t> contended_wins{0};
  std::atomic<std::uint64_t> private_net{0};
  coforallLocales([map, iters, &contended_wins, &private_net] {
    const std::uint32_t here = Runtime::here();
    Xoshiro256 rng(here * 7919 + 23);
    std::uint64_t wins = 0;
    long net = 0;
    const std::uint64_t priv_base = 10'000 + here * 100'000;
    for (int i = 0; i < iters; ++i) {
      switch (i % 4) {
        case 0: {  // contended insert: exactly one locale may win each key
          const std::uint64_t key = 1000 + rng.nextBelow(kContended);
          if (map.insert(key, key * 2)) ++wins;
          break;
        }
        case 1: {  // stable read: must never miss, mid-migration or not
          const std::uint64_t key = rng.nextBelow(kStable);
          const auto v = map.find(key);
          ASSERT_TRUE(v.has_value()) << "stable key lost, key=" << key;
          ASSERT_EQ(*v, key + 1);
          break;
        }
        case 2: {  // private churn: inserts that keep forcing growth
          const std::uint64_t key = priv_base + rng.nextBelow(600);
          if (map.insert(key, key + 9)) ++net;
          break;
        }
        default: {  // private erase: backward shifts during migration
          const std::uint64_t key = priv_base + rng.nextBelow(600);
          if (map.erase(key).has_value()) --net;
          break;
        }
      }
    }
    contended_wins.fetch_add(wins, std::memory_order_relaxed);
    private_net.fetch_add(static_cast<std::uint64_t>(net),
                          std::memory_order_relaxed);
  });
  awaitQuiescentMigration(map);
  const auto stats = map.stats();
  EXPECT_EQ(stats.full_rejects, 0u);
  EXPECT_GE(stats.resizes, locales)
      << "the churn must push every segment past its threshold";
  EXPECT_TRUE(assertRobinHoodInvariants(map));
  // Exactly-once: contended winners == distinct contended keys present.
  std::uint64_t contended_present = 0;
  for (std::uint64_t key = 1000; key < 1000 + kContended; ++key) {
    if (auto v = map.find(key)) {
      EXPECT_EQ(*v, key * 2);
      ++contended_present;
    }
  }
  EXPECT_EQ(contended_wins.load(), contended_present);
  // Census: stable + contended + net private churn.
  EXPECT_EQ(map.sizeApprox(),
            kStable + contended_present + private_net.load());
  map.destroy();
  domain.destroy();
}

TEST(RobinHoodResizeTorture, ConcurrentMutatorsDuringChunkedMigration) {
  runResizeTorture(/*locales=*/4, /*migrate_chunk=*/2, /*iters=*/400);
}

// Stress-scale sweep (PGASNB_STRESS + `ctest -L stress`, TSan in nightly):
// locales x chunk grid, with enough churn to drive every segment through
// at least two doublings (private range 600 >> 2.2x the 64-slot seed).
TEST(RobinHoodResizeStress, DISABLED_TortureSweep) {
  for (const std::uint32_t locales : {2u, 4u, 8u}) {
    for (const std::uint32_t chunk : {1u, 16u}) {
      runResizeTorture(locales, chunk, /*iters=*/2000);
    }
  }
}

}  // namespace
}  // namespace pgasnb
