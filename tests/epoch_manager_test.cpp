// Distributed reclaim domain: privatized instances, global epoch
// consensus, elections, scatter lists, and cross-locale reclamation
// (paper II.C), driven through the Domain/Guard API.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "epoch_workload.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParamTest;
using testing::RuntimeTest;

struct Payload {
  std::uint64_t stamp = 0x11223344;
};

class EpochManagerModeTest : public RuntimeParamTest {};

TEST_P(EpochManagerModeTest, CreateAndDestroy) {
  DistDomain domain = DistDomain::create();
  EXPECT_TRUE(domain.valid());
  EXPECT_EQ(domain.currentEpoch(), 1u);
  domain.destroy();
  EXPECT_FALSE(domain.valid());
}

TEST_P(EpochManagerModeTest, PinUnpinOnEveryLocale) {
  DistDomain domain = DistDomain::create();
  coforallLocales([domain] {
    auto guard = domain.attach();
    EXPECT_FALSE(guard.pinned());
    guard.pin();
    EXPECT_TRUE(guard.pinned());
    EXPECT_NE(guard.epoch(), kEpochQuiescent);
    guard.unpin();
    EXPECT_FALSE(guard.pinned());
  });
  domain.destroy();
}

TEST_P(EpochManagerModeTest, TryReclaimAdvancesGlobalEpoch) {
  DistDomain domain = DistDomain::create();
  EXPECT_TRUE(domain.tryReclaim());
  EXPECT_EQ(domain.currentEpoch(), 2u);
  EXPECT_TRUE(domain.tryReclaim());
  EXPECT_EQ(domain.currentEpoch(), 3u);
  // Locale caches follow the global epoch.
  coforallLocales([domain] {
    EXPECT_EQ(domain.implHere().locale_epoch_.load(
                  std::memory_order_seq_cst),
              3u);
  });
  domain.destroy();
}

TEST_P(EpochManagerModeTest, DeferAndReclaimLocalObjects) {
  DistDomain domain = DistDomain::create();
  Runtime& rt = *runtime_;
  std::vector<std::uint64_t> live_before(rt.numLocales());
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    live_before[l] = rt.locale(l).arena().liveBlocks();
  }
  constexpr int kPerLocale = 50;
  coforallLocales([domain] {
    auto guard = domain.pin();
    for (int i = 0; i < kPerLocale; ++i) {
      guard.retire(gnew<Payload>());
    }
  });
  const auto s1 = domain.stats();
  EXPECT_EQ(s1.deferred,
            static_cast<std::uint64_t>(kPerLocale) * rt.numLocales());
  EXPECT_EQ(s1.reclaimed, 0u);

  domain.clear();

  const auto s2 = domain.stats();
  EXPECT_EQ(s2.reclaimed, s1.deferred);
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    EXPECT_LE(rt.locale(l).arena().liveBlocks(),
              live_before[l] + /*tokens+nodes kept pooled*/ 64)
        << "payload objects must be freed on locale " << l;
  }
  domain.destroy();
}

TEST_P(EpochManagerModeTest, RemoteObjectsReclaimedOnOwner) {
  // Retire objects allocated on *other* locales; the scatter lists must
  // ship each to its owner, where the arena accepts the free.
  DistDomain domain = DistDomain::create();
  Runtime& rt = *runtime_;
  const std::uint32_t nloc = rt.numLocales();
  constexpr int kPerLocale = 32;

  std::vector<std::uint64_t> live_before(nloc);
  for (std::uint32_t l = 0; l < nloc; ++l) {
    live_before[l] = rt.locale(l).arena().liveBlocks();
  }

  coforallLocales([domain, nloc] {
    auto guard = domain.pin();
    for (int i = 0; i < kPerLocale; ++i) {
      const std::uint32_t target =
          (Runtime::here() + 1 + static_cast<std::uint32_t>(i) % (nloc)) % nloc;
      guard.retire(gnewOn<Payload>(target));
    }
  });
  domain.clear();
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, static_cast<std::uint64_t>(kPerLocale) * nloc);
  EXPECT_EQ(s.reclaimed, s.deferred);
  // No payloads left anywhere (limbo nodes are pooled, so allow them).
  for (std::uint32_t l = 0; l < nloc; ++l) {
    EXPECT_LE(rt.locale(l).arena().liveBlocks(),
              live_before[l] + 2 * kPerLocale + 8)
        << "locale " << l;
  }
  domain.destroy();
}

TEST_P(EpochManagerModeTest, PinnedGuardBlocksAdvanceAcrossLocales) {
  DistDomain domain = DistDomain::create();
  if (runtime_->numLocales() < 2) {
    domain.destroy();
    GTEST_SKIP() << "needs >= 2 locales";
  }
  // Pin a guard on locale 1, then advance once from locale 0: allowed
  // (the guard is in the current epoch). A second advance must fail.
  DistGuard* held = nullptr;
  onLocale(1, [&held, domain] {
    held = new DistGuard(domain.pin());
  });
  EXPECT_TRUE(domain.tryReclaim());   // guard in current epoch: safe
  EXPECT_FALSE(domain.tryReclaim()) << "guard now one epoch behind: must block";
  EXPECT_GE(domain.stats().scans_unsafe, 1u);

  onLocale(1, [held] {
    held->unpin();
    delete held;  // unregisters
  });
  EXPECT_TRUE(domain.tryReclaim());
  domain.destroy();
}

TEST_P(EpochManagerModeTest, ElectionAllowsExactlyOneWinner) {
  DistDomain domain = DistDomain::create();
  const std::uint64_t epoch_before = domain.currentEpoch();
  std::atomic<int> wins{0};
  // All locales race to reclaim simultaneously; the two-level election
  // must let exactly one through per round (no pinned guards -> safe).
  coforallLocales([domain, &wins] {
    if (domain.tryReclaim()) wins.fetch_add(1);
  });
  EXPECT_GE(wins.load(), 1);
  const std::uint64_t advances =
      domain.implOn(0)->global_->advances.load(
          std::memory_order_relaxed);
  EXPECT_EQ(advances, static_cast<std::uint64_t>(wins.load()));
  EXPECT_EQ(domain.currentEpoch(),
            (epoch_before - 1 + advances) % kNumEpochs + 1);
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(Sweep, EpochManagerModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

class EpochManagerTest : public RuntimeTest {};

TEST_F(EpochManagerTest, HandleIsValueCapturableInForall) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  // Listing 3's shape: task-private guards via per-task registration.
  std::vector<Payload*> objs(256);
  for (std::uint64_t i = 0; i < objs.size(); ++i) {
    objs[i] = gnewOn<Payload>(static_cast<std::uint32_t>(i % 4));
  }
  bench::forallCyclic(
      objs, 2, [domain] { return domain.attach(); },
      [](DistGuard& guard, Payload*& obj) {
        guard.pin();
        guard.retire(obj);
        obj = nullptr;
        guard.unpin();
      });
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, 256u);
  domain.destroy();
}

TEST_F(EpochManagerTest, PrivatizedAccessIsCommunicationFree) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  comm::resetCounters();
  coforallLocales([domain] {
    auto guard = domain.attach();
    for (int i = 0; i < 200; ++i) {
      guard.pin();
      guard.unpin();
    }
  });
  const auto c = comm::counters();
  // The paper's headline claim: pin/unpin touch only the privatized
  // instance -- zero network traffic.
  EXPECT_EQ(c.am_sync, 0u);
  EXPECT_EQ(c.nic_atomics, 0u);
  domain.destroy();
}

TEST_F(EpochManagerTest, UgniReclaimUsesNetworkAtomicsForGlobalEpoch) {
  startRuntime(2, CommMode::ugni);
  DistDomain domain = DistDomain::create();
  comm::resetCounters();
  EXPECT_TRUE(domain.tryReclaim());
  const auto c = comm::counters();
  EXPECT_GT(c.nic_atomics, 0u)
      << "global epoch election/read/write must ride the NIC under ugni";
  domain.destroy();
}

TEST_F(EpochManagerTest, LosingLocalElectionReturnsImmediately) {
  startRuntime(1);
  DistDomain domain = DistDomain::create();
  // Simulate an in-flight reclaimer by holding the local flag.
  EpochManagerImpl& impl = domain.implHere();
  impl.is_setting_epoch_.store(1, std::memory_order_seq_cst);
  EXPECT_FALSE(domain.tryReclaim());
  EXPECT_EQ(domain.stats().elections_lost_local, 1u);
  impl.is_setting_epoch_.store(0, std::memory_order_seq_cst);
  EXPECT_TRUE(domain.tryReclaim());
  domain.destroy();
}

TEST_F(EpochManagerTest, LosingGlobalElectionClearsLocalFlag) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  EpochManagerImpl& impl = domain.implHere();
  impl.global_->is_setting_epoch.write(1);
  EXPECT_FALSE(domain.tryReclaim());
  EXPECT_EQ(domain.stats().elections_lost_global, 1u);
  EXPECT_EQ(impl.is_setting_epoch_.load(std::memory_order_seq_cst), 0u)
      << "local flag must be released after losing the global election";
  impl.global_->is_setting_epoch.write(0);
  EXPECT_TRUE(domain.tryReclaim());
  domain.destroy();
}

TEST_F(EpochManagerTest, RetireWithoutPinAborts) {
  startRuntime(1);
  DistDomain domain = DistDomain::create();
  auto guard = domain.attach();
  Payload* p = gnew<Payload>();
  EXPECT_DEATH(guard.retire(p), "pinned");
  gdelete(p);
  guard.release();
  domain.destroy();
}

TEST_F(EpochManagerTest, GuardMoveSemantics) {
  startRuntime(1);
  DistDomain domain = DistDomain::create();
  auto a = domain.pin();
  DistGuard b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.pinned());
  b.unpin();
  b.release();
  domain.destroy();
}

TEST_F(EpochManagerTest, ConcurrentChurnWithPeriodicReclaim) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  constexpr int kIters = 400;
  coforallLocales([domain] {
    auto guard = domain.attach();
    int since_reclaim = 0;
    for (int i = 0; i < kIters; ++i) {
      guard.pin();
      guard.retire(gnew<Payload>());
      guard.unpin();
      if (++since_reclaim == 32) {
        since_reclaim = 0;
        guard.tryReclaim();
      }
    }
  });
  domain.clear();
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, static_cast<std::uint64_t>(kIters) * 4);
  EXPECT_EQ(s.reclaimed, s.deferred);
  domain.destroy();
}

TEST_F(EpochManagerTest, MultipleDomainsCoexist) {
  startRuntime(2);
  DistDomain d1 = DistDomain::create();
  DistDomain d2 = DistDomain::create();
  EXPECT_TRUE(d1.tryReclaim());
  EXPECT_EQ(d1.currentEpoch(), 2u);
  EXPECT_EQ(d2.currentEpoch(), 1u) << "domains must be independent";
  d1.destroy();
  d2.destroy();
}

}  // namespace
}  // namespace pgasnb
