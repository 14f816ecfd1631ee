// The unified Domain/Guard reclamation API: one test template instantiated
// for all three models of the ReclaimDomain concept (LocalDomain,
// DistDomain, IntervalDomain), plus per-domain coverage of cross-locale
// retire scattering.
#include <gtest/gtest.h>

#include <atomic>
#include <type_traits>
#include <utility>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::testConfig;

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload = 0xC0FFEE;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

/// Per-domain scaffolding: LocalDomain needs nothing; the distributed
/// domains need a Runtime and collective create/destroy.
template <typename D>
struct DomainHarness;

template <>
struct DomainHarness<LocalDomain> {
  LocalDomain domain;
  LocalDomain& get() noexcept { return domain; }
};

template <>
struct DomainHarness<DistDomain> {
  std::unique_ptr<Runtime> runtime;
  DistDomain domain;
  DomainHarness()
      : runtime(std::make_unique<Runtime>(testConfig(2))),
        domain(DistDomain::create()) {}
  ~DomainHarness() {
    domain.destroy();
    runtime.reset();
  }
  DistDomain& get() noexcept { return domain; }
};

template <>
struct DomainHarness<IntervalDomain> {
  std::unique_ptr<Runtime> runtime;
  IntervalDomain domain;
  DomainHarness()
      : runtime(std::make_unique<Runtime>(testConfig(2))),
        domain(IntervalDomain::create()) {}
  ~DomainHarness() {
    domain.destroy();
    runtime.reset();
  }
  IntervalDomain& get() noexcept { return domain; }
};

template <typename D>
class DomainApiTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracked::live.store(0); }
  D& domain() noexcept { return harness_.get(); }
  DomainHarness<D> harness_;
};

using DomainTypes = ::testing::Types<LocalDomain, DistDomain, IntervalDomain>;
TYPED_TEST_SUITE(DomainApiTest, DomainTypes);

TYPED_TEST(DomainApiTest, ModelsTheConcept) {
  static_assert(ReclaimDomain<TypeParam>);
  EXPECT_TRUE(this->domain().valid());
}

TYPED_TEST(DomainApiTest, PinEntersAndScopeExitLeavesTheEpoch) {
  auto& domain = this->domain();
  {
    auto guard = domain.pin();
    EXPECT_TRUE(guard.valid());
    EXPECT_TRUE(guard.pinned());
    EXPECT_NE(guard.epoch(), kEpochQuiescent);
    EXPECT_EQ(guard.epoch(), domain.currentEpoch());
  }
  // All guards gone: the domain can advance freely.
  EXPECT_TRUE(domain.tryReclaim());
}

TYPED_TEST(DomainApiTest, AttachGivesAnUnpinnedGuard) {
  auto& domain = this->domain();
  auto guard = domain.attach();
  EXPECT_TRUE(guard.valid());
  EXPECT_FALSE(guard.pinned());
  EXPECT_EQ(guard.epoch(), kEpochQuiescent);
  guard.pin();
  EXPECT_TRUE(guard.pinned());
  guard.pin();  // idempotent
  EXPECT_TRUE(guard.pinned());
  guard.unpin();
  EXPECT_FALSE(guard.pinned());
}

TYPED_TEST(DomainApiTest, InvalidGuardIsQuiescentNotUb) {
  // Satellite fix: pinned()/epoch() on a default-constructed guard (null
  // token underneath) must answer false/quiescent, not dereference null.
  typename TypeParam::Guard guard;
  EXPECT_FALSE(guard.valid());
  EXPECT_FALSE(guard.pinned());
  EXPECT_EQ(guard.epoch(), kEpochQuiescent);
  // pin() and retire() cannot be made harmless -- a silent no-op would leave
  // the caller unprotected -- so both fail a check instead of dereferencing
  // the null token: on a default-constructed guard and on a moved-from one.
  EXPECT_DEATH(guard.pin(), "invalid guard");
  EXPECT_DEATH(guard.retire(TypeParam::template make<Tracked>()),
               "invalid guard");
  auto pinned = this->domain().pin();
  auto moved = std::move(pinned);
  EXPECT_FALSE(pinned.valid());
  EXPECT_DEATH(pinned.pin(), "invalid guard");
  EXPECT_DEATH(pinned.retire(TypeParam::template make<Tracked>()),
               "invalid guard");
}

TYPED_TEST(DomainApiTest, RetireDefersAndClearReclaims) {
  auto& domain = this->domain();
  constexpr int kN = 64;
  {
    auto guard = domain.pin();
    for (int i = 0; i < kN; ++i) {
      guard.retire(TypeParam::template make<Tracked>());
    }
  }
  EXPECT_EQ(Tracked::live.load(), kN) << "retire must defer, not free";
  const auto before = domain.stats();
  EXPECT_EQ(before.deferred, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(before.reclaimed, 0u);

  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  const auto after = domain.stats();
  EXPECT_EQ(after.reclaimed, after.deferred);
  EXPECT_EQ(after.pending(), 0u);
}

TYPED_TEST(DomainApiTest, TryReclaimFreesAfterGracePeriods) {
  auto& domain = this->domain();
  auto guard = domain.pin();
  guard.retire(TypeParam::template make<Tracked>());
  guard.unpin();
  EXPECT_EQ(Tracked::live.load(), 1);
  // EBR (kGraceAdvances == 3): four limbo lists, the third advance reclaims
  // the retire epoch's list. IBR (kGraceAdvances == 1): the first scan with
  // no covering reservation frees the block.
  for (std::uint64_t i = 1; i < TypeParam::kGraceAdvances; ++i) {
    EXPECT_TRUE(guard.tryReclaim());
    EXPECT_EQ(Tracked::live.load(), 1) << "freed too early (advance " << i
                                       << ")";
  }
  EXPECT_TRUE(guard.tryReclaim());
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_GE(domain.stats().advances, TypeParam::kGraceAdvances);
}

TYPED_TEST(DomainApiTest, PinnedLaggingGuardBlocksAdvance) {
  auto& domain = this->domain();
  auto oldster = domain.pin();  // pinned in the current epoch/era
  EXPECT_TRUE(domain.tryReclaim());  // allowed: guard is in current epoch
  if constexpr (TypeParam::kBlocksOnLaggingPin) {
    // EBR: a pinned guard one epoch behind vetoes every further advance.
    EXPECT_FALSE(domain.tryReclaim()) << "guard now lags: advance must fail";
    EXPECT_GE(domain.stats().scans_unsafe, 1u);
    oldster.unpin();
    EXPECT_TRUE(domain.tryReclaim());
  } else {
    // IBR: the lagging reservation holds back only garbage whose lifetime
    // interval crosses it. Garbage born after the straggler's pin is freed
    // while the straggler stays pinned -- the trait the slow-locale
    // garbage bound rests on.
    {
      auto worker = domain.pin();
      worker.retire(TypeParam::template make<Tracked>());
    }
    EXPECT_EQ(Tracked::live.load(), 1);
    EXPECT_TRUE(domain.tryReclaim()) << "IBR scans never fail for a lag";
    EXPECT_EQ(Tracked::live.load(), 0)
        << "straggler must not hold garbage born after its reservation";
    EXPECT_EQ(domain.stats().scans_unsafe, 0u);
    oldster.unpin();
  }
}

TYPED_TEST(DomainApiTest, StatsTrackMaxPendingAndReset) {
  auto& domain = this->domain();
  constexpr int kN = 32;
  {
    auto guard = domain.pin();
    for (int i = 0; i < kN; ++i) {
      guard.retire(TypeParam::template make<Tracked>());
    }
  }
  EXPECT_GE(domain.stats().max_pending, static_cast<std::uint64_t>(kN));
  domain.clear();
  const auto after = domain.stats();
  EXPECT_EQ(after.pending(), 0u);
  EXPECT_GE(after.max_pending, static_cast<std::uint64_t>(kN))
      << "the high-water mark must survive reclamation";
  domain.resetStats();
  const auto zeroed = domain.stats();
  EXPECT_EQ(zeroed.deferred, 0u);
  EXPECT_EQ(zeroed.reclaimed, 0u);
  EXPECT_EQ(zeroed.advances, 0u);
  EXPECT_EQ(zeroed.max_pending, 0u);
}

TYPED_TEST(DomainApiTest, ProtectedReadSurvivesConcurrentAdvances) {
  // protect() must return a value that stays covered by the guard's
  // reservation even when reclamation advances the epoch/era mid-pin: a
  // block read under protect, then retired by another guard, must not be
  // freed until the protecting guard unpins.
  auto& domain = this->domain();
  auto reader = domain.pin();
  Tracked* obj = TypeParam::template make<Tracked>();
  Tracked* seen = reader.protect([&] { return obj; });
  EXPECT_EQ(seen, obj);
  {
    auto worker = domain.pin();
    worker.retire(obj);
  }
  domain.tryReclaim();
  domain.tryReclaim();
  domain.tryReclaim();
  EXPECT_EQ(Tracked::live.load(), 1)
      << "a protected read must pin the block for the rest of the pin";
  EXPECT_EQ(seen->payload, 0xC0FFEEu);  // still dereferenceable
  reader.unpin();
  while (domain.stats().pending() > 0) {
    ASSERT_TRUE(domain.tryReclaim());
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TYPED_TEST(DomainApiTest, ProtectOnceRunsOnceAndReportsCoverage) {
  // protectOnce runs its op exactly once. A pinned EBR guard covers every
  // load, so it reports true even when the epoch advances mid-op; the
  // interval guard reports false when the era moves under the op.
  auto& domain = this->domain();
  auto guard = domain.pin();
  Tracked* obj = TypeParam::template make<Tracked>();
  int runs = 0;
  Tracked* seen = nullptr;
  EXPECT_TRUE(guard.protectOnce([&] {
    ++runs;
    seen = obj;
  }));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(seen, obj);
  runs = 0;
  const bool covered = guard.protectOnce([&] {
    ++runs;
    ASSERT_TRUE(domain.tryReclaim());  // the epoch/era moves mid-op
  });
  EXPECT_EQ(runs, 1);
  constexpr bool kEbr = !std::is_same_v<TypeParam, IntervalDomain>;
  EXPECT_EQ(covered, kEbr);
  guard.retire(obj);
  guard.release();  // unpin and ship the retire
  while (domain.stats().pending() > 0) {
    ASSERT_TRUE(domain.tryReclaim());
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TYPED_TEST(DomainApiTest, RetireRawRunsCustomDeleter) {
  auto& domain = this->domain();
  static std::atomic<int> custom_calls{0};
  custom_calls = 0;
  int payload = 0;
  {
    auto guard = domain.pin();
    guard.retireRaw(&payload, [](void*) { custom_calls.fetch_add(1); });
  }
  domain.clear();
  EXPECT_EQ(custom_calls.load(), 1);
}

TYPED_TEST(DomainApiTest, GuardMoveTransfersRegistration) {
  auto& domain = this->domain();
  auto a = domain.pin();
  const std::uint64_t epoch = a.epoch();
  auto b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_FALSE(a.pinned());
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(b.epoch(), epoch);

  // Move assignment releases the target's old registration.
  auto c = domain.pin();
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(c.pinned());
  c.release();
  EXPECT_FALSE(c.valid());
  // Every guard quiescent or gone: reclamation must win.
  EXPECT_TRUE(domain.tryReclaim());
}

TYPED_TEST(DomainApiTest, ReleaseUnregistersEarly) {
  auto& domain = this->domain();
  auto guard = domain.pin();
  guard.release();
  EXPECT_FALSE(guard.valid());
  EXPECT_TRUE(domain.tryReclaim()) << "released guard must not block";
  // Operations on the released guard degrade gracefully on both domains:
  // unpin is a no-op, tryReclaim answers false, introspection is quiescent.
  guard.unpin();
  EXPECT_FALSE(guard.tryReclaim());
  EXPECT_FALSE(guard.pinned());
  EXPECT_EQ(guard.epoch(), kEpochQuiescent);
}

TYPED_TEST(DomainApiTest, DomainGenericStructureUsesDomainHooks) {
  // The allocation hooks (make/retireNode) wired through a real structure:
  // one algorithm body, both domains.
  auto& domain = this->domain();
  EbrStack<std::uint64_t, TypeParam> stack(domain);
  {
    auto guard = domain.pin();
    for (std::uint64_t i = 0; i < 10; ++i) stack.push(guard, i);
    for (std::uint64_t i = 10; i-- > 0;) {
      auto v = stack.pop(guard);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(stack.pop(guard).has_value());
  }
  EXPECT_EQ(domain.stats().deferred, 10u);
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, 10u);
}

// --- DistDomain-only: cross-locale retire scattering ------------------------

class DistDomainScatterTest : public testing::RuntimeTest {};

TEST_F(DistDomainScatterTest, RemoteRetiresAreShippedHome) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  Runtime& rt = *runtime_;
  const std::uint32_t nloc = rt.numLocales();
  std::vector<std::uint64_t> live_before(nloc);
  for (std::uint32_t l = 0; l < nloc; ++l) {
    live_before[l] = rt.locale(l).arena().liveBlocks();
  }

  constexpr int kPerLocale = 48;
  coforallLocales([domain, nloc] {
    auto guard = domain.pin();
    for (int i = 0; i < kPerLocale; ++i) {
      // Retire an object owned by a *different* locale: reclamation must
      // sort it into the scatter bucket and free it on its owner.
      const std::uint32_t target =
          (Runtime::here() + 1 + static_cast<std::uint32_t>(i) % nloc) % nloc;
      guard.retire(gnewOn<Tracked>(target));
    }
  });

  domain.clear();
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, static_cast<std::uint64_t>(kPerLocale) * nloc);
  EXPECT_EQ(s.reclaimed, s.deferred);
  for (std::uint32_t l = 0; l < nloc; ++l) {
    EXPECT_LE(rt.locale(l).arena().liveBlocks(), live_before[l] + 64)
        << "retired objects must be freed on owning locale " << l;
  }
  domain.destroy();
}

// --- IntervalDomain: cross-locale retire scattering under IBR ---------------

class IntervalDomainScatterTest : public testing::RuntimeTest {};

TEST_F(IntervalDomainScatterTest, RemoteRetiresAreShippedHome) {
  Tracked::live.store(0);
  startRuntime(4);
  IntervalDomain domain = IntervalDomain::create();
  Runtime& rt = *runtime_;
  const std::uint32_t nloc = rt.numLocales();
  std::vector<std::uint64_t> live_before(nloc);
  for (std::uint32_t l = 0; l < nloc; ++l) {
    live_before[l] = rt.locale(l).arena().liveBlocks();
  }

  constexpr int kPerLocale = 48;
  coforallLocales([domain, nloc] {
    auto guard = domain.pin();
    for (int i = 0; i < kPerLocale; ++i) {
      // Allocate the birth-tagged block on a *different* locale and retire
      // it here: the scan must sort it into the scatter bucket and free it
      // (payload dtor + arena return) on its owner.
      const std::uint32_t target =
          (Runtime::here() + 1 + static_cast<std::uint32_t>(i) % nloc) % nloc;
      guard.retire(IntervalDomain::makeOn<Tracked>(target));
    }
  });

  // No guard is live: one scan frees everything (kGraceAdvances == 1),
  // exercising the reservation-scan + scatter path rather than clear().
  EXPECT_TRUE(domain.tryReclaim());
  EXPECT_EQ(Tracked::live.load(), 0);
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, static_cast<std::uint64_t>(kPerLocale) * nloc);
  EXPECT_EQ(s.reclaimed, s.deferred);
  for (std::uint32_t l = 0; l < nloc; ++l) {
    EXPECT_LE(rt.locale(l).arena().liveBlocks(), live_before[l] + 64)
        << "retired blocks must be freed on owning locale " << l;
  }
  domain.destroy();
}

TEST_F(DistDomainScatterTest, HandleIsValueCapturableAcrossLocales) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  std::atomic<std::uint64_t> pins{0};
  coforallLocales([domain, &pins] {
    for (int i = 0; i < 50; ++i) {
      auto guard = domain.pin();
      if (guard.pinned()) pins.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(pins.load(), 150u);
  domain.destroy();
}

}  // namespace
}  // namespace pgasnb
