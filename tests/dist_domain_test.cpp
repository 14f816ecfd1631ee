// Distributed domains and arrays: index math properties and forall loops;
// reclaim-domain guards in AM handlers: nested PinScopes, one pin per AM
// service, epoch advances under streaming batches, the progress-thread guard
// cache, and the model charges of the reclaim path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

struct DomainCase {
  std::uint32_t locales;
  std::uint64_t size;
};

class CyclicDomainProperty : public ::testing::TestWithParam<DomainCase> {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(
        pgasnb::testing::testConfig(GetParam().locales));
  }
  std::unique_ptr<Runtime> runtime_;
};

TEST_P(CyclicDomainProperty, CountsSumToSize) {
  CyclicDomain dom(GetParam().size);
  std::uint64_t total = 0;
  for (std::uint32_t l = 0; l < dom.numLocales(); ++l) {
    total += dom.localCount(l);
  }
  EXPECT_EQ(total, dom.size());
}

TEST_P(CyclicDomainProperty, GlobalIndexInvertsOwnership) {
  CyclicDomain dom(GetParam().size);
  for (std::uint32_t l = 0; l < dom.numLocales(); ++l) {
    for (std::uint64_t k = 0; k < dom.localCount(l); ++k) {
      const std::uint64_t g = dom.globalIndex(l, k);
      ASSERT_LT(g, dom.size());
      ASSERT_EQ(dom.localeOf(g), l);
    }
  }
}

TEST_P(CyclicDomainProperty, BlockCountsSumToSize) {
  BlockDomain dom(GetParam().size);
  std::uint64_t total = 0;
  for (std::uint32_t l = 0; l < dom.numLocales(); ++l) {
    total += dom.localCount(l);
    // blocks are contiguous and ordered
    EXPECT_LE(dom.blockLo(l), dom.blockHi(l));
  }
  EXPECT_EQ(total, dom.size());
}

TEST_P(CyclicDomainProperty, BlockLocaleOfIsConsistent) {
  BlockDomain dom(GetParam().size);
  for (std::uint64_t i = 0; i < dom.size(); ++i) {
    const std::uint32_t l = dom.localeOf(i);
    ASSERT_GE(i, dom.blockLo(l));
    ASSERT_LT(i, dom.blockHi(l));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CyclicDomainProperty,
    ::testing::Values(DomainCase{1, 1}, DomainCase{1, 100}, DomainCase{2, 7},
                      DomainCase{3, 9}, DomainCase{4, 10}, DomainCase{4, 3},
                      DomainCase{5, 0}, DomainCase{8, 1000}),
    [](const ::testing::TestParamInfo<DomainCase>& info) {
      return std::to_string(info.param.locales) + "loc_" +
             std::to_string(info.param.size) + "elems";
    });

class DistArrayTest : public RuntimeTest {};

TEST_F(DistArrayTest, ElementsLiveOnOwningLocale) {
  startRuntime(4);
  CyclicArray<std::uint64_t> arr(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(localeOf(&arr[i]), arr.domain().localeOf(i)) << "index " << i;
  }
}

TEST_F(DistArrayTest, ElementAccessReadsAndWrites) {
  startRuntime(3);
  CyclicArray<std::uint64_t> arr(30);
  for (std::uint64_t i = 0; i < 30; ++i) arr[i] = i * i;
  for (std::uint64_t i = 0; i < 30; ++i) EXPECT_EQ(arr[i], i * i);
}

TEST_F(DistArrayTest, ForallTasksVisitsEveryElementOnOwner) {
  startRuntime(4);
  constexpr std::uint64_t kN = 400;
  CyclicArray<std::uint64_t> arr(kN);
  std::vector<std::atomic<std::uint32_t>> visits(kN);
  arr.forallTasks(
      2, [] { return 0; },
      [&](int&, std::uint64_t i, std::uint64_t& elem) {
        visits[i].fetch_add(1);
        elem = Runtime::here();
      });
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(arr[i], arr.domain().localeOf(i)) << "body ran off-owner";
  }
}

TEST_F(DistArrayTest, ForallTasksRunsInitPerTask) {
  startRuntime(2);
  CyclicArray<int> arr(100);
  std::atomic<int> inits{0};
  arr.forallTasks(
      3, [&inits] { return inits.fetch_add(1); },
      [](int&, std::uint64_t, int&) {});
  EXPECT_EQ(inits.load(), 2 * 3);  // locales x tasks_per_locale
}

TEST_F(DistArrayTest, BlockArrayOwnershipMatchesDomain) {
  startRuntime(4);
  BlockArray<int> arr(41);
  for (std::uint64_t i = 0; i < 41; ++i) {
    EXPECT_EQ(localeOf(&arr[i]), arr.domain().localeOf(i));
  }
}

TEST_F(DistArrayTest, DestroyReturnsArenaMemory) {
  startRuntime(2);
  std::vector<std::uint64_t> live_before;
  for (std::uint32_t l = 0; l < 2; ++l) {
    live_before.push_back(runtime_->locale(l).arena().liveBlocks());
  }
  {
    CyclicArray<std::uint64_t> arr(128);
    EXPECT_GT(runtime_->locale(0).arena().liveBlocks(), live_before[0]);
  }
  for (std::uint32_t l = 0; l < 2; ++l) {
    EXPECT_EQ(runtime_->locale(l).arena().liveBlocks(), live_before[l]);
  }
}

TEST_F(DistArrayTest, NonTrivialElementTypes) {
  startRuntime(2);
  struct Widget {
    std::uint64_t a = 7;
    std::uint64_t b = 9;
  };
  CyclicArray<Widget> arr(20);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(arr[i].a, 7u);
    EXPECT_EQ(arr[i].b, 9u);
  }
}

TEST_F(DistArrayTest, SingleLocaleDegenerateCase) {
  startRuntime(1);
  CyclicArray<int> arr(10);
  std::atomic<int> sum{0};
  arr.forallTasks(
      2, [] { return 0; },
      [&sum](int&, std::uint64_t i, int&) {
        sum.fetch_add(static_cast<int>(i));
      });
  EXPECT_EQ(sum.load(), 45);
}

// --- handler guards: PinScope nesting and the per-service pin ----------------

class HandlerGuardTest : public RuntimeTest {};

TEST_F(HandlerGuardTest, NestedPinScopesKeepTheOuterPin) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  {
    // Task thread: the scope is the pin boundary.
    DistGuard guard = domain.attach();
    {
      PinScope<DistGuard> outer(guard);
      { PinScope<DistGuard> inner(guard); }
      EXPECT_TRUE(guard.pinned())
          << "the inner scope must not strip the outer scope's pin";
    }
    EXPECT_FALSE(guard.pinned());
  }
  // Progress thread: the AM service is the boundary, so the cached guard is
  // quiescent once the service that pinned it has ended.
  bool pinned_after_inner = false;
  comm::amSync(1, [&pinned_after_inner, domain] {
    DistGuard& guard = domain.threadGuard();
    PinScope<DistGuard> outer(guard);
    { PinScope<DistGuard> inner(guard); }
    pinned_after_inner = guard.pinned();
  });
  EXPECT_TRUE(pinned_after_inner);
  bool pinned_after_service = true;
  comm::amSync(1, [&pinned_after_service, domain] {
    pinned_after_service = domain.threadGuard().pinned();
  });
  EXPECT_FALSE(pinned_after_service);
  domain.destroy();
}

/// Ship `n` closures to locale 1 in one hand-made batch, each calling
/// `op(i)`, and return the batch's completion time minus its send time.
template <typename Op>
std::uint64_t timeOneBatch(std::size_t n, Op op) {
  comm::Aggregator agg(/*ops_per_batch=*/64);
  std::vector<comm::Handle<>> handles;
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(agg.enqueueHandle(1, [op, i] { op(i); }));
  }
  // The previous batch was joined, so locale 1's channel is idle by now:
  // service starts at arrival and the span is deterministic.
  const std::uint64_t sent = sim::now();
  agg.flush(1);
  for (auto& handle : handles) handle.wait();
  for (const auto& handle : handles) {
    EXPECT_EQ(handle.completionTime(), handles.front().completionTime());
  }
  return handles.front().completionTime() - sent;
}

TEST_F(HandlerGuardTest, AggregatedBatchSharesOnePinPerService) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  // Register locale 1's cached guard up front: the timed batches then pay
  // only pin and unpin.
  comm::amSync(1, [domain] { EXPECT_FALSE(domain.threadGuard().pinned()); });
  const std::uint64_t cpu = runtime_->config().latency.cpu_atomic_ns;
  for (const std::size_t n : {std::size_t{1}, std::size_t{16}}) {
    std::vector<bool> pinned(n, false);
    std::vector<std::uint64_t> epochs(n, kEpochQuiescent);
    const std::uint64_t with_scope =
        timeOneBatch(n, [domain, &pinned, &epochs](std::size_t i) {
          DistGuard& guard = domain.threadGuard();
          PinScope<DistGuard> scope(guard);
          pinned[i] = guard.pinned();
          epochs[i] = guard.epoch();
        });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(pinned[i]) << "n=" << n << " op " << i;
      EXPECT_NE(epochs[i], kEpochQuiescent);
      EXPECT_EQ(epochs[i], epochs[0]) << "n=" << n << " op " << i;
    }
    bool pinned_after = true;
    comm::amSync(1, [&pinned_after, domain] {
      pinned_after = domain.threadGuard().pinned();
    });
    EXPECT_FALSE(pinned_after) << "the service end must unpin, n=" << n;
    const std::uint64_t without_scope = timeOneBatch(n, [](std::size_t) {});
    // One pin (publish + re-validate) and one unpin for the whole batch.
    EXPECT_EQ(with_scope, without_scope + 3 * cpu) << "n=" << n;
  }
  domain.destroy();
}

// --- epoch advances under streaming handler batches ---------------------------

template <typename Domain>
class StreamingAdvanceTest : public RuntimeTest {};

using HandlerGuardDomains = ::testing::Types<DistDomain, IntervalDomain>;
TYPED_TEST_SUITE(StreamingAdvanceTest, HandlerGuardDomains);

TYPED_TEST(StreamingAdvanceTest, AdvancesReturnWhileBatchesStream) {
  using Map = RobinHoodMap<std::uint64_t, TypeParam>;
  constexpr int kAdvances = 50;
  constexpr int kWindow = 64;
  constexpr std::size_t kKeys = 64;
  constexpr std::size_t kFreshKeys = 512;
  this->startRuntime(2);
  TypeParam domain = TypeParam::create();
  // A small segment on locale 1 that doubles several times while the
  // stream runs, so its handlers also retire old tables under the pin.
  auto map = Map::create(
      64, domain, RobinHoodOptions{.resize_load = 0.85, .migrate_chunk = 8});
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> fresh;
  for (std::uint64_t k = 1; fresh.size() < kFreshKeys; ++k) {
    if (map.ownerOfKey(k) != 1) continue;
    (keys.size() < kKeys ? keys : fresh).push_back(k);
  }
  for (const std::uint64_t k : keys) ASSERT_TRUE(map.insert(k, k * 7));

  std::atomic<bool> advancing{true};
  std::atomic<int> advances{0};
  std::atomic<std::uint64_t> bad_finds{0};
  std::atomic<std::uint64_t> windows{0};
  const auto* keys_ptr = &keys;
  const auto* fresh_ptr = &fresh;
  coforallLocales([&, map, domain, keys_ptr, fresh_ptr] {
    if (Runtime::here() == 1) {
      for (int i = 0; i < kAdvances; ++i) {
        domain.advance();
        advances.fetch_add(1, std::memory_order_relaxed);
      }
      advancing.store(false, std::memory_order_release);
      return;
    }
    // Locale 0 streams windows of aggregated ops to owner 1 until the
    // advancer is done (and at least a few windows either way).
    std::size_t next_fresh = 0;
    std::uint64_t step = 0;
    while (advancing.load(std::memory_order_acquire) ||
           windows.load(std::memory_order_relaxed) < 4) {
      std::vector<comm::Handle<std::optional<std::uint64_t>>> finds;
      {
        comm::OpWindow window;
        for (int j = 0; j < kWindow; ++j, ++step) {
          const std::uint64_t key = (*keys_ptr)[step % kKeys];
          if (step % 8 == 0) {
            map.putAsyncAggregated(key, key * 7);
          } else if (step % 8 == 1 && next_fresh < fresh_ptr->size()) {
            const std::uint64_t k = (*fresh_ptr)[next_fresh++];
            map.insertAsyncAggregated(k, k * 7);
          } else {
            finds.push_back(map.findAsyncAggregated(key));
          }
        }
      }
      for (auto& find : finds) {
        if (find.value() == std::nullopt) {
          bad_finds.fetch_add(1, std::memory_order_relaxed);
        }
      }
      windows.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(advances.load(), kAdvances);
  EXPECT_EQ(bad_finds.load(), 0u);
  EXPECT_GE(windows.load(), 4u);
  map.destroy();
  domain.clear();
  const ReclaimStats stats = domain.stats();
  EXPECT_GT(stats.deferred, 0u) << "the resizes retire their old tables";
  EXPECT_EQ(stats.pending(), 0u)
      << "clear() must reclaim every retired table";
  domain.destroy();
}

// --- the progress-thread guard cache -----------------------------------------

template <typename Domain>
class GuardCacheTest : public RuntimeTest {};
TYPED_TEST_SUITE(GuardCacheTest, HandlerGuardDomains);

TYPED_TEST(GuardCacheTest, OneRegistrationPerProgressThreadAndDomain) {
  this->startRuntime(2);
  TypeParam domain = TypeParam::create();
  for (int i = 0; i < 3; ++i) {
    comm::amSync(1, [domain] {
      PinScope<typename TypeParam::Guard> pin(domain.threadGuard());
      EXPECT_TRUE(pin.guard().pinned());
    });
  }
  EXPECT_EQ(domain.implOn(1)->tokens_.allocatedCount(), 1u)
      << "three services must reuse one cached registration";
  // destroy() drops every progress thread's entry while the pools are
  // alive; a later domain then registers once in its own pool.
  domain.destroy();
  TypeParam second = TypeParam::create();
  comm::amSync(1, [second] {
    PinScope<typename TypeParam::Guard> pin(second.threadGuard());
  });
  EXPECT_EQ(second.implOn(1)->tokens_.allocatedCount(), 1u);
  second.destroy();
  // Progress-thread exit runs the cache's teardown: no entry may be left
  // pointing at a destroyed instance.
  this->runtime_.reset();
}

// --- the reclaim path's model charges ----------------------------------------

template <typename Domain>
class ReclaimChargeTest : public RuntimeTest {};
TYPED_TEST_SUITE(ReclaimChargeTest, HandlerGuardDomains);

/// Retire `n` objects round-robin over locales 0-2 under one pinned guard.
template <typename Domain>
void retireRoundRobin(Domain& domain, int n) {
  auto guard = domain.pin();
  for (int i = 0; i < n; ++i) {
    guard.retire(Domain::template makeOn<std::uint64_t>(
        static_cast<std::uint32_t>(i % 3), static_cast<std::uint64_t>(i)));
  }
}

TYPED_TEST(ReclaimChargeTest, ModelTimeOfRetireReclaimAdvanceClear) {
  // Model time after each step of a fixed retire/tryReclaim/advance/clear
  // program. The charges are part of the simulation's cost model: a
  // refactor of the reclaim path must keep every amount and its order.
  constexpr bool kDist = std::is_same_v<TypeParam, DistDomain>;
  const std::vector<std::pair<CommMode, std::vector<std::uint64_t>>> cases = {
      {CommMode::none,
       kDist ? std::vector<std::uint64_t>{575, 16950, 33325, 49700, 66075,
                                          82975, 97325}
             : std::vector<std::uint64_t>{825, 23600, 46375, 69150, 91925,
                                          115300, 129550}},
      {CommMode::ugni,
       kDist ? std::vector<std::uint64_t>{575, 21250, 41925, 62600, 83275,
                                          107700, 122050}
             : std::vector<std::uint64_t>{825, 23600, 46375, 69150, 91925,
                                          115300, 129550}},
  };
  for (const auto& [mode, expected] : cases) {
    SCOPED_TRACE(toString(mode));
    this->runtime_ = std::make_unique<Runtime>(testing::testConfig(3, mode));
    TypeParam domain = TypeParam::create();
    const std::uint64_t t0 = sim::now();
    std::vector<std::uint64_t> seen;
    retireRoundRobin(domain, 10);
    seen.push_back(sim::now() - t0);
    for (int i = 0; i < 4; ++i) {
      domain.tryReclaim();
      seen.push_back(sim::now() - t0);
    }
    retireRoundRobin(domain, 7);
    domain.advance();
    seen.push_back(sim::now() - t0);
    domain.clear();
    seen.push_back(sim::now() - t0);
    EXPECT_EQ(seen, expected);
    const ReclaimStats stats = domain.stats();
    EXPECT_EQ(stats.deferred, 17u);
    EXPECT_EQ(stats.reclaimed, 17u);
    EXPECT_EQ(stats.advances, 5u);
    domain.destroy();
    this->runtime_.reset();
  }
}

}  // namespace
}  // namespace pgasnb
