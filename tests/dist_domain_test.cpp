// The Listing 5 loop over a cyclic distribution, and reclaim-domain guards
// in AM handlers: nested PinScopes, one pin per AM service, epoch advances
// under streaming batches, the progress-thread guard cache, and the model
// charges of the reclaim path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "epoch_workload.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

// --- the Listing 5 loop over a cyclic distribution (bench::forallCyclic) ----

struct CyclicCase {
  std::uint32_t locales;
  std::uint64_t size;
};

class ForallCyclicTest : public ::testing::TestWithParam<CyclicCase> {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(
        pgasnb::testing::testConfig(GetParam().locales));
  }
  std::unique_ptr<Runtime> runtime_;
};

TEST_P(ForallCyclicTest, VisitsEveryElementOnceOnItsOwner) {
  const std::uint32_t locales = GetParam().locales;
  std::vector<std::uint64_t> arr(GetParam().size, ~std::uint64_t{0});
  std::vector<std::atomic<std::uint32_t>> visits(arr.size());
  std::atomic<std::uint32_t> inits{0};
  bench::forallCyclic(
      arr, 3, [&inits] { return inits.fetch_add(1); },
      [&](std::uint32_t, std::uint64_t& elem) {
        visits[&elem - arr.data()].fetch_add(1);
        elem = Runtime::here();
      });
  EXPECT_EQ(inits.load(), locales * 3) << "init runs once per task";
  for (std::uint64_t i = 0; i < arr.size(); ++i) {
    ASSERT_EQ(visits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(arr[i], i % locales) << "body ran off-owner at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ForallCyclicTest,
    ::testing::Values(CyclicCase{1, 1}, CyclicCase{1, 100}, CyclicCase{2, 7},
                      CyclicCase{3, 9}, CyclicCase{4, 10}, CyclicCase{4, 3},
                      CyclicCase{5, 0}, CyclicCase{8, 1000}),
    [](const ::testing::TestParamInfo<CyclicCase>& info) {
      return std::to_string(info.param.locales) + "loc_" +
             std::to_string(info.param.size) + "elems";
    });

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

/// Ship `n` closures to locale 1 in one batch of the task aggregator, each
/// calling `op(i)`, and return the batch's completion time minus its send
/// time. `n` stays below the batch threshold, so only the flush ships it.
template <typename Op>
std::uint64_t timeOneBatch(std::size_t n, Op op) {
  comm::Aggregator& agg = comm::taskAggregator();
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

/// A retired object that counts its live instances.
struct Counted {
  static std::atomic<int> live;
  std::uint64_t payload = 42;
  Counted() { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST_F(HandlerGuardTest, ServiceEndShipsWhatTheServiceRetired) {
  // unpin() does not flush, so the service-end hook must: a progress
  // thread that goes idle after a service would otherwise hold the run.
  startRuntime(3);
  Counted::live.store(0);
  DistDomain domain = DistDomain::create();
  comm::amSync(1, [domain] {
    DistGuard& guard = domain.threadGuard();
    PinScope<DistGuard> scope(guard);
    guard.retire(gnewOn<Counted>(2));
    EXPECT_EQ(comm::taskAggregator().pendingFor(2), 1u);
  });
  std::size_t left = 1;
  comm::amSync(1, [&left] { left = comm::taskAggregator().pending(); });
  EXPECT_EQ(left, 0u) << "the service end ships the run, then unpins";
  comm::quiesceAmQueues();
  EXPECT_EQ(domain.implOn(2)->counters_.snapshot().deferred, 1u);
  domain.clear();
  EXPECT_EQ(Counted::live.load(), 0);
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
       kDist ? std::vector<std::uint64_t>{4425, 15350, 26275, 42650, 53575,
                                          68850, 77850}
             : std::vector<std::uint64_t>{4275, 24000, 41375, 58750, 76125,
                                          99825, 108675}},
      {CommMode::ugni,
       kDist ? std::vector<std::uint64_t>{4425, 17500, 30575, 49100, 62175,
                                          79600, 88600}
             : std::vector<std::uint64_t>{4275, 24000, 41375, 58750, 76125,
                                          99825, 108675}},
  };
  for (const auto& [mode, expected] : cases) {
    SCOPED_TRACE(toString(mode));
    this->runtime_ = std::make_unique<Runtime>(testing::testConfig(3, mode));
    TypeParam domain = TypeParam::create();
    const std::uint64_t t0 = sim::now();
    std::vector<std::uint64_t> seen;
    // The fences land the shipped retire runs before the next step, so each
    // one sits in a fixed limbo list: which lists are empty is part of the
    // program, since an advance that detaches nothing frees nothing.
    retireRoundRobin(domain, 10);
    comm::quiesceAmQueues();
    seen.push_back(sim::now() - t0);
    for (int i = 0; i < 4; ++i) {
      domain.tryReclaim();
      seen.push_back(sim::now() - t0);
    }
    retireRoundRobin(domain, 7);
    comm::quiesceAmQueues();
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


// --- freeing outside the election, shipping after unpin -----------------------

class LateReclaimTest : public RuntimeTest {
 protected:
  void SetUp() override { Counted::live.store(0); }
};

TEST_F(LateReclaimTest, RetireShippedAfterThreeAdvancesWaitsForAGuardPinned) {
  // A retire that unpin() left buffered sits in no limbo list, so advances
  // cannot free it however many pass. When it ships, the receiver files it
  // under its current epoch: a guard pinned by then is still protected.
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  Counted* obj = gnewOn<Counted>(1);
  auto retirer = domain.pin();
  retirer.retire(obj);
  retirer.unpin();
  for (int i = 0; i < 3; ++i) domain.advance();
  EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u)
      << "the run stays buffered across the advances";
  EXPECT_EQ(Counted::live.load(), 1);

  auto reader = domain.pin();  // still holds `obj`
  retirer.flush();
  comm::quiesceAmQueues();
  EXPECT_EQ(domain.stats().deferred, 1u);
  // While the reader stays pinned, at most one of these can advance.
  int advanced = 0;
  for (int i = 0; i < 4; ++i) advanced += domain.tryReclaim() ? 1 : 0;
  EXPECT_LE(advanced, 1);
  EXPECT_EQ(Counted::live.load(), 1) << "freed under a pinned guard";
  EXPECT_EQ(obj->payload, 42u);
  reader.unpin();
  for (int i = 0; i < 3; ++i) domain.advance();
  EXPECT_EQ(Counted::live.load(), 0);
  retirer.release();
  reader.release();
  domain.destroy();
}

TEST_F(LateReclaimTest, DetachedChainIsFreedWhenAdvanceReturns) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  {
    auto guard = domain.pin();
    for (std::uint32_t l = 0; l < 3; ++l) {
      for (int i = 0; i < 4; ++i) guard.retire(gnewOn<Counted>(l));
    }
  }  // scope exit ships the remote runs
  comm::quiesceAmQueues();
  EXPECT_EQ(domain.stats().deferred, 12u);
  domain.advance();
  domain.advance();
  EXPECT_EQ(Counted::live.load(), 12) << "two advances free nothing";
  domain.advance();
  // The third advance detached every locale's list under the election and
  // freed it after releasing the election, before returning.
  EXPECT_EQ(Counted::live.load(), 0);
  EXPECT_EQ(domain.stats().reclaimed, 12u);
  for (std::uint32_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(domain.implOn(l)->to_free_.emptyApprox()) << "locale " << l;
  }
  domain.destroy();
}

/// Where and at what model time a retired object's deleter ran.
struct FreeSite {
  std::uint32_t locale = ~0u;
  std::uint64_t now = 0;
};

/// A retired object that names its slot in the test's FreeSite table.
struct Sited {
  static FreeSite sites[8];
  std::size_t slot;
  explicit Sited(std::size_t s) : slot(s) {}
  static void record(void* p) {
    sites[static_cast<Sited*>(p)->slot] = {Runtime::here(), sim::now()};
  }
};
FreeSite Sited::sites[8];

TEST_F(LateReclaimTest, DetachedObjectsAreFreedInPlaceOnTheirListsLocale) {
  // Every object in a locale's limbo lists is that locale's own: arena
  // objects ride their owner's run, and a pointer outside the partitioned
  // heap stays on the retiring locale. The free runs each deleter in the
  // locale's free task, so it spawns no owner task.
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  constexpr std::size_t kArena = 6;  // slots 0-5, owners 0, 1, 0, 1, ...
  constexpr std::size_t kHost = kArena;
  for (FreeSite& site : Sited::sites) site = FreeSite{};
  onLocale(2, [domain] {
    auto guard = domain.pin();
    for (std::size_t i = 0; i < kArena; ++i) {
      guard.retireRaw(gnewOn<Sited>(static_cast<std::uint32_t>(i % 2), i),
                      [](void* p) {
                        Sited::record(p);
                        gdelete(static_cast<Sited*>(p));
                      });
    }
    guard.retireRaw(new Sited(kHost), [](void* p) {
      Sited::record(p);
      delete static_cast<Sited*>(p);
    });
  });  // scope exit ships the runs to 0 and 1 and inserts locale 2's own
  comm::quiesceAmQueues();
  EXPECT_EQ(domain.stats().deferred, kArena + 1);
  onLocale(2, [domain] {
    domain.advance();
    domain.advance();
  });
  EXPECT_EQ(Sited::sites[kHost].locale, ~0u) << "two advances free nothing";
  onLocale(2, [domain] { domain.advance(); });
  EXPECT_EQ(domain.stats().reclaimed, kArena + 1);
  for (std::size_t i = 0; i < kArena; ++i) {
    EXPECT_EQ(Sited::sites[i].locale, i % 2) << "slot " << i;
  }
  EXPECT_EQ(Sited::sites[kHost].locale, 2u) << "the host-heap object";
  // The winner on locale 2 forks the free round at one instant; each task
  // pops its list (one exchange) and frees in place, so every deleter of a
  // list runs at its task's start plus that exchange. An owner task would
  // add a fork, a bulk transfer and a wire hop on top.
  const LatencyModel& lat = runtime_->config().latency;
  const std::uint64_t t2 = Sited::sites[kHost].now;
  for (std::size_t i = 0; i < kArena; ++i) {
    EXPECT_EQ(Sited::sites[i].now, t2 + lat.am_wire_ns +
                                       lat.remote_task_spawn_ns -
                                       lat.local_task_spawn_ns)
        << "slot " << i;
  }
  domain.destroy();
}

TEST_F(LateReclaimTest, TeardownWithBufferedRetiresFreesEverything) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  std::atomic<std::uint64_t> left_buffered{0};
  coforallLocales([domain, &left_buffered] {
    auto guard = domain.attach();
    for (int i = 0; i < 5; ++i) {
      guard.pin();
      guard.retire(gnewOn<Counted>((Runtime::here() + 1) % 3));
      guard.unpin();
    }
    left_buffered.fetch_add(comm::taskAggregator().pending());
  });  // each guard's scope exit ships its run
  EXPECT_EQ(left_buffered.load(), 3u) << "one buffered run per task";
  // A guard still attached with a buffered run: clear() ships the caller's
  // aggregator, fences every AM queue and frees everything.
  auto guard = domain.attach();
  guard.pin();
  guard.retire(gnewOn<Counted>(1));
  guard.unpin();
  EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u);
  domain.clear();
  EXPECT_EQ(Counted::live.load(), 0);
  const ReclaimStats stats = domain.stats();
  EXPECT_EQ(stats.deferred, 16u);
  EXPECT_EQ(stats.reclaimed, 16u);
  guard.release();
  domain.destroy();
  runtime_.reset();
}

// --- the own-locale retire run ----------------------------------------------

class LocalRetireRunTest : public RuntimeTest {
 protected:
  void SetUp() override { Counted::live.store(0); }
  std::uint64_t deferred(const DistDomain& domain) const {
    return domain.stats().deferred;
  }
};

TEST_F(LocalRetireRunTest, LocalRetireWaitsInTheRunUntilItFlushes) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  comm::Aggregator& agg = comm::taskAggregator();
  const std::size_t threshold = runtime_->config().aggregator_ops_per_batch;
  {
    // The threshold runs it inline, on the caller.
    auto guard = domain.pin();
    for (std::size_t i = 1; i < threshold; ++i) {
      guard.retire(gnew<Counted>());
    }
    EXPECT_EQ(deferred(domain), 0u) << "below the threshold nothing lands";
    EXPECT_EQ(agg.pending(), 1u) << "the run counts as one buffered op";
    EXPECT_EQ(agg.pendingFor(0), 0u) << "the run is not a bucket op";
    guard.retire(gnew<Counted>());
    EXPECT_EQ(deferred(domain), threshold);
    EXPECT_EQ(agg.pending(), 0u);

    // tryReclaim() flushes first.
    guard.retire(gnew<Counted>());
    EXPECT_EQ(deferred(domain), threshold);
    guard.tryReclaim();
    EXPECT_EQ(deferred(domain), threshold + 1);

    // The age cutoff runs an under-filled run at the next enqueue.
    guard.pin();
    guard.retire(gnew<Counted>());
    sim::chargeModelOnly(runtime_->config().aggregator_max_batch_age_ns);
    EXPECT_EQ(deferred(domain), threshold + 1);
    guard.retire(gnew<Counted>());
    EXPECT_EQ(deferred(domain), threshold + 3)
        << "the enqueue that finds the run aged runs it, itself included";

    // unpin() does not flush; scope exit does.
    guard.retire(gnew<Counted>());
    guard.unpin();
    EXPECT_EQ(deferred(domain), threshold + 3);
  }
  EXPECT_EQ(deferred(domain), threshold + 4);

  // clear() flushes the caller's run before it reclaims.
  const std::uint64_t before = deferred(domain);
  auto guard = domain.pin();
  guard.retire(gnew<Counted>());
  guard.unpin();
  EXPECT_EQ(deferred(domain), before);
  domain.clear();
  EXPECT_EQ(deferred(domain), before + 1);
  EXPECT_EQ(Counted::live.load(), 0);
  guard.release();
  domain.destroy();
}

TEST_F(LocalRetireRunTest, WindowCloseAndServiceEndFlushTheRun) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  {
    auto guard = domain.pin();
    {
      comm::OpWindow window;
      guard.retire(gnew<Counted>());
      EXPECT_EQ(deferred(domain), 0u);
    }
    EXPECT_EQ(deferred(domain), 1u) << "the window's close flushes the run";
  }
  // A progress thread's run is inserted by the service-end hook.
  comm::amSync(1, [domain] {
    DistGuard& guard = domain.threadGuard();
    PinScope<DistGuard> scope(guard);
    guard.retire(gnew<Counted>());
    EXPECT_EQ(domain.implOn(1)->counters_.snapshot().deferred, 0u);
  });
  EXPECT_EQ(domain.implOn(1)->counters_.snapshot().deferred, 1u);
  domain.clear();
  EXPECT_EQ(Counted::live.load(), 0);
  domain.destroy();
}

TEST_F(LocalRetireRunTest, FlushedRunOf64ChargesThreeAtomics) {
  RuntimeConfig cfg = testing::testConfig(2);
  cfg.aggregator_ops_per_batch = 128;  // only the flush runs it
  runtime_ = std::make_unique<Runtime>(cfg);
  DistDomain domain = DistDomain::create();
  const std::uint64_t cpu = cfg.latency.cpu_atomic_ns;
  auto guard = domain.pin();
  const std::uint64_t t0 = sim::now();
  for (int i = 0; i < 64; ++i) guard.retire(gnew<Counted>());
  const std::uint64_t t1 = sim::now();
  EXPECT_EQ(t1 - t0, 64 * cpu) << "one processor atomic per retire";
  guard.flush();
  EXPECT_EQ(sim::now() - t1, 3 * cpu)
      << "multi-pop, exchange and link, whatever the run's length";
  EXPECT_EQ(deferred(domain), 64u);
  guard.release();
  domain.clear();
  EXPECT_EQ(Counted::live.load(), 0);
  domain.destroy();
}

}  // namespace
}  // namespace pgasnb
