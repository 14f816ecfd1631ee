// The asynchronous communication surface: completion handles and their
// joins (wait/waitAll), the ProgressThread's FIFO
// busy_until model, the per-task Aggregator (flush ordering, threshold/age
// flush, handle groups, counters), the aggregated cross-locale retire path
// including when a buffered run ships, and the operation-shipped async
// data-structure ops (DistStack's popAsync under the progress-thread guard
// cache, and its aggregated pushes and pops).
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;
using testing::testConfig;

struct Tracked {
  static std::atomic<int> live;
  std::uint64_t payload = 0xD15C;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

// A completion is one release store on `done`: no lock, no waiter list.
static_assert(sizeof(comm::detail::HandleCore) <= 32,
              "a handle's completion state carries no lock");

class CommAsyncTest : public RuntimeTest {
 protected:
  void SetUp() override {
    Tracked::live.store(0);
    comm::resetCounters();
  }
};

// --- completion handles -----------------------------------------------------

TEST_F(CommAsyncTest, LocalAmValueIsImmediatelyReady) {
  startRuntime(2);
  int ran = 0;
  auto h = comm::amAsyncValue<int>(Runtime::here(), [&ran] { return ++ran; });
  EXPECT_TRUE(h.valid());
  EXPECT_TRUE(h.ready());  // local fast path runs inline
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(h.value(), 1);  // idempotent, no deadlock
  EXPECT_EQ(comm::counters().am_async, 0u) << "no AM for a local target";
}

TEST_F(CommAsyncTest, RemoteAmHandleResolvesAndJoinsTheClock) {
  startRuntime(2);
  sim::setNow(0);
  std::atomic<int> ran{0};
  auto h = comm::amProgressHandle(1, [&ran] { ran.store(1); });
  h.wait();
  EXPECT_EQ(ran.load(), 1);
  const LatencyModel& lat = runtime_->config().latency;
  // Serviced at wire + service; the waiter also pays the return wire.
  EXPECT_EQ(h.completionTime(), lat.am_wire_ns + lat.am_service_ns);
  EXPECT_GE(sim::now(), h.completionTime() + lat.am_wire_ns);
}

TEST_F(CommAsyncTest, ProgressThreadModelsFifoBusyUntil) {
  startRuntime(2);
  sim::setNow(0);
  auto h1 = comm::amProgressHandle(1, [] {});
  auto h2 = comm::amProgressHandle(1, [] {});
  h1.wait();
  h2.wait();
  const LatencyModel& lat = runtime_->config().latency;
  // FIFO queueing: the second message arrives while the channel is still
  // busy with the first, so its service starts at the first's end time.
  EXPECT_EQ(h1.completionTime(), lat.am_wire_ns + lat.am_service_ns);
  EXPECT_EQ(h2.completionTime(), lat.am_wire_ns + 2 * lat.am_service_ns);
}

// --- joining sets of handles ------------------------------------------------

TEST_F(CommAsyncTest, WaitAllFoldsEveryJoinIntoTheCaller) {
  startRuntime(2);
  sim::setNow(0);
  std::vector<comm::Handle<>> hs;
  for (int i = 0; i < 4; ++i) hs.push_back(comm::amProgressHandle(1, [] {}));
  comm::waitAll(hs);
  const LatencyModel& lat = runtime_->config().latency;
  // FIFO service: the last of the four joins at 2*wire + 4*service.
  EXPECT_GE(sim::now(), 2 * lat.am_wire_ns + 4 * lat.am_service_ns);
  for (auto& h : hs) EXPECT_TRUE(h.ready());
}

TEST_F(CommAsyncTest, CompletionTimesRiseInIssueOrderForOneDestination) {
  // One destination's progress thread serves its AMs FIFO, so completion
  // order is issue order: a ring that waits on its oldest handle sees
  // completions in the order they happen.
  startRuntime(2);
  sim::setNow(0);
  std::vector<comm::Handle<>> hs;
  for (int i = 0; i < 4; ++i) hs.push_back(comm::amProgressHandle(1, [] {}));
  const LatencyModel& lat = runtime_->config().latency;
  for (std::size_t i = 0; i < hs.size(); ++i) {
    hs[i].wait();
    EXPECT_GE(sim::now(), hs[i].completionTime() + lat.am_wire_ns);
    if (i > 0) {
      EXPECT_GT(hs[i].completionTime(), hs[i - 1].completionTime())
          << "FIFO busy_until: a later injection completes later";
    }
  }
}

TEST_F(CommAsyncTest, CountersSnapshotAndReset) {
  // The four fields whose machinery is gone (stealing, deferred
  // continuations, backpressure) stay in the snapshot and read 0.
  startRuntime(2);
  comm::amProgressHandle(1, [] {}).wait();
  comm::Aggregator& agg = comm::taskAggregator();
  std::vector<comm::Handle<>> hs;
  hs.push_back(agg.enqueueHandle(1, [] {}));
  hs.push_back(agg.enqueueHandle(1, [] {}));
  comm::waitAll(hs);
  const comm::Counters snap = comm::counters();
  EXPECT_EQ(snap.am_async, 1u);
  EXPECT_EQ(snap.am_batched, 1u);
  EXPECT_EQ(snap.ops_aggregated, 2u);
  EXPECT_EQ(snap.totalAms(), 2u);
  EXPECT_EQ(snap.cq_stolen, 0u);
  EXPECT_EQ(snap.continuations_stolen, 0u);
  EXPECT_EQ(snap.backpressure_stalls, 0u);
  EXPECT_EQ(snap.deferred_peak, 0u);
  comm::resetCounters();
  const comm::Counters zeroed = comm::counters();
  EXPECT_EQ(zeroed.am_async, 0u);
  EXPECT_EQ(zeroed.am_batched, 0u);
  EXPECT_EQ(zeroed.ops_aggregated, 0u);
  EXPECT_EQ(zeroed.totalAms(), 0u);
}

// --- aggregator -------------------------------------------------------------

TEST_F(CommAsyncTest, BatchedAmPaysOneLatencyPlusPerOpCpu) {
  startRuntime(2);
  sim::setNow(0);
  comm::Aggregator& agg = comm::taskAggregator();
  std::atomic<int> ran{0};
  for (int i = 0; i < 3; ++i) {
    agg.enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(agg.pending(), 3u);
  EXPECT_EQ(agg.pendingFor(1), 3u);
  agg.flushAll();
  EXPECT_EQ(agg.pending(), 0u);
  // FIFO probe: serviced strictly after the batch.
  auto probe = comm::amProgressHandle(1, [] {});
  probe.wait();
  EXPECT_EQ(ran.load(), 3);

  const LatencyModel& lat = runtime_->config().latency;
  // One wire+service charge for the whole batch, one CPU charge per op,
  // then the probe's own service behind it in FIFO order.
  EXPECT_EQ(probe.completionTime(), lat.am_wire_ns + lat.am_service_ns +
                                        3 * lat.cpu_atomic_ns +
                                        lat.am_service_ns);
  const auto c = comm::counters();
  EXPECT_EQ(c.am_batched, 1u);
  EXPECT_EQ(c.ops_aggregated, 3u);
  EXPECT_EQ(c.am_async, 1u);  // just the probe
  EXPECT_EQ(c.am_sync, 0u);
}

TEST_F(CommAsyncTest, AggregatorFlushesAtThresholdAndPreservesOrder) {
  RuntimeConfig cfg = testConfig(3);
  cfg.aggregator_ops_per_batch = 4;
  runtime_ = std::make_unique<Runtime>(cfg);
  comm::Aggregator& agg = comm::taskAggregator();
  std::mutex lock;
  std::vector<int> order1, order2;
  for (int i = 0; i < 9; ++i) {
    agg.enqueueHandle(1, [&lock, &order1, i] {
      std::lock_guard<std::mutex> g(lock);
      order1.push_back(i);
    });
    agg.enqueueHandle(2, [&lock, &order2, i] {
      std::lock_guard<std::mutex> g(lock);
      order2.push_back(i);
    });
  }
  // 9 ops per destination at threshold 4: two automatic batches each, one
  // op left buffered.
  EXPECT_EQ(comm::counters().am_batched, 4u);
  EXPECT_EQ(agg.pendingFor(1), 1u);
  EXPECT_EQ(agg.pendingFor(2), 1u);
  agg.flushAll();
  EXPECT_EQ(comm::counters().am_batched, 6u);
  comm::amSync(1, [] {});  // FIFO drain
  comm::amSync(2, [] {});
  const std::vector<int> expected{0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(order1, expected) << "per-destination order must be preserved";
  EXPECT_EQ(order2, expected);
  EXPECT_EQ(comm::counters().ops_aggregated, 18u);
}

TEST_F(CommAsyncTest, AggregatorRunsLocalOpsInline) {
  startRuntime(2);
  comm::Aggregator& agg = comm::taskAggregator();
  int ran = 0;
  auto h = agg.enqueueHandle(Runtime::here(), [&ran] { ran = 1; });
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(h.ready()) << "outside a window an own-locale op runs at once";
  EXPECT_EQ(agg.pending(), 0u);
  EXPECT_EQ(comm::counters().am_batched, 0u);
}

TEST_F(CommAsyncTest, AggregatedHandleGroupResolvesTogether) {
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_ops_per_batch = 8;
  runtime_ = std::make_unique<Runtime>(cfg);
  sim::setNow(0);
  comm::Aggregator& agg = comm::taskAggregator();
  std::atomic<int> ran{0};
  std::vector<comm::Handle<>> hs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    hs.push_back(agg.enqueueHandle(1, [&ran] { ran.fetch_add(1); }));
  }
  EXPECT_FALSE(hs[0].ready()) << "buffered ops have not shipped yet";
  agg.flushAll();
  comm::waitAll(hs);
  EXPECT_EQ(ran.load(), 3);
  const LatencyModel& lat = runtime_->config().latency;
  // One batched AM: the whole group resolves at the batch's end time.
  for (const auto& h : hs) {
    EXPECT_EQ(h.completionTime(), lat.am_wire_ns + lat.am_service_ns +
                                      3 * lat.cpu_atomic_ns);
  }
  EXPECT_EQ(comm::counters().am_batched, 1u);
}

TEST_F(CommAsyncTest, AggregatorAgeFlushShipsUnderfilledBuckets) {
  RuntimeConfig cfg = testConfig(3);
  cfg.aggregator_max_batch_age_ns = 1000;
  runtime_ = std::make_unique<Runtime>(cfg);
  comm::Aggregator& agg = comm::taskAggregator();
  std::atomic<int> ran{0};
  agg.enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(agg.pendingFor(1), 1u);
  EXPECT_EQ(comm::counters().am_batched, 0u);
  sim::setNow(sim::now() + 2000);  // age the bucket past the knob
  // Any enqueue sweeps the ages.
  agg.enqueueHandle(2, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(agg.pendingFor(1), 0u) << "aged under-filled bucket must ship";
  EXPECT_EQ(agg.pendingFor(2), 1u) << "fresh bucket keeps buffering";
  EXPECT_EQ(comm::counters().am_batched, 1u);
  sim::setNow(sim::now() + 2000);
  agg.flushAged();  // the explicit sweep for drain loops that go idle
  EXPECT_EQ(agg.pendingFor(2), 0u);
  EXPECT_EQ(comm::counters().am_batched, 2u);
  comm::quiesceAmQueues();
  EXPECT_EQ(ran.load(), 2);
}

TEST_F(CommAsyncTest, AggregatorAgeFlushDisabledWhenKnobIsZero) {
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_max_batch_age_ns = 0;
  runtime_ = std::make_unique<Runtime>(cfg);
  comm::Aggregator& agg = comm::taskAggregator();
  agg.enqueueHandle(1, [] {});
  sim::setNow(sim::now() + 1'000'000'000);
  agg.flushAged();
  agg.enqueueHandle(1, [] {});
  EXPECT_EQ(agg.pendingFor(1), 2u) << "age flushing off: only threshold/flush ship";
  EXPECT_EQ(comm::counters().am_batched, 0u);
  agg.flushAll();
}

// Sparse production (one op per simulated millisecond) outside any window
// must not move the task aggregator's threshold: every batch ships at the
// configured threshold or once its oldest op reaches the configured age.
TEST_F(CommAsyncTest, TaskAggregatorKeepsItsConfiguredThresholdOnSparseProduction) {
  struct Shape {
    std::uint32_t ops_per_batch;
    std::uint64_t max_age_ns;
  };
  // The defaults (1 ms gaps age out every batch at two ops), then an age
  // budget wide enough that every batch fills to the threshold.
  for (const Shape shape : {Shape{64, 100'000}, Shape{16, 50'000'000}}) {
    RuntimeConfig cfg = testConfig(2);
    cfg.aggregator_ops_per_batch = shape.ops_per_batch;
    cfg.aggregator_max_batch_age_ns = shape.max_age_ns;
    runtime_.reset();
    runtime_ = std::make_unique<Runtime>(cfg);
    comm::resetCounters();
    comm::Aggregator& agg = comm::taskAggregator();
    std::uint64_t t = sim::now();
    std::uint64_t first_op_time = 0;
    std::uint64_t shipped_ops = 0;
    std::uint64_t batches = 0;
    for (int round = 0; round < 12; ++round) {
      for (std::uint32_t i = 0; i < shape.ops_per_batch; ++i) {
        t += 1'000'000;
        sim::setNow(t);
        const std::size_t before = agg.pendingFor(1);
        if (before == 0) first_op_time = t;
        agg.enqueueHandle(1, [] {});
        if (agg.pendingFor(1) != 0) continue;
        // This enqueue shipped the bucket: at the threshold, or aged.
        const std::size_t size = before + 1;
        EXPECT_TRUE(size == shape.ops_per_batch ||
                    t - first_op_time >= shape.max_age_ns)
            << "batch of " << size << " shipped before threshold or age";
        shipped_ops += size;
        ++batches;
      }
    }
    agg.flushAll();
    EXPECT_EQ(shipped_ops, 12u * shape.ops_per_batch)
        << "nothing left for the closing flush";
    if (shape.max_age_ns > shape.ops_per_batch * 1'000'000ull) {
      EXPECT_EQ(batches, 12u) << "every batch fills to the threshold";
    }
    EXPECT_EQ(comm::counters().am_batched, batches);
    comm::quiesceAmQueues();
  }
}

TEST_F(CommAsyncTest, AggregatorDestructorFlushes) {
  startRuntime(2);
  std::atomic<int> ran{0};
  std::thread task([&ran] {
    comm::taskAggregator().enqueueHandle(1, [&ran] { ran.store(1); });
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u);
  });  // the thread's exit destroys its task aggregator, which flushes
  task.join();
  comm::amSync(1, [] {});  // FIFO drain
  EXPECT_EQ(ran.load(), 1);
}

// --- aggregated cross-locale retires ---------------------------------------

TEST_F(CommAsyncTest, UnpinLeavesRetiresBufferedUntilTryReclaimOrScopeExit) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  {
    auto guard = domain.attach();
    guard.pin();
    guard.retire(gnewOn<Tracked>(1));
    guard.retire(gnewOn<Tracked>(1));
    // Both ride one run in the task aggregator: nothing deferred anywhere.
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u);
    EXPECT_EQ(domain.stats().deferred, 0u);
    guard.unpin();
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u)
        << "unpin leaves the run buffered";
    EXPECT_EQ(comm::counters().am_batched, 0u);
    guard.tryReclaim();
    EXPECT_EQ(comm::taskAggregator().pending(), 0u) << "tryReclaim ships it";
    comm::amSync(1, [] {});  // FIFO drain of the batched AM
    EXPECT_EQ(domain.stats().deferred, 2u)
        << "shipped retires land in the owner's limbo list";
    EXPECT_EQ(comm::counters().am_batched, 1u);
    EXPECT_EQ(comm::counters().ops_aggregated, 2u) << "each retire counts";
    guard.pin();
    guard.retire(gnewOn<Tracked>(1));
    guard.unpin();
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 1u);
  }
  EXPECT_EQ(comm::taskAggregator().pending(), 0u) << "scope exit ships it";
  comm::quiesceAmQueues();
  EXPECT_EQ(domain.stats().deferred, 3u);
  EXPECT_EQ(Tracked::live.load(), 3) << "retire defers, never frees eagerly";
  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  domain.destroy();
}

TEST_F(CommAsyncTest, RetireBatchThresholdShipsWithoutUnpin) {
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_ops_per_batch = 4;  // the threshold counts retires
  runtime_ = std::make_unique<Runtime>(cfg);
  DistDomain domain = DistDomain::create();
  {
    auto guard = domain.pin();
    for (int i = 0; i < 4; ++i) guard.retire(gnewOn<Tracked>(1));
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 0u)
        << "threshold reached: shipped";
    EXPECT_EQ(comm::counters().am_batched, 1u);
    comm::amSync(1, [] {});
    EXPECT_EQ(domain.stats().deferred, 4u);
  }
  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  domain.destroy();
}

TEST_F(CommAsyncTest, NoRetireStrandsPastGuardReset) {
  // Whether the retire count is a multiple of the threshold (every batch
  // ships at the threshold) or not (a partial run is still buffered), the
  // guard's reset must leave nothing in the thread-local aggregator: a
  // stranded run would ship only at thread exit, after the domain's
  // instances are gone.
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_ops_per_batch = 4;
  runtime_ = std::make_unique<Runtime>(cfg);
  DistDomain domain = DistDomain::create();
  for (const std::uint64_t n : {8u, 9u}) {
    comm::resetCounters();
    const std::uint64_t before = domain.stats().deferred;
    {
      auto guard = domain.pin();
      for (std::uint64_t i = 0; i < n; ++i) guard.retire(gnewOn<Tracked>(1));
    }  // guard reset: flushAll()
    EXPECT_EQ(comm::taskAggregator().pending(), 0u) << "n=" << n;
    comm::quiesceAmQueues();
    EXPECT_EQ(domain.stats().deferred - before, n) << "n=" << n;
    EXPECT_EQ(comm::counters().am_batched, (n + 3) / 4) << "n=" << n;
  }
  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  domain.destroy();
}

TEST_F(CommAsyncTest, RetiresOfTwoDomainsShareOneBatch) {
  startRuntime(2);
  DistDomain a = DistDomain::create();
  DistDomain b = DistDomain::create();
  {
    auto ga = a.pin();
    auto gb = b.pin();
    ga.retire(gnewOn<Tracked>(1));
    ga.retire(gnewOn<Tracked>(1));
    gb.retire(gnewOn<Tracked>(1));
    ga.retire(gnewOn<Tracked>(1));
    // Runs [a a] [b] [a]: a retire extends only the run at the tail.
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 3u);
    ga.unpin();
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 3u) << "unpin ships nothing";
    ga.tryReclaim();
    EXPECT_EQ(comm::taskAggregator().pending(), 0u)
        << "a's tryReclaim ships b's run too";
  }
  comm::quiesceAmQueues();
  EXPECT_EQ(comm::counters().am_batched, 1u) << "both domains, one AM";
  EXPECT_EQ(comm::counters().ops_aggregated, 4u);
  EXPECT_EQ(a.stats().deferred, 3u);
  EXPECT_EQ(b.stats().deferred, 1u);
  b.clear();
  EXPECT_EQ(Tracked::live.load(), 3) << "b's limbo list held only b's retire";
  a.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  a.destroy();
  b.destroy();
}

TEST_F(CommAsyncTest, PlainOpBetweenRetiresKeepsItsFifoPlace) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  std::atomic<std::uint64_t> seen{~std::uint64_t{0}};
  {
    auto guard = domain.pin();
    guard.retire(gnewOn<Tracked>(1));
    comm::taskAggregator().enqueueHandle(1, [domain, &seen] {
      seen.store(domain.implHere().counters_.snapshot().deferred);
    });
    guard.retire(gnewOn<Tracked>(1));
    EXPECT_EQ(comm::taskAggregator().pendingFor(1), 3u)
        << "the op closes the first run; the second retire opens another";
  }
  comm::quiesceAmQueues();
  EXPECT_EQ(seen.load(), 1u)
      << "the op must run after the retire before it, before the one after";
  EXPECT_EQ(domain.stats().deferred, 2u);
  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  domain.destroy();
}

/// Retires from every locale to every other locale: everything deferred,
/// everything reclaimed on its owner, nothing freed early.
TEST_F(CommAsyncTest, CrossLocaleRetiresReclaimEverywhere) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  constexpr int kPerLocale = 40;
  coforallLocales([domain] {
    auto guard = domain.pin();
    const std::uint32_t nloc = Runtime::get().numLocales();
    for (int i = 0; i < kPerLocale; ++i) {
      const std::uint32_t target =
          (Runtime::here() + 1 + static_cast<std::uint32_t>(i) % (nloc - 1)) %
          nloc;
      guard.retire(gnewOn<Tracked>(target));
    }
  });
  EXPECT_EQ(Tracked::live.load(), kPerLocale * 4);
  domain.clear();
  EXPECT_EQ(Tracked::live.load(), 0);
  const auto s = domain.stats();
  EXPECT_EQ(s.deferred, static_cast<std::uint64_t>(kPerLocale) * 4);
  EXPECT_EQ(s.reclaimed, s.deferred);
  domain.destroy();
}

// --- async data-structure operations ----------------------------------------

TEST_F(CommAsyncTest, DistStackPopAsyncShipsThePopLoop) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  {
    auto guard = domain.pin();
    for (std::uint64_t i = 0; i < 32; ++i) stack->push(guard, i);
  }
  onLocale(1, [domain, stack] {
    auto guard = domain.pin();
    std::vector<comm::Handle<std::optional<std::uint64_t>>> hs;
    hs.reserve(32);
    for (int i = 0; i < 32; ++i) hs.push_back(stack->popAsync(guard));
    comm::waitAll(hs);
    // Single consumer, shipped pops linearize FIFO at home: strict LIFO.
    for (std::uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(hs[i].value().has_value());
      EXPECT_EQ(*hs[i].value(), 31 - i);
    }
    EXPECT_FALSE(stack->popAsync(guard).value().has_value())
        << "empty stack resolves to nullopt";
  });
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(CommAsyncTest, DistStackAggregatedPopsDrainAcrossLocales) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  constexpr int kPerLocale = 24;
  coforallLocales([domain, stack] {
    auto guard = domain.pin();
    std::vector<comm::Handle<>> pushes;
    pushes.reserve(kPerLocale);
    for (int i = 0; i < kPerLocale; ++i) {
      pushes.push_back(
          stack->pushAsyncAggregated(guard, Runtime::here() * 1000 + i));
    }
    comm::waitAll(pushes);
  });
  // Exactly as many pops as items, issued in windows of batched async pops:
  // every one must come back with a value, across all locales.
  std::atomic<std::uint64_t> popped{0};
  coforallLocales([domain, stack, &popped] {
    auto guard = domain.pin();
    std::vector<comm::Handle<std::optional<std::uint64_t>>> window;
    window.reserve(kPerLocale);
    for (int i = 0; i < kPerLocale; ++i) {
      window.push_back(stack->popAsyncAggregated(guard));
    }
    comm::taskAggregator().flushAll();  // ship the window before joining it
    comm::waitAll(window);
    std::uint64_t got = 0;
    for (auto& h : window) got += h.value().has_value() ? 1 : 0;
    popped.fetch_add(got, std::memory_order_relaxed);
  });
  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kPerLocale) * 4);
  EXPECT_TRUE(stack->emptyApprox());
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

}  // namespace
}  // namespace pgasnb
