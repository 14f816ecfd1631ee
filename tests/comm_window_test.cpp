// Operation windows and the multi-consumer completion surface: wait-time
// auto-flush of task-aggregated handles, OpWindow ownership (auto-enroll,
// add), window join at the max sim-time of the set, LIFO nesting,
// destructor-flush during exception unwinding, the aggregated DS ops
// (pushAsyncAggregated / enqueueAsyncAggregated), and the MPMC
// CompletionQueue (shared drain, two-queue stealing with nextAny, stress).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;
using testing::testConfig;

class CommWindowTest : public RuntimeTest {
 protected:
  void SetUp() override { comm::resetCounters(); }
};

// --- auto-flush at join points ---------------------------------------------

TEST_F(CommWindowTest, WaitOnBufferedAggregatedHandleAutoFlushes) {
  // Threshold high enough that nothing ships on its own: the old footgun.
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_ops_per_batch = 64;
  runtime_ = std::make_unique<Runtime>(cfg);
  std::atomic<int> ran{0};
  auto h = comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  EXPECT_FALSE(h.ready()) << "buffered: the batch has not shipped";
  h.wait();  // must flush the caller's own batch instead of spinning forever
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(comm::counters().am_batched, 1u);
}

TEST_F(CommWindowTest, ValueJoinOnAggregatedPopAutoFlushes) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  {
    auto guard = domain.pin();
    stack->push(guard, 7);
  }
  onLocale(1, [domain, stack] {
    auto guard = domain.pin();
    auto h = stack->popAsyncAggregated(guard);
    // No flushAll() anywhere: value() -> wait() ships the batch itself.
    auto v = h.value();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 7u);
  });
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(CommWindowTest, WaitOnThenDerivedHandleFlushesTheBufferedRoot) {
  // Regression (PR-4 review): a then()-derived core is never buffered
  // itself; wait() must walk the flush_parent chain and ship the ROOT
  // op's batch, or a chained aggregated op deadlocks exactly like the
  // pre-window footgun.
  RuntimeConfig cfg = testConfig(2);
  cfg.aggregator_ops_per_batch = 64;
  runtime_ = std::make_unique<Runtime>(cfg);
  std::atomic<int> ran{0};
  auto root = comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  auto derived = root.then([] {}).then([] { return 7; });  // two-link chain
  EXPECT_FALSE(derived.ready());
  EXPECT_EQ(derived.value(), 7);  // must auto-flush the root's batch
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(CommWindowTest, CustomAggregatorOpsDoNotEnrollInWindows) {
  // Regression (PR-4 review): a window close can only flush the TASK
  // aggregator; auto-enrolling ops buffered in a hand-made Aggregator
  // would make join() spin forever on a batch it may not ship.
  startRuntime(2);
  std::atomic<int> ran{0};
  comm::Aggregator agg(/*ops_per_batch=*/64);
  comm::Handle<> h;
  {
    comm::OpWindow window;
    h = agg.enqueueHandle(1, [&ran] { ran.fetch_add(1); });
    EXPECT_EQ(window.inFlight(), 0u)
        << "custom-aggregator ops must not auto-enroll";
    agg.flushAll();  // the custom aggregator keeps its own flush discipline
  }  // close must not hang
  h.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(CommWindowTest, WhenAllOverBufferedHandlesAutoFlushes) {
  startRuntime(2);
  std::atomic<int> ran{0};
  std::vector<comm::Handle<>> hs;
  for (int i = 0; i < 3; ++i) {
    hs.push_back(comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); }));
  }
  comm::whenAll(hs).wait();  // closing the set ships the batch
  EXPECT_EQ(ran.load(), 3);
}

TEST_F(CommWindowTest, CompletionQueueDrainAutoFlushes) {
  startRuntime(2);
  comm::CompletionQueue cq;
  std::atomic<int> ran{0};
  for (std::uint64_t i = 0; i < 3; ++i) {
    cq.watch(comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); }), i);
  }
  // next() must ship the consumer's own buffered batch before blocking.
  std::size_t drained = 0;
  while (cq.next().has_value()) ++drained;
  EXPECT_EQ(drained, 3u);
  EXPECT_EQ(ran.load(), 3);
}

// --- OpWindow lifecycle ------------------------------------------------------

TEST_F(CommWindowTest, WindowOwnsAggregatedOpsAndJoinsOnClose) {
  startRuntime(2);
  std::atomic<int> ran{0};
  {
    comm::OpWindow window;
    EXPECT_EQ(comm::OpWindow::current(), &window);
    for (int i = 0; i < 5; ++i) {
      comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(window.inFlight(), 5u);
    // Nothing waited, nothing flushed manually: the dtor must do both.
  }
  EXPECT_EQ(ran.load(), 5) << "window close ships and joins the batch";
  EXPECT_EQ(comm::OpWindow::current(), nullptr);
}

TEST_F(CommWindowTest, WindowJoinsAtTheMaxSimTimeOfTheSet) {
  startRuntime(3);
  sim::setNow(0);
  const LatencyModel& lat = runtime_->config().latency;
  std::vector<comm::Handle<>> hs;
  {
    comm::OpWindow window;
    // Two destinations: locale 1 gets a batch of 2 ops, locale 2 a batch
    // of 1. Adopt explicit copies so completion times are inspectable.
    hs.push_back(window.add(comm::taskAggregator().enqueueHandle(1, [] {})));
    hs.push_back(window.add(comm::taskAggregator().enqueueHandle(1, [] {})));
    hs.push_back(window.add(comm::taskAggregator().enqueueHandle(2, [] {})));
    window.join();
  }
  std::uint64_t max_join = 0;
  for (auto& h : hs) {
    ASSERT_TRUE(h.ready()) << "window join waits for every owned op";
    max_join = std::max(max_join, h.completionTime() + lat.am_wire_ns);
  }
  EXPECT_GE(sim::now(), max_join) << "caller folded the max join of the set";
  // The locale-1 batch carries two ops (one batched AM), locale 2 one.
  EXPECT_EQ(comm::counters().am_batched, 2u);
}

TEST_F(CommWindowTest, WindowedPopsNeedNoManualFlush) {
  // The acceptance-criteria shape: popAsyncAggregated joined through an
  // OpWindow with no flushAll() anywhere in the user code.
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  constexpr int kItems = 48;
  {
    auto guard = domain.pin();
    for (int i = 0; i < kItems; ++i) stack->push(guard, i + 1);
  }
  std::atomic<std::uint64_t> popped{0};
  coforallLocales([domain, stack, &popped] {
    auto guard = domain.pin();
    std::vector<comm::Handle<std::optional<std::uint64_t>>> window_handles;
    window_handles.reserve(kItems / 4);
    {
      comm::OpWindow window;
      for (int i = 0; i < kItems / 4; ++i) {
        window_handles.push_back(stack->popAsyncAggregated(guard));
      }
    }  // close: flush + join, no comm::taskAggregator().flushAll() anywhere
    std::uint64_t got = 0;
    for (auto& h : window_handles) got += h.value().has_value() ? 1 : 0;
    popped.fetch_add(got, std::memory_order_relaxed);
  });
  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kItems));
  EXPECT_TRUE(stack->emptyApprox());
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(CommWindowTest, WindowedAggregatedPushesLinkOnHome) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  const auto before = comm::counters();
  constexpr int kPerLocale = 16;
  coforallLocales([domain, stack] {
    auto guard = domain.pin();
    comm::OpWindow window;
    for (int i = 0; i < kPerLocale; ++i) {
      stack->pushAsyncAggregated(guard, Runtime::here() * 1000 + i);
    }
  });
  const auto after = comm::counters();
  // Locales 1..3 each ship one batch (locale 0 is home: pushes run inline).
  EXPECT_EQ(after.am_batched - before.am_batched, 3u);
  EXPECT_EQ(after.ops_aggregated - before.ops_aggregated,
            static_cast<std::uint64_t>(kPerLocale) * 3);
  {
    auto guard = domain.pin();
    int count = 0;
    while (stack->pop(guard).has_value()) ++count;
    EXPECT_EQ(count, kPerLocale * 4);
  }
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

TEST_F(CommWindowTest, MsQueueAggregatedEnqueuesPreserveFifo) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  auto* queue = gnewOn<MsQueue<std::uint64_t, DistDomain>>(0, domain);
  onLocale(1, [domain, queue] {
    auto guard = domain.pin();
    {
      comm::OpWindow window;
      for (std::uint64_t i = 0; i < 16; ++i) {
        queue->enqueueAsyncAggregated(guard, i);
      }
    }  // one batched AM carries all 16 appends; joined here
    for (std::uint64_t i = 0; i < 16; ++i) {
      auto v = queue->dequeueAsync(guard).value();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i) << "batched appends keep per-destination FIFO";
    }
    EXPECT_FALSE(queue->dequeueAsync(guard).value().has_value());
  });
  domain.clear();
  onLocale(0, [queue] { gdelete(queue); });
  domain.destroy();
}

TEST_F(CommWindowTest, NestedWindowsJoinLifo) {
  startRuntime(3);
  std::atomic<int> inner_ran{0};
  std::atomic<int> outer_ran{0};
  {
    comm::OpWindow outer;
    comm::taskAggregator().enqueueHandle(1, [&outer_ran] { outer_ran.fetch_add(1); });
    EXPECT_EQ(outer.inFlight(), 1u);
    {
      comm::OpWindow inner;
      EXPECT_EQ(comm::OpWindow::current(), &inner);
      comm::taskAggregator().enqueueHandle(2, [&inner_ran] { inner_ran.fetch_add(1); });
      EXPECT_EQ(inner.inFlight(), 1u) << "ops enroll into the innermost window";
      EXPECT_EQ(outer.inFlight(), 1u);
    }  // inner close flushes the task aggregator: both batches ship...
    EXPECT_EQ(inner_ran.load(), 1) << "...and the inner op is joined";
    EXPECT_EQ(comm::OpWindow::current(), &outer);
    EXPECT_EQ(outer.inFlight(), 1u) << "outer ownership intact after inner join";
  }
  EXPECT_EQ(outer_ran.load(), 1);
  EXPECT_EQ(comm::OpWindow::current(), nullptr);
}

TEST_F(CommWindowTest, WindowDestructorFlushesDuringExceptionUnwinding) {
  startRuntime(2);
  std::atomic<int> ran{0};
  bool caught = false;
  try {
    comm::OpWindow window;
    comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
    throw std::runtime_error("unwind through the open window");
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(ran.load(), 1)
      << "the window's destructor must flush and join while unwinding";
}

TEST_F(CommWindowTest, WindowAddAdoptsNonAggregatedHandles) {
  startRuntime(2);
  sim::setNow(0);
  std::atomic<int> ran{0};
  comm::Handle<> h;
  {
    comm::OpWindow window;
    h = window.add(comm::amAsyncHandle(1, [&ran] { ran.fetch_add(1); }));
    EXPECT_EQ(window.inFlight(), 1u);
  }
  EXPECT_TRUE(h.ready());
  EXPECT_EQ(ran.load(), 1);
  const LatencyModel& lat = runtime_->config().latency;
  EXPECT_GE(sim::now(), h.completionTime() + lat.am_wire_ns)
      << "window close folds the adopted op's join time";
}

TEST_F(CommWindowTest, EmptyWindowIsFree) {
  startRuntime(2);
  sim::setNow(0);
  {
    comm::OpWindow window;
    EXPECT_EQ(window.inFlight(), 0u);
  }
  EXPECT_EQ(sim::now(), 0u) << "an empty window charges nothing";
}

TEST_F(CommWindowTest, ExplicitJoinIsIdempotentAndReleasesTheScope) {
  startRuntime(2);
  std::atomic<int> ran{0};
  comm::OpWindow window;
  comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  window.join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(window.open());
  EXPECT_EQ(window.inFlight(), 0u);
  EXPECT_EQ(comm::OpWindow::current(), nullptr);
  window.join();  // idempotent
  // After an explicit join, new aggregated ops belong to no window.
  auto h = comm::taskAggregator().enqueueHandle(1, [&ran] { ran.fetch_add(1); });
  EXPECT_EQ(window.inFlight(), 0u);
  h.wait();
  EXPECT_EQ(ran.load(), 2);
}

// --- own-locale ops inside a window -----------------------------------------

TEST_F(CommWindowTest, OwnLocaleOpWaitsForCloseOrItsOwnValue) {
  startRuntime(2);
  sim::setNow(0);
  constexpr std::uint64_t kCost = 300;
  comm::Aggregator& agg = comm::taskAggregator();
  comm::OpWindow window;
  int ran = 0;
  auto deferred = agg.enqueueHandle(0, [&ran] {
    sim::charge(kCost);
    ++ran;
  });
  auto state = std::make_shared<comm::detail::HandleState<int>>();
  auto* raw = state.get();
  agg.enqueueWithCore(
      0,
      [raw] {
        sim::charge(kCost);
        raw->value = 42;
      },
      state);
  comm::Handle<int> valued(state);
  EXPECT_FALSE(deferred.ready()) << "buffered until the window closes";
  EXPECT_FALSE(valued.ready());
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(agg.pendingFor(0), 2u);
  EXPECT_EQ(window.inFlight(), 2u) << "own-locale ops enroll too";
  EXPECT_EQ(sim::now(), 0u) << "buffering charges nothing";

  // value() runs the own-locale bucket inline, in FIFO order; each op
  // completes at its own finish time, with no return wire.
  EXPECT_EQ(valued.value(), 42);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(deferred.completionTime(), kCost);
  EXPECT_EQ(valued.completionTime(), 2 * kCost);
  EXPECT_EQ(deferred.state()->wire_return_ns, 0u);
  EXPECT_EQ(valued.state()->wire_return_ns, 0u);
  EXPECT_EQ(sim::now(), 2 * kCost);
  window.join();
  EXPECT_EQ(sim::now(), 2 * kCost);
  const auto c = comm::counters();
  EXPECT_EQ(c.am_batched, 0u) << "the own-locale bucket never becomes an AM";
  EXPECT_EQ(c.ops_aggregated, 0u);
}

TEST_F(CommWindowTest, CloseShipsRemoteBatchBeforeRunningLocalOps) {
  startRuntime(2);
  sim::setNow(0);
  const LatencyModel& lat = runtime_->config().latency;
  constexpr int kLocal = 4;
  constexpr std::uint64_t kCost = 500;
  comm::Aggregator& agg = comm::taskAggregator();
  comm::Handle<> remote;
  std::vector<comm::Handle<>> local;
  {
    comm::OpWindow window;
    remote = agg.enqueueHandle(1, [] {});
    for (int i = 0; i < kLocal; ++i) {
      local.push_back(agg.enqueueHandle(0, [] { sim::charge(kCost); }));
    }
  }
  // The batch left at time 0, before any local work, and its only cost
  // before the local run is the one injection charge.
  const std::uint64_t shipped = lat.cpu_atomic_ns;
  EXPECT_EQ(remote.completionTime(),
            lat.am_wire_ns + lat.am_service_ns + lat.cpu_atomic_ns);
  for (int i = 0; i < kLocal; ++i) {
    EXPECT_EQ(local[i].completionTime(), shipped + (i + 1) * kCost);
  }
  const std::uint64_t local_end = shipped + kLocal * kCost;
  const std::uint64_t remote_join = remote.completionTime() + lat.am_wire_ns;
  ASSERT_LT(local_end, remote_join) << "the local run hides in the round trip";
  EXPECT_EQ(sim::now(), std::max(local_end, remote_join))
      << "close ends at the max of local work and the remote join, not the sum";
  EXPECT_EQ(comm::counters().am_batched, 1u);
  EXPECT_EQ(comm::counters().ops_aggregated, 1u);
}

TEST_F(CommWindowTest, OwnLocaleOpsRunAtIssueOutsideTheWindowPath) {
  startRuntime(2);
  const auto ranInPlace = [](comm::Aggregator& agg, std::uint32_t loc) {
    bool ran = false;
    auto h = agg.enqueueHandle(loc, [&ran] { ran = true; });
    return ran && h.ready() && agg.pending() == 0;
  };
  EXPECT_TRUE(ranInPlace(comm::taskAggregator(), 0)) << "no window open";
  {
    comm::OpWindow window;
    comm::Aggregator hand_made(64);
    EXPECT_TRUE(ranInPlace(hand_made, 0)) << "a hand-made aggregator";
  }
  bool on_progress = false;
  comm::amSync(1, [&] {
    comm::OpWindow window;
    on_progress = ranInPlace(comm::taskAggregator(), 1);
  });
  EXPECT_TRUE(on_progress) << "a progress thread";
}

TEST_F(CommWindowTest, RemoteOpIssuedByTheLocalRunShipsBeforeCloseReturns) {
  startRuntime(2);
  comm::Aggregator& agg = comm::taskAggregator();
  std::atomic<int> remote_ran{0};
  comm::Handle<> inner;
  {
    comm::OpWindow window;
    agg.enqueueHandle(0, [&] {
      inner = comm::taskAggregator().enqueueHandle(
          1, [&remote_ran] { remote_ran.fetch_add(1); });
    });
  }
  ASSERT_TRUE(inner.valid()) << "the own-locale op ran at close";
  EXPECT_TRUE(inner.ready()) << "its remote op shipped and was joined";
  EXPECT_EQ(remote_ran.load(), 1);
  EXPECT_EQ(agg.pending(), 0u);
}

// --- MPMC CompletionQueue ----------------------------------------------------

TEST_F(CommWindowTest, MultiConsumerDrainDeliversEachCompletionOnce) {
  startRuntime(2);
  constexpr std::uint64_t kOps = 96;
  constexpr std::uint32_t kWorkers = 3;
  comm::CompletionQueue cq;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> drained{0};
  for (std::uint64_t i = 0; i < kOps; ++i) {
    cq.watch(comm::amAsyncHandle(1, [] {}), i + 1);
  }
  coforallHere(kWorkers, [&](std::uint32_t) {
    while (auto tag = cq.next()) {
      sum.fetch_add(*tag, std::memory_order_relaxed);
      drained.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(drained.load(), kOps) << "every completion delivered exactly once";
  EXPECT_EQ(sum.load(), kOps * (kOps + 1) / 2) << "no tag lost or duplicated";
  EXPECT_EQ(cq.outstanding(), 0u);
}

TEST_F(CommWindowTest, MpmcStressReissuingConsumers) {
  // Consumers share one queue and keep reissuing into it while draining --
  // the work-queue shape. TSan-clean is part of the contract.
  startRuntime(4);
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 64;
  comm::CompletionQueue cq;
  std::atomic<std::uint64_t> completed{0};
  // Seed one watch per worker, tagged by worker.
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    cq.watch(comm::amAsyncHandle(1 + (w % 3), [] {}), w);
  }
  std::vector<CachePadded<std::atomic<std::uint64_t>>> reissued(kWorkers);
  coforallHere(kWorkers, [&](std::uint32_t) {
    while (auto tag = cq.next()) {
      completed.fetch_add(1, std::memory_order_relaxed);
      // Any consumer may drain any tag; reissue on the drained slot's
      // budget until that slot has issued kPerWorker ops.
      const std::uint64_t slot = *tag;
      if (reissued[slot]->fetch_add(1, std::memory_order_relaxed) <
          kPerWorker - 1) {
        cq.watch(comm::amAsyncHandle(1 + (slot % 3), [] {}), slot);
      }
    }
  });
  EXPECT_EQ(completed.load(), kWorkers * kPerWorker);
}

// Own-queue preference is covered by CommDrainTest.NextAnyPrefersOwnQueue.

TEST_F(CommWindowTest, NextAnyStealsInFlightCompletionsWhenOwnQueueIsEmpty) {
  // Unlike CommDrainTest.NextAnyStealsFromAnySibling, the sibling's ops are
  // still in flight: the stealer must park on the sibling, not give up.
  startRuntime(2);
  comm::CompletionQueue mine;
  comm::CompletionQueue other;
  mine.enrollLocal();
  other.enrollLocal();
  std::atomic<int> ran{0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    other.watch(comm::amAsyncHandle(1, [&ran] { ran.fetch_add(1); }), 100 + i);
  }
  // Nothing in `mine`: every completion must be stolen from `other`.
  std::size_t stolen = 0;
  while (auto tag = mine.nextAny()) {
    EXPECT_GE(*tag, 100u);
    ++stolen;
  }
  EXPECT_EQ(stolen, 4u);
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(other.outstanding(), 0u);
  EXPECT_EQ(comm::counters().cq_stolen, 4u);
}

TEST_F(CommWindowTest, TwoStealersDrainEachOthersBacklog) {
  // Two workers, each with its own enrolled queue, each draining with
  // nextAny(): an imbalanced load must still be fully consumed, from
  // either side.
  startRuntime(3);
  comm::CompletionQueue q0;
  comm::CompletionQueue q1;
  q0.enrollLocal();
  q1.enrollLocal();
  constexpr std::uint64_t kHeavy = 48;
  std::atomic<std::uint64_t> drained{0};
  // All the work lands in q0; worker 1 can only make progress by stealing.
  for (std::uint64_t i = 0; i < kHeavy; ++i) {
    q0.watch(comm::amAsyncHandle(1 + (i % 2), [] {}), i);
  }
  coforallHere(2, [&](std::uint32_t me) {
    comm::CompletionQueue& own = (me == 0) ? q0 : q1;
    while (own.nextAny().has_value()) {
      drained.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(drained.load(), kHeavy);
  EXPECT_EQ(q0.outstanding(), 0u);
  EXPECT_EQ(q1.outstanding(), 0u);
}

}  // namespace
}  // namespace pgasnb
