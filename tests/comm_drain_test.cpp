// Draining completions: mid-window OpWindow::drain (release of finished
// ops, nesting, max-fold parity with a bare join) and a workers-x-locales
// work queue where each locale's workers share one CompletionQueue (the
// full sweep is the `-L stress` variant).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;
using testing::testConfig;

class CommDrainTest : public RuntimeTest {
 protected:
  void SetUp() override { comm::resetCounters(); }
};

// --- mid-window draining of operation windows --------------------------------

TEST_F(CommDrainTest, WindowDrainReleasesCompletedOpsAsTheyLand) {
  startRuntime(2);
  constexpr std::size_t kOps = 8;
  comm::OpWindow window;
  std::vector<comm::Handle<>> hs;
  for (std::size_t i = 0; i < kOps; ++i) {
    hs.push_back(window.add(comm::amProgressHandle(1, [] {})));
  }
  // Overlap loop: absorb completions while the tail is still in flight --
  // the caller's "compute" here is just the polling itself.
  std::size_t consumed = 0;
  while (consumed < kOps) {
    consumed += window.drain();
    EXPECT_EQ(window.inFlight(), kOps - consumed)
        << "drained ops leave the window";
  }
  EXPECT_EQ(consumed, kOps);
  for (auto& h : hs) EXPECT_TRUE(h.ready());
  EXPECT_EQ(window.drain(), 0u) << "nothing left to release";
  EXPECT_EQ(comm::counters().cq_drained, 0u)
      << "window drains use no completion queue";
  window.join();  // nothing left to wait for
}

TEST_F(CommDrainTest, DrainedWindowJoinsAtTheMaxSimTimeOfTheSet) {
  // Draining mid-window changes when joins fold, not what they fold to:
  // the caller still ends at the max join of the whole set.
  startRuntime(3);
  sim::setNow(0);
  const LatencyModel& lat = runtime_->config().latency;
  std::vector<comm::Handle<>> hs;
  {
    comm::OpWindow window;
    hs.push_back(comm::taskAggregator().enqueueHandle(1, [] {}));
    hs.push_back(comm::taskAggregator().enqueueHandle(1, [] {}));
    hs.push_back(comm::taskAggregator().enqueueHandle(2, [] {}));
    EXPECT_EQ(window.inFlight(), 3u) << "aggregated ops auto-enroll";
    window.drain();  // may release nothing: the batches are still buffered
  }  // close: flush + spin-join the rest + one max-fold
  std::uint64_t max_join = 0;
  for (auto& h : hs) {
    ASSERT_TRUE(h.ready()) << "close waits for every owned op";
    max_join = std::max(max_join, h.completionTime() + lat.am_wire_ns);
  }
  EXPECT_GE(sim::now(), max_join) << "caller folded the max join of the set";
  EXPECT_EQ(comm::counters().am_batched, 2u);
}

TEST_F(CommDrainTest, DrainPlusJoinEndsWhereJoinAloneEnds) {
  // add()-ed non-aggregated handles, all already complete: draining them
  // first and then joining must leave the clock exactly where a bare
  // join() of the same completed set leaves it.
  startRuntime(3);
  std::vector<comm::Handle<>> hs;
  for (std::uint32_t i = 0; i < 6; ++i) {
    hs.push_back(comm::amProgressHandle(1 + i % 2, [] {}));
  }
  comm::waitAll(hs);  // complete the set; the clock is reset below
  sim::setNow(0);
  {
    comm::OpWindow window;
    for (auto& h : hs) window.add(h);
    window.join();
  }
  const std::uint64_t join_only = sim::now();
  sim::setNow(0);
  {
    comm::OpWindow window;
    for (auto& h : hs) window.add(h);
    EXPECT_EQ(window.drain(), hs.size()) << "every adopted op is complete";
    EXPECT_EQ(window.inFlight(), 0u);
    window.join();
  }
  EXPECT_EQ(sim::now(), join_only);
  EXPECT_GT(join_only, 0u) << "the set's join time was folded";
}

TEST_F(CommDrainTest, NestedDrainedWindowsJoinLifo) {
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
      inner.drain();
      EXPECT_EQ(outer.inFlight(), 1u) << "an inner drain leaves the outer alone";
    }  // inner close flushes the task aggregator: both batches ship...
    EXPECT_EQ(inner_ran.load(), 1) << "...and the inner op is joined";
    EXPECT_EQ(comm::OpWindow::current(), &outer);
    EXPECT_EQ(outer.inFlight(), 1u) << "outer ownership intact after inner join";
  }
  EXPECT_EQ(outer_ran.load(), 1);
  EXPECT_EQ(comm::OpWindow::current(), nullptr);
}

TEST_F(CommDrainTest, DrainedWindowedPopsNeedNoManualFlush) {
  // The acceptance-criteria shape with a mid-window drain:
  // popAsyncAggregated joined through an OpWindow with no flushAll()
  // anywhere.
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
    std::vector<comm::Handle<std::optional<std::uint64_t>>> handles;
    handles.reserve(kItems / 4);
    {
      comm::OpWindow window;
      for (int i = 0; i < kItems / 4; ++i) {
        handles.push_back(stack->popAsyncAggregated(guard));
      }
      window.drain();  // mid-window absorb (may be 0: batch still buffered)
    }  // close: flush + join the rest, one max-fold
    std::uint64_t got = 0;
    for (auto& h : handles) got += h.value().has_value() ? 1 : 0;
    popped.fetch_add(got, std::memory_order_relaxed);
  });
  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kItems));
  EXPECT_TRUE(stack->emptyApprox());
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

// --- shared-queue work-queue sweep ------------------------------------------

// The dist_workqueue shape, scaled: a DistStack bag drained by the workers
// of every locale through one shared CompletionQueue per locale. The
// locale primes the slot table; any worker may drain any slot, reissues
// its pop first and consumes the item second. Every item must be consumed
// exactly once across all locales and workers, whatever the interleaving.
void runSharedQueueWorkQueue(std::uint32_t locales, std::uint32_t workers,
                             std::uint64_t items) {
  SCOPED_TRACE(::testing::Message() << "locales=" << locales
                                    << " workers=" << workers
                                    << " items=" << items);
  Runtime rt(testConfig(locales));
  DistDomain domain = DistDomain::create();
  auto* bag = DistStack<std::uint64_t>::create(domain, locales - 1);
  {
    auto guard = domain.pin();
    comm::OpWindow window;
    for (std::uint64_t i = 0; i < items; ++i) {
      bag->pushAsyncAggregated(guard, i + 1);
    }
  }
  const std::uint64_t window_slots = std::max<std::uint64_t>(workers, 8);
  std::vector<CachePadded<std::atomic<std::uint64_t>>> delivered(items + 1);
  std::atomic<std::uint64_t> consumed{0};
  coforallLocales([&, domain, bag] {
    std::vector<comm::Handle<std::optional<std::uint64_t>>> slots(
        window_slots);
    comm::CompletionQueue cq;
    {
      auto guard = domain.pin();
      for (std::uint64_t s = 0; s < window_slots; ++s) {
        slots[s] = bag->popAsync(guard);
        cq.watch(slots[s], s);
      }
    }
    std::atomic<bool> bag_drained{false};
    coforallHere(workers, [&](std::uint32_t) {
      auto guard = domain.attach();
      while (auto slot = cq.next()) {
        const std::optional<std::uint64_t> item = slots[*slot].value();
        if (!item.has_value()) {
          bag_drained.store(true, std::memory_order_relaxed);
          continue;
        }
        if (!bag_drained.load(std::memory_order_relaxed)) {
          guard.pin();
          slots[*slot] = bag->popAsync(guard);
          guard.unpin();
          cq.watch(slots[*slot], *slot);
        }
        delivered[*item]->fetch_add(1, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(cq.outstanding(), 0u);
  });
  EXPECT_EQ(consumed.load(), items);
  for (std::uint64_t v = 1; v <= items; ++v) {
    ASSERT_EQ(delivered[v]->load(), 1u) << "item " << v;
  }
  DistStack<std::uint64_t>::destroy(bag);
  domain.destroy();
}

TEST(CommDrainWorkQueueTest, SharedQueueDrainConsumesEverything) {
  runSharedQueueWorkQueue(/*locales=*/2, /*workers=*/3, /*items=*/192);
}

// Opt-in scale sweep (`ctest -L stress` via -DPGASNB_STRESS=ON): the
// workers-x-locales grid the shared-queue drain must survive.
TEST(CommDrainStressTest, DISABLED_WorkersByLocalesSweep) {
  for (std::uint32_t locales : {2u, 4u, 8u}) {
    for (std::uint32_t workers : {1u, 2u, 4u}) {
      runSharedQueueWorkQueue(locales, workers, 128 * locales);
    }
  }
}

}  // namespace
}  // namespace pgasnb
