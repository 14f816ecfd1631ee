// The locale-wide drain scheduler (PR 5): DrainGroup enrollment and
// steal-from-any-sibling draining (CompletionQueue::enrollLocal +
// nextAny), mid-window OpWindow::drain (release of finished ops, nesting,
// max-fold parity with a bare join), deferred
// ExecPolicy::worker continuations (off the progress thread, executor-side
// sim-clock charging, monadic flattening, helping waits), the
// cq_park_slice_us knob, and a workers-x-locales stealing work-queue
// sweep (the full sweep is the `-L stress` variant).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
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

// --- DrainGroup enrollment and sibling stealing ------------------------------

TEST_F(CommDrainTest, EnrollmentTracksGroupMembership) {
  startRuntime(2);
  comm::DrainGroup& group =
      Runtime::get().locale(Runtime::here()).drainGroup();
  EXPECT_EQ(group.enrolledApprox(), 0u);
  {
    comm::CompletionQueue a;
    comm::CompletionQueue b;
    a.enrollLocal();
    a.enrollLocal();  // idempotent
    b.enrollLocal();
    EXPECT_EQ(group.enrolledApprox(), 2u);
  }  // destructors unenroll
  EXPECT_EQ(group.enrolledApprox(), 0u);
}

TEST_F(CommDrainTest, EnrollLocalReenrollsAfterRuntimeRestart) {
  // Regression (PR-5 review): pointer identity of the group alone cannot
  // prove a registration survived a runtime restart -- the new locale's
  // DrainGroup can land at the old address.
  startRuntime(2);
  comm::CompletionQueue cq;
  cq.enrollLocal();
  EXPECT_EQ(Runtime::get().locale(0).drainGroup().enrolledApprox(), 1u);
  runtime_.reset();
  startRuntime(2);
  EXPECT_EQ(Runtime::get().locale(0).drainGroup().enrolledApprox(), 0u);
  cq.enrollLocal();  // new generation: must register with the new group
  EXPECT_EQ(Runtime::get().locale(0).drainGroup().enrolledApprox(), 1u);
}

TEST_F(CommDrainTest, NextAnyStealsFromAnySibling) {
  startRuntime(2);
  comm::CompletionQueue q0;
  comm::CompletionQueue q1;
  comm::CompletionQueue thief;
  q0.enrollLocal();
  q1.enrollLocal();
  thief.enrollLocal();
  // Ready completions land in q0 and q1; the thief's own queue stays
  // empty, so every drain below must be a steal.
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto h = comm::amAsyncHandle(1, [] {});
    h.wait();
    q0.watch(h, 100 + i);
    auto g = comm::amAsyncHandle(1, [] {});
    g.wait();
    q1.watch(g, 200 + i);
  }
  std::vector<bool> seen(1000, false);
  std::size_t stolen = 0;
  while (auto tag = thief.nextAny()) {
    ASSERT_FALSE(seen[*tag]) << "tag delivered twice: " << *tag;
    seen[*tag] = true;
    ++stolen;
  }
  EXPECT_EQ(stolen, 6u) << "the thief drains both siblings dry";
  EXPECT_EQ(q0.outstanding(), 0u);
  EXPECT_EQ(q1.outstanding(), 0u);
  EXPECT_EQ(comm::counters().cq_stolen, 6u);
  EXPECT_EQ(comm::counters().cq_drained, 6u)
      << "stolen completions count as drained too";
}

TEST_F(CommDrainTest, NextAnyPrefersOwnQueue) {
  startRuntime(2);
  comm::CompletionQueue mine;
  comm::CompletionQueue other;
  mine.enrollLocal();
  other.enrollLocal();
  auto hm = comm::amAsyncHandle(1, [] {});
  auto ho = comm::amAsyncHandle(1, [] {});
  hm.wait();
  ho.wait();
  mine.watch(hm, 1);
  other.watch(ho, 2);
  auto first = mine.nextAny();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u) << "own completions drain before steals";
  auto second = mine.nextAny();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);
  EXPECT_FALSE(mine.nextAny().has_value())
      << "group quiesced: nothing ready, outstanding, or deferred";
}

TEST_F(CommDrainTest, NextAnyWithoutEnrollmentDrainsOwnQueue) {
  // nextAny() degrades to a plain drain when the queue never enrolled --
  // the group has no record of it, but its own completions still surface.
  startRuntime(2);
  comm::CompletionQueue cq;
  for (std::uint64_t i = 0; i < 4; ++i) {
    cq.watch(comm::amAsyncHandle(1, [] {}), i);
  }
  std::size_t drained = 0;
  while (cq.nextAny().has_value()) ++drained;
  EXPECT_EQ(drained, 4u);
}

TEST_F(CommDrainTest, UnenrolledNextAnyDoesNotStealFromEnrolledSiblings) {
  // Regression (PR-5 review): tags only have meaning inside one group's
  // shared namespace. A queue that never enrolled must neither steal a
  // sibling's completion (it would misread the tag) nor wait on a group
  // it is invisible to.
  startRuntime(2);
  comm::CompletionQueue enrolled;
  enrolled.enrollLocal();
  auto sibling_op = comm::amAsyncHandle(1, [] {});
  sibling_op.wait();
  enrolled.watch(sibling_op, 7);
  comm::CompletionQueue loner;  // never enrolled: private tag namespace
  auto own_op = comm::amAsyncHandle(1, [] {});
  own_op.wait();
  loner.watch(own_op, 1);
  auto first = loner.nextAny();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u);
  EXPECT_FALSE(loner.nextAny().has_value())
      << "no enrollment: must not steal tag 7, nor block on the sibling";
  EXPECT_EQ(enrolled.outstanding(), 1u) << "the sibling's completion stays";
  EXPECT_EQ(*enrolled.nextAny(), 7u);
}

TEST_F(CommDrainTest, MultiWorkerGroupStealingDeliversExactlyOnce) {
  // All the work lands in worker 0's queue; workers 1 and 2 can only make
  // progress by stealing through the group. Every completion must still be
  // delivered to exactly one consumer. TSan-clean is part of the contract.
  startRuntime(2);
  constexpr std::uint64_t kOps = 96;
  constexpr std::uint32_t kWorkers = 3;
  std::vector<std::unique_ptr<comm::CompletionQueue>> queues;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    queues.push_back(std::make_unique<comm::CompletionQueue>());
    queues.back()->enrollLocal();
  }
  for (std::uint64_t i = 0; i < kOps; ++i) {
    queues[0]->watch(comm::amAsyncHandle(1, [] {}), i);
  }
  std::vector<CachePadded<std::atomic<std::uint64_t>>> delivered(kOps);
  std::atomic<std::uint64_t> total{0};
  coforallHere(kWorkers, [&](std::uint32_t w) {
    while (auto tag = queues[w]->nextAny()) {
      delivered[*tag]->fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(total.load(), kOps);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(delivered[i]->load(), 1u) << "tag " << i;
  }
  for (auto& q : queues) EXPECT_EQ(q->outstanding(), 0u);
}

// --- mid-window draining of operation windows --------------------------------

TEST_F(CommDrainTest, WindowDrainReleasesCompletedOpsAsTheyLand) {
  startRuntime(2);
  constexpr std::size_t kOps = 8;
  comm::OpWindow window;
  std::vector<comm::Handle<>> hs;
  for (std::size_t i = 0; i < kOps; ++i) {
    hs.push_back(window.add(comm::amAsyncHandle(1, [] {})));
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
    hs.push_back(comm::amAsyncHandle(1 + i % 2, [] {}));
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

// --- ExecPolicy::worker continuation stealing --------------------------------

TEST_F(CommDrainTest, WorkerContinuationRunsOffTheProgressThread) {
  startRuntime(2);
  std::atomic<bool> ran_on_progress{true};
  auto derived = comm::amAsyncHandle(1, [] {}).then(
      [&ran_on_progress] {
        ran_on_progress.store(taskContext().progress_thread);
      },
      comm::ExecPolicy::worker);
  derived.wait();  // the waiter helps execute the deferred body if needed
  EXPECT_FALSE(ran_on_progress.load())
      << "worker-policy bodies must never run on the AM service path";
  EXPECT_GE(comm::counters().continuations_stolen, 1u);
}

TEST_F(CommDrainTest, WorkerContinuationChargesTheExecutorClock) {
  startRuntime(2);
  sim::setNow(0);
  const LatencyModel& lat = runtime_->config().latency;
  constexpr std::uint64_t kBodyCost = 5000;
  auto parent = comm::amAsyncHandle(1, [] {});
  auto derived = parent.then(
      [] {
        sim::chargeModelOnly(kBodyCost);
        return 7;
      },
      comm::ExecPolicy::worker);
  EXPECT_EQ(derived.value(), 7);
  // Steal-time fold + executor-side charge: the executor (an idle worker
  // or the helping waiter, both at an earlier clock) max-folds the
  // parent's join-ready time, then the body's charge extends it.
  EXPECT_EQ(derived.completionTime(),
            parent.completionTime() + lat.am_wire_ns + kBodyCost);
  EXPECT_GE(sim::now(), derived.completionTime());
  EXPECT_EQ(comm::counters().continuations_stolen, 1u);
}

TEST_F(CommDrainTest, WorkerContinuationOnAReadyParentStillDefers) {
  startRuntime(2);
  auto ready = comm::readyHandle();
  std::atomic<int> ran{0};
  auto derived = ready.then([&ran] { ran.fetch_add(1); },
                            comm::ExecPolicy::worker);
  // The body was deferred into this locale's group, not run inline; the
  // wait below (or an idle worker racing us) executes it.
  derived.wait();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(comm::counters().continuations_stolen, 1u);
}

TEST_F(CommDrainTest, MonadicWorkerContinuationFlattens) {
  startRuntime(3);
  sim::setNow(0);
  std::atomic<int> hops{0};
  auto chained = comm::amAsyncHandle(1, [&hops] { hops.fetch_add(1); })
                     .then(
                         [&hops] {
                           return comm::amAsyncHandle(2, [&hops] {
                             hops.fetch_add(1);
                           });
                         },
                         comm::ExecPolicy::worker);
  chained.wait();
  EXPECT_EQ(hops.load(), 2) << "both hops ran; the chain flattened";
  const LatencyModel& lat = runtime_->config().latency;
  // The second hop launches from the executor at or after the first hop's
  // join and pays its own wire + service.
  EXPECT_GE(chained.completionTime(),
            2 * lat.am_wire_ns + lat.am_service_ns + lat.am_wire_ns +
                lat.am_service_ns);
}

TEST_F(CommDrainTest, WorkerContinuationMayIssueAggregatedOps) {
  // Regression (PR-5 review): a worker-policy body that buffers an
  // aggregated op rides the EXECUTOR's task aggregator, which no other
  // task may flush (flushIfBuffered's ownership rule). helpOneDeferred
  // must ship the executor's batch right after the body, or waiting on
  // the derived handle hangs on an op that can never ship.
  startRuntime(2);
  std::atomic<int> ran{0};
  auto derived = comm::amAsyncHandle(1, [] {})
                     .then(
                         [&ran] {
                           return comm::taskAggregator().enqueueHandle(
                               1, [&ran] { ran.fetch_add(1); });
                         },
                         comm::ExecPolicy::worker);
  derived.wait();  // must not hang on the unshipped inner batch
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(CommDrainTest, UnenrolledNextAnyStillRunsDeferredContinuations) {
  // Regression (PR-5 review): the unenrolled fallback of nextAny() must
  // help execute deferred bodies like next() does -- a consumer
  // watching its own worker-policy continuation may be the only task
  // thread able to run it. One pool worker, pinned by a blocking task, so
  // nobody can rescue a non-helping consumer.
  startRuntime(2, CommMode::none, /*workers=*/1);
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  TaskGroup pin_worker;
  pin_worker.spawnOn(0, [&pinned, &release] {
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  spinUntil([&] { return pinned.load(); });  // the only worker is now busy
  std::atomic<int> ran{0};
  comm::CompletionQueue cq;  // never enrolled
  cq.watch(comm::amAsyncHandle(1, [] {}).then(
               [&ran] { ran.fetch_add(1); }, comm::ExecPolicy::worker),
           5);
  auto tag = cq.nextAny();  // must help run the body, not park forever
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(*tag, 5u);
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
  pin_worker.wait();
}

TEST_F(CommDrainTest, HelpedDeferredBodiesDoNotEnrollIntoTheHelpersWindow) {
  // Regression (PR-5 review): a waiter helping execute a FOREIGN deferred
  // body while it has an OpWindow open must not let the body's aggregated
  // ops auto-enroll into that window -- the close would max-fold an
  // unrelated chain's join time. helpOneDeferred masks the window.
  startRuntime(2);
  std::atomic<int> ran{0};
  auto derived = comm::amAsyncHandle(1, [] {}).then(
      [&ran] {
        return comm::taskAggregator().enqueueHandle(
            1, [&ran] { ran.fetch_add(1); });
      },
      comm::ExecPolicy::worker);
  comm::OpWindow window;
  derived.wait();  // the helper may run the body with `window` open
  EXPECT_EQ(window.inFlight(), 0u)
      << "foreign deferred bodies' ops must not enroll into this window";
  window.join();
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(CommDrainTest, DrainedWindowCompletesWorkerContinuations) {
  // A window owning a worker-policy continuation must not deadlock: a
  // drain never waits, and the close-time join helps execute the
  // deferred body.
  startRuntime(2);
  std::atomic<int> ran{0};
  {
    comm::OpWindow window;
    window.add(comm::amAsyncHandle(1, [] {}).then(
        [&ran] { ran.fetch_add(1); }, comm::ExecPolicy::worker));
    window.drain();
  }  // close joins; the deferred body runs on a task thread
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(CommDrainTest, IdleWorkersExecuteDeferredContinuations) {
  // Nobody waits on the derived handle: the locale's idle worker threads
  // must pick the deferred body up from the drain group on their own.
  startRuntime(2);
  std::atomic<int> ran{0};
  auto parent = comm::amAsyncHandle(1, [] {});
  parent.then([&ran] { ran.fetch_add(1); }, comm::ExecPolicy::worker);
  spinUntil([&] { return ran.load() == 1; });
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(comm::counters().continuations_stolen, 1u);
}

// --- the parking-slice knob --------------------------------------------------

TEST(CommDrainConfigTest, ParkSliceKnobDefaultsAndParsesFromEnv) {
  EXPECT_EQ(RuntimeConfig{}.cq_park_slice_us, 200u);
  ::setenv("PGASNB_CQ_PARK_SLICE", "750", 1);
  EXPECT_EQ(RuntimeConfig::fromEnv().cq_park_slice_us, 750u);
  ::unsetenv("PGASNB_CQ_PARK_SLICE");
}

// --- stealing work-queue sweep ----------------------------------------------

// The dist_workqueue shape, scaled: a DistStack bag drained by per-worker
// enrolled queues with nextAny(). Every item must be consumed exactly once
// across all locales and workers, whatever the group interleaving.
void runStealingWorkQueue(std::uint32_t locales, std::uint32_t workers,
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
  std::atomic<std::uint64_t> consumed{0};
  coforallLocales([&, domain, bag] {
    std::vector<comm::Handle<std::optional<std::uint64_t>>> slots(
        window_slots);
    std::atomic<bool> bag_drained{false};
    coforallHere(workers, [&](std::uint32_t w) {
      auto guard = domain.attach();
      comm::CompletionQueue cq;
      cq.enrollLocal();
      for (std::uint64_t s = w; s < window_slots; s += workers) {
        guard.pin();
        slots[s] = bag->popAsync(guard);
        guard.unpin();
        cq.watch(slots[s], s);
      }
      while (auto slot = cq.nextAny()) {
        if (!slots[*slot].value().has_value()) {
          bag_drained.store(true, std::memory_order_relaxed);
          continue;
        }
        consumed.fetch_add(1, std::memory_order_relaxed);
        if (!bag_drained.load(std::memory_order_relaxed)) {
          guard.pin();
          slots[*slot] = bag->popAsync(guard);
          guard.unpin();
          cq.watch(slots[*slot], *slot);
        }
      }
    });
  });
  EXPECT_EQ(consumed.load(), items);
  DistStack<std::uint64_t>::destroy(bag);
  domain.destroy();
}

TEST(CommDrainWorkQueueTest, GroupStealingDrainConsumesEverything) {
  runStealingWorkQueue(/*locales=*/2, /*workers=*/3, /*items=*/192);
}

// Opt-in scale sweep (`ctest -L stress` via -DPGASNB_STRESS=ON): the
// workers-x-locales grid the drain scheduler must survive.
TEST(CommDrainStressTest, DISABLED_WorkersByLocalesSweep) {
  for (std::uint32_t locales : {2u, 4u, 8u}) {
    for (std::uint32_t workers : {1u, 2u, 4u}) {
      runStealingWorkQueue(locales, workers, 128 * locales);
    }
  }
}

}  // namespace
}  // namespace pgasnb
