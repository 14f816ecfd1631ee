// Michael-Scott queue: FIFO semantics and MPMC conservation with EBR, in
// shared memory and across locales (NIC-atomic cost per op under ugni).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "ds/ms_queue.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

TEST(MsQueue, EmptyDequeuesNothing) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  EXPECT_TRUE(q.emptyApprox());
  EXPECT_FALSE(q.dequeue(guard).has_value());
}

TEST(MsQueue, FifoOrder) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  for (int i = 0; i < 100; ++i) q.enqueue(guard, i);
  for (int i = 0; i < 100; ++i) {
    auto v = q.dequeue(guard);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(guard).has_value());
}

TEST(MsQueue, InterleavedEnqueueDequeue) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  q.enqueue(guard, 1);
  q.enqueue(guard, 2);
  EXPECT_EQ(*q.dequeue(guard), 1);
  q.enqueue(guard, 3);
  EXPECT_EQ(*q.dequeue(guard), 2);
  EXPECT_EQ(*q.dequeue(guard), 3);
}

TEST(MsQueue, RequiresPinnedGuard) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.attach();
  EXPECT_DEATH(q.enqueue(guard, 1), "pinned");
}

TEST(MsQueue, DequeuedDummiesAreDeferred) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  {
    auto guard = domain.pin();
    for (int i = 0; i < 20; ++i) q.enqueue(guard, i);
    for (int i = 0; i < 20; ++i) (void)q.dequeue(guard);
  }
  EXPECT_EQ(domain.stats().deferred, 20u);
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, 20u);
}

TEST(MsQueue, MpmcConservation) {
  LocalDomain domain;
  MsQueue<long> q(domain);
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 20000;
  std::atomic<long> consumed_sum{0};
  std::atomic<long> consumed_count{0};
  std::atomic<int> producers_done{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto guard = domain.attach();
      for (int i = 0; i < kPerProducer; ++i) {
        guard.pin();
        q.enqueue(guard, static_cast<long>(p) * kPerProducer + i);
        guard.unpin();
      }
      producers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      auto guard = domain.attach();
      while (true) {
        guard.pin();
        auto v = q.dequeue(guard);
        guard.unpin();
        if (v.has_value()) {
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        } else if (producers_done.load() == kProducers) {
          // Drain once more to close the race between the emptiness check
          // and the last enqueue.
          guard.pin();
          v = q.dequeue(guard);
          guard.unpin();
          if (!v.has_value()) break;
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        }
        if ((consumed_count.load(std::memory_order_relaxed) & 255) == 0) {
          guard.tryReclaim();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const long total = static_cast<long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), total);
  EXPECT_EQ(consumed_sum.load(), total * (total - 1) / 2);
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, domain.stats().deferred);
}

TEST(MsQueue, PerElementFifoPerProducer) {
  // Single consumer: elements from each producer must arrive in that
  // producer's order (FIFO is per-queue; per-producer order is implied).
  LocalDomain domain;
  MsQueue<std::pair<int, int>> q(domain);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto guard = domain.attach();
      for (int i = 0; i < kPerProducer; ++i) {
        guard.pin();
        q.enqueue(guard, {p, i});
        guard.unpin();
      }
    });
  }
  for (auto& th : producers) th.join();

  auto guard = domain.pin();
  std::vector<int> next_expected(kProducers, 0);
  while (auto v = q.dequeue(guard)) {
    const auto [p, i] = *v;
    EXPECT_EQ(i, next_expected[p]) << "per-producer order violated";
    next_expected[p] = i + 1;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

// --- across locales -----------------------------------------------------------

TEST(MsQueueDist, UncontendedEnqueueCostsThreeNicAtomicsDequeueFourUnderUgni) {
  Runtime runtime(testing::testConfig(2, CommMode::ugni));
  DistDomain domain = DistDomain::create();
  {
    MsQueue<std::uint64_t, DistDomain> q(domain);
    auto guard = domain.pin();
    comm::resetCounters();
    q.enqueue(guard, 7);
    EXPECT_EQ(comm::counters().nic_atomics, 3u)
        << "tail read, link CAS, tail CAS";
    comm::resetCounters();
    EXPECT_EQ(q.dequeue(guard), std::optional<std::uint64_t>(7));
    EXPECT_EQ(comm::counters().nic_atomics, 4u)
        << "head read, tail read, link read, head CAS";
  }
  domain.clear();
  domain.destroy();
}

template <typename Domain>
class MsQueueDistTest : public ::testing::Test {};
using QueueDomains = ::testing::Types<DistDomain, IntervalDomain>;
TYPED_TEST_SUITE(MsQueueDistTest, QueueDomains);

TYPED_TEST(MsQueueDistTest, FourLocaleMpmcConservation) {
  constexpr std::uint32_t kLocales = 4;
  constexpr std::uint64_t kPerLocale = 2000;
  for (const CommMode mode : {CommMode::none, CommMode::ugni}) {
    SCOPED_TRACE(toString(mode));
    Runtime runtime(testing::testConfig(kLocales, mode));
    TypeParam domain = TypeParam::create();
    {
      MsQueue<std::uint64_t, TypeParam> q(domain);
      std::atomic<std::uint64_t> sum{0};
      std::atomic<std::uint64_t> count{0};
      std::atomic<std::uint32_t> producers_done{0};
      auto* queue = &q;
      // One producer and one consumer task on every locale.
      coforallLocales([&, queue, domain] {
        coforallHere(2, [&, queue, domain](std::uint32_t role) {
          auto guard = domain.attach();
          if (role == 0) {
            for (std::uint64_t i = 0; i < kPerLocale; ++i) {
              guard.pin();
              queue->enqueue(guard, Runtime::here() * kPerLocale + i + 1);
              guard.unpin();
              if (i % 256 == 255) guard.tryReclaim();
            }
            producers_done.fetch_add(1);
            return;
          }
          for (std::uint64_t n = 1;; ++n) {
            // Read the flag before the dequeue: an empty queue after every
            // producer finished is final.
            const bool done = producers_done.load() == kLocales;
            guard.pin();
            const std::optional<std::uint64_t> v = queue->dequeue(guard);
            guard.unpin();
            if (v.has_value()) {
              sum.fetch_add(*v, std::memory_order_relaxed);
              count.fetch_add(1, std::memory_order_relaxed);
            } else if (done) {
              break;
            }
            if (n % 256 == 0) guard.tryReclaim();
          }
        });
      });
      const std::uint64_t total = kLocales * kPerLocale;
      EXPECT_EQ(count.load(), total);
      EXPECT_EQ(sum.load(), total * (total + 1) / 2);
      EXPECT_TRUE(q.emptyApprox());
    }
    domain.clear();
    const ReclaimStats stats = domain.stats();
    EXPECT_EQ(stats.deferred, kLocales * kPerLocale)
        << "every dequeue retires its old dummy";
    EXPECT_EQ(stats.pending(), 0u);
    domain.destroy();
  }
}

}  // namespace
}  // namespace pgasnb
