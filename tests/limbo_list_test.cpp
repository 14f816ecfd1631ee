// Wait-free limbo list (paper Listing 2): push/popAll semantics, the
// in-flight-push hardening, and node pooling.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <memory>
#include <thread>
#include <vector>

#include "epoch/limbo_list.hpp"

namespace pgasnb {
namespace {

struct HeapAlloc {
  static LimboNode* alloc() { return new LimboNode; }
  static void free(LimboNode* n) { delete n; }
};

void noopDeleter(void*) {}

TEST(LimboList, StartsEmpty) {
  LimboList list;
  EXPECT_TRUE(list.emptyApprox());
  EXPECT_EQ(list.popAll(), nullptr);
}

TEST(LimboList, PushPopSingle) {
  LimboList list;
  LimboNode node;
  int payload = 5;
  node.obj = &payload;
  node.deleter = &noopDeleter;
  list.push(&node);
  EXPECT_FALSE(list.emptyApprox());
  LimboNode* chain = list.popAll();
  ASSERT_EQ(chain, &node);
  EXPECT_EQ(LimboList::next(chain), nullptr);
  EXPECT_TRUE(list.emptyApprox());
}

TEST(LimboList, PopReturnsLifoChain) {
  LimboList list;
  LimboNode nodes[4];
  for (auto& n : nodes) list.push(&n);
  LimboNode* chain = list.popAll();
  // LIFO: last pushed is the head.
  for (int expect = 3; expect >= 0; --expect) {
    ASSERT_EQ(chain, &nodes[expect]);
    chain = LimboList::next(chain);
  }
  EXPECT_EQ(chain, nullptr);
}

TEST(LimboList, PushChainSplicesInOneExchange) {
  LimboList list;
  // A privately pre-linked chain a -> b -> c plus an earlier single push.
  LimboNode older, a, b, c;
  list.push(&older);
  a.next.store(&b, std::memory_order_relaxed);
  b.next.store(&c, std::memory_order_relaxed);
  list.pushChain(&a, &c);

  LimboNode* chain = list.popAll();
  ASSERT_EQ(chain, &a) << "chain head becomes the list head";
  EXPECT_EQ(LimboList::next(chain), &b);
  EXPECT_EQ(LimboList::next(&b), &c);
  EXPECT_EQ(LimboList::next(&c), &older) << "chain tail links the old head";
  EXPECT_EQ(LimboList::next(&older), nullptr);
  EXPECT_TRUE(list.emptyApprox());
}

TEST(LimboList, PushChainIntoEmptyList) {
  LimboList list;
  LimboNode a, b;
  a.next.store(&b, std::memory_order_relaxed);
  list.pushChain(&a, &b);
  LimboNode* chain = list.popAll();
  ASSERT_EQ(chain, &a);
  EXPECT_EQ(LimboList::next(&a), &b);
  EXPECT_EQ(LimboList::next(&b), nullptr);
}

TEST(LimboList, PopAllLeavesListReusable) {
  LimboList list;
  LimboNode a, b;
  list.push(&a);
  (void)list.popAll();
  list.push(&b);
  LimboNode* chain = list.popAll();
  EXPECT_EQ(chain, &b);
  EXPECT_EQ(LimboList::next(chain), nullptr);
}

TEST(LimboList, ConcurrentPushesLoseNothing) {
  LimboList list;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::unique_ptr<LimboNode[]>> storage;
  for (int t = 0; t < kThreads; ++t) {
    storage.push_back(std::make_unique<LimboNode[]>(kPerThread));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&list, &storage, t] {
      for (int i = 0; i < kPerThread; ++i) list.push(&storage[t][i]);
    });
  }
  for (auto& th : threads) th.join();

  std::set<LimboNode*> seen;
  for (LimboNode* n = list.popAll(); n != nullptr; n = LimboList::next(n)) {
    EXPECT_TRUE(seen.insert(n).second) << "node appeared twice";
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(LimboList, ConcurrentPushAndPopAllConserveNodes) {
  // Hammer the hardened walker: pushes race popAll, and the sentinel
  // handshake must ensure every node lands in exactly one pop result.
  LimboList list;
  constexpr int kPushers = 3;
  constexpr int kPerThread = 20000;
  std::vector<std::unique_ptr<LimboNode[]>> storage;
  for (int t = 0; t < kPushers; ++t) {
    storage.push_back(std::make_unique<LimboNode[]>(kPerThread));
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> popped{0};

  std::thread popper([&] {
    std::uint64_t count = 0;
    while (!done.load(std::memory_order_acquire)) {
      for (LimboNode* n = list.popAll(); n != nullptr;
           n = LimboList::next(n)) {
        ++count;
      }
    }
    // Final drain after pushers stop.
    for (LimboNode* n = list.popAll(); n != nullptr; n = LimboList::next(n)) {
      ++count;
    }
    popped.store(count);
  });

  std::vector<std::thread> pushers;
  for (int t = 0; t < kPushers; ++t) {
    pushers.emplace_back([&list, &storage, t] {
      for (int i = 0; i < kPerThread; ++i) list.push(&storage[t][i]);
    });
  }
  for (auto& th : pushers) th.join();
  done.store(true, std::memory_order_release);
  popper.join();

  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kPushers) * kPerThread);
}

// --- node pool -------------------------------------------------------------

TEST(LimboNodePool, AcquireSetsPayload) {
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  LimboNode* n = pool.acquire(&x, &noopDeleter);
  EXPECT_EQ(n->obj, &x);
  EXPECT_EQ(n->deleter, &noopDeleter);
  EXPECT_EQ(pool.outstanding(), 1u);
  pool.release(n);
}

TEST(LimboNodePool, RecyclesReleasedNodes) {
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  LimboNode* a = pool.acquire(&x, &noopDeleter);
  pool.release(a);
  LimboNode* b = pool.acquire(&x, &noopDeleter);
  EXPECT_EQ(a, b) << "pool should reuse the released node";
  EXPECT_EQ(pool.outstanding(), 1u) << "no fresh allocation for the reuse";
  pool.release(b);
}

TEST(LimboNodePool, ReleaseClearsPayload) {
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  LimboNode* n = pool.acquire(&x, &noopDeleter);
  pool.release(n);
  EXPECT_EQ(n->obj, nullptr);
  EXPECT_EQ(n->deleter, nullptr);
}

TEST(LimboNodePool, ConcurrentAcquireReleaseStress) {
  LimboNodePool<HeapAlloc> pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      int x = 0;
      for (int i = 0; i < kIters; ++i) {
        LimboNode* n = pool.acquire(&x, &noopDeleter);
        pool.release(n);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Steady state: at most one live node per thread at any instant.
  EXPECT_LE(pool.outstanding(), static_cast<std::uint64_t>(kThreads));
}

/// The nodes of an acquireChain result, in `next` order.
std::vector<LimboNode*> chainNodes(LimboNode* first) {
  std::vector<LimboNode*> nodes;
  for (LimboNode* n = first; n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    nodes.push_back(n);
  }
  return nodes;
}

template <typename Pool>
void releaseChain(Pool& pool, LimboNode* first) {
  for (LimboNode* n : chainNodes(first)) pool.release(n);
}

TEST(LimboNodePool, AcquireChainReturnsNDistinctClearedNodes) {
  LimboNodePool<HeapAlloc> pool;
  const std::vector<LimboNode*> nodes = chainNodes(pool.acquireChain(5));
  ASSERT_EQ(nodes.size(), 5u) << "n nodes, the last one's next null";
  EXPECT_EQ(std::set<LimboNode*>(nodes.begin(), nodes.end()).size(), 5u);
  for (LimboNode* n : nodes) {
    EXPECT_EQ(n->obj, nullptr);
    EXPECT_EQ(n->deleter, nullptr);
  }
  EXPECT_EQ(pool.outstanding(), 5u) << "an empty pool allocates all n";
  releaseChain(pool, nodes.front());
}

TEST(LimboNodePool, AcquireChainReusesPooledNodesBeforeFreshOnes) {
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  LimboNode* a = pool.acquire(&x, &noopDeleter);
  a->birth = 7;
  a->retire_era = 9;
  LimboNode* b = pool.acquire(&x, &noopDeleter);
  LimboNode* c = pool.acquire(&x, &noopDeleter);
  pool.release(a);
  pool.release(b);
  pool.release(c);  // free stack: c, b, a

  // A short chain takes the top of the stack and leaves the rest pooled.
  std::vector<LimboNode*> two = chainNodes(pool.acquireChain(2));
  EXPECT_EQ(two, (std::vector<LimboNode*>{c, b}));
  EXPECT_EQ(pool.outstanding(), 3u);
  LimboNode* single = pool.acquire(&x, &noopDeleter);
  EXPECT_EQ(single, a) << "the node the chain left behind";
  pool.release(single);
  releaseChain(pool, two.front());  // free stack: b, c, a

  // A long chain drains the pool first, then tops up with fresh nodes.
  const std::vector<LimboNode*> five = chainNodes(pool.acquireChain(5));
  ASSERT_EQ(five.size(), 5u);
  EXPECT_EQ(std::vector<LimboNode*>(five.begin(), five.begin() + 3),
            (std::vector<LimboNode*>{b, c, a}));
  EXPECT_EQ(std::set<LimboNode*>(five.begin(), five.end()).size(), 5u);
  EXPECT_EQ(pool.outstanding(), 5u) << "exactly two fresh nodes";
  EXPECT_EQ(five[2]->birth, 0u) << "a reused node's era tags are cleared";
  EXPECT_EQ(five[2]->retire_era, 0u);
  releaseChain(pool, five.front());

  // Everything is pooled again: a chain of all of it allocates nothing.
  LimboNode* all = pool.acquireChain(5);
  EXPECT_EQ(pool.outstanding(), 5u);
  releaseChain(pool, all);
}

TEST(LimboNodePool, ConcurrentAcquireChainReleaseStress) {
  // Multi-pops of up to 64 nodes race single pops and releases: no node is
  // handed to two threads at once, and outstanding() stays exact.
  LimboNodePool<HeapAlloc> pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  constexpr std::size_t kMaxChain = 64;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &bad, t] {
      int mine = t;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t n = 1 + (static_cast<std::size_t>(i) * 7 + t) %
                                      kMaxChain;
        const std::vector<LimboNode*> nodes = chainNodes(pool.acquireChain(n));
        LimboNode* single = pool.acquire(&mine, &noopDeleter);
        if (nodes.size() != n) bad.fetch_add(1);
        for (LimboNode* node : nodes) node->obj = &mine;
        for (LimboNode* node : nodes) {
          if (node->obj != &mine || node == single) bad.fetch_add(1);
        }
        pool.release(single);
        for (LimboNode* node : nodes) pool.release(node);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0) << "a node was handed out twice";
  // Each thread holds at most one chain plus one single node at a time.
  const std::uint64_t outstanding = pool.outstanding();
  EXPECT_LE(outstanding, kThreads * (kMaxChain + 1));
  // Every node is back on the free stack: taking them all allocates none.
  LimboNode* all = pool.acquireChain(outstanding);
  EXPECT_EQ(chainNodes(all).size(), outstanding);
  EXPECT_EQ(pool.outstanding(), outstanding);
  releaseChain(pool, all);
}

TEST(LimboNodePool, ReleaseChainReturnsTheWholeChain) {
  // A reclaim walk hands its chain back with one CAS; the next acquireChain
  // takes the same nodes, in the same order, with payloads cleared.
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  const std::vector<LimboNode*> nodes = chainNodes(pool.acquireChain(5));
  for (LimboNode* n : nodes) {
    n->obj = &x;
    n->deleter = &noopDeleter;
  }
  pool.releaseChain(nodes.front(), nodes.back());
  for (LimboNode* n : nodes) {
    EXPECT_EQ(n->obj, nullptr);
    EXPECT_EQ(n->deleter, nullptr);
  }
  EXPECT_EQ(chainNodes(pool.acquireChain(5)), nodes);
  EXPECT_EQ(pool.outstanding(), 5u) << "nothing fresh for the reuse";
  pool.releaseChain(nodes.front(), nodes.back());
}

TEST(LimboNodePool, ReleaseChainStacksOnPooledNodes) {
  LimboNodePool<HeapAlloc> pool;
  int x = 0;
  LimboNode* single = pool.acquire(&x, &noopDeleter);
  pool.release(single);  // free stack: single
  const std::vector<LimboNode*> three = chainNodes(pool.acquireChain(3));
  ASSERT_EQ(three.front(), single);
  pool.releaseChain(three.front(), three[1]);  // two back; three[2] kept
  LimboNode* kept = three[2];
  const std::vector<LimboNode*> back = chainNodes(pool.acquireChain(2));
  EXPECT_EQ(back, (std::vector<LimboNode*>{three[0], three[1]}));
  EXPECT_EQ(pool.outstanding(), 3u);
  pool.release(kept);
  pool.releaseChain(back.front(), back.back());
}

TEST(LimboNodePool, ConcurrentReleaseChainAcquireChainStress) {
  // Chains of up to 64 nodes go back in one CAS while other threads pop
  // chains and single nodes: no node is handed to two threads at once, and
  // every node ends up pooled.
  LimboNodePool<HeapAlloc> pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  constexpr std::size_t kMaxChain = 64;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &bad, t] {
      int mine = t;
      for (int i = 0; i < kIters; ++i) {
        const std::size_t n = 1 + (static_cast<std::size_t>(i) * 13 + t) %
                                      kMaxChain;
        const std::vector<LimboNode*> nodes = chainNodes(pool.acquireChain(n));
        LimboNode* single = pool.acquire(&mine, &noopDeleter);
        if (nodes.size() != n) bad.fetch_add(1);
        for (LimboNode* node : nodes) node->obj = &mine;
        for (LimboNode* node : nodes) {
          if (node->obj != &mine || node == single) bad.fetch_add(1);
        }
        pool.releaseChain(nodes.front(), nodes.back());
        pool.release(single);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0) << "a node was handed out twice";
  const std::uint64_t outstanding = pool.outstanding();
  EXPECT_LE(outstanding, kThreads * (kMaxChain + 1));
  LimboNode* all = pool.acquireChain(outstanding);
  EXPECT_EQ(chainNodes(all).size(), outstanding);
  EXPECT_EQ(pool.outstanding(), outstanding) << "every node was pooled";
  releaseChain(pool, all);
}

}  // namespace
}  // namespace pgasnb
