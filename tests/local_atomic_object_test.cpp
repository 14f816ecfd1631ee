// LocalAtomicObject: atomic class-instance operations in shared memory
// (paper Sec. II.A), including the ABA-protection semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "atomic/local_atomic_object.hpp"

namespace pgasnb {
namespace {

struct Obj {
  int id = 0;
  Obj* next = nullptr;
};

TEST(LocalAtomicObject, StartsNil) {
  LocalAtomicObject<Obj> a;
  EXPECT_EQ(a.read(), nullptr);
}

TEST(LocalAtomicObject, WriteThenRead) {
  Obj x{1};
  LocalAtomicObject<Obj> a;
  a.write(&x);
  EXPECT_EQ(a.read(), &x);
}

TEST(LocalAtomicObject, ExchangeReturnsPrevious) {
  Obj x{1}, y{2};
  LocalAtomicObject<Obj> a(&x);
  EXPECT_EQ(a.exchange(&y), &x);
  EXPECT_EQ(a.read(), &y);
}

TEST(LocalAtomicObject, CasSucceedsOnMatch) {
  Obj x{1}, y{2};
  LocalAtomicObject<Obj> a(&x);
  EXPECT_TRUE(a.compareAndSwap(&x, &y));
  EXPECT_EQ(a.read(), &y);
}

TEST(LocalAtomicObject, CasFailsOnMismatch) {
  Obj x{1}, y{2}, z{3};
  LocalAtomicObject<Obj> a(&x);
  EXPECT_FALSE(a.compareAndSwap(&y, &z));
  EXPECT_EQ(a.read(), &x);
}

TEST(LocalAtomicObject, NilCasWorks) {
  Obj x{1};
  LocalAtomicObject<Obj> a;
  EXPECT_TRUE(a.compareAndSwap(nullptr, &x));
  EXPECT_FALSE(a.compareAndSwap(nullptr, &x));
}

TEST(LocalAtomicObject, FailedCompareExchangeWritesBackTheWitness) {
  Obj x{1}, y{2}, z{3};
  LocalAtomicObject<Obj> a(&x);
  Obj* expected = &y;
  EXPECT_FALSE(a.compareExchange(expected, &z));
  EXPECT_EQ(expected, &x) << "a lost CAS hands back the value it found";
  EXPECT_EQ(a.read(), &x);
  // Retrying with the witness succeeds and leaves `expected` as it was.
  EXPECT_TRUE(a.compareExchange(expected, &z));
  EXPECT_EQ(expected, &x);
  EXPECT_EQ(a.read(), &z);
  // A nil witness comes back as nil.
  a.write(nullptr);
  EXPECT_FALSE(a.compareExchange(expected, &y));
  EXPECT_EQ(expected, nullptr);
  EXPECT_TRUE(a.compareExchange(expected, &y));
}

// --- ABA-protected variant ------------------------------------------------

TEST(LocalAtomicObjectAba, ReadAbaExposesCount) {
  Obj x{1};
  LocalAtomicObject<Obj, true> a(&x);
  const ABA<Obj> r = a.readABA();
  EXPECT_EQ(r.getObject(), &x);
  EXPECT_EQ(r.getABACount(), 0u);
}

TEST(LocalAtomicObjectAba, WriteBumpsCount) {
  Obj x{1}, y{2};
  LocalAtomicObject<Obj, true> a(&x);
  a.write(&y);
  EXPECT_EQ(a.readABA().getABACount(), 1u);
  a.write(&x);
  EXPECT_EQ(a.readABA().getABACount(), 2u);
}

TEST(LocalAtomicObjectAba, CasAbaSucceedsWithFreshSnapshot) {
  Obj x{1}, y{2};
  LocalAtomicObject<Obj, true> a(&x);
  const ABA<Obj> snap = a.readABA();
  EXPECT_TRUE(a.compareAndSwapABA(snap, &y));
  EXPECT_EQ(a.read(), &y);
  EXPECT_EQ(a.readABA().getABACount(), snap.getABACount() + 1);
}

TEST(LocalAtomicObjectAba, CasAbaDefeatsAbaProblem) {
  // The scenario from the paper: t1 snapshots A; meanwhile the value goes
  // A -> B -> A. A plain CAS would succeed; the ABA variant must fail.
  Obj a_obj{1}, b_obj{2};
  LocalAtomicObject<Obj, true> head(&a_obj);
  const ABA<Obj> t1_snapshot = head.readABA();

  ASSERT_TRUE(head.compareAndSwap(&a_obj, &b_obj));  // A -> B
  ASSERT_TRUE(head.compareAndSwap(&b_obj, &a_obj));  // B -> A (recycled!)
  ASSERT_EQ(head.read(), &a_obj);                    // same address again

  EXPECT_FALSE(head.compareAndSwapABA(t1_snapshot, &b_obj))
      << "ABA CAS must fail: the count advanced even though the address "
         "matches";
}

TEST(LocalAtomicObjectAba, FailedCompareExchangeAbaWritesBackPointerAndCount) {
  Obj x{1}, y{2}, z{3};
  LocalAtomicObject<Obj, true> a(&x);
  ABA<Obj> expected = a.readABA();
  ASSERT_TRUE(a.compareAndSwap(&x, &y));  // x -> y, count + 1
  EXPECT_FALSE(a.compareExchangeABA(expected, &z));
  EXPECT_EQ(expected, a.readABA())
      << "a lost DCAS hands back both the address and the count it found";
  EXPECT_EQ(expected.getObject(), &y);
  const ABA<Obj> witness = expected;
  EXPECT_TRUE(a.compareExchangeABA(expected, &z));
  EXPECT_EQ(expected, witness) << "success leaves `expected` unchanged";
  EXPECT_EQ(a.read(), &z);
  EXPECT_EQ(a.readABA().getABACount(), witness.getABACount() + 1);
}

TEST(LocalAtomicObjectAba, PlainCasWouldSufferAba) {
  // Companion to the above: the *unprotected* variant cannot tell.
  Obj a_obj{1}, b_obj{2};
  LocalAtomicObject<Obj> head(&a_obj);
  Obj* t1_snapshot = head.read();
  ASSERT_TRUE(head.compareAndSwap(&a_obj, &b_obj));
  ASSERT_TRUE(head.compareAndSwap(&b_obj, &a_obj));
  EXPECT_TRUE(head.compareAndSwap(t1_snapshot, &b_obj))
      << "plain CAS is expected to (wrongly) succeed -- that is the bug "
         "ABA protection exists to fix";
}

TEST(LocalAtomicObjectAba, MixedApiStillBumpsCount) {
  // The paper allows ABA and non-ABA calls to interleave; non-ABA writes
  // must still advance the generation or protection would be broken.
  Obj x{1}, y{2};
  LocalAtomicObject<Obj, true> a(&x);
  const ABA<Obj> snap = a.readABA();
  a.exchange(&y);  // non-ABA mutation
  a.exchange(&x);  // back to the same address
  EXPECT_FALSE(a.compareAndSwapABA(snap, &y));
}

TEST(LocalAtomicObjectAba, ExchangeAbaReturnsPrevious) {
  Obj x{1}, y{2};
  LocalAtomicObject<Obj, true> a(&x);
  const ABA<Obj> prev = a.exchangeABA(&y);
  EXPECT_EQ(prev.getObject(), &x);
  EXPECT_EQ(a.read(), &y);
}

TEST(LocalAtomicObjectAba, ForwardingOperatorArrow) {
  Obj x{42};
  LocalAtomicObject<Obj, true> a(&x);
  const ABA<Obj> r = a.readABA();
  EXPECT_EQ(r->id, 42);  // Chapel `forwarding`-style access
  EXPECT_EQ((*r).id, 42);
}

TEST(LocalAtomicObjectAba, AbaEquality) {
  Obj x{1};
  const ABA<Obj> a(&x, 3), b(&x, 3), c(&x, 4), d(nullptr, 3);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_TRUE(d.isNil());
  EXPECT_FALSE(static_cast<bool>(d));
}

TEST(LocalAtomicObjectAba, ConcurrentTreiberPushPopConservation) {
  // A miniature Treiber stack exactly as in paper Listing 1; with ABA
  // protection, concurrent push/pop must conserve nodes.
  struct Node {
    int value = 0;
    Node* next = nullptr;
  };
  LocalAtomicObject<Node, true> head;
  constexpr int kPerThread = 2000;
  constexpr int kThreads = 4;

  std::vector<std::vector<Node>> node_storage(kThreads);
  for (auto& v : node_storage) v.resize(kPerThread);
  std::atomic<long> popped_sum{0};
  std::atomic<int> popped_count{0};

  auto push = [&head](Node* n) {
    while (true) {
      ABA<Node> old_head = head.readABA();
      n->next = old_head.getObject();
      if (head.compareAndSwapABA(old_head, n)) return;
    }
  };
  auto pop = [&head]() -> Node* {
    while (true) {
      ABA<Node> old_head = head.readABA();
      if (old_head.isNil()) return nullptr;
      Node* next = old_head->next;
      if (head.compareAndSwapABA(old_head, next)) return old_head.getObject();
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Node* n = &node_storage[t][i];
        n->value = t * kPerThread + i;
        push(n);
        if (i % 2 == 1) {
          Node* popped = pop();
          if (popped != nullptr) {
            popped_sum.fetch_add(popped->value);
            popped_count.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Drain what remains.
  int remaining = 0;
  long remaining_sum = 0;
  while (Node* n = pop()) {
    ++remaining;
    remaining_sum += n->value;
  }
  EXPECT_EQ(remaining + popped_count.load(), kThreads * kPerThread);
  const long total = static_cast<long>(kThreads) * kPerThread;
  const long expect_sum = total * (total - 1) / 2;
  EXPECT_EQ(remaining_sum + popped_sum.load(), expect_sum);
}

}  // namespace
}  // namespace pgasnb
