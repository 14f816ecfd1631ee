// AtomicObject: atomic class-instance operations across locales, with
// pointer compression, DCAS fallback, and ABA protection (paper II.A).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParamTest;
using testing::RuntimeTest;

struct Obj {
  std::uint64_t id = 0;
  Obj* next = nullptr;
};

class AtomicObjectModeTest : public RuntimeParamTest {};

TEST_P(AtomicObjectModeTest, ReadWriteAcrossLocales) {
  const std::uint32_t last = runtime_->numLocales() - 1;
  Obj* remote_obj = gnewOn<Obj>(last);
  remote_obj->id = 7;
  auto* box = gnewOn<AtomicObject<Obj>>(0);

  box->write(remote_obj);
  EXPECT_EQ(box->read(), remote_obj);
  const WidePtr<Obj> wide = box->readWide();
  EXPECT_EQ(wide.raw(), remote_obj);
  EXPECT_EQ(wide.locale, last) << "compression must preserve locality";
  EXPECT_EQ(wide->id, 7u);

  onLocale(0, [box] { gdelete(box); });
  onLocale(last, [remote_obj] { gdelete(remote_obj); });
}

TEST_P(AtomicObjectModeTest, CasAndExchangeFromEveryLocale) {
  auto* box = gnewOn<AtomicObject<Obj>>(0);
  // One object per locale; every locale CASes its own object in, so the
  // box always holds exactly one valid pointer.
  coforallLocales([box] {
    Obj* mine = gnew<Obj>();
    mine->id = Runtime::here();
    while (true) {
      Obj* seen = box->read();
      if (box->compareAndSwap(seen, mine)) break;
    }
  });
  const WidePtr<Obj> winner = box->readWide();
  ASSERT_FALSE(winner.isNil());
  EXPECT_EQ(winner->id, winner.locale)
      << "object id must match the locale that created it";
  // Exchange it out and verify the previous value comes back.
  Obj* prev = box->exchange(nullptr);
  EXPECT_EQ(prev, winner.raw());
  EXPECT_EQ(box->read(), nullptr);
  // Cleanup: every locale frees its own object (the non-winners are only
  // reachable from the locales that made them, so free there).
  // We leak-check via arena stats in other tests; here objects are owned
  // by their creating locales' arenas and freed at runtime teardown.
  SUCCEED();
}

TEST_P(AtomicObjectModeTest, AbaVariantAcrossLocales) {
  const std::uint32_t last = runtime_->numLocales() - 1;
  auto* box = gnewOn<AtomicObject<Obj, true>>(0);
  Obj* a = gnewOn<Obj>(last);
  Obj* b = gnewOn<Obj>(0);

  const ABA<Obj> nil_snap = box->readABA();
  EXPECT_TRUE(nil_snap.isNil());
  EXPECT_TRUE(box->compareAndSwapABA(nil_snap, a));
  const ABA<Obj> snap_a = box->readABA();
  EXPECT_EQ(snap_a.getObject(), a);

  // A -> B -> A recycling: the stale snapshot must not CAS.
  ASSERT_TRUE(box->compareAndSwap(a, b));
  ASSERT_TRUE(box->compareAndSwap(b, a));
  EXPECT_EQ(box->read(), a);
  EXPECT_FALSE(box->compareAndSwapABA(snap_a, b));

  // Fresh snapshot works.
  EXPECT_TRUE(box->compareAndSwapABA(box->readABA(), b));
  EXPECT_EQ(box->read(), b);

  onLocale(0, [box] { gdelete(box); });
  onLocale(last, [a] { gdelete(a); });
  onLocale(0, [b] { gdelete(b); });
}

TEST_P(AtomicObjectModeTest, DcasFallbackVariantWorks) {
  const std::uint32_t last = runtime_->numLocales() - 1;
  auto* box = gnewOn<AtomicObjectDcas<Obj>>(0);
  Obj* x = gnewOn<Obj>(last);
  box->write(x);
  EXPECT_EQ(box->read(), x);
  const WidePtr<Obj> wide = box->readWide();
  EXPECT_EQ(wide.locale, last);
  EXPECT_TRUE(box->compareAndSwap(x, nullptr));
  EXPECT_FALSE(box->compareAndSwap(x, nullptr));
  EXPECT_EQ(box->exchange(x), nullptr);
  onLocale(0, [box] { gdelete(box); });
  onLocale(last, [x] { gdelete(x); });
}

TEST_P(AtomicObjectModeTest, FailedCompareExchangeWritesBackTheWitness) {
  const std::uint32_t last = runtime_->numLocales() - 1;
  Obj* a = gnewOn<Obj>(last);
  Obj* b = gnewOn<Obj>(0);
  // A box here (local CAS) and one on the last locale (remote when there
  // is more than one).
  for (const std::uint32_t home : {0u, last}) {
    SCOPED_TRACE(home);
    auto* box = gnewOn<AtomicObject<Obj>>(home);
    box->write(a);
    Obj* expected = b;
    EXPECT_FALSE(box->compareExchange(expected, nullptr));
    EXPECT_EQ(expected, a) << "a lost CAS hands back the pointer it found";
    EXPECT_EQ(box->readWide().locale, last);
    EXPECT_TRUE(box->compareExchange(expected, b));
    EXPECT_EQ(expected, a) << "success leaves `expected` unchanged";
    EXPECT_EQ(box->read(), b);
    // A nil witness decompresses to nil.
    box->write(nullptr);
    EXPECT_FALSE(box->compareExchange(expected, a));
    EXPECT_EQ(expected, nullptr);
    EXPECT_TRUE(box->compareExchange(expected, a));
    EXPECT_EQ(box->read(), a);
    onLocale(home, [box] { gdelete(box); });
  }
  onLocale(last, [a] { gdelete(a); });
  onLocale(0, [b] { gdelete(b); });
}

TEST_P(AtomicObjectModeTest, FailedCompareExchangeAbaWritesBackPointerAndCount) {
  const std::uint32_t last = runtime_->numLocales() - 1;
  auto* box = gnewOn<AtomicObject<Obj, true>>(last);
  Obj* a = gnewOn<Obj>(last);
  Obj* b = gnewOn<Obj>(0);
  box->write(a);
  ABA<Obj> expected = box->readABA();
  ASSERT_TRUE(box->compareAndSwap(a, b));  // a -> b, count + 1
  EXPECT_FALSE(box->compareExchangeABA(expected, a));
  EXPECT_EQ(expected, box->readABA())
      << "a lost DCAS hands back both the pointer and the count it found";
  EXPECT_EQ(expected.getObject(), b);
  const ABA<Obj> witness = expected;
  EXPECT_TRUE(box->compareExchangeABA(expected, a));
  EXPECT_EQ(expected, witness);
  EXPECT_EQ(box->readABA(), ABA<Obj>(a, witness.getABACount() + 1));
  onLocale(last, [box] { gdelete(box); });
  onLocale(last, [a] { gdelete(a); });
  onLocale(0, [b] { gdelete(b); });
}

INSTANTIATE_TEST_SUITE_P(Sweep, AtomicObjectModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

class AtomicObjectTest : public RuntimeTest {};

TEST_F(AtomicObjectTest, CompressedOpsUseNicAtomicsUnderUgni) {
  startRuntime(2, CommMode::ugni);
  auto* box = gnewOn<AtomicObject<Obj>>(1);
  Obj* obj = gnew<Obj>();
  comm::resetCounters();
  box->write(obj);
  (void)box->read();
  const auto c = comm::counters();
  // Both operations ride the NIC: no active messages even though the box
  // lives on another locale -- pointer compression's whole payoff.
  EXPECT_EQ(c.nic_atomics, 2u);
  EXPECT_EQ(c.am_sync, 0u);
  onLocale(1, [box] { gdelete(box); });
  gdelete(obj);
}

TEST_F(AtomicObjectTest, FailedCompareExchangeIsOneNicAtomicUnderUgni) {
  startRuntime(2, CommMode::ugni);
  auto* box = gnewOn<AtomicObject<Obj>>(1);
  Obj* held = gnewOn<Obj>(1);
  Obj* mine = gnew<Obj>();
  box->write(held);
  comm::resetCounters();
  Obj* expected = nullptr;
  EXPECT_FALSE(box->compareExchange(expected, mine));
  EXPECT_EQ(comm::counters().nic_atomics, 1u)
      << "the witness rides back on the failed CAS itself";
  EXPECT_EQ(expected, held);
  EXPECT_TRUE(box->compareExchange(expected, mine));
  const auto c = comm::counters();
  EXPECT_EQ(c.nic_atomics, 2u) << "the retry needs no read";
  EXPECT_EQ(c.am_sync, 0u);
  onLocale(1, [box, held] {
    gdelete(box);
    gdelete(held);
  });
  gdelete(mine);
}

TEST_F(AtomicObjectTest, FailedCompareExchangeAbaIsOneRemoteDcas) {
  startRuntime(2, CommMode::ugni);
  auto* box = gnewOn<AtomicObject<Obj, true>>(1);
  Obj* held = gnewOn<Obj>(1);
  box->write(held);
  comm::resetCounters();
  ABA<Obj> expected;
  EXPECT_FALSE(box->compareExchangeABA(expected, nullptr));
  auto c = comm::counters();
  EXPECT_EQ(c.dcas_remote, 1u);
  EXPECT_EQ(c.am_sync, 1u) << "no read beside the failed DCAS";
  EXPECT_EQ(expected.getObject(), held);
  EXPECT_TRUE(box->compareExchangeABA(expected, nullptr));
  c = comm::counters();
  EXPECT_EQ(c.dcas_remote, 2u);
  EXPECT_EQ(c.am_sync, 2u);
  onLocale(1, [box, held] {
    gdelete(box);
    gdelete(held);
  });
}

TEST_F(AtomicObjectTest, AbaOpsDemoteToRemoteExecution) {
  startRuntime(2, CommMode::ugni);
  auto* box = gnewOn<AtomicObject<Obj, true>>(1);
  comm::resetCounters();
  (void)box->readABA();
  const auto c = comm::counters();
  EXPECT_EQ(c.nic_atomics, 0u);
  EXPECT_GE(c.am_sync, 1u) << "128-bit reads must use remote execution";
  onLocale(1, [box] { gdelete(box); });
}

TEST_F(AtomicObjectTest, ConcurrentDistributedCounterViaCasLoop) {
  startRuntime(4);
  struct Cell {
    std::uint64_t value = 0;
  };
  auto* box = gnewOn<AtomicObject<Cell>>(0);
  Cell* initial = gnewOn<Cell>(0);
  box->write(initial);

  // Functional update: CAS in a fresh cell with value+1; a lost cell is
  // simply garbage (freed at teardown via arenas).
  constexpr int kPerLocale = 50;
  coforallLocales([box] {
    for (int i = 0; i < kPerLocale; ++i) {
      while (true) {
        Cell* cur = box->read();
        Cell* next = gnew<Cell>();
        next->value = cur->value + 1;
        if (box->compareAndSwap(cur, next)) break;
        gdelete(next);  // our speculative cell; safe to free immediately
      }
    }
  });
  EXPECT_EQ(box->read()->value,
            static_cast<std::uint64_t>(kPerLocale) * runtime_->numLocales());
  onLocale(0, [box] { gdelete(box); });
}

TEST_F(AtomicObjectTest, NilRoundTrip) {
  startRuntime(2);
  auto* box = gnewOn<AtomicObject<Obj>>(1);
  EXPECT_EQ(box->read(), nullptr);
  EXPECT_TRUE(box->readWide().isNil());
  Obj* obj = gnew<Obj>();
  EXPECT_TRUE(box->compareAndSwap(nullptr, obj));
  EXPECT_EQ(box->exchange(nullptr), obj);
  EXPECT_EQ(box->read(), nullptr);
  onLocale(1, [box] { gdelete(box); });
  gdelete(obj);
}

TEST_F(AtomicObjectTest, StackAllocatedBoxBelongsToHere) {
  startRuntime(2);
  // AtomicObject works outside the partitioned heap too; ownership then
  // defaults to the current locale.
  AtomicObject<Obj> box;
  Obj* obj = gnew<Obj>();
  box.write(obj);
  EXPECT_EQ(box.readWide().locale, 0u);
  gdelete(obj);
}

}  // namespace
}  // namespace pgasnb
