// Communication layer: remote atomics in both comm modes, AMs, PUT/GET,
// DCAS routing, and the instrumentation counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParam;
using testing::RuntimeParamTest;
using testing::RuntimeTest;

class CommModeTest : public RuntimeParamTest {};

TEST_P(CommModeTest, AtomicOpsOnRemoteWord) {
  const std::uint32_t target = runtime_->numLocales() - 1;
  DistAtomicU64* a = gnewOn<DistAtomicU64>(target, 10u);

  EXPECT_EQ(a->read(), 10u);
  a->write(20);
  EXPECT_EQ(a->read(), 20u);
  EXPECT_EQ(a->exchange(30), 20u);
  EXPECT_EQ(a->fetchAdd(5), 30u);
  EXPECT_EQ(a->read(), 35u);

  std::uint64_t expected = 35;
  EXPECT_TRUE(a->compareAndSwap(expected, 40));
  expected = 99;
  EXPECT_FALSE(a->compareAndSwap(expected, 50));
  EXPECT_EQ(expected, 40u);  // observed value reported back

  onLocale(target, [a] { gdelete(a); });
}

TEST_P(CommModeTest, TestAndSetSemantics) {
  DistAtomicU64* flag = gnewOn<DistAtomicU64>(0, 0u);
  EXPECT_FALSE(flag->testAndSet());  // was clear
  EXPECT_TRUE(flag->testAndSet());   // already set
  flag->clear();
  EXPECT_FALSE(flag->testAndSet());
  onLocale(0, [flag] { gdelete(flag); });
}

TEST_P(CommModeTest, FetchAddFromAllLocalesIsExact) {
  DistAtomicU64* counter = gnewOn<DistAtomicU64>(0, 0u);
  constexpr int kPerLocale = 500;
  coforallLocales([counter] {
    for (int i = 0; i < kPerLocale; ++i) counter->fetchAdd(1);
  });
  EXPECT_EQ(counter->read(),
            static_cast<std::uint64_t>(kPerLocale) * runtime_->numLocales());
  onLocale(0, [counter] { gdelete(counter); });
}

TEST_P(CommModeTest, DcasOnRemoteWord) {
  const std::uint32_t target = runtime_->numLocales() - 1;
  U128* word = gnewOn<U128>(target);
  comm::dwrite(*word, U128{1, 2});
  U128 expected{1, 2};
  EXPECT_TRUE(comm::dcas(*word, expected, U128{3, 4}));
  const U128 now = comm::dread(*word);
  EXPECT_EQ(now.lo, 3u);
  EXPECT_EQ(now.hi, 4u);
  expected = U128{9, 9};
  EXPECT_FALSE(comm::dcas(*word, expected, U128{5, 5}));
  EXPECT_EQ(expected.lo, 3u);  // observed
  const U128 prev = comm::dexchange(*word, U128{7, 8});
  EXPECT_EQ(prev.lo, 3u);
  onLocale(target, [word] { gdelete(word); });
}

INSTANTIATE_TEST_SUITE_P(Sweep, CommModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

class CommTest : public RuntimeTest {};

TEST_F(CommTest, UgniChargesNicEvenForLocalAtomics) {
  startRuntime(2, CommMode::ugni);
  comm::resetCounters();
  DistAtomicU64* local = gnewOn<DistAtomicU64>(0, 0u);
  local->fetchAdd(1);  // target is local, but ugni atomics go via the NIC
  const auto c = comm::counters();
  EXPECT_EQ(c.nic_atomics, 1u);
  EXPECT_EQ(c.cpu_atomics, 0u);
  EXPECT_EQ(c.am_sync, 0u);
  onLocale(0, [local] { gdelete(local); });
}

TEST_F(CommTest, NoneModeUsesCpuAtomicsLocallyAndAmsRemotely) {
  startRuntime(2, CommMode::none);
  comm::resetCounters();
  DistAtomicU64* local = gnewOn<DistAtomicU64>(0, 0u);
  DistAtomicU64* remote = gnewOn<DistAtomicU64>(1, 0u);
  local->fetchAdd(1);
  remote->fetchAdd(1);
  const auto c = comm::counters();
  EXPECT_EQ(c.nic_atomics, 0u);
  EXPECT_GE(c.cpu_atomics, 1u);
  EXPECT_EQ(c.am_sync, 1u);
  onLocale(0, [local] { gdelete(local); });
  onLocale(1, [remote] { gdelete(remote); });
}

TEST_F(CommTest, DcasRemoteAlwaysUsesRemoteExecution) {
  // 16-byte atomics never ride the NIC, in either mode (paper II.A).
  for (const CommMode mode : {CommMode::none, CommMode::ugni}) {
    startRuntime(2, mode);
    comm::resetCounters();
    U128* word = gnewOn<U128>(1);
    U128 expected = comm::dread(*word);
    comm::dcas(*word, expected, U128{1, 1});
    const auto c = comm::counters();
    EXPECT_EQ(c.dcas_remote, 1u) << toString(mode);
    EXPECT_GE(c.am_sync, 1u) << toString(mode);
    onLocale(1, [word] { gdelete(word); });
    TearDown();
  }
}

TEST_F(CommTest, GetMovesBytes) {
  startRuntime(2);
  auto* remote_buf = static_cast<char*>(runtime_->allocateOn(1, 256));
  char local_src[256];
  char local_dst[256];
  for (int i = 0; i < 256; ++i) local_src[i] = static_cast<char>(i);

  onLocale(1, [&] { std::memcpy(remote_buf, local_src, 256); });
  std::memset(local_dst, 0, sizeof(local_dst));
  sim::setNow(0);
  comm::get(local_dst, 1, remote_buf, 256);
  EXPECT_EQ(std::memcmp(local_src, local_dst, 256), 0);
  EXPECT_EQ(sim::now(), runtime_->config().latency.bulkCost(256))
      << "a remote GET charges its bulk cost";

  const auto c = comm::counters();
  EXPECT_GE(c.gets, 1u);
  onLocale(1, [&] { Runtime::get().deallocateLocal(remote_buf, 256); });
}

TEST_F(CommTest, AmSyncRunsOnTargetProgressThread) {
  startRuntime(3);
  std::uint32_t observed = ~0u;
  comm::amSync(2, [&observed] { observed = Runtime::here(); });
  EXPECT_EQ(observed, 2u);
}

TEST_F(CommTest, AmSyncLocalRunsInline) {
  startRuntime(2);
  comm::resetCounters();
  bool ran = false;
  comm::amSync(0, [&ran] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(comm::counters().am_sync, 0u);  // local: no message shipped
}

TEST_F(CommTest, DroppedAmHandleStillRuns) {
  startRuntime(2);
  std::atomic<bool> ran{false};
  (void)comm::amProgressHandle(
      1, [&ran] { ran.store(true, std::memory_order_release); });
  spinUntil([&ran] { return ran.load(std::memory_order_acquire); });
  EXPECT_TRUE(ran.load());
}

TEST_F(CommTest, AmsToSameLocaleAreFifo) {
  startRuntime(2);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    (void)comm::amProgressHandle(1, [&order, i] { order.push_back(i); });
  }
  comm::amSync(1, [] {});  // fence: sync AM drains behind the async ones
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(CommTest, ProgressThreadServicesConcurrentSenders) {
  startRuntime(4, CommMode::none, 2);
  std::atomic<std::uint64_t> sum{0};
  coforallLocales([&sum] {
    for (int i = 0; i < 100; ++i) {
      comm::amSync(0, [&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  EXPECT_EQ(sum.load(), 400u);
}

TEST_F(CommTest, CountersResetWorks) {
  startRuntime(2);
  DistAtomicU64* a = gnewOn<DistAtomicU64>(1, 0u);
  a->read();
  EXPECT_GT(comm::counters().am_sync, 0u);
  comm::resetCounters();
  const auto c = comm::counters();
  EXPECT_EQ(c.am_sync, 0u);
  EXPECT_EQ(c.nic_atomics + c.cpu_atomics + c.gets, 0u);
  onLocale(1, [a] { gdelete(a); });
}

}  // namespace
}  // namespace pgasnb
