// Runtime lifecycle, locale-of-address, and the global-new helpers.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;
using testing::testConfig;

TEST(RuntimeLifecycle, ActiveOnlyWhileAlive) {
  EXPECT_FALSE(Runtime::active());
  {
    Runtime rt(testConfig(2));
    EXPECT_TRUE(Runtime::active());
    EXPECT_EQ(&Runtime::get(), &rt);
  }
  EXPECT_FALSE(Runtime::active());
}

TEST(RuntimeLifecycle, RepeatedStartStop) {
  for (int round = 0; round < 5; ++round) {
    Runtime rt(testConfig(3));
    EXPECT_EQ(rt.numLocales(), 3u);
  }
}

TEST(RuntimeLifecycle, MainThreadIsLocaleZero) {
  Runtime rt(testConfig(4));
  EXPECT_EQ(Runtime::here(), 0u);
}

TEST(RuntimeLifecycle, ConfigRoundTrips) {
  RuntimeConfig cfg = testConfig(5, CommMode::ugni, 3);
  Runtime rt(cfg);
  EXPECT_EQ(rt.config().num_locales, 5u);
  EXPECT_EQ(rt.commMode(), CommMode::ugni);
  EXPECT_EQ(rt.config().workers_per_locale, 3u);
}

TEST(RuntimeConfigTest, DescribeMentionsKeyFields) {
  RuntimeConfig cfg = testConfig(7, CommMode::ugni);
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("locales=7"), std::string::npos);
  EXPECT_NE(d.find("comm=ugni"), std::string::npos);
}

TEST(RuntimeConfigTest, FromEnvOverrides) {
  ::setenv("PGASNB_NUM_LOCALES", "9", 1);
  ::setenv("PGASNB_COMM_MODE", "ugni", 1);
  ::setenv("PGASNB_INJECT_DELAYS", "0", 1);
  const RuntimeConfig cfg = RuntimeConfig::fromEnv();
  EXPECT_EQ(cfg.num_locales, 9u);
  EXPECT_EQ(cfg.comm_mode, CommMode::ugni);
  EXPECT_FALSE(cfg.inject_delays);
  ::unsetenv("PGASNB_NUM_LOCALES");
  ::unsetenv("PGASNB_COMM_MODE");
  ::unsetenv("PGASNB_INJECT_DELAYS");
}

TEST(RuntimeConfigTest, CommModeParsing) {
  EXPECT_EQ(parseCommMode("ugni"), CommMode::ugni);
  EXPECT_EQ(parseCommMode("UGNI"), CommMode::ugni);
  EXPECT_EQ(parseCommMode("rdma"), CommMode::ugni);
  EXPECT_EQ(parseCommMode("none"), CommMode::none);
  EXPECT_EQ(parseCommMode("gibberish", CommMode::ugni), CommMode::ugni);
  EXPECT_STREQ(toString(CommMode::none), "none");
  EXPECT_STREQ(toString(CommMode::ugni), "ugni");
}

class RuntimeAddressTest : public RuntimeTest {};

TEST_F(RuntimeAddressTest, LocaleOfAddressMatchesAllocationTarget) {
  startRuntime(4);
  for (std::uint32_t l = 0; l < 4; ++l) {
    void* p = runtime_->allocateOn(l, 64);
    EXPECT_EQ(runtime_->localeOfAddress(p), l);
    EXPECT_TRUE(runtime_->inGlobalHeap(p));
    onLocale(l, [&] { Runtime::get().deallocateLocal(p, 64); });
  }
}

TEST_F(RuntimeAddressTest, NonHeapAddressesBelongToCurrentLocale) {
  startRuntime(4);
  int on_stack = 0;
  EXPECT_FALSE(runtime_->inGlobalHeap(&on_stack));
  EXPECT_EQ(runtime_->localeOfAddress(&on_stack), Runtime::here());
  onLocale(2, [&] {
    EXPECT_EQ(Runtime::get().localeOfAddress(&on_stack), 2u);
  });
}

TEST_F(RuntimeAddressTest, GnewConstructsOnTargetLocale) {
  startRuntime(3);
  struct Box {
    std::uint64_t value;
    explicit Box(std::uint64_t v) : value(v) {}
  };
  Box* b = gnewOn<Box>(2, 41u);
  EXPECT_EQ(b->value, 41u);
  EXPECT_EQ(localeOf(b), 2u);
  onLocale(2, [b] { gdelete(b); });
}

TEST_F(RuntimeAddressTest, RemoteDeleteRejected) {
  startRuntime(2);
  int* p = gnewOn<int>(1, 7);
  EXPECT_DEATH(gdelete(p), "owning locale");
  onLocale(1, [p] { gdelete(p); });
}

TEST_F(RuntimeAddressTest, LocaleTableBounds) {
  startRuntime(2);
  EXPECT_DEATH((void)runtime_->locale(2), "out of range");
}

TEST(RuntimeLifecycle, LocaleCountBeyondPointerCompressionRejected) {
  // Locale ids must fit the compressed-pointer locale field; a larger count
  // fails at construction, before the heap is reserved or threads start.
  EXPECT_DEATH({ Runtime rt(testConfig(70'000)); }, "pointer compression");
}

TEST(RuntimeLifecycle, SecondRuntimeRejected) {
  Runtime rt(testConfig(1));
  EXPECT_DEATH({ Runtime second(testConfig(1)); }, "already active");
}

}  // namespace
}  // namespace pgasnb
