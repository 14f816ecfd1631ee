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
    onLocale(l, [&] { Runtime::get().deallocateLocal(p, 64); });
  }
}

TEST_F(RuntimeAddressTest, NonHeapAddressesBelongToCurrentLocale) {
  startRuntime(4);
  int on_stack = 0;
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
