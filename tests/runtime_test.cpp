// Runtime lifecycle, locale-of-address, and the global-new helpers.
#include <gtest/gtest.h>

#include <cstdlib>

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

// Every variable fromEnv() reads, the value the test sets, and the field it
// must land in (read as a double so one table covers every field type).
struct EnvKnob {
  const char* var;
  const char* value;
  double (*field)(const RuntimeConfig&);
  double expected;
};

const EnvKnob kEnvKnobs[] = {
    {"PGASNB_NUM_LOCALES", "9",
     [](const RuntimeConfig& c) -> double { return c.num_locales; }, 9},
    {"PGASNB_WORKERS", "3",
     [](const RuntimeConfig& c) -> double { return c.workers_per_locale; }, 3},
    {"PGASNB_COMM_MODE", "ugni",
     [](const RuntimeConfig& c) -> double {
       return static_cast<double>(c.comm_mode);
     },
     static_cast<double>(CommMode::ugni)},
    {"PGASNB_INJECT_DELAYS", "0",
     [](const RuntimeConfig& c) -> double { return c.inject_delays; }, 0},
    {"PGASNB_DELAY_SCALE", "0.25",
     [](const RuntimeConfig& c) -> double { return c.latency.delay_scale; },
     0.25},
    {"PGASNB_INTERVAL_ERA_FREQ", "7",
     [](const RuntimeConfig& c) -> double { return c.interval_era_freq; }, 7},
    {"PGASNB_RETIRE_BATCH", "5",
     [](const RuntimeConfig& c) -> double { return c.retire_batch_size; }, 5},
    {"PGASNB_AGG_OPS_PER_BATCH", "11",
     [](const RuntimeConfig& c) -> double {
       return c.aggregator_ops_per_batch;
     },
     11},
    {"PGASNB_AGG_MAX_BATCH_AGE", "12345",
     [](const RuntimeConfig& c) -> double {
       return static_cast<double>(c.aggregator_max_batch_age_ns);
     },
     12345},
    {"PGASNB_RH_RESIZE_LOAD", "0.5",
     [](const RuntimeConfig& c) -> double { return c.rh_resize_load; }, 0.5},
    {"PGASNB_RH_MIGRATE_CHUNK", "17",
     [](const RuntimeConfig& c) -> double { return c.rh_migrate_chunk; }, 17},
};

TEST(RuntimeConfigTest, FromEnvOverrides) {
  const RuntimeConfig defaults;
  for (const EnvKnob& k : kEnvKnobs) {
    ::unsetenv(k.var);
    ASSERT_NE(k.field(defaults), k.expected)
        << k.var << ": the test value must differ from the default";
  }
  // One variable at a time: it lands in its field, every other field keeps
  // its default.
  for (const EnvKnob& set : kEnvKnobs) {
    ::setenv(set.var, set.value, 1);
    const RuntimeConfig cfg = RuntimeConfig::fromEnv();
    ::unsetenv(set.var);
    for (const EnvKnob& k : kEnvKnobs) {
      if (&k == &set) {
        EXPECT_EQ(k.field(cfg), k.expected) << k.var << "=" << k.value;
      } else {
        EXPECT_EQ(k.field(cfg), k.field(defaults))
            << k.var << " moved while only " << set.var << " was set";
      }
    }
  }
  // All at once, then none: fromEnv() is the defaults again.
  for (const EnvKnob& k : kEnvKnobs) ::setenv(k.var, k.value, 1);
  const RuntimeConfig all = RuntimeConfig::fromEnv();
  for (const EnvKnob& k : kEnvKnobs) {
    EXPECT_EQ(k.field(all), k.expected) << k.var;
    ::unsetenv(k.var);
  }
  const RuntimeConfig none = RuntimeConfig::fromEnv();
  for (const EnvKnob& k : kEnvKnobs) {
    EXPECT_EQ(k.field(none), k.field(defaults)) << k.var;
  }
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
