// Shared gtest scaffolding: runtime fixtures and workload helpers.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "pgasnb.hpp"

namespace pgasnb::testing {

/// Fast test config: no physical delay injection (the simulated clock still
/// advances), small arenas, a couple of workers. Reads no environment
/// variable, so every knob stays pinned for determinism.
inline RuntimeConfig testConfig(std::uint32_t locales,
                                CommMode mode = CommMode::none,
                                std::uint32_t workers = 2) {
  RuntimeConfig cfg;
  cfg.num_locales = locales;
  cfg.workers_per_locale = workers;
  cfg.comm_mode = mode;
  cfg.inject_delays = false;
  cfg.arena_bytes_per_locale = std::size_t{32} << 20;
  return cfg;
}

/// Fixture owning a Runtime for the duration of one test.
class RuntimeTest : public ::testing::Test {
 protected:
  void startRuntime(std::uint32_t locales, CommMode mode = CommMode::none,
                    std::uint32_t workers = 2) {
    runtime_ = std::make_unique<Runtime>(testConfig(locales, mode, workers));
  }

  void TearDown() override { runtime_.reset(); }

  std::unique_ptr<Runtime> runtime_;
};

/// Parameterized over (num_locales, comm mode): the axes the paper sweeps.
struct RuntimeParam {
  std::uint32_t locales;
  CommMode mode;
};

inline std::string paramName(
    const ::testing::TestParamInfo<RuntimeParam>& info) {
  return std::to_string(info.param.locales) + "loc_" +
         toString(info.param.mode);
}

class RuntimeParamTest : public ::testing::TestWithParam<RuntimeParam> {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(
        testConfig(GetParam().locales, GetParam().mode));
  }
  void TearDown() override { runtime_.reset(); }

  std::unique_ptr<Runtime> runtime_;
};

/// Robin Hood invariant battery shared by robinhood_map_test and
/// robinhood_resize_test: displacement monotonicity + seqlock parity at
/// rest + no duplicate keys + table/segment census (all via the map's
/// locked whole-table scan), plus stats()/sizeApprox agreement. Use as
/// `EXPECT_TRUE(assertRobinHoodInvariants(map))` at any quiescent point --
/// including mid-migration quiescence, where `slots` must already report
/// the shadow capacity.
template <typename Map>
::testing::AssertionResult assertRobinHoodInvariants(const Map& map) {
  if (!map.valid()) {
    return ::testing::AssertionFailure() << "map handle is invalid";
  }
  if (!map.validateInvariants()) {
    return ::testing::AssertionFailure()
           << "RobinHood invariant scan failed (displacement ordering, "
              "seqlock parity at rest, duplicate key across tables, or "
              "used-counter census mismatch)";
  }
  const auto stats = map.stats();
  const auto used = map.sizeApprox();
  if (stats.used != used) {
    return ::testing::AssertionFailure()
           << "stats().used=" << stats.used << " disagrees with sizeApprox()="
           << used << " at a quiescent point";
  }
  if (stats.slots < map.capacity()) {
    return ::testing::AssertionFailure()
           << "stats().slots=" << stats.slots
           << " below the create()-time partition " << map.capacity()
           << " (segments only ever grow)";
  }
  if (stats.used > stats.slots) {
    return ::testing::AssertionFailure()
           << "stats().used=" << stats.used << " exceeds live slots="
           << stats.slots;
  }
  return ::testing::AssertionSuccess();
}

#define PGASNB_RUNTIME_PARAMS                                        \
  ::testing::Values(                                                 \
      pgasnb::testing::RuntimeParam{1, pgasnb::CommMode::none},      \
      pgasnb::testing::RuntimeParam{2, pgasnb::CommMode::none},      \
      pgasnb::testing::RuntimeParam{4, pgasnb::CommMode::none},      \
      pgasnb::testing::RuntimeParam{1, pgasnb::CommMode::ugni},      \
      pgasnb::testing::RuntimeParam{2, pgasnb::CommMode::ugni},      \
      pgasnb::testing::RuntimeParam{4, pgasnb::CommMode::ugni})

}  // namespace pgasnb::testing
