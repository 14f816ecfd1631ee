// Collectives: all-locales reductions (the building blocks of Listing 4's
// safety scan).
#include <gtest/gtest.h>

#include <atomic>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

class CollectivesTest : public RuntimeTest {};

TEST_F(CollectivesTest, AndReduceAllTrue) {
  startRuntime(4);
  EXPECT_TRUE(allLocalesAnd([] { return true; }));
}

TEST_F(CollectivesTest, AndReduceOneFalseLocale) {
  startRuntime(4);
  EXPECT_FALSE(allLocalesAnd([] { return Runtime::here() != 2; }));
}

TEST_F(CollectivesTest, AndReduceRunsOnEveryLocale) {
  startRuntime(4);
  std::atomic<std::uint32_t> mask{0};
  allLocalesAnd([&mask] {
    mask.fetch_or(1u << Runtime::here());
    return true;
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST_F(CollectivesTest, SumReduce) {
  startRuntime(4);
  const std::uint64_t sum = allLocalesSum(
      [] { return static_cast<std::uint64_t>(Runtime::here()) + 1; });
  EXPECT_EQ(sum, 1u + 2 + 3 + 4);
}

TEST_F(CollectivesTest, SumReduceZeroes) {
  startRuntime(3);
  EXPECT_EQ(allLocalesSum([] { return 0u; }), 0u);
}

TEST_F(CollectivesTest, ReductionsChargeSimTime) {
  startRuntime(4);
  sim::setNow(0);
  allLocalesAnd([] {
    sim::charge(10000);
    return true;
  });
  // The caller's clock must include the slowest participant.
  EXPECT_GE(sim::now(), 10000u);
}

TEST_F(CollectivesTest, NestedReductionInsideCoforall) {
  // Listing 4's shape: a reduction launched from a task on some locale.
  startRuntime(3, CommMode::none, 2);
  std::atomic<int> oks{0};
  coforallLocales([&oks] {
    if (allLocalesAnd([] { return true; })) oks.fetch_add(1);
  });
  EXPECT_EQ(oks.load(), 3);
}

}  // namespace
}  // namespace pgasnb
