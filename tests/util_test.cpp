// Unit tests for the util library: rng, backoff, stats, cli, table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "util/backoff.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pgasnb {
namespace {

// --- rng -------------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(Rng, SplitMixAdvancesState) {
  std::uint64_t s = 42;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Rng, XoshiroDeterministicForSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.nextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversSmallRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.nextBelow(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolMatchesProbabilityRoughly) {
  Xoshiro256 rng(4);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.nextBool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, UsableWithStdDistributions) {
  Xoshiro256 rng(11);
  static_assert(Xoshiro256::min() == 0);
  static_assert(Xoshiro256::max() == ~0ULL);
  EXPECT_NE(rng(), rng());
}

// --- backoff ----------------------------------------------------------

TEST(Backoff, SaturatesAfterEscalation) {
  Backoff b(1, 8);
  EXPECT_FALSE(b.saturated());
  for (int i = 0; i < 6; ++i) b.pause();
  EXPECT_TRUE(b.saturated());
}

TEST(Backoff, ResetRestartsEscalation) {
  Backoff b(1, 4);
  for (int i = 0; i < 5; ++i) b.pause();
  EXPECT_TRUE(b.saturated());
  b.reset();
  EXPECT_FALSE(b.saturated());
}

TEST(Backoff, SpinUntilReturnsZeroWhenImmediate) {
  EXPECT_EQ(spinUntil([] { return true; }), 0u);
}

TEST(Backoff, SpinUntilCountsEpisodes) {
  int countdown = 3;
  const auto episodes = spinUntil([&] { return --countdown <= 0; });
  EXPECT_EQ(episodes, 2u);
}

// --- stats -------------------------------------------------------------

TEST(Stats, WelfordMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428571, 1e-6);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(Stats, MergeEqualsSinglePass) {
  OnlineStats whole, left, right;
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.nextDouble() * 100.0;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Stats, PercentileEmptyIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

// --- cli ----------------------------------------------------------------

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--locales=8", "--verbose", "positional"};
  Options opts(4, const_cast<char**>(argv));
  EXPECT_EQ(opts.integer("locales", 1), 8);
  EXPECT_TRUE(opts.boolean("verbose", false));
  EXPECT_FALSE(opts.has("positional"));
}

TEST(Cli, DefaultsWhenMissing) {
  Options opts;
  EXPECT_EQ(opts.integer("nope", 17), 17);
  EXPECT_DOUBLE_EQ(opts.real("nope", 2.5), 2.5);
  EXPECT_EQ(opts.str("nope", "dft"), "dft");
  EXPECT_FALSE(opts.boolean("nope", false));
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=no", "--d=yes"};
  Options opts(5, const_cast<char**>(argv));
  EXPECT_FALSE(opts.boolean("a", true));
  EXPECT_FALSE(opts.boolean("b", true));
  EXPECT_FALSE(opts.boolean("c", true));
  EXPECT_TRUE(opts.boolean("d", false));
}

TEST(Cli, AcceptsKeySpaceValue) {
  // The spelling scripts/bench_json.sh documents for PGASNB_BENCH_ARGS.
  const char* argv[] = {"prog", "--bench-scale", "2", "--quick",
                        "--locales", "-3"};
  Options opts(6, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(opts.real("bench-scale", 1.0), 2.0);
  EXPECT_TRUE(opts.boolean("quick", false)) << "a flag before a flag";
  EXPECT_EQ(opts.integer("locales", 1), -3);
  opts.rejectUnread();  // everything was read: returns
}

TEST(Cli, RejectsAFlagNothingReads) {
  const char* argv[] = {"prog", "--max-locales=8", "--max-locale=8"};
  EXPECT_EXIT(
      {
        Options opts(3, const_cast<char**>(argv));
        (void)opts.integer("max-locales", 64);
        opts.rejectUnread();
      },
      ::testing::ExitedWithCode(2), "unknown option --max-locale\n");
}

TEST(Cli, RejectsAWordNoFlagTakes) {
  const char* argv[] = {"prog", "stray", "--quick"};
  EXPECT_EXIT(Options(3, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unexpected argument 'stray'");
}

// --- table ---------------------------------------------------------------

TEST(Table, PrintsAlignedColumns) {
  TablePrinter table({"figure", "series", "x", "wall_s"});
  table.addRow({"fig3", "atomic int (none)", "4", "0.123456"});
  table.addRow({"fig3", "AtomicObject", "64", "1.000000"});
  // Render to a memory stream and sanity-check the layout.
  char buf[4096] = {0};
  std::FILE* f = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(f, nullptr);
  table.print(f);
  std::fclose(f);
  const std::string out(buf);
  EXPECT_NE(out.find("figure"), std::string::npos);
  EXPECT_NE(out.find("AtomicObject"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
  // Header and two rows plus the rule: 4 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, FormatSeconds) {
  EXPECT_EQ(formatSeconds(0.5), "0.500000");
  EXPECT_EQ(formatSeconds(1.0 / 3.0), "0.333333");
}

}  // namespace
}  // namespace pgasnb
