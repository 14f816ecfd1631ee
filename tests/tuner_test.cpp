// The self-tuning control loop (ISSUE 10): EWMA arithmetic, the batch
// tuner's amortization-knee convergence and clamps, park-slice scaling,
// the two-choice steal pick, and the pinned clamp that holds a task
// aggregator at its configured threshold.
#include <atomic>
#include <cstdint>

#include "runtime/drain_group.hpp"
#include "runtime/tuner.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using comm::tuner::BatchTuner;
using comm::tuner::Ewma;
using comm::tuner::scaledParkSliceUs;

class TunerTest : public testing::RuntimeTest {
 protected:
  void SetUp() override { comm::resetCounters(); }
};

// --- Ewma -------------------------------------------------------------------

TEST(EwmaTest, FirstSampleSeedsOutright) {
  Ewma e;
  EXPECT_FALSE(e.seeded());
  e.update(400.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 400.0);
}

TEST(EwmaTest, BlendsWithAlphaAndConverges) {
  Ewma e(0.125);
  e.update(400.0);
  e.update(80.0);
  // One blended step: 400 + 0.125 * (80 - 400) = 360.
  EXPECT_DOUBLE_EQ(e.value(), 360.0);
  // A steady stream of the same sample converges onto it.
  for (int i = 0; i < 200; ++i) e.update(80.0);
  EXPECT_NEAR(e.value(), 80.0, 0.01);
}

TEST(EwmaTest, ResetForgetsTheSeed) {
  Ewma e;
  e.update(10.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  e.update(99.0);
  EXPECT_DOUBLE_EQ(e.value(), 99.0);
}

// --- BatchTuner -------------------------------------------------------------

BatchTuner::Config adaptiveConfig() {
  BatchTuner::Config cfg;
  cfg.base_batch = 64;
  cfg.base_age_ns = 100'000;
  cfg.min_batch = 8;
  cfg.max_batch = 1024;
  cfg.batch_overhead_ns = 2000;  // am_wire_ns + am_service_ns defaults
  cfg.adaptive = true;
  return cfg;
}

TEST(BatchTunerTest, ConvergesOnTheAmortizationKnee) {
  BatchTuner::Config cfg = adaptiveConfig();
  cfg.base_age_ns = 0;  // no age budget: the pure knee governs
  BatchTuner t;
  t.reset(cfg);
  EXPECT_EQ(t.effectiveBatch(), 64u);
  // A hot producer: one op every 25 simulated ns. The knee is
  // B* = sqrt(2 * 2000 / 25) = sqrt(160) ~= 13; with the 1/8 hysteresis
  // band the tuner settles within +/- cur/8 of it.
  bool moved = false;
  for (int i = 0; i < 32; ++i) {
    const std::size_t b = t.effectiveBatch();
    moved |= t.observeBatch(b, static_cast<std::uint64_t>(b - 1) * 25);
  }
  EXPECT_TRUE(moved);
  EXPECT_GE(t.effectiveBatch(), 12u);
  EXPECT_LE(t.effectiveBatch(), 15u);
  EXPECT_EQ(t.targetBatch(), 13u);
  EXPECT_NEAR(t.gapEwma().value(), 25.0, 0.01);
}

TEST(BatchTunerTest, GrowsIntoTheAgeBudgetOnHotProduction) {
  BatchTuner t;
  t.reset(adaptiveConfig());
  // Same 25 ns producer, but with the 100 us age budget on: buffering up
  // to the budget is free by contract, so the target is the budget fill
  // B = 100'000 / (2 * 25) = 2000, clamped to max_batch = 1024. The knee
  // only floors the target; it never caps a hot stream.
  for (int i = 0; i < 64; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, static_cast<std::uint64_t>(b - 1) * 25);
  }
  EXPECT_EQ(t.targetBatch(), 1024u);
  EXPECT_EQ(t.effectiveBatch(), 1024u);
  // The age cutoff tracks two batches' worth of production: 2*1024*25.
  EXPECT_EQ(t.effectiveAgeNs(), 51'200u);
}

TEST(BatchTunerTest, ClampsToMinOnSparseProduction) {
  BatchTuner t;
  t.reset(adaptiveConfig());
  // One op per simulated millisecond: the knee is < 1, clamped to min 8.
  for (int i = 0; i < 32; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, static_cast<std::uint64_t>(b - 1) * 1'000'000);
  }
  EXPECT_EQ(t.effectiveBatch(), 8u);
  EXPECT_EQ(t.targetBatch(), 8u);
}

TEST(BatchTunerTest, ClampsToMaxOnHotProduction) {
  BatchTuner::Config cfg = adaptiveConfig();
  cfg.max_batch = 96;
  BatchTuner t;
  t.reset(cfg);
  // Back-to-back production (gap floors at 1 ns): knee = sqrt(4000) ~= 63,
  // but squeeze the ceiling below it to prove the clamp.
  cfg.batch_overhead_ns = 2'000'000;  // knee = 2000 >> max
  t.reset(cfg);
  for (int i = 0; i < 64; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, b - 1);
  }
  EXPECT_EQ(t.effectiveBatch(), 96u);
}

TEST(BatchTunerTest, NonAdaptiveTunerNeverMoves) {
  BatchTuner::Config cfg = adaptiveConfig();
  cfg.adaptive = false;
  cfg.base_batch = 4;  // outside [min, max] on purpose: kept bit-for-bit
  BatchTuner t;
  t.reset(cfg);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(t.observeBatch(64, 64 * 1'000'000));
  }
  EXPECT_EQ(t.effectiveBatch(), 4u);
  EXPECT_EQ(t.effectiveAgeNs(), 100'000u);
  EXPECT_FALSE(t.gapEwma().seeded());
}

TEST(BatchTunerTest, SingleOpBatchesCarryNoGapInformation) {
  BatchTuner t;
  t.reset(adaptiveConfig());
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(t.observeBatch(1, 5'000'000));
  }
  EXPECT_EQ(t.effectiveBatch(), 64u);
  EXPECT_FALSE(t.gapEwma().seeded());
}

TEST(BatchTunerTest, AgeCutoffFollowsTheThresholdInsideItsClamp) {
  BatchTuner t;
  t.reset(adaptiveConfig());
  // Sparse production shrinks the batch to min; the age horizon
  // 2 * B * gap = 2 * 8 * 1e6 = 16e6 ns caps at 4x base = 400'000.
  for (int i = 0; i < 32; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, static_cast<std::uint64_t>(b - 1) * 1'000'000);
  }
  EXPECT_EQ(t.effectiveAgeNs(), 400'000u);
  // Back-to-back production (1 ns gaps, threshold pinned at max 1024)
  // floors it at base/8 = 12'500: two batches' worth of production time
  // is only ~2 us.
  t.reset(adaptiveConfig());
  for (int i = 0; i < 64; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, b - 1);
  }
  EXPECT_EQ(t.effectiveAgeNs(), 12'500u);
}

TEST(BatchTunerTest, DisabledAgeStaysDisabled) {
  BatchTuner::Config cfg = adaptiveConfig();
  cfg.base_age_ns = 0;
  BatchTuner t;
  t.reset(cfg);
  for (int i = 0; i < 32; ++i) {
    const std::size_t b = t.effectiveBatch();
    t.observeBatch(b, static_cast<std::uint64_t>(b - 1) * 1'000'000);
  }
  EXPECT_EQ(t.effectiveAgeNs(), 0u);
}

// --- park-slice scaling -----------------------------------------------------

TEST(ParkSliceTest, UnseededGapKeepsTheBase) {
  EXPECT_EQ(scaledParkSliceUs(0, 200), 200u);
}

TEST(ParkSliceTest, TracksTheArrivalGapInsideTheClamp) {
  // 100 us between completions -> 100 us slice.
  EXPECT_EQ(scaledParkSliceUs(100'000, 200), 100u);
  // Sub-microsecond gaps round up to 1 us and then floor at base/8.
  EXPECT_EQ(scaledParkSliceUs(300, 200), 25u);
  // A quiet queue caps at 4x base.
  EXPECT_EQ(scaledParkSliceUs(10'000'000, 200), 800u);
}

TEST(ParkSliceTest, DegenerateBaseStillYieldsASlice) {
  EXPECT_EQ(scaledParkSliceUs(5'000'000, 0), 4u);   // base 0 -> 1, hi 4
  EXPECT_EQ(scaledParkSliceUs(500, 1), 1u);          // lo floors at 1
}

// --- two-choice steal pick --------------------------------------------------

std::shared_ptr<comm::detail::CqShared> madeReady(std::size_t count,
                                                  std::uint64_t first_tag) {
  auto q = std::make_shared<comm::detail::CqShared>();
  std::lock_guard<std::mutex> g(q->lock);
  for (std::size_t i = 0; i < count; ++i) {
    q->ready.push_back({first_tag + i, 0});
  }
  q->outstanding = count;
  q->ready_depth.store(static_cast<std::uint32_t>(count));
  q->outstanding_hint.store(static_cast<std::uint32_t>(count));
  return q;
}

TEST(TwoChoiceStealTest, AdaptivePickDrainsTheDeeperSiblingFirst) {
  comm::resetCounters();
  comm::DrainGroup group;
  auto deep = madeReady(3, 100);
  auto shallow = madeReady(1, 900);
  group.enroll(deep);
  group.enroll(shallow);
  // With exactly two victims the two-choice sample is exhaustive, so the
  // pick is deterministic: depth 3 beats depth 1 whatever the rotation
  // start, twice in a row.
  comm::detail::ReadyCompletion out;
  ASSERT_TRUE(group.stealReady(nullptr, out));
  EXPECT_EQ(out.tag, 100u);
  ASSERT_TRUE(group.stealReady(nullptr, out));
  EXPECT_EQ(out.tag, 101u);
  const comm::Counters mid = comm::counters();
  EXPECT_EQ(mid.steal_depth_hits, 2u);
  EXPECT_EQ(mid.steal_random_fallbacks, 0u);
  // Depths now tie at 1/1 with equal outstanding hints: the pick abstains
  // and the randomized rotation takes over (and still steals).
  ASSERT_TRUE(group.stealReady(nullptr, out));
  const comm::Counters after = comm::counters();
  EXPECT_EQ(after.steal_depth_hits, 2u);
  EXPECT_EQ(after.steal_random_fallbacks, 1u);
  EXPECT_EQ(after.cq_stolen, 3u);
}

// --- runtime wiring ---------------------------------------------------------

TEST_F(TunerTest, PinnedClampHoldsTheConfiguredThresholdAndAge) {
  // min == max == base: every target the tuner can compute is the current
  // threshold, so a task aggregator ships fixed-size batches with a fixed
  // age cutoff. fig8's one-AM-per-retire row and fig_tuning_ablation's
  // hand-tuned grid both rely on this.
  RuntimeConfig cfg = testing::testConfig(2);
  cfg.aggregator_ops_per_batch = 32;
  cfg.tuner_batch_min = 32;
  cfg.tuner_batch_max = 32;
  runtime_ = std::make_unique<Runtime>(cfg);
  comm::Aggregator& agg = comm::taskAggregator();
  agg.enqueue(1, [] {});  // first enqueue adopts the new runtime's config
  EXPECT_TRUE(agg.batchTuner().adaptive());
  EXPECT_EQ(agg.opsPerBatch(), 32u);
  const std::uint64_t age = agg.batchTuner().effectiveAgeNs();
  EXPECT_EQ(age, cfg.aggregator_max_batch_age_ns);
  // Sparse production that drags an unpinned aggregator to its minimum
  // (AdaptiveTaskAggregatorShrinksOnSparseProduction): the pinned
  // threshold and age cutoff must not budge.
  std::uint64_t t = sim::now();
  for (int round = 0; round < 12; ++round) {
    for (std::size_t i = 0; i < agg.opsPerBatch(); ++i) {
      t += 1'000'000;
      sim::setNow(t);
      agg.enqueue(1, [] {});
    }
    agg.flushAll();
  }
  EXPECT_TRUE(agg.batchTuner().gapEwma().seeded());
  EXPECT_EQ(agg.opsPerBatch(), 32u);
  EXPECT_EQ(agg.batchTuner().effectiveBatch(), 32u);
  EXPECT_EQ(agg.batchTuner().effectiveAgeNs(), age);
  EXPECT_EQ(comm::counters().tuner_batch_resizes, 0u);
}

TEST_F(TunerTest, AdaptiveTaskAggregatorShrinksOnSparseProduction) {
  RuntimeConfig cfg = testing::testConfig(2);
  runtime_ = std::make_unique<Runtime>(cfg);
  comm::Aggregator& agg = comm::taskAggregator();
  agg.enqueue(1, [] {});  // first enqueue adopts the new runtime's config
  EXPECT_TRUE(agg.batchTuner().adaptive());
  EXPECT_EQ(agg.opsPerBatch(), cfg.aggregator_ops_per_batch);
  // One op per simulated millisecond: each shipped batch observes a gap
  // far past the knee, so the threshold walks down to the clamp floor.
  std::uint64_t t = sim::now();
  for (int round = 0; round < 12; ++round) {
    const std::size_t batch = agg.opsPerBatch();
    for (std::size_t i = 0; i < batch; ++i) {
      t += 1'000'000;
      sim::setNow(t);
      agg.enqueue(1, [] {});
    }
    agg.flushAll();  // ships any age-held remainder of this round
  }
  EXPECT_EQ(agg.opsPerBatch(), cfg.tuner_batch_min);
  EXPECT_EQ(agg.batchTuner().effectiveBatch(), agg.opsPerBatch());
  const comm::Counters snap = comm::counters();
  EXPECT_GE(snap.tuner_batch_resizes, 3u);
  EXPECT_EQ(snap.tuner_effective_batch, agg.opsPerBatch());
}

TEST_F(TunerTest, HandMadeAggregatorsKeepTheirThreshold) {
  startRuntime(2);
  comm::Aggregator agg(16);  // explicit threshold: a hand-tuned instrument
  EXPECT_FALSE(agg.batchTuner().adaptive());
  std::uint64_t t = sim::now();
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < 16; ++i) {
      t += 1'000'000;
      sim::setNow(t);
      agg.enqueue(1, [] {});
    }
  }
  agg.flushAll();
  EXPECT_EQ(agg.opsPerBatch(), 16u);
}

TEST_F(TunerTest, MultiLocaleAdaptationRunStaysCoherent) {
  // TSan battery: every locale hammers aggregated remote ops while its
  // siblings steal and park adaptively. Exercises the telemetry publishes
  // (ready_depth, ewma_gap_ns, last_slice_us) against concurrent readers.
  RuntimeConfig cfg = testing::testConfig(4, CommMode::none, 2);
  runtime_ = std::make_unique<Runtime>(cfg);
  std::atomic<std::uint64_t> ran{0};
  coforallLocales([&] {
    TaskGroup group;
    const std::uint32_t here = Runtime::here();
    for (int task = 0; task < 2; ++task) {
      group.spawnOn(here, [&, here] {
        for (int i = 0; i < 200; ++i) {
          const auto dest = static_cast<std::uint32_t>((here + 1 + i) % 4);
          comm::taskAggregator()
              .enqueueHandle(dest, [&ran] { ran.fetch_add(1); })
              .wait();
        }
      });
    }
  });
  EXPECT_EQ(ran.load(), 4u * 2u * 200u);
  const comm::Counters snap = comm::counters();
  // The gauges mirror whatever the tuner last decided; snapshot/reset must
  // round-trip them like every other counter.
  comm::resetCounters();
  const comm::Counters zeroed = comm::counters();
  EXPECT_EQ(zeroed.tuner_batch_resizes, 0u);
  EXPECT_EQ(zeroed.tuner_slice_adjusts, 0u);
  EXPECT_EQ(zeroed.steal_depth_hits, 0u);
  EXPECT_EQ(zeroed.steal_random_fallbacks, 0u);
  EXPECT_EQ(zeroed.tuner_effective_batch, 0u);
  EXPECT_EQ(zeroed.tuner_park_slice_us, 0u);
  (void)snap;
}

}  // namespace
}  // namespace pgasnb
