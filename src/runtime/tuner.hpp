// The self-tuning control loop's arithmetic (ISSUE 10).
//
// The runtime's performance-critical knobs -- aggregator batch threshold
// and age cutoff, CompletionQueue park slice, steal-victim selection --
// were static per run; each workload shape needed hand-tuning to hit the
// amortization sweet spot the aggregated-AM design depends on. This unit
// holds the policy math that closes the loop from the counters the runtime
// already collects:
//
//   observe                smooth            decide
//   -------                ------            ------
//   per-op enqueue gap --> Ewma(gap)     --> BatchTuner: B* = the
//   (sim ns, at flush)                       amortization knee, clamped
//   completion push    --> Ewma(arrival) --> park slice in [base/8, 4x]
//   inter-arrival (wall)                     (comm.cpp: cqParkSliceFor)
//   published ready    --> (none: raw)   --> two-choice steal victim
//   depth per CqShared                       (drain_group.hpp: stealReady)
//
// The knee follows Hart et al. (IPDPS'06): with a fixed per-batch overhead
// `o` (wire + service) and an observed per-op production gap `g`, cost per
// op is o/B amortization plus (B-1)*g/2 average buffering delay; the
// minimum sits at B* = sqrt(2*o/g). Hot producers (small g) earn large
// batches, sparse producers ship small batches quickly.
//
// Everything here is plain arithmetic on one thread's state -- the classes
// are not thread-safe and not runtime-dependent (std only), so the policies
// are unit-testable without a Runtime. The wiring (who observes, who reads
// the decisions, which aggregators adapt at all) lives in comm.{hpp,cpp}
// and drain_group.hpp. The loop is always closed; a caller that wants a
// fixed batch threshold pins the clamp (tuner_batch_min ==
// tuner_batch_max == aggregator_ops_per_batch), which holds a task
// aggregator's threshold and age cutoff at their configured values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pgasnb::comm::tuner {

/// Exponentially weighted moving average. The first sample seeds the value
/// outright (no zero-bias warmup); later samples blend in with weight
/// `alpha`. alpha = 1/8 reacts within a handful of observations while
/// riding out single-batch noise.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.125) : alpha_(alpha) {}

  void reset() noexcept {
    value_ = 0.0;
    seeded_ = false;
  }

  void update(double sample) noexcept {
    value_ = seeded_ ? value_ + alpha_ * (sample - value_) : sample;
    seeded_ = true;
  }

  bool seeded() const noexcept { return seeded_; }
  double value() const noexcept { return value_; }
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Adaptive aggregator batch sizing: tracks the EWMA of the per-op enqueue
/// gap observed at each threshold/age batch flush and steps the effective
/// batch threshold toward the larger of two targets, clamped to
/// [min_batch, max_batch]:
///
///   * the amortization knee B* = sqrt(2 * batch_overhead / gap) -- the
///     classic buffering tradeoff (overhead/B amortization vs (B-1)*gap/2
///     average delay), the floor that keeps overhead amortized;
///   * the age budget B = base_age / (2 * gap) -- ops tolerate buffering
///     up to the configured age cutoff by contract, so delay inside that
///     budget is free and a hot producer earns batches sized to fill for
///     about half the budget (the age flush backstops the other half).
///     Disabled age (base_age 0) leaves the pure knee.
///
/// The age cutoff itself follows the threshold (~2 batches' worth of
/// production time) inside [base/8, 4x base].
///
/// Movement is halfway-toward-target per observation with a 1/8 hysteresis
/// band, so the threshold converges within a few batches of a workload
/// shift without flapping between adjacent sizes on a steady workload.
///
/// With adaptive=false (hand-made aggregators) observeBatch() is a no-op
/// and the effective values stay exactly the configured base -- including
/// a base outside the clamp bounds. With min_batch == max_batch ==
/// base_batch every target equals the current threshold, so observeBatch()
/// never moves the threshold or the age cutoff either.
class BatchTuner {
 public:
  struct Config {
    std::size_t base_batch = 64;       ///< starting (configured) threshold
    std::uint64_t base_age_ns = 0;     ///< configured age cutoff (0 = off)
    std::size_t min_batch = 8;         ///< adaptive clamp floor
    std::size_t max_batch = 1024;      ///< adaptive clamp ceiling
    std::uint64_t batch_overhead_ns = 2000;  ///< per-batch wire + service
    bool adaptive = false;
  };

  void reset(const Config& cfg) noexcept {
    cfg_ = cfg;
    if (cfg_.min_batch == 0) cfg_.min_batch = 1;
    if (cfg_.max_batch < cfg_.min_batch) cfg_.max_batch = cfg_.min_batch;
    if (cfg_.batch_overhead_ns == 0) cfg_.batch_overhead_ns = 1;
    gap_ns_.reset();
    effective_batch_ = cfg_.base_batch;
    effective_age_ns_ = cfg_.base_age_ns;
  }

  /// Feed one shipped batch: `ops` closures spanning `span_ns` simulated
  /// nanoseconds from first enqueue to ship. Returns true when the
  /// observation moved the effective threshold (callers publish the resize
  /// to the counters). Single-op batches carry no gap information and are
  /// ignored; with adaptive=false this never does anything.
  bool observeBatch(std::size_t ops, std::uint64_t span_ns) noexcept {
    if (!cfg_.adaptive || ops < 2) return false;
    const double gap = std::max(
        1.0, static_cast<double>(span_ns) / static_cast<double>(ops - 1));
    gap_ns_.update(gap);
    const std::size_t target = targetBatch();
    const std::size_t cur = effective_batch_;
    if (target == cur) return false;
    // Hysteresis: hold inside +/- cur/8 of the current threshold. At a
    // clamp bound the band is waived -- a clamped target is pinned, not
    // noisy, so walking the last step onto the bound cannot flap.
    const std::size_t band = std::max<std::size_t>(1, cur / 8);
    const std::size_t diff = target > cur ? target - cur : cur - target;
    const bool pinned = target == cfg_.min_batch || target == cfg_.max_batch;
    if (!pinned && diff <= band) return false;
    // Step halfway toward the target (at least one op per step).
    std::size_t next = target > cur ? cur + std::max<std::size_t>(
                                                1, (target - cur) / 2)
                                    : cur - std::max<std::size_t>(
                                                1, (cur - target) / 2);
    next = std::clamp(next, cfg_.min_batch, cfg_.max_batch);
    if (next == cur) return false;
    effective_batch_ = next;
    effective_age_ns_ = ageFor(next);
    return true;
  }

  /// The batch size implied by the current gap EWMA, clamped; the base
  /// threshold until the EWMA is seeded. max(amortization knee, age-budget
  /// fill) -- see the class comment.
  std::size_t targetBatch() const noexcept {
    if (!gap_ns_.seeded()) return effective_batch_;
    const double gap = gap_ns_.value();
    double want =
        std::sqrt(2.0 * static_cast<double>(cfg_.batch_overhead_ns) / gap);
    if (cfg_.base_age_ns != 0) {
      // Filling for ~half the age budget keeps the threshold flush firing
      // ahead of the age flush while claiming the free delay headroom.
      want = std::max(want,
                      static_cast<double>(cfg_.base_age_ns) / (2.0 * gap));
    }
    const auto rounded = static_cast<std::size_t>(want + 0.5);
    return std::clamp(rounded, cfg_.min_batch, cfg_.max_batch);
  }

  std::size_t effectiveBatch() const noexcept { return effective_batch_; }
  std::uint64_t effectiveAgeNs() const noexcept { return effective_age_ns_; }
  bool adaptive() const noexcept { return cfg_.adaptive; }
  const Ewma& gapEwma() const noexcept { return gap_ns_; }
  const Config& config() const noexcept { return cfg_; }

 private:
  /// Age cutoff for threshold B: about two batches' worth of production
  /// time at the observed gap, inside [base/8 (>= 1), 4x base]. A disabled
  /// base (0) stays disabled -- age flushing is opt-in via config.
  std::uint64_t ageFor(std::size_t batch) const noexcept {
    if (cfg_.base_age_ns == 0 || !gap_ns_.seeded()) return cfg_.base_age_ns;
    const auto horizon = static_cast<std::uint64_t>(
        2.0 * static_cast<double>(batch) * gap_ns_.value());
    const std::uint64_t lo = std::max<std::uint64_t>(1, cfg_.base_age_ns / 8);
    const std::uint64_t hi = cfg_.base_age_ns * 4;
    return std::clamp(horizon, lo, hi);
  }

  Config cfg_{};
  Ewma gap_ns_{};
  std::size_t effective_batch_ = 64;
  std::uint64_t effective_age_ns_ = 0;
};

/// Park-slice scaling arithmetic (the CompletionQueue policy): scale the
/// parking slice to the observed completion inter-arrival EWMA, clamped to
/// [base/8 (>= 1), 4x base] microseconds -- hot queues poll tightly, quiet
/// queues sleep longer. An unseeded EWMA (gap 0) keeps the base slice.
inline std::uint32_t scaledParkSliceUs(std::uint64_t ewma_gap_ns,
                                       std::uint32_t base_us) noexcept {
  if (base_us == 0) base_us = 1;
  if (ewma_gap_ns == 0) return base_us;
  const std::uint64_t lo = std::max<std::uint64_t>(1, base_us / 8);
  const std::uint64_t hi = std::uint64_t{base_us} * 4;
  const std::uint64_t gap_us = (ewma_gap_ns + 999) / 1000;
  return static_cast<std::uint32_t>(std::clamp(gap_us, lo, hi));
}

}  // namespace pgasnb::comm::tuner
