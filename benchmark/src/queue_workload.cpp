// queue-churn-ugni: MsQueue<u64, DistDomain> homed on locale 0 under
// CommMode::ugni, prefilled with 1,024 items. Every client task issues 2^18
// blocking operations, alternating enqueue and dequeue, with pin/unpin per
// op and a tryReclaim every 1,024 ops: the paper's synchronous remote-atomic
// path (NIC atomics on compressed pointers, RDMA GETs) with no aggregation.
#include <algorithm>
#include <array>

#include "workload.hpp"

namespace pgasbench {
namespace {

using pgasnb::Runtime;
using Queue = pgasnb::MsQueue<std::uint64_t, pgasnb::DistDomain>;

constexpr std::uint64_t kPrefill = 1024;
constexpr std::uint64_t kOpsPerTask = std::uint64_t{1} << 18;
constexpr std::uint64_t kEnqueuesPerTask = kOpsPerTask / 2;
constexpr std::uint64_t kReclaimEvery = 1024;

class QueueWorkload final : public Workload {
 public:
  /// Task t enqueues (t + 1) << 32 | (j ^ mask_t): distinct across tasks and
  /// from the prefill values 0..kPrefill-1, so conservation is checkable.
  explicit QueueWorkload(std::uint64_t seed) {
    for (std::uint32_t t = 0; t < kLocales; ++t) {
      const std::uint64_t mask = streamSeed(seed, t) & 0xFFFFFFFFULL;
      auto& values = values_[t];
      values.reserve(kEnqueuesPerTask);
      for (std::uint64_t j = 0; j < kEnqueuesPerTask; ++j) {
        values.push_back((std::uint64_t{t} + 1) << 32 | (j ^ mask));
      }
      digest_ = digestOf(values, digest_);
    }
  }

  std::uint64_t inputDigest() const override { return digest_; }

  pgasnb::RuntimeConfig config() const override {
    return hostShape(pgasnb::CommMode::ugni);
  }

  RepResult run() override {
    RepResult r;
    const auto t_setup = WallClock::now();
    RuntimeSession session(config());
    const pgasnb::DistDomain domain = session.domain;
    // Allocated and constructed on locale 0 (the calling thread), so the
    // head/tail words and the first dummy live there.
    Queue* queue = pgasnb::gnewOn<Queue>(0, session.domain);
    {
      auto guard = domain.pin();
      for (std::uint64_t v = 0; v < kPrefill; ++v) queue->enqueue(guard, v);
    }
    r.setup_s = secondsSince(t_setup);

    std::array<std::vector<std::uint64_t>, kLocales> latency, dequeued;
    std::array<std::uint64_t, kLocales> empty{};
    for (std::uint32_t t = 0; t < kLocales; ++t) {
      latency[t].reserve(kOpsPerTask);
      dequeued[t].reserve(kEnqueuesPerTask);
    }
    ReclaimTally tally;

    pgasnb::comm::resetCounters();
    const std::uint64_t sim0 = pgasnb::sim::now();
    const auto t0 = WallClock::now();
    TimedCoforall coforall;
    coforall([&] {
      const std::uint32_t t = Runtime::here();
      auto guard = domain.attach();
      auto& lat = latency[t];
      for (std::uint64_t j = 0; j < kEnqueuesPerTask; ++j) {
        std::uint64_t begin = pgasnb::sim::now();
        pin(guard, 2 * j);
        {
          Span span(SpanKind::ds_msq_enqueue, 2 * j);
          queue->enqueue(guard, values_[t][j]);
        }
        unpin(guard, 2 * j);
        lat.push_back(pgasnb::sim::now() - begin);

        begin = pgasnb::sim::now();
        pin(guard, 2 * j + 1);
        {
          Span span(SpanKind::ds_msq_dequeue, 2 * j + 1);
          if (const auto v = queue->dequeue(guard)) {
            dequeued[t].push_back(*v);
          } else {
            span.fail();
            ++empty[t];
          }
        }
        unpin(guard, 2 * j + 1);
        if ((2 * j + 2) % kReclaimEvery == 0) tally.tryReclaim(guard, 2 * j);
        lat.push_back(pgasnb::sim::now() - begin);
      }
    });
    r.host_s = secondsSince(t0);
    r.model_s = static_cast<double>(pgasnb::sim::now() - sim0) * 1e-9;
    const pgasnb::comm::Counters counters = pgasnb::comm::counters();

    // Final drain, then every value enqueued (prefill included) must have
    // been dequeued exactly once.
    std::vector<std::uint64_t> out;
    {
      auto guard = domain.pin();
      while (const auto v = queue->dequeue(guard)) out.push_back(*v);
    }
    std::vector<std::uint64_t> in;
    for (std::uint64_t v = 0; v < kPrefill; ++v) in.push_back(v);
    for (std::uint32_t t = 0; t < kLocales; ++t) {
      in.insert(in.end(), values_[t].begin(), values_[t].end());
      out.insert(out.end(), dequeued[t].begin(), dequeued[t].end());
      r.failed += empty[t];
    }
    std::sort(in.begin(), in.end());
    std::sort(out.begin(), out.end());
    r.check(in == out, "every enqueued value was dequeued exactly once");
    const double clear_ms = timedClear(domain);
    const pgasnb::ReclaimStats stats = domain.stats();
    r.check(stats.reclaimed == stats.deferred,
            "clear() reclaimed every retired node");
    pgasnb::gdelete(queue);

    r.attempted = r.ops = kOpsPerTask * kLocales;
    std::vector<std::uint64_t> samples;
    samples.reserve(r.ops);
    for (const auto& l : latency) {
      samples.insert(samples.end(), l.begin(), l.end());
    }
    reduceLatencies(samples, r);

    r.layer["runtime.setup_ms"] = {session.setupMs(), "ms"};
    coforall.report(r.layer);
    commMetrics(counters, r.ops, r.layer);
    reclaimMetrics(stats, r.layer);
    robinHoodMetrics(nullptr, r.layer);
    tally.report(r.layer);
    r.layer["epoch.clear_model_ms"] = {clear_ms, "ms"};
    if (Tracer::enabled()) {
      const TotalsTable t = Tracer::totals();
      guardSpanMetrics(t, r.layer);
      r.layer["ds.msq_enqueue_wall_ns"] = {
          meanWallNs(t, SpanKind::ds_msq_enqueue), "ns"};
      r.layer["ds.msq_enqueue_model_ns"] = {
          meanModelNs(t, SpanKind::ds_msq_enqueue), "ns"};
      r.layer["ds.msq_dequeue_wall_ns"] = {
          meanWallNs(t, SpanKind::ds_msq_dequeue), "ns"};
      r.layer["ds.msq_dequeue_model_ns"] = {
          meanModelNs(t, SpanKind::ds_msq_dequeue), "ns"};
    }
    return r;
  }

 private:
  static void pin(pgasnb::DistGuard& guard, std::uint64_t id) {
    Span span(SpanKind::epoch_pin, id);
    guard.pin();
  }
  static void unpin(pgasnb::DistGuard& guard, std::uint64_t id) {
    Span span(SpanKind::epoch_unpin, id);
    guard.unpin();
  }

  std::array<std::vector<std::uint64_t>, kLocales> values_;
  std::uint64_t digest_ = fnv1a(nullptr, 0);
};

}  // namespace

std::unique_ptr<Workload> makeQueueChurnUgni(std::uint64_t seed) {
  return std::make_unique<QueueWorkload>(seed);
}

}  // namespace pgasbench
