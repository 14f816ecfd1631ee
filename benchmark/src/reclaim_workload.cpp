// reclaim-listing5: the paper's deletion loop (Listing 5). Every client task
// owns 2^18 preallocated objects, half of them placed on a random other
// locale, and loops pin -> retire -> unpin with a tryReclaim every 1,024
// iterations; the timed region ends after domain.clear(). The epoch layer and
// remote-retire shipping do the work while no data structure is involved.
#include <array>

#include "workload.hpp"

namespace pgasbench {
namespace {

using pgasnb::Runtime;

constexpr std::uint64_t kObjectsPerTask = std::uint64_t{1} << 18;
constexpr std::uint64_t kReclaimEvery = 1024;
constexpr double kRemoteShare = 0.5;

struct Object {
  std::uint64_t payload[2] = {0xAB, 0xCD};
};

class ReclaimWorkload final : public Workload {
 public:
  explicit ReclaimWorkload(std::uint64_t seed) {
    for (std::uint32_t t = 0; t < kLocales; ++t) {
      pgasnb::Xoshiro256 rng(streamSeed(seed, t));
      auto& targets = targets_[t];
      targets.reserve(kObjectsPerTask);
      for (std::uint64_t i = 0; i < kObjectsPerTask; ++i) {
        std::uint32_t target = t;
        if (rng.nextBool(kRemoteShare)) {
          target = static_cast<std::uint32_t>(rng.nextBelow(kLocales - 1));
          if (target >= t) ++target;
        }
        targets.push_back(static_cast<std::uint8_t>(target));
      }
      digest_ = digestOf(targets, digest_);
    }
  }

  std::uint64_t inputDigest() const override { return digest_; }

  RepResult run() override {
    RepResult r;
    const auto t_setup = WallClock::now();
    RuntimeSession session(config());
    std::array<std::vector<Object*>, kLocales> objects;
    TimedCoforall alloc_coforall;
    alloc_coforall([&] {
      const std::uint32_t t = Runtime::here();
      objects[t].reserve(kObjectsPerTask);
      for (const std::uint8_t target : targets_[t]) {
        objects[t].push_back(pgasnb::DistDomain::makeOn<Object>(target));
      }
    });
    r.setup_s = secondsSince(t_setup);

    std::array<std::vector<std::uint64_t>, kLocales> latency;
    for (auto& l : latency) l.reserve(kObjectsPerTask);
    ReclaimTally tally;
    const pgasnb::DistDomain domain = session.domain;

    pgasnb::comm::resetCounters();
    const std::uint64_t sim0 = pgasnb::sim::now();
    const auto t0 = WallClock::now();
    TimedCoforall coforall;
    coforall([&] {
      const std::uint32_t t = Runtime::here();
      auto guard = domain.attach();
      auto& lat = latency[t];
      for (std::uint64_t i = 0; i < kObjectsPerTask; ++i) {
        const std::uint64_t begin = pgasnb::sim::now();
        {
          Span span(SpanKind::epoch_pin, i);
          guard.pin();
        }
        {
          Span span(SpanKind::epoch_retire, i);
          guard.retire(objects[t][i]);
        }
        {
          Span span(SpanKind::epoch_unpin, i);
          guard.unpin();
        }
        if ((i + 1) % kReclaimEvery == 0) tally.tryReclaim(guard, i);
        lat.push_back(pgasnb::sim::now() - begin);
      }
    });
    const double clear_ms = timedClear(domain);
    r.host_s = secondsSince(t0);
    r.model_s = static_cast<double>(pgasnb::sim::now() - sim0) * 1e-9;
    const pgasnb::comm::Counters counters = pgasnb::comm::counters();

    r.attempted = r.ops = kObjectsPerTask * kLocales;
    const pgasnb::ReclaimStats stats = domain.stats();
    r.check(stats.deferred == r.ops, "every object was retired once");
    r.check(stats.reclaimed == stats.deferred,
            "clear() reclaimed everything retired");
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
    if (Tracer::enabled()) guardSpanMetrics(Tracer::totals(), r.layer);
    return r;
  }

 private:
  std::array<std::vector<std::uint8_t>, kLocales> targets_;
  std::uint64_t digest_ = fnv1a(nullptr, 0);
};

}  // namespace

std::unique_ptr<Workload> makeReclaimListing5(std::uint64_t seed) {
  return std::make_unique<ReclaimWorkload>(seed);
}

}  // namespace pgasbench
