#include "workload.hpp"

#include <algorithm>

namespace pgasbench {

pgasnb::RuntimeConfig hostShape(pgasnb::CommMode mode) {
  pgasnb::RuntimeConfig cfg{};
  cfg.num_locales = kLocales;
  cfg.workers_per_locale = 1;
  cfg.inject_delays = false;
  cfg.comm_mode = mode;
  return cfg;
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "kv-read-zipf", "kv-insert-grow", "reclaim-listing5", "engine-kv",
      "queue-churn-ugni"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "kv-read-zipf") return makeKvReadZipf(seed);
  if (name == "kv-insert-grow") return makeKvInsertGrow(seed);
  if (name == "reclaim-listing5") return makeReclaimListing5(seed);
  if (name == "engine-kv") return makeEngineKv(seed);
  if (name == "queue-churn-ugni") return makeQueueChurnUgni(seed);
  return nullptr;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

RuntimeSession::RuntimeSession(const pgasnb::RuntimeConfig& config) {
  const auto t0 = WallClock::now();
  Span span(SpanKind::runtime_setup);
  runtime_ = std::make_unique<pgasnb::Runtime>(config);
  domain = pgasnb::DistDomain::create();
  setup_ms_ = secondsSince(t0) * 1e3;
}

RuntimeSession::~RuntimeSession() {
  domain.destroy();
  runtime_.reset();
}

void TimedCoforall::operator()(const std::function<void()>& body) {
  std::atomic<std::int64_t> first_begin{INT64_MAX};
  std::atomic<std::int64_t> last_end{INT64_MIN};
  const auto origin = WallClock::now();
  const auto since = [origin] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               WallClock::now() - origin)
        .count();
  };
  {
    Span span(SpanKind::runtime_coforall);
    pgasnb::coforallLocales([&] {
      const std::int64_t b = since();
      std::int64_t seen = first_begin.load(std::memory_order_relaxed);
      while (b < seen && !first_begin.compare_exchange_weak(seen, b)) {
      }
      body();
      const std::int64_t e = since();
      seen = last_end.load(std::memory_order_relaxed);
      while (e > seen && !last_end.compare_exchange_weak(seen, e)) {
      }
    });
  }
  const std::int64_t returned = since();
  fork_us_ = static_cast<double>(first_begin.load()) * 1e-3;
  join_us_ = static_cast<double>(returned - last_end.load()) * 1e-3;
}

void TimedCoforall::report(Metrics& m) const {
  m["runtime.coforall_fork_us"] = {fork_us_, "us"};
  m["runtime.coforall_join_us"] = {join_us_, "us"};
}

namespace {

/// The q-quantile of `samples` (reordered in place), interpolated within
/// ties: simulated latencies are sums of fixed model charges, so many
/// samples share one value. The samples equal to the quantile's value v are
/// taken as spread evenly over [v, next larger value), the grouped-data
/// median; without that a percentile moves in whole model-charge steps and
/// hides any shift smaller than one charge.
double tiedPercentile(std::vector<std::uint64_t>& samples, double q) {
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto k = static_cast<std::size_t>(pos);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  const std::uint64_t v = samples[k];
  std::uint64_t below = 0, equal = 0, next = v;
  for (const std::uint64_t s : samples) {
    if (s < v) {
      ++below;
    } else if (s == v) {
      ++equal;
    } else if (next == v || s < next) {
      next = s;
    }
  }
  const double within =
      (pos - static_cast<double>(below)) / static_cast<double>(equal);
  return static_cast<double>(v) + within * static_cast<double>(next - v);
}

}  // namespace

void reduceLatencies(std::vector<std::uint64_t>& samples_ns, RepResult& r) {
  r.latency_samples = samples_ns.size();
  if (samples_ns.empty()) return;
  r.p50_us = tiedPercentile(samples_ns, 0.50) * 1e-3;
  r.p99_us = tiedPercentile(samples_ns, 0.99) * 1e-3;
  r.p999_us = tiedPercentile(samples_ns, 0.999) * 1e-3;
}

void commMetrics(const pgasnb::comm::Counters& c, std::uint64_t ops,
                 Metrics& m) {
  const double per = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["comm.ams_per_op"] = {d(c.totalAms()) * per, "1/op"};
  m["comm.ops_per_batch"] = {
      c.am_batched == 0 ? 0.0 : d(c.ops_aggregated) / d(c.am_batched),
      "op/batch"};
  m["comm.fences"] = {d(c.am_fence), "count"};
  m["comm.backpressure_stalls"] = {d(c.backpressure_stalls), "count"};
  m["comm.deferred_peak"] = {d(c.deferred_peak), "count"};
  m["comm.cq_stolen"] = {d(c.cq_stolen), "count"};
  m["comm.continuations_stolen"] = {d(c.continuations_stolen), "count"};
  m["comm.tuner_batch_resizes"] = {d(c.tuner_batch_resizes), "count"};
  m["atomic.nic_atomics_per_op"] = {d(c.nic_atomics) * per, "1/op"};
  m["atomic.dcas_remote_per_op"] = {d(c.dcas_remote) * per, "1/op"};
  m["atomic.cpu_atomics_per_op"] = {d(c.cpu_atomics) * per, "1/op"};
  m["atomic.rdma_gets_per_op"] = {d(c.gets) * per, "1/op"};
}

void reclaimMetrics(const pgasnb::ReclaimStats& s, Metrics& m) {
  m["epoch.elections_lost"] = {static_cast<double>(s.electionsLost()),
                               "count"};
  m["epoch.scans_unsafe"] = {static_cast<double>(s.scans_unsafe), "count"};
  m["epoch.max_pending"] = {static_cast<double>(s.max_pending), "count"};
}

void robinHoodMetrics(const pgasnb::RobinHoodStats* s, Metrics& m) {
  const pgasnb::RobinHoodStats none{};
  const pgasnb::RobinHoodStats& st = s != nullptr ? *s : none;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["ds.rh_max_displacement"] = {d(st.max_displacement), "count"};
  m["ds.rh_resizes"] = {d(st.resizes), "count"};
  m["ds.rh_migrate_chunks"] = {d(st.migrate_chunks), "count"};
  m["ds.rh_migrated_entries"] = {d(st.migrated_entries), "count"};
  m["ds.rh_full_rejects"] = {d(st.full_rejects), "count"};
  m["ds.rh_load_factor"] = {
      st.slots == 0 ? 0.0 : d(st.used) / d(st.slots), "ratio"};
}

double meanWallNs(const TotalsTable& t, SpanKind kind) {
  const SpanTotals& s = t[static_cast<std::size_t>(kind)];
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.wall_ns) /
                            static_cast<double>(s.count);
}

double meanModelNs(const TotalsTable& t, SpanKind kind) {
  const SpanTotals& s = t[static_cast<std::size_t>(kind)];
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.model_ns) /
                            static_cast<double>(s.count);
}

void guardSpanMetrics(const TotalsTable& t, Metrics& m) {
  const auto recorded = [&t](SpanKind k) {
    return t[static_cast<std::size_t>(k)].count != 0;
  };
  if (recorded(SpanKind::epoch_pin)) {
    m["epoch.pin_wall_ns"] = {meanWallNs(t, SpanKind::epoch_pin), "ns"};
  }
  if (recorded(SpanKind::epoch_unpin)) {
    m["epoch.unpin_wall_ns"] = {meanWallNs(t, SpanKind::epoch_unpin), "ns"};
    m["epoch.unpin_model_ns"] = {meanModelNs(t, SpanKind::epoch_unpin), "ns"};
  }
  if (recorded(SpanKind::epoch_retire)) {
    m["epoch.retire_wall_ns"] = {meanWallNs(t, SpanKind::epoch_retire), "ns"};
  }
  if (recorded(SpanKind::epoch_try_reclaim)) {
    m["epoch.try_reclaim_wall_us"] = {
        meanWallNs(t, SpanKind::epoch_try_reclaim) * 1e-3, "us"};
  }
}

void ReclaimTally::tryReclaim(pgasnb::DistGuard& guard, std::uint64_t id) {
  Span span(SpanKind::epoch_try_reclaim, id);
  attempts.fetch_add(1, std::memory_order_relaxed);
  if (guard.tryReclaim()) advances.fetch_add(1, std::memory_order_relaxed);
}

void ReclaimTally::report(Metrics& m) const {
  const std::uint64_t a = attempts.load();
  m["epoch.advances_per_try_reclaim"] = {
      a == 0 ? 0.0
             : static_cast<double>(advances.load()) / static_cast<double>(a),
      "ratio"};
}

double timedClear(const pgasnb::DistDomain& domain) {
  const std::uint64_t sim0 = pgasnb::sim::now();
  Span span(SpanKind::epoch_clear);
  domain.clear();
  return static_cast<double>(pgasnb::sim::now() - sim0) * 1e-6;
}

}  // namespace pgasbench
