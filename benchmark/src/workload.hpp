// Shared pieces of the benchmark workloads: the fixed host shape, the
// per-repetition result record, and the outside-in measurements every
// workload takes (coforall fork/join, comm counters, latency percentiles).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pgasnb.hpp"
#include "trace.hpp"

namespace pgasbench {

/// Locales of the fixed host shape: one closed-loop client task per locale,
/// one locale per core of a 4-core host.
inline constexpr std::uint32_t kLocales = 4;

/// The host shape every workload runs on. Built from RuntimeConfig{} (never
/// fromEnv(), so no PGASNB_* variable can change the measured program):
/// 4 locales x 1 worker, delay injection off so the wall clock carries only
/// the library's host cost while the model clock carries the interconnect.
pgasnb::RuntimeConfig hostShape(
    pgasnb::CommMode mode = pgasnb::CommMode::none);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metric name -> value. Ordered so every report lists names the same way.
using Metrics = std::map<std::string, Metric>;

/// What one repetition measured.
struct RepResult {
  double setup_s = 0.0;  ///< runtime + structures + prefill/preallocation
  double host_s = 0.0;   ///< wall time of the timed region
  double model_s = 0.0;  ///< simulated makespan of the timed region
  std::uint64_t ops = 0;        ///< completed ops in the timed region
  std::uint64_t attempted = 0;  ///< ops issued
  std::uint64_t failed = 0;     ///< ops whose outcome was not the expected one
  std::vector<std::string> violations;  ///< invariant checks that failed
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;  ///< simulated latency
  std::uint64_t latency_samples = 0;
  Metrics layer;  ///< per-layer metrics (span-based ones only when traced)

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// FNV-1a digest of the pre-generated inputs.
  virtual std::uint64_t inputDigest() const = 0;
  /// The runtime configuration every repetition runs on.
  virtual pgasnb::RuntimeConfig config() const { return hostShape(); }
  /// One full repetition: set up, run the timed region, check, tear down.
  virtual RepResult run() = 0;
};

/// Builds a workload and generates its inputs from `seed`; nullptr for an
/// unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);
const std::vector<std::string>& workloadNames();

std::unique_ptr<Workload> makeKvReadZipf(std::uint64_t seed);
std::unique_ptr<Workload> makeKvInsertGrow(std::uint64_t seed);
std::unique_ptr<Workload> makeReclaimListing5(std::uint64_t seed);
std::unique_ptr<Workload> makeEngineKv(std::uint64_t seed);
std::unique_ptr<Workload> makeQueueChurnUgni(std::uint64_t seed);

// --- helpers shared by the workloads -------------------------------------

using WallClock = std::chrono::steady_clock;

inline double secondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

template <typename T>
std::uint64_t digestOf(const std::vector<T>& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/// Independent per-purpose streams from one seed.
inline std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return pgasnb::splitmix64(s);
}

/// One repetition's Runtime and DistDomain. Construction is the
/// runtime.setup span (and runtime.setup_ms); destruction destroys the
/// domain, then the runtime. Destroy the structures built on the domain
/// first.
class RuntimeSession {
 public:
  explicit RuntimeSession(const pgasnb::RuntimeConfig& config);
  ~RuntimeSession();
  RuntimeSession(const RuntimeSession&) = delete;
  RuntimeSession& operator=(const RuntimeSession&) = delete;

  double setupMs() const noexcept { return setup_ms_; }

  pgasnb::DistDomain domain;

 private:
  std::unique_ptr<pgasnb::Runtime> runtime_;
  double setup_ms_ = 0.0;
};

/// coforallLocales measured from outside: `runtime.coforall_fork_us` is the
/// wall time from the call to the first task body, `_join_us` from the
/// last body's end to the return. Records a runtime.coforall span.
class TimedCoforall {
 public:
  void operator()(const std::function<void()>& body);
  /// Adds runtime.coforall_fork_us / _join_us to `m`.
  void report(Metrics& m) const;

 private:
  double fork_us_ = 0.0;
  double join_us_ = 0.0;
};

/// Simulated-latency samples of one repetition (ns), reduced to p50 / p99 /
/// p99.9 in microseconds (samples are reordered).
void reduceLatencies(std::vector<std::uint64_t>& samples_ns, RepResult& r);

/// comm/atomic layer metrics from the counters accumulated since the last
/// comm::resetCounters(), normalized by `ops`.
void commMetrics(const pgasnb::comm::Counters& c, std::uint64_t ops,
                 Metrics& m);

/// epoch layer counts from the domain's ReclaimStats.
void reclaimMetrics(const pgasnb::ReclaimStats& s, Metrics& m);

/// ds.rh_* metrics from a map's post-run stats(); zeros for `nullptr`.
void robinHoodMetrics(const pgasnb::RobinHoodStats* s, Metrics& m);

/// Mean wall / model nanoseconds per span of `kind` (0 with no spans).
double meanWallNs(const TotalsTable& t, SpanKind kind);
double meanModelNs(const TotalsTable& t, SpanKind kind);

/// epoch.pin/unpin/retire/try_reclaim span means of the guard-loop
/// workloads (only the kinds that were recorded).
void guardSpanMetrics(const TotalsTable& t, Metrics& m);

/// Calls tryReclaim on `guard` under a span and tallies useful advances
/// against attempts (epoch.advances_per_try_reclaim).
struct ReclaimTally {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> advances{0};

  void tryReclaim(pgasnb::DistGuard& guard, std::uint64_t id);
  void report(Metrics& m) const;
};

/// DistDomain::clear under a span; returns its simulated duration (ms).
double timedClear(const pgasnb::DistDomain& domain);

}  // namespace pgasbench
