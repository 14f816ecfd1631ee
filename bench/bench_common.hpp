// Shared benchmark harness.
//
// Every figure bench prints rows of:
//   figure | series | x | wall_s | model_s | notes
// where wall_s is measured wall-clock on this host (2 cores => weak-scaling
// lines slope up with simulated locale count) and model_s is the simulated
// elapsed time from the runtime's latency model (the paper-shaped column).
//
// Scaling: all op counts multiply by --bench-scale (default 1.0); locale
// sweeps cap at --max-locales (default 64, like the paper's Cray XC-50).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "pgasnb.hpp"

namespace pgasnb::bench {

struct Measurement {
  double wall_s = 0.0;
  double model_s = 0.0;
};

/// Runs `body` on the calling thread with the simulated clock zeroed and
/// returns both clocks' elapsed time.
template <typename Body>
Measurement timed(Body&& body) {
  Measurement m;
  sim::setNow(0);
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.model_s = static_cast<double>(sim::now()) * 1e-9;
  return m;
}

class FigureTable {
 public:
  explicit FigureTable(std::string figure)
      : figure_(std::move(figure)),
        table_({"figure", "series", "x", "wall_s", "model_s", "notes"}) {}

  void addRow(const std::string& series, std::uint64_t x,
              const Measurement& m, const std::string& notes = "") {
    table_.addRow({figure_, series, std::to_string(x),
                   formatSeconds(m.wall_s), formatSeconds(m.model_s), notes});
  }

  void print() {
    std::printf("\n== %s ==\n", figure_.c_str());
    table_.print();
  }

 private:
  std::string figure_;
  TablePrinter table_;
};

/// Per-op latency accounting shared by the workload benches: record each
/// op's model-time latency (ns), read off p50/p95/p99 at the end. Latencies
/// here are simulated-clock durations (issue -> completion), so percentile
/// tails reflect the interconnect model, not host scheduling noise.
class LatencyRecorder {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }

  void record(double ns) { samples_.push_back(ns); }

  /// Convenience for handle-based drivers: completion minus issue time.
  void recordSpan(std::uint64_t issue_ns, std::uint64_t complete_ns) {
    record(static_cast<double>(complete_ns - issue_ns));
  }

  /// Merge another recorder's samples (per-task recorders -> one report).
  void merge(const LatencyRecorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  /// Start a new measurement window: drop every recorded sample (capacity
  /// is kept, so a per-epoch reset costs nothing steady-state). Per-epoch
  /// reporting loops `reset(); record...; summary()` so percentiles never
  /// accumulate across windows.
  void reset() noexcept { samples_.clear(); }

  std::size_t count() const noexcept { return samples_.size(); }

  double p50() const { return percentileNs(0.50); }
  double p95() const { return percentileNs(0.95); }
  double p99() const { return percentileNs(0.99); }

  /// q in [0, 1]; returns ns (0 when empty). Sorts a copy via
  /// pgasnb::percentile, so call at report time, not per op.
  double percentileNs(double q) const {
    if (samples_.empty()) return 0.0;
    return percentile(samples_, q);
  }

  /// "p50=1.2us p95=3.4us p99=7.8us" -- the notes-column spelling.
  std::string summary() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "p50=%.1fus p95=%.1fus p99=%.1fus",
                  p50() * 1e-3, p95() * 1e-3, p99() * 1e-3);
    return buf;
  }

 private:
  std::vector<double> samples_;
};

struct BenchOptions {
  double scale = 1.0;
  std::uint32_t max_locales = 64;
  std::uint32_t tasks_per_locale = 2;
  bool quick = false;

  /// Parses the command line and rejects any flag a bench does not read.
  static BenchOptions parse(int argc, char** argv) {
    const Options opts(argc, argv);
    const BenchOptions b = parse(opts);
    opts.rejectUnread();
    return b;
  }

  /// Reads the common flags from `opts`; the caller reads its own and then
  /// calls `opts.rejectUnread()`.
  static BenchOptions parse(const Options& opts) {
    BenchOptions b;
    b.scale = opts.real("bench-scale", 1.0);
    b.max_locales =
        static_cast<std::uint32_t>(opts.integer("max-locales", 64));
    b.tasks_per_locale =
        static_cast<std::uint32_t>(opts.integer("tasks-per-locale", 2));
    b.quick = opts.boolean("quick", false);
    if (b.quick) {
      b.scale *= 0.25;
      b.max_locales = std::min(b.max_locales, 16u);
    }
    return b;
  }

  std::uint64_t scaled(std::uint64_t n) const {
    const auto s = static_cast<std::uint64_t>(static_cast<double>(n) * scale);
    return s == 0 ? 1 : s;
  }

  /// The paper's locale sweep: powers of two up to max_locales.
  std::vector<std::uint32_t> localeSweep(std::uint32_t lo = 2) const {
    std::vector<std::uint32_t> xs;
    for (std::uint32_t l = lo; l <= max_locales; l *= 2) xs.push_back(l);
    return xs;
  }
};

/// Runtime config for benchmark runs: the defaults with the bench's own
/// axes (locales, workers, comm mode) set. Physical delay injection stays
/// on, so the wall column reflects the interconnect model too. A bench that
/// varies another field (a batch threshold, say) sets it on the result.
inline RuntimeConfig benchConfig(std::uint32_t locales, CommMode mode,
                                 std::uint32_t workers) {
  RuntimeConfig cfg;
  cfg.num_locales = locales;
  cfg.workers_per_locale = workers;
  cfg.comm_mode = mode;
  return cfg;
}

/// The paper's remote-retire route (Sec. II.C), kept as a baseline for
/// fig8 and the scatter-list ablation: a retire goes into the retiring
/// locale's own list, and reclaim() sorts each list by owner and ships
/// every bucket home in one bulk transfer (detail::bulkDeleteScattered).
/// DistDomain instead routes each retire to its owner in a run, so its
/// reclaim frees in place. No epoch protocol here: reclaim() assumes no
/// task still holds a retired object.
class ScatterBaseline {
 public:
  ScatterBaseline() : lists_(Runtime::get().numLocales()) {}

  /// Append `obj` to this locale's list, charged as the paper's limbo push
  /// (node recycle, exchange and link: three processor atomics).
  template <typename T>
  void retire(T* obj) {
    LocaleList& list = lists_[Runtime::here()];
    {
      std::lock_guard<std::mutex> lock(list.lock);
      list.entries.push_back({obj, &detail::arenaDeleter<T>});
    }
    sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 3);
  }

  /// On every locale at once: take the list (one exchange), bucket it by
  /// owner and bulk-delete each bucket on its owner. Returns the number of
  /// objects freed.
  std::uint64_t reclaim() {
    std::atomic<std::uint64_t> freed{0};
    coforallLocales([this, &freed] {
      std::vector<comm::RetireEntry> entries;
      {
        LocaleList& list = lists_[Runtime::here()];
        std::lock_guard<std::mutex> lock(list.lock);
        entries.swap(list.entries);
      }
      sim::charge(Runtime::get().config().latency.cpu_atomic_ns);
      detail::ScatterBuckets buckets(Runtime::get().numLocales());
      for (const comm::RetireEntry& entry : entries) {
        buckets[localeOf(entry.obj)].push_back(entry);
      }
      detail::bulkDeleteScattered(buckets);
      freed.fetch_add(entries.size(), std::memory_order_relaxed);
    });
    return freed.load();
  }

 private:
  struct LocaleList {
    std::mutex lock;
    std::vector<comm::RetireEntry> entries;
  };
  std::vector<LocaleList> lists_;
};

}  // namespace pgasnb::bench
