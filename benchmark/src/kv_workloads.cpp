// The RobinHoodMap workloads: kv-read-zipf, kv-insert-grow and engine-kv.
//
// Values carry their key (value = key << 16 | tag, tag 0 for the prefill and
// 1 + task for a task's writes), so every find can check that it read a
// value some op wrote.
#include <algorithm>
#include <array>
#include <optional>

#include "workload.hpp"
#include "workload_gen.hpp"

namespace pgasbench {
namespace {

using pgasnb::Runtime;
using pgasnb::comm::Handle;
using Map = pgasnb::RobinHoodMap<std::uint64_t>;

constexpr std::uint64_t kWindowOps = 64;
constexpr double kTheta = 0.99;

enum OpKind : std::uint8_t { kFind = 0, kPut = 1, kInsert = 2 };

constexpr std::uint64_t valueFor(std::uint64_t key, std::uint64_t tag) {
  return key << 16 | tag;
}

bool writtenValue(std::uint64_t key, std::uint64_t v) {
  return (v >> 16) == key && (v & 0xFFFF) <= kLocales;
}

/// ds.rh_issue_wall_ns: mean wall time of a find/put/insert issue call.
void reportIssueWall(const TotalsTable& t, Metrics& m) {
  std::uint64_t calls = 0;
  std::int64_t wall = 0;
  for (SpanKind k :
       {SpanKind::ds_rh_find, SpanKind::ds_rh_put, SpanKind::ds_rh_insert}) {
    calls += t[static_cast<std::size_t>(k)].count;
    wall += t[static_cast<std::size_t>(k)].wall_ns;
  }
  m["ds.rh_issue_wall_ns"] = {
      calls == 0 ? 0.0
                 : static_cast<double>(wall) / static_cast<double>(calls),
      "ns"};
}

/// Inserts keys [0, keys) from every locale in parallel (locale l inserts
/// the keys congruent to l), one aggregated window per locale. False if
/// any insert found its key already present.
bool prefill(const Map& map, std::uint64_t keys, TimedCoforall& coforall) {
  std::atomic<bool> ok{true};
  coforall([&] {
    const std::uint32_t here = Runtime::here();
    std::vector<Handle<bool>> inserted;
    inserted.reserve(keys / kLocales + 1);
    {
      pgasnb::comm::OpWindow window;
      for (std::uint64_t k = here; k < keys; k += kLocales) {
        inserted.push_back(map.insertAsyncAggregated(k, valueFor(k, 0)));
      }
    }
    for (auto& h : inserted) {
      if (!h.value()) ok.store(false);
    }
  });
  return ok.load();
}

// --- kv-read-zipf and kv-insert-grow -----------------------------------------

struct KvSpec {
  std::uint64_t slots;         ///< RobinHoodMap::create capacity
  std::uint64_t keys;          ///< prefilled keys [0, keys)
  std::uint64_t ops_per_task;  ///< closed-loop ops per client task
  pgasnb::bench::MixSpec mix;
  bool zipf;                   ///< Zipf(theta) keys, else uniform
  bool grows;                  ///< the run must resize every segment
};

/// 49,152 keys in 65,536 slots: load 0.75 stays below the 0.85 resize
/// threshold, so the table never grows and nothing is retired.
constexpr KvSpec kReadZipf{65536, 49152, 327680, pgasnb::bench::kReadHeavyMix,
                           true, false};
/// 4,096 keys in 8,192 slots, then 16,384 fresh inserts: each 2,048-slot
/// segment crosses 0.85 twice and ends at 8,192 slots.
constexpr KvSpec kInsertGrow{8192, 4096, 16384, pgasnb::bench::kInsertMix,
                             false, true};

class KvWorkload final : public Workload {
 public:
  KvWorkload(const KvSpec& spec, std::uint64_t seed) : spec_(spec) {
    for (std::uint32_t t = 0; t < kLocales; ++t) {
      pgasnb::Xoshiro256 oprng(streamSeed(seed, 2 * t));
      pgasnb::bench::ZipfianGen zipf(spec.keys, kTheta,
                                     streamSeed(seed, 2 * t + 1));
      pgasnb::bench::UniformGen uniform(spec.keys,
                                        streamSeed(seed, 2 * t + 1));
      auto& keys = keys_[t];
      auto& kinds = kinds_[t];
      keys.reserve(spec.ops_per_task);
      kinds.reserve(spec.ops_per_task);
      std::uint64_t fresh = 0;
      for (std::uint64_t i = 0; i < spec.ops_per_task; ++i) {
        const auto kind =
            static_cast<std::uint8_t>(pgasnb::bench::pickOp(spec.mix, oprng));
        kinds.push_back(kind);
        if (kind == kInsert) {
          // Fresh keys, disjoint across tasks and from the prefill.
          keys.push_back(spec.keys + (fresh++) * kLocales + t);
        } else {
          keys.push_back(spec.zipf ? zipf.next() : uniform.next());
        }
      }
      digest_ = digestOf(kinds, digestOf(keys, digest_));
    }
  }

  std::uint64_t inputDigest() const override { return digest_; }

  RepResult run() override {
    RepResult r;
    const auto t_setup = WallClock::now();
    RuntimeSession session(config());
    Map map = Map::create(spec_.slots, session.domain);
    TimedCoforall prefill_coforall;
    r.check(prefill(map, spec_.keys, prefill_coforall),
            "prefill inserted every key exactly once");
    r.setup_s = secondsSince(t_setup);

    std::array<TaskOut, kLocales> out;
    for (auto& o : out) o.latency_ns.reserve(spec_.ops_per_task);

    pgasnb::comm::resetCounters();
    const std::uint64_t sim0 = pgasnb::sim::now();
    const auto t0 = WallClock::now();
    TimedCoforall coforall;
    coforall([&] {
      const std::uint32_t t = Runtime::here();
      runTask(map, t, out[t]);
    });
    r.host_s = secondsSince(t0);
    r.model_s = static_cast<double>(pgasnb::sim::now() - sim0) * 1e-9;
    const pgasnb::comm::Counters counters = pgasnb::comm::counters();

    std::vector<std::uint64_t> latency;
    latency.reserve(spec_.ops_per_task * kLocales);
    for (auto& o : out) {
      r.failed += o.failed;
      r.check(o.foreign_values == 0, "every find read a value some op wrote");
      latency.insert(latency.end(), o.latency_ns.begin(), o.latency_ns.end());
    }
    r.attempted = r.ops = spec_.ops_per_task * kLocales;
    reduceLatencies(latency, r);

    r.check(map.validateInvariants(), "RobinHoodMap::validateInvariants");
    const pgasnb::RobinHoodStats stats = map.stats();
    r.check(stats.full_rejects == 0, "no insert rejected by a full segment");
    if (spec_.grows) {
      r.check(stats.resizes >= 2 * kLocales, "every segment doubled twice");
    } else {
      r.check(stats.resizes == 0, "the table never resized");
    }

    r.layer["runtime.setup_ms"] = {session.setupMs(), "ms"};
    coforall.report(r.layer);
    commMetrics(counters, r.ops, r.layer);
    reclaimMetrics(session.domain.stats(), r.layer);
    robinHoodMetrics(&stats, r.layer);
    if (Tracer::enabled()) spanMetrics(r.layer);

    map.destroy();
    return r;
  }

 private:
  struct TaskOut {
    std::vector<std::uint64_t> latency_ns;
    std::uint64_t failed = 0;
    std::uint64_t foreign_values = 0;
  };

  /// One client task: windows of kWindowOps aggregated ops, each joined
  /// before the next is issued (closed loop), results checked per op.
  void runTask(const Map& map, std::uint32_t t, TaskOut& out) const {
    const auto& keys = keys_[t];
    const auto& kinds = kinds_[t];
    const std::uint64_t tag = 1 + t;
    std::vector<Handle<std::optional<std::uint64_t>>> finds;
    std::vector<Handle<bool>> writes;
    std::vector<std::uint64_t> find_at, write_at;
    std::array<std::uint64_t, kWindowOps> issue{};
    for (std::uint64_t base = 0; base < keys.size(); base += kWindowOps) {
      const std::uint64_t end =
          std::min<std::uint64_t>(keys.size(), base + kWindowOps);
      finds.clear();
      writes.clear();
      find_at.clear();
      write_at.clear();
      {
        pgasnb::comm::OpWindow window;
        for (std::uint64_t i = base; i < end; ++i) {
          const std::uint64_t key = keys[i];
          issue[i - base] = pgasnb::sim::now();
          switch (kinds[i]) {
            case kFind: {
              Span span(SpanKind::ds_rh_find, i);
              finds.push_back(map.findAsyncAggregated(key));
              find_at.push_back(i);
              break;
            }
            case kPut: {
              Span span(SpanKind::ds_rh_put, i);
              writes.push_back(map.putAsyncAggregated(key, valueFor(key, tag)));
              write_at.push_back(i);
              break;
            }
            default: {
              Span span(SpanKind::ds_rh_insert, i);
              writes.push_back(
                  map.insertAsyncAggregated(key, valueFor(key, tag)));
              write_at.push_back(i);
              break;
            }
          }
        }
        Span span(SpanKind::comm_window_close, base / kWindowOps);
        window.join();
      }
      const auto latency = [&](std::uint64_t i, std::uint64_t done) {
        const std::uint64_t at = issue[i - base];
        out.latency_ns.push_back(done > at ? done - at : 0);
      };
      for (std::size_t j = 0; j < finds.size(); ++j) {
        const std::uint64_t i = find_at[j];
        latency(i, finds[j].completionTime());
        const std::optional<std::uint64_t>& v = finds[j].value();
        if (!v) {
          ++out.failed;  // every find targets a prefilled key
        } else if (!writtenValue(keys[i], *v)) {
          ++out.foreign_values;
        }
      }
      for (std::size_t j = 0; j < writes.size(); ++j) {
        const std::uint64_t i = write_at[j];
        latency(i, writes[j].completionTime());
        // A put targets a present key (not newly inserted); an insert
        // targets a fresh key (newly inserted).
        if (writes[j].value() != (kinds[i] == kInsert)) ++out.failed;
      }
    }
  }

  static void spanMetrics(Metrics& m) {
    const TotalsTable t = Tracer::totals();
    reportIssueWall(t, m);
    std::vector<DurationSample> closes =
        Tracer::samples(SpanKind::comm_window_close);
    std::vector<double> wall_us, model_us;
    for (const DurationSample& s : closes) {
      wall_us.push_back(static_cast<double>(s.wall_ns) * 1e-3);
      model_us.push_back(static_cast<double>(s.model_ns) * 1e-3);
    }
    m["comm.window_close_wall_us"] = {
        meanWallNs(t, SpanKind::comm_window_close) * 1e-3, "us"};
    m["comm.window_close_wall_us_p99"] = {pgasnb::percentile(wall_us, 0.99),
                                          "us"};
    m["comm.window_close_model_us"] = {
        meanModelNs(t, SpanKind::comm_window_close) * 1e-3, "us"};
    m["comm.window_close_model_us_p99"] = {
        pgasnb::percentile(model_us, 0.99), "us"};
  }

  KvSpec spec_;
  std::array<std::vector<std::uint64_t>, kLocales> keys_;
  std::array<std::vector<std::uint8_t>, kLocales> kinds_;
  std::uint64_t digest_ = fnv1a(nullptr, 0);
};

// --- engine-kv -----------------------------------------------------------

constexpr std::uint64_t kEngineEpochs = 128;
constexpr std::uint64_t kEngineOpsPerEpoch = 16384;
constexpr std::uint64_t kEngineOpsPerLane = kEngineOpsPerEpoch / kLocales;
constexpr std::uint64_t kPutBit = std::uint64_t{1} << 63;

/// The engine tenant: 50/50 find/put over the kv-read-zipf table. Admit
/// replays the pre-generated lane streams; initialize stages one version
/// node per put and retires it (steady per-epoch garbage); execute issues
/// aggregated ops and checks the previous epoch's results. One lane per
/// locale (engine workers_per_locale = 1), so a lane is its locale id.
class KvEngineClient final : public pgasnb::engine::EpochClient {
 public:
  KvEngineClient(const Map& map,
                 const std::array<std::vector<std::uint64_t>, kLocales>& ops)
      : map_(map), ops_(ops) {}

  pgasnb::engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                                 std::uint64_t k) override {
    Span span(SpanKind::engine_admit, k);
    Lane& l = lanes_[lane];
    ++l.admitted;
    const std::uint64_t op = ops_[lane][epoch * kEngineOpsPerLane + k];
    pgasnb::engine::OpRecord rec;
    rec.key = op & ~kPutBit;
    rec.kind = (op & kPutBit) != 0 ? kPut : kFind;
    rec.arg = valueFor(rec.key, 1 + lane);
    return rec;
  }

  std::uint32_t ownerOf(const pgasnb::engine::OpRecord& op) const override {
    return map_.ownerOfKey(op.key);
  }

  void initialize(std::uint64_t epoch, pgasnb::DistGuard& guard,
                  std::span<pgasnb::engine::OpRecord> ops) override {
    Span span(SpanKind::engine_initialize, epoch);
    for (pgasnb::engine::OpRecord& op : ops) {
      if (op.kind != kPut) continue;
      auto* version = pgasnb::DistDomain::make<std::uint64_t>(op.arg);
      Span retire(SpanKind::epoch_retire, op.key);
      guard.retire(version);
    }
  }

  pgasnb::engine::OpTicket execute(std::uint64_t epoch,
                                   pgasnb::engine::OpRecord& op,
                                   pgasnb::comm::OpWindow& window) override {
    (void)window;  // aggregated ops enroll into the engine's open window
    Span span(SpanKind::engine_execute, op.key);
    Lane& l = lanes_[Runtime::here()];
    if (epoch != l.epoch) {
      checkResults(l);  // the previous epoch's window has closed
      l.epoch = epoch;
    }
    ++l.executed;
    if (op.kind == kPut) {
      Span call(SpanKind::ds_rh_put, op.key);
      l.puts.push_back(map_.putAsyncAggregated(op.key, op.arg));
      return l.puts.back();
    }
    Span call(SpanKind::ds_rh_find, op.key);
    l.finds.emplace_back(op.key, map_.findAsyncAggregated(op.key));
    return l.finds.back().second;
  }

  /// Checks the results still held after run(), then returns the totals.
  void finish(std::uint64_t& admitted, std::uint64_t& executed,
              std::uint64_t& failed, std::uint64_t& foreign) {
    for (Lane& l : lanes_) {
      checkResults(l);
      admitted += l.admitted;
      executed += l.executed;
      failed += l.failed;
      foreign += l.foreign_values;
    }
  }

 private:
  struct Lane {
    std::uint64_t epoch = 0;
    std::uint64_t admitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;
    std::uint64_t foreign_values = 0;
    std::vector<std::pair<std::uint64_t, Handle<std::optional<std::uint64_t>>>>
        finds;
    std::vector<Handle<bool>> puts;
  };

  static void checkResults(Lane& l) {
    for (auto& [key, h] : l.finds) {
      const std::optional<std::uint64_t>& v = h.value();
      if (!v) {
        ++l.failed;
      } else if (!writtenValue(key, *v)) {
        ++l.foreign_values;
      }
    }
    for (auto& h : l.puts) {
      if (h.value()) ++l.failed;  // every put targets a prefilled key
    }
    l.finds.clear();
    l.puts.clear();
  }

  Map map_;
  const std::array<std::vector<std::uint64_t>, kLocales>& ops_;
  std::array<Lane, kLocales> lanes_;
};

class EngineKvWorkload final : public Workload {
 public:
  explicit EngineKvWorkload(std::uint64_t seed) {
    for (std::uint32_t lane = 0; lane < kLocales; ++lane) {
      pgasnb::Xoshiro256 oprng(streamSeed(seed, 2 * lane));
      pgasnb::bench::ZipfianGen zipf(kReadZipf.keys, kTheta,
                                     streamSeed(seed, 2 * lane + 1));
      auto& ops = ops_[lane];
      ops.reserve(kEngineEpochs * kEngineOpsPerLane);
      for (std::uint64_t i = 0; i < kEngineEpochs * kEngineOpsPerLane; ++i) {
        const bool put =
            pgasnb::bench::pickOp(pgasnb::bench::kUpdateHeavyMix, oprng) == 1;
        ops.push_back(zipf.next() | (put ? kPutBit : 0));
      }
      digest_ = digestOf(ops, digest_);
    }
  }

  std::uint64_t inputDigest() const override { return digest_; }

  RepResult run() override {
    RepResult r;
    const auto t_setup = WallClock::now();
    RuntimeSession session(config());
    Map map = Map::create(kReadZipf.slots, session.domain);
    TimedCoforall prefill_coforall;
    r.check(prefill(map, kReadZipf.keys, prefill_coforall),
            "prefill inserted every key exactly once");
    KvEngineClient client(map, ops_);
    pgasnb::engine::EpochEngineConfig cfg;
    cfg.ops_per_epoch = kEngineOpsPerEpoch;
    cfg.workers_per_locale = 1;
    cfg.mode = pgasnb::engine::PhaseMode::pipelined;
    cfg.keep_latency_samples = true;
    pgasnb::engine::EpochEngine engine(session.domain, client, cfg);
    r.setup_s = secondsSince(t_setup);

    pgasnb::comm::resetCounters();
    const std::uint64_t sim0 = pgasnb::sim::now();
    const auto t0 = WallClock::now();
    std::vector<pgasnb::engine::EpochStats> stats;
    {
      Span span(SpanKind::engine_run);
      stats = engine.run(kEngineEpochs);
    }
    r.host_s = secondsSince(t0);
    r.model_s = static_cast<double>(pgasnb::sim::now() - sim0) * 1e-9;
    const pgasnb::comm::Counters counters = pgasnb::comm::counters();

    std::uint64_t admitted = 0, executed = 0, foreign = 0;
    client.finish(admitted, executed, r.failed, foreign);
    std::uint64_t reported = 0;
    std::vector<std::uint64_t> latency;
    std::vector<double> epoch_us;
    for (const auto& s : stats) {
      reported += s.ops;
      epoch_us.push_back(s.model_s * 1e6);
      for (double ns : s.latencies_ns) {
        latency.push_back(static_cast<std::uint64_t>(ns));
      }
    }
    const std::uint64_t expected = kEngineEpochs * kEngineOpsPerEpoch;
    r.attempted = admitted;
    r.ops = executed;
    r.failed += admitted - std::min(admitted, executed);
    r.check(admitted == expected && executed == admitted &&
                reported == executed,
            "engine executed every admitted op");
    r.check(foreign == 0, "every find read a value some op wrote");
    r.check(!stats.empty() && stats.back().reclaim.pending() == 0,
            "the final epoch boundary left nothing pending");
    for (std::size_t e = 1; e < stats.size(); ++e) {
      r.check(stats[e].reclaim.reclaimed >= stats[e - 1].reclaim.deferred,
              "garbage retired by epoch N was reclaimed by epoch N+1");
    }
    r.check(map.validateInvariants(), "RobinHoodMap::validateInvariants");
    reduceLatencies(latency, r);

    const pgasnb::RobinHoodStats rh = map.stats();
    r.layer["runtime.setup_ms"] = {session.setupMs(), "ms"};
    prefill_coforall.report(r.layer);
    commMetrics(counters, r.ops, r.layer);
    reclaimMetrics(session.domain.stats(), r.layer);
    robinHoodMetrics(&rh, r.layer);
    r.layer["engine.epoch_model_us"] = {pgasnb::percentile(epoch_us, 0.5),
                                        "us"};
    r.layer["engine.epoch_model_us_p99"] = {
        pgasnb::percentile(epoch_us, 0.99), "us"};
    r.layer["engine.reclaim_lag_epochs"] = {reclaimLag(stats), "epochs"};
    if (Tracer::enabled()) spanMetrics(r.layer);

    map.destroy();
    return r;
  }

 private:
  /// Largest number of boundaries any epoch's garbage waited before the
  /// domain had reclaimed it.
  static double reclaimLag(const std::vector<pgasnb::engine::EpochStats>& s) {
    std::size_t worst = 0;
    for (std::size_t e = 0; e < s.size(); ++e) {
      std::size_t done = e;
      while (done < s.size() &&
             s[done].reclaim.reclaimed < s[e].reclaim.deferred) {
        ++done;
      }
      worst = std::max(worst, done - e);
    }
    return static_cast<double>(worst);
  }

  static void spanMetrics(Metrics& m) {
    const TotalsTable t = Tracer::totals();
    m["engine.admit_wall_ns"] = {meanWallNs(t, SpanKind::engine_admit), "ns"};
    m["engine.initialize_wall_ns"] = {
        meanWallNs(t, SpanKind::engine_initialize), "ns"};
    m["engine.execute_wall_ns"] = {meanWallNs(t, SpanKind::engine_execute),
                                   "ns"};
    std::int64_t hooks = 0;
    for (SpanKind k : {SpanKind::engine_admit, SpanKind::engine_initialize,
                       SpanKind::engine_execute}) {
      hooks += t[static_cast<std::size_t>(k)].wall_ns;
    }
    // Lanes run their hooks in parallel: each lane spends hooks / lanes.
    const double run_ns = static_cast<double>(
        t[static_cast<std::size_t>(SpanKind::engine_run)].wall_ns);
    m["engine.run_self_wall_ms"] = {
        (run_ns - static_cast<double>(hooks) / kLocales) * 1e-6, "ms"};
    reportIssueWall(t, m);
    m["epoch.retire_wall_ns"] = {meanWallNs(t, SpanKind::epoch_retire), "ns"};
  }

  std::array<std::vector<std::uint64_t>, kLocales> ops_;
  std::uint64_t digest_ = fnv1a(nullptr, 0);
};

}  // namespace

std::unique_ptr<Workload> makeKvReadZipf(std::uint64_t seed) {
  return std::make_unique<KvWorkload>(kReadZipf, seed);
}

std::unique_ptr<Workload> makeKvInsertGrow(std::uint64_t seed) {
  return std::make_unique<KvWorkload>(kInsertGrow, seed);
}

std::unique_ptr<Workload> makeEngineKv(std::uint64_t seed) {
  return std::make_unique<EngineKvWorkload>(seed);
}

}  // namespace pgasbench
