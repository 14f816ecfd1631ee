// Epoch-phased batch engine over the Robin Hood KV table: the engine's
// pipelined schedule vs a phase-barriered baseline.
//
// Each cell is (schedule, locales): a RobinHoodMap is prefilled, then E
// epochs of M mixed read/update operations (Zipfian theta=0.99 keys) run
// through one engine::EpochClient under --
//
//   * barriered -- BarrieredBaseline below, bench code over the engine's
//                  public API: admit | advance | initialize | advance |
//                  execute with serial spin-join windows | boundary. Every
//                  phase is a separate all-locales collective; execute
//                  joins each window_ops sub-batch before issuing the next.
//   * pipelined -- engine::EpochEngine: one collective per epoch; each lane
//                  issues epoch e in window_ops slices; after each slice it
//                  ships the task aggregator, admits+initializes the
//                  matching slice of epoch e+1, and drains the window's
//                  finished head.
//
// Rows report per-epoch model-time throughput and issue->completion
// latency percentiles (LatencyRecorder reset() per epoch window); the
// notes column carries the cell aggregate for scripts/bench_json.sh.
//
// Acceptance (ISSUE 7): at 8 locales the pipelined schedule must complete
// the same epochs in <= 1/1.3 the model time of the barriered baseline
// (>= 1.3x speedup) -- next-epoch admit/initialize CPU runs while each
// shipped slice is in flight, and the interior phase barriers are gone.
// PASS/FAIL is printed and FAIL exits non-zero so CI can gate on it.
//
// --epoch-sweep runs the opt-in stress grid (locales x ops-per-epoch, the
// engine alone) registered as `ctest -L stress` (stress_epoch_engine_sweep).
#include "bench_common.hpp"
#include "workload_gen.hpp"

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <vector>

namespace {

using namespace pgasnb;
using namespace pgasnb::bench;

constexpr std::uint64_t kKeySpace = 2048;  // prefilled keys per cell
constexpr std::uint64_t kCapacity = 8192;  // table slots
constexpr double kTheta = 0.99;            // YCSB default Zipf skew
constexpr double kUpdateRatio = 0.5;       // YCSB-A shape: 50/50 read/update

/// Engine tenant: Zipfian read/update mix over a RobinHoodMap. Updates
/// stage one version node per op in the initialize phase and retire it
/// under the epoch guard, so every epoch produces real EBR garbage for the
/// boundary protocol to reclaim.
class KvEngineClient : public engine::EpochClient {
 public:
  KvEngineClient(RobinHoodMap<std::uint64_t> map, std::uint32_t n_lanes)
      : map_(map) {
    lanes_.reserve(n_lanes);
    for (std::uint32_t l = 0; l < n_lanes; ++l) {
      lanes_.push_back(std::make_unique<LaneGen>(l));
    }
  }

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    (void)epoch;
    (void)k;
    LaneGen& gen = *lanes_[lane];
    engine::OpRecord op;
    op.key = gen.zipf.next();
    op.kind = gen.oprng.nextDouble() < kUpdateRatio ? 1u : 0u;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return map_.ownerOfKey(op.key);
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    for (engine::OpRecord& op : ops) {
      if (op.kind != 1) continue;
      // Stage the update's version node; the previous version becomes this
      // epoch's garbage (retired under the engine's guard, reclaimed by the
      // boundary protocol no later than epoch+1).
      auto* version = DistDomain::make<std::uint64_t>(op.key * 3 + epoch);
      op.arg = *version;
      guard.retire(version);
    }
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)epoch;
    (void)window;  // aggregated ops auto-enroll into the open window
    if (op.kind == 1) return map_.putAsyncAggregated(op.key, op.arg);
    return map_.findAsyncAggregated(op.key);
  }

 private:
  struct LaneGen {
    explicit LaneGen(std::uint32_t lane)
        : zipf(kKeySpace, kTheta, lane * 104729 + 29),
          oprng(lane * 7919 + 17) {}
    ZipfianGen zipf;
    Xoshiro256 oprng;
  };

  RobinHoodMap<std::uint64_t> map_;
  std::vector<std::unique_ptr<LaneGen>> lanes_;
};

/// The phase-barriered serial baseline the engine is measured against. Each
/// epoch runs six steps, each joined before the next starts:
///   1. a lane collective that admits the lane's slice (charging
///      admit_cpu_ns_per_op per op) and groups it by owner, ranked from
///      (here + 1) % n like the engine's lanes;
///   2. domain.advance();
///   3. a lane collective that stages the whole slice under domain.pin();
///   4. domain.advance();
///   5. a lane collective that issues serial, spin-joined OpWindows of
///      window_ops ops and records issue-to-completion latency;
///   6. epochBoundaryCollective, then boundary_advances advances.
/// Lanes and the M split match the engine's, so both schedules run the
/// same ops.
class BarrieredBaseline {
 public:
  BarrieredBaseline(DistDomain domain, engine::EpochClient& client,
                    const engine::EpochEngineConfig& cfg)
      : domain_(domain), client_(client), cfg_(cfg),
        lanes_(Runtime::get().numLocales() * cfg.workers_per_locale) {}

  std::vector<engine::EpochStats> run(std::uint64_t epochs) {
    std::vector<engine::EpochStats> stats;
    for (std::uint64_t e = 0; e < epochs; ++e) {
      const std::uint64_t t0 = sim::now();
      forEachLane([&](std::uint32_t lane_id, Lane& lane) {
        admit(e, lane_id, lane);
      });
      domain_.advance();
      forEachLane([&](std::uint32_t, Lane& lane) {
        DistGuard guard = domain_.pin();
        client_.initialize(e, guard, lane.ops);
      });
      domain_.advance();
      forEachLane([&](std::uint32_t, Lane& lane) { execute(e, lane); });
      epochBoundaryCollective([] { return true; });
      for (std::uint32_t i = 0; i < cfg_.boundary_advances; ++i) {
        domain_.advance();
      }

      engine::EpochStats s;
      s.epoch = e;
      s.global_epoch = domain_.currentEpoch();
      s.reclaim = domain_.stats();
      for (Lane& lane : lanes_) {
        s.ops += lane.ops.size();
        s.latencies_ns.insert(s.latencies_ns.end(), lane.latencies.begin(),
                              lane.latencies.end());
        lane.ops.clear();
        lane.latencies.clear();
      }
      s.model_s = static_cast<double>(sim::now() - t0) * 1e-9;
      stats.push_back(std::move(s));
    }
    return stats;
  }

 private:
  struct Lane {
    std::vector<engine::OpRecord> ops;
    std::vector<double> latencies;  ///< this epoch's samples (ns)
  };

  template <typename Body>
  void forEachLane(const Body& body) {
    const std::uint32_t W = cfg_.workers_per_locale;
    coforallLocales([&] {
      const auto here = static_cast<std::uint32_t>(Runtime::here());
      coforallHere(W, [&](std::uint32_t w) {
        body(here * W + w, lanes_[here * W + w]);
      });
    });
  }

  void admit(std::uint64_t epoch, std::uint32_t lane_id, Lane& lane) {
    const auto n_lanes = static_cast<std::uint32_t>(lanes_.size());
    const std::uint64_t count =
        cfg_.ops_per_epoch / n_lanes +
        (lane_id < cfg_.ops_per_epoch % n_lanes ? 1 : 0);
    for (std::uint64_t k = 0; k < count; ++k) {
      engine::OpRecord op = client_.admit(epoch, lane_id, k);
      op.owner = client_.ownerOf(op);
      lane.ops.push_back(op);
    }
    sim::charge(count * cfg_.admit_cpu_ns_per_op);
    const std::uint32_t n_loc = Runtime::get().numLocales();
    const std::uint32_t first = (Runtime::here() + 1) % n_loc;
    std::stable_sort(lane.ops.begin(), lane.ops.end(),
                     [n_loc, first](const engine::OpRecord& a,
                                    const engine::OpRecord& b) {
                       return (a.owner + n_loc - first) % n_loc <
                              (b.owner + n_loc - first) % n_loc;
                     });
  }

  void execute(std::uint64_t epoch, Lane& lane) {
    std::vector<engine::OpTicket> tickets(lane.ops.size());
    for (std::size_t lo = 0; lo < lane.ops.size(); lo += cfg_.window_ops) {
      const std::size_t hi = std::min<std::size_t>(lo + cfg_.window_ops,
                                                   lane.ops.size());
      comm::OpWindow window;
      for (std::size_t i = lo; i < hi; ++i) {
        lane.ops[i].issue_ns = sim::now();
        tickets[i] = client_.execute(epoch, lane.ops[i], window);
      }
    }  // each window spin-joins its sub-batch before the next is issued
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (!tickets[i].valid()) continue;
      const std::uint64_t issue = lane.ops[i].issue_ns;
      const std::uint64_t done = tickets[i].completionTime();
      lane.latencies.push_back(
          done > issue ? static_cast<double>(done - issue) : 0.0);
    }
  }

  DistDomain domain_;
  engine::EpochClient& client_;
  engine::EpochEngineConfig cfg_;
  std::vector<Lane> lanes_;
};

struct CellResult {
  Measurement m;
  std::uint64_t ops = 0;
  std::vector<engine::EpochStats> stats;
};

const char* seriesName(bool barriered) {
  return barriered ? "barriered" : "pipelined";
}

CellResult runCell(bool barriered, std::uint32_t locales,
                   std::uint64_t ops_per_epoch, std::uint64_t epochs,
                   std::uint32_t workers, bool print_epochs) {
  Runtime rt(benchConfig(locales, CommMode::none, workers));
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(kCapacity, domain);
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kKeySpace; ++k) {
      (void)map.insertAsyncAggregated(k, k * 3);  // auto-enrolls
    }
  }

  KvEngineClient client(map, locales * workers);
  engine::EpochEngineConfig cfg;
  cfg.ops_per_epoch = ops_per_epoch;
  cfg.workers_per_locale = workers;
  cfg.keep_latency_samples = print_epochs;

  CellResult r;
  if (barriered) {
    BarrieredBaseline baseline(domain, client, cfg);
    r.m = timed([&] { r.stats = baseline.run(epochs); });
  } else {
    engine::EpochEngine eng(domain, client, cfg);
    r.m = timed([&] { r.stats = eng.run(epochs); });
  }
  for (const auto& s : r.stats) r.ops += s.ops;

  if (print_epochs) {
    LatencyRecorder lat;  // one recorder, reset() per epoch window
    for (const auto& s : r.stats) {
      lat.reset();
      for (double ns : s.latencies_ns) lat.record(ns);
      std::printf("    [%s %2" PRIu32 "loc] epoch %" PRIu64 ": %" PRIu64
                  " ops  thr=%.2fMops  %s  reclaim=%" PRIu64 "/%" PRIu64
                  "\n",
                  seriesName(barriered), locales, s.epoch, s.ops,
                  s.throughputOps() * 1e-6, lat.summary().c_str(),
                  s.reclaim.reclaimed, s.reclaim.deferred);
    }
  }

  PGASNB_CHECK_MSG(map.validateInvariants(),
                   "epoch_engine: Robin Hood invariants violated after run");
  map.destroy();
  domain.destroy();
  return r;
}

int runSweep(const BenchOptions& opts) {
  // Stress grid: locales x ops-per-epoch, the engine alone. Its own checks
  // (op accounting, boundary quiescence, reclamation protocol) are the
  // acceptance here; throughput rows are informational.
  FigureTable table("epoch-engine-sweep");
  const std::uint64_t epochs = 3;
  for (std::uint32_t locales : opts.localeSweep(2)) {
    for (std::uint64_t m : {std::uint64_t{1} << 10, std::uint64_t{1} << 12,
                            std::uint64_t{1} << 14}) {
      const std::uint64_t ops = opts.scaled(m);
      const CellResult r = runCell(/*barriered=*/false, locales, ops, epochs,
                                   opts.tasks_per_locale, false);
      const double thr =
          r.m.model_s > 0.0 ? static_cast<double>(r.ops) / r.m.model_s : 0.0;
      char series[64];
      std::snprintf(series, sizeof(series), "pipelined/M=%" PRIu64, ops);
      char notes[96];
      std::snprintf(notes, sizeof(notes), "epochs=%" PRIu64
                    " ops=%" PRIu64 " thr=%.2fMops",
                    epochs, r.ops, thr * 1e-6);
      table.addRow(series, locales, r.m, notes);
    }
  }
  table.print();
  std::printf("epoch-engine sweep complete\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options raw(argc, argv);
  const BenchOptions opts = BenchOptions::parse(raw);
  const bool sweep = raw.boolean("epoch-sweep", false);
  raw.rejectUnread();
  if (sweep) return runSweep(opts);

  const std::uint64_t ops_per_epoch = opts.scaled(4096);
  const std::uint64_t epochs = 4;

  FigureTable table("epoch-engine");
  double at8_model[2] = {0.0, 0.0};  // [barriered, pipelined]
  for (std::uint32_t locales = 2;
       locales <= std::min(opts.max_locales, 8u); locales *= 2) {
    for (const bool barriered : {true, false}) {
      const CellResult r = runCell(barriered, locales, ops_per_epoch, epochs,
                                   opts.tasks_per_locale, true);
      const double thr = r.m.model_s > 0.0
                             ? static_cast<double>(r.ops) / r.m.model_s
                             : 0.0;
      // Aggregate percentiles over all epochs for the summary row.
      LatencyRecorder lat;
      for (const auto& s : r.stats) {
        for (double ns : s.latencies_ns) lat.record(ns);
      }
      char notes[160];
      std::snprintf(notes, sizeof(notes),
                    "epochs=%" PRIu64 " ops=%" PRIu64 " thr=%.2fMops %s",
                    epochs, r.ops, thr * 1e-6, lat.summary().c_str());
      table.addRow(seriesName(barriered), locales, r.m, notes);
      if (locales == 8) at8_model[barriered ? 0 : 1] = r.m.model_s;
    }
  }
  table.print();

  if (opts.max_locales < 8) {
    std::printf("acceptance check skipped (needs --max-locales >= 8)\n");
    return 0;
  }
  const double ratio =
      at8_model[1] > 0.0 ? at8_model[0] / at8_model[1] : 0.0;
  const bool pass = ratio >= 1.3;
  std::printf(
      "\npipelined vs barriered at 8 locales: %.2fx model-time speedup "
      "(%.6fs vs %.6fs for %" PRIu64 " epochs x %" PRIu64 " ops)\n",
      ratio, at8_model[1], at8_model[0], epochs, ops_per_epoch);
  std::printf("acceptance (pipelined >= 1.3x barriered): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
