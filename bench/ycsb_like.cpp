// YCSB-shaped mixed workloads over the two distributed hash tables.
//
// Every cell is (table, mix, key distribution, locales): the table is
// prefilled to a fixed key space, then every locale drives windows of 64
// handle-returning ops through a comm::OpWindow --
//
//   * robinhood -- RobinHoodMap: find/put/insert *AsyncAggregated*, riding
//                  the task Aggregator (one wire+service charge per batch
//                  per destination, per-op CPU at the owner).
//   * iht       -- InterlockedHashTable: findAsync/updateAsync/insertAsync,
//                  one async AM per op adopted into the window with add()
//                  (the pre-aggregation discipline: per-op wire+service).
//
// Mixes (YCSB shapes): read-heavy 95/5 read/update (YCSB-B), update-heavy
// 50/50 (YCSB-A), insert-mix 50/25/25 read/update/insert. Key draws are
// uniform or Zipfian theta=0.99 (YCSB's default skew) over the prefilled
// key space; inserts always draw fresh keys. Each row reports model-time
// throughput and per-op p50/p95/p99 latency (issue -> completion, simulated
// clock) in the notes column, which scripts/bench_json.sh records into
// BENCH_ycsb_like.json.
//
// Insert-mix Robin Hood cells deliberately seed the table at half the
// expected final key count, so the run must cross the create()-time
// capacity and serve traffic *through* incremental per-segment resize
// (ISSUE 9); the notes report resizes= and chunks= alongside rejects=.
// maxdisp= is the RobinHoodStats::max_displacement high-water mark.
//
// Acceptance (ISSUE 6): at 8 locales, read-heavy + Zipfian, RobinHoodMap
// must show >= 2x the model-time throughput of InterlockedHashTable -- the
// aggregated batch path amortizes the wire+service cost that the per-op AM
// path pays on every lookup, and skew concentrates those AMs on hot owners'
// progress threads. The bench prints the ratio and a PASS/FAIL verdict and
// exits non-zero on FAIL so CI can gate on it. Acceptance (ISSUE 9): every
// insert-mix Robin Hood cell must finish with resizes >= 1 and
// full_rejects == 0, also gated by exit status.
// Every insert-mix Robin Hood cell must also finish with maxdisp <= 64:
// grown segments must spread their keys over the whole doubled table, not
// crowd them into one seed-size slice. The same exit status gates it.
#include "bench_common.hpp"
#include "workload_gen.hpp"

#include <algorithm>
#include <cinttypes>
#include <mutex>

namespace {

using namespace pgasnb;
using namespace pgasnb::bench;

enum class TableKind { robinhood, iht };

const char* toString(TableKind kind) {
  return kind == TableKind::robinhood ? "robinhood" : "iht";
}

constexpr std::uint64_t kKeySpace = 2048;  // prefilled keys per cell
constexpr std::uint64_t kCapacity = 8192;  // slots (RH) / buckets (IHT)
constexpr std::uint64_t kWindow = 64;      // ops per OpWindow
constexpr double kTheta = 0.99;            // YCSB default Zipf skew

struct CellResult {
  Measurement m;
  std::uint64_t ops = 0;
  LatencyRecorder lat;
  bool has_rejects = false;          // robinhood cells only
  std::uint64_t full_rejects = 0;    // RobinHoodStats::full_rejects
  std::uint64_t resizes = 0;         // RobinHoodStats::resizes
  std::uint64_t migrate_chunks = 0;  // RobinHoodStats::migrate_chunks
  std::uint64_t max_displacement = 0;  // RobinHoodStats::max_displacement
};

/// Insert-mix bar on Robin Hood probe length: uniform homes keep the worst
/// placement displacement small even after every segment has doubled.
constexpr std::uint64_t kMaxInsertMixDisplacement = 64;

/// One locale's slice of the mixed phase, generic over the per-op issue
/// hooks so both tables share the window/issue/latency plumbing.
template <typename ReadFn, typename UpdateFn, typename InsertFn>
void driveMix(const MixSpec& mix, KeyDist dist, std::uint64_t ops,
              LatencyRecorder& lat, ReadFn read, UpdateFn update,
              InsertFn insert) {
  const std::uint64_t here = Runtime::here();
  Xoshiro256 oprng(here * 7919 + 17);
  ZipfianGen zipf(kKeySpace, kTheta, here * 104729 + 29);
  UniformGen uni(kKeySpace, here * 104729 + 29);
  // Fresh-key cursor: disjoint per locale, disjoint from the key space.
  std::uint64_t fresh = kKeySpace + (here + 1) * (std::uint64_t{1} << 32);

  std::vector<comm::Handle<std::optional<std::uint64_t>>> reads;
  std::vector<comm::Handle<bool>> writes;
  std::vector<std::uint64_t> read_issue, write_issue;
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    const std::uint64_t n = std::min(kWindow, remaining);
    reads.clear();
    writes.clear();
    read_issue.clear();
    write_issue.clear();
    {
      comm::OpWindow window;
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key =
            dist == KeyDist::zipfian ? zipf.next() : uni.next();
        const std::uint64_t issue = sim::now();
        switch (pickOp(mix, oprng)) {
          case 0:
            reads.push_back(read(window, key));
            read_issue.push_back(issue);
            break;
          case 1:
            writes.push_back(update(window, key, key * 3));
            write_issue.push_back(issue);
            break;
          default:
            writes.push_back(insert(window, fresh, fresh));
            write_issue.push_back(issue);
            ++fresh;
            break;
        }
      }
    }  // close: auto-flush + join at the max sim-time
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const std::uint64_t done = reads[i].completionTime();
      lat.recordSpan(std::min(read_issue[i], done), done);
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
      const std::uint64_t done = writes[i].completionTime();
      lat.recordSpan(std::min(write_issue[i], done), done);
    }
    remaining -= n;
  }
}

CellResult runCell(TableKind kind, const MixSpec& mix, KeyDist dist,
                   std::uint32_t locales, std::uint64_t ops_per_locale,
                   std::uint32_t tasks_per_locale) {
  RuntimeConfig cfg =
      benchConfig(locales, CommMode::none, tasks_per_locale);
  Runtime rt(cfg);
  DistDomain domain = DistDomain::create();

  RobinHoodMap<std::uint64_t> rh;
  InterlockedHashTable<std::uint64_t> iht;
  if (kind == TableKind::robinhood) {
    // Insert-mix cells seed the Robin Hood table at half the *final* key
    // count (prefill + expected fresh inserts), so the run is guaranteed
    // to cross the create()-time capacity and exercise incremental resize
    // while serving traffic. The other mixes keep the fixed partition.
    std::uint64_t rh_capacity = kCapacity;
    if (mix.insert > 0.0) {
      const std::uint64_t final_keys =
          kKeySpace + static_cast<std::uint64_t>(
                          static_cast<double>(ops_per_locale * locales) *
                          mix.insert);
      rh_capacity = std::max<std::uint64_t>(final_keys / 2, locales);
    }
    rh = RobinHoodMap<std::uint64_t>::create(rh_capacity, domain);
  } else {
    iht = InterlockedHashTable<std::uint64_t>::create(kCapacity, domain);
  }

  // Prefill the whole key space (windowed so the load phase is cheap too).
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kKeySpace; ++k) {
      if (kind == TableKind::robinhood) {
        (void)rh.insertAsyncAggregated(k, k * 3);
      } else {
        window.add(iht.insertAsync(k, k * 3));
      }
    }
  }

  CellResult result;
  result.ops = ops_per_locale * locales;
  std::mutex lat_mu;
  result.m = timed([&] {
    coforallLocales([&, kind, mix, dist, ops_per_locale] {
      LatencyRecorder local;
      local.reserve(ops_per_locale);
      if (kind == TableKind::robinhood) {
        driveMix(
            mix, dist, ops_per_locale, local,
            [&rh](comm::OpWindow&, std::uint64_t k) {
              return rh.findAsyncAggregated(k);  // auto-enrolls
            },
            [&rh](comm::OpWindow&, std::uint64_t k, std::uint64_t v) {
              return rh.putAsyncAggregated(k, v);
            },
            [&rh](comm::OpWindow&, std::uint64_t k, std::uint64_t v) {
              return rh.insertAsyncAggregated(k, v);
            });
      } else {
        driveMix(
            mix, dist, ops_per_locale, local,
            [&iht](comm::OpWindow& w, std::uint64_t k) {
              return w.add(iht.findAsync(k));
            },
            [&iht](comm::OpWindow& w, std::uint64_t k, std::uint64_t v) {
              return w.add(iht.updateAsync(k, v));
            },
            [&iht](comm::OpWindow& w, std::uint64_t k, std::uint64_t v) {
              return w.add(iht.insertAsync(k, v));
            });
      }
      std::lock_guard<std::mutex> hold(lat_mu);
      result.lat.merge(local);
    });
  });

  if (kind == TableKind::robinhood) {
    PGASNB_CHECK_MSG(rh.validateInvariants(),
                     "ycsb_like: Robin Hood invariants violated after run");
    result.has_rejects = true;
    const auto stats = rh.stats();  // quiescent-exact
    result.full_rejects = stats.full_rejects;
    result.resizes = stats.resizes;
    result.migrate_chunks = stats.migrate_chunks;
    result.max_displacement = stats.max_displacement;
    rh.destroy();
  } else {
    iht.destroy();
  }
  domain.destroy();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgasnb;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t ops_per_locale = opts.scaled(512);

  constexpr TableKind kTables[] = {TableKind::robinhood, TableKind::iht};
  constexpr MixSpec kMixes[] = {kReadHeavyMix, kUpdateHeavyMix, kInsertMix};
  constexpr KeyDist kDists[] = {KeyDist::uniform, KeyDist::zipfian};

  FigureTable table("ycsb-like");
  double at8_rh_thr = 0.0;
  double at8_iht_thr = 0.0;
  bool insert_rejected = false;
  bool insert_mix_resized = true;
  bool insert_mix_spread = true;
  for (std::uint32_t locales = 1;
       locales <= std::min(opts.max_locales, 8u); locales *= 2) {
    for (TableKind kind : kTables) {
      for (const MixSpec& mix : kMixes) {
        for (KeyDist dist : kDists) {
          const CellResult r = runCell(kind, mix, dist, locales,
                                       ops_per_locale,
                                       opts.tasks_per_locale);
          const double thr =
              r.m.model_s > 0.0
                  ? static_cast<double>(r.ops) / r.m.model_s
                  : 0.0;
          char series[96];
          std::snprintf(series, sizeof(series), "%s/%s/%s", toString(kind),
                        mix.name, toString(dist));
          char notes[224];
          if (r.has_rejects) {
            std::snprintf(notes, sizeof(notes),
                          "ops=%" PRIu64 " thr=%.2fMops %s rejects=%" PRIu64
                          " resizes=%" PRIu64 " chunks=%" PRIu64
                          " maxdisp=%" PRIu64,
                          r.ops, thr * 1e-6, r.lat.summary().c_str(),
                          r.full_rejects, r.resizes, r.migrate_chunks,
                          r.max_displacement);
          } else {
            std::snprintf(notes, sizeof(notes),
                          "ops=%" PRIu64 " thr=%.2fMops %s", r.ops,
                          thr * 1e-6, r.lat.summary().c_str());
          }
          table.addRow(series, locales, r.m, notes);
          if (r.has_rejects && mix.insert > 0.0 && r.full_rejects > 0) {
            std::fprintf(stderr,
                         "ycsb_like: %s/%s at %u locales rejected %" PRIu64
                         " insert(s) on full segments -- incremental resize "
                         "failed to absorb the insert mix at this scale\n",
                         mix.name, toString(dist), locales, r.full_rejects);
            insert_rejected = true;
          }
          if (r.has_rejects && mix.insert > 0.0 && r.resizes == 0) {
            std::fprintf(stderr,
                         "ycsb_like: %s/%s at %u locales never resized -- "
                         "the cell was seeded too large to cross its "
                         "create()-time capacity\n",
                         mix.name, toString(dist), locales);
            insert_mix_resized = false;
          }
          if (r.has_rejects && mix.insert > 0.0 &&
              r.max_displacement > kMaxInsertMixDisplacement) {
            std::fprintf(stderr,
                         "ycsb_like: %s/%s at %u locales reached "
                         "max_displacement=%" PRIu64 " (> %" PRIu64
                         ") -- grown segments crowd their keys into part "
                         "of the table\n",
                         mix.name, toString(dist), locales,
                         r.max_displacement, kMaxInsertMixDisplacement);
            insert_mix_spread = false;
          }
          if (locales == 8 && mix.read == kReadHeavyMix.read &&
              dist == KeyDist::zipfian) {
            if (kind == TableKind::robinhood) at8_rh_thr = thr;
            if (kind == TableKind::iht) at8_iht_thr = thr;
          }
        }
      }
    }
  }
  table.print();

  const bool insert_mix_pass =
      !insert_rejected && insert_mix_resized && insert_mix_spread;
  std::printf(
      "\ninsert-mix check (crosses seed capacity, no full-segment rejects, "
      "maxdisp <= %" PRIu64 "): %s\n",
      kMaxInsertMixDisplacement, insert_mix_pass ? "PASS" : "FAIL");
  if (!insert_mix_pass) return 1;

  if (opts.max_locales < 8) {
    std::printf("acceptance check skipped (needs --max-locales >= 8)\n");
    return 0;
  }
  const double ratio = at8_rh_thr / (at8_iht_thr == 0.0 ? 1.0 : at8_iht_thr);
  const bool pass = ratio >= 2.0;
  std::printf(
      "\nRobinHoodMap vs InterlockedHashTable, read-heavy Zipfian at 8 "
      "locales: %.2fx model-time throughput (%.2f vs %.2f Mops)\n",
      ratio, at8_rh_thr * 1e-6, at8_iht_thr * 1e-6);
  std::printf("acceptance (robinhood >= 2x iht throughput): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
