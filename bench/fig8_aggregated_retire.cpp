// Fig. 8 (extension): aggregated cross-locale retires vs. a per-op AM
// row vs. the paper's scatter baseline.
//
// Every locale retires `objs` objects owned by *other* locales, then the
// domain is cleared. The aggregated path coalesces retires per
// destination in one buffer: each retire joins a run in the task's
// comm::Aggregator, up to aggregator_ops_per_batch retires ship as one
// batched AM, and the receiver bulk-inserts the run into its limbo list.
// The per-op-am row is the same path with aggregator_ops_per_batch
// pinned to 1: one AM per retire, the naive async strawman. The scatter
// row is the paper's route (bench::ScatterBaseline): retires stay in the
// retiring locale's list and ship home in bulk at reclaim time.
//
// Acceptance: at 8 locales the aggregated path must inject >= 4x fewer
// AMs (am_sync + am_async + am_batched) than per-op-am, at lower simulated
// completion time. The bench prints the ratios and a PASS/FAIL verdict,
// and exits non-zero on FAIL so CI can gate on it.
#include "bench_common.hpp"

#include <cinttypes>

namespace {

struct Obj {
  std::uint64_t payload[2] = {0, 0};
};

struct RowResult {
  pgasnb::bench::Measurement m;
  std::uint64_t total_ams = 0;
  std::uint64_t ops_aggregated = 0;
};

/// One table row: the library's retire route, optionally with every batch
/// pinned to a single retire, or the paper's scatter baseline.
struct Row {
  const char* label;
  bool one_per_batch;
  bool scatter;
};

RowResult runRow(const Row& row, std::uint32_t locales,
                 std::uint64_t objs_per_locale,
                 std::uint32_t tasks_per_locale) {
  using namespace pgasnb;
  RuntimeConfig cfg =
      bench::benchConfig(locales, CommMode::none, tasks_per_locale);
  if (row.one_per_batch) cfg.aggregator_ops_per_batch = 1;
  Runtime rt(cfg);
  DistDomain domain = DistDomain::create();
  bench::ScatterBaseline scatter;
  const comm::Counters before = comm::counters();

  RowResult result;
  std::uint64_t scatter_freed = 0;
  result.m = bench::timed([&] {
    coforallLocales([&row, &scatter, domain, objs_per_locale, locales] {
      auto guard = domain.pin();
      const std::uint32_t here = Runtime::here();
      for (std::uint64_t i = 0; i < objs_per_locale; ++i) {
        const std::uint32_t target =
            (here + 1 + static_cast<std::uint32_t>(i % (locales - 1))) %
            locales;
        Obj* obj = gnewOn<Obj>(target);
        if (row.scatter) {
          scatter.retire(obj);
        } else {
          guard.retire(obj);
        }
      }
    });
    if (row.scatter) scatter_freed = scatter.reclaim();
    domain.clear();  // quiesces in-flight retires, reclaims everything
  });

  const comm::Counters after = comm::counters();
  result.total_ams = after.totalAms() - before.totalAms();
  result.ops_aggregated = after.ops_aggregated - before.ops_aggregated;
  const auto stats = domain.stats();
  PGASNB_CHECK_MSG(stats.reclaimed == stats.deferred &&
                       stats.deferred + scatter_freed ==
                           objs_per_locale * locales,
                   "bench invariant: everything retired must be reclaimed");
  domain.destroy();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgasnb;
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t objs_per_locale = opts.scaled(2048);

  constexpr Row kRows[] = {
      {"per-op-am", true, false},
      {"aggregated", false, false},
      {"scatter", false, true},
  };

  FigureTable table("fig8-aggregated-retire");
  RowResult at8_per_op, at8_aggregated;
  for (std::uint32_t locales : {2u, 4u, 8u}) {
    if (locales > opts.max_locales) break;
    for (const Row& row : kRows) {
      const RowResult r =
          runRow(row, locales, objs_per_locale, opts.tasks_per_locale);
      char notes[128];
      std::snprintf(notes, sizeof(notes),
                    "ams=%" PRIu64 " ops_aggregated=%" PRIu64, r.total_ams,
                    r.ops_aggregated);
      table.addRow(row.label, locales, r.m, notes);
      if (locales == 8) {
        if (row.one_per_batch) {
          at8_per_op = r;
        } else if (!row.scatter) {
          at8_aggregated = r;
        }
      }
    }
  }
  table.print();

  if (opts.max_locales < 8) {
    std::printf("acceptance check skipped (needs --max-locales >= 8)\n");
    return 0;
  }
  const double am_ratio =
      static_cast<double>(at8_per_op.total_ams) /
      static_cast<double>(at8_aggregated.total_ams == 0
                              ? 1
                              : at8_aggregated.total_ams);
  const bool fewer_ams = am_ratio >= 4.0;
  const bool faster = at8_aggregated.m.model_s < at8_per_op.m.model_s;
  std::printf(
      "\naggregated vs per-op-am at 8 locales: %.1fx fewer AMs "
      "(%" PRIu64 " vs %" PRIu64 "), model time %.6fs vs %.6fs\n",
      am_ratio, at8_aggregated.total_ams, at8_per_op.total_ams,
      at8_aggregated.m.model_s, at8_per_op.m.model_s);
  std::printf("acceptance (>=4x fewer AMs, lower simulated time): %s\n",
              fewer_ams && faster ? "PASS" : "FAIL");
  return fewer_ams && faster ? 0 : 1;
}
