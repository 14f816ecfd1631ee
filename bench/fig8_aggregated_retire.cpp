// Fig. 8 (extension): aggregated cross-locale retires vs. a per-op AM
// row vs. the paper's scatter baseline.
//
// Every locale retires `objs` objects owned by *other* locales, then the
// domain is cleared. The aggregated path coalesces retires per
// destination (guard batches -> comm::Aggregator -> one batched AM
// carrying a vector payload, bulk limbo insert at the receiver). The
// per-op-am row is the same path with both batch sizes pinned to 1
// (retire_batch_size and aggregator_ops_per_batch): one AM per retire,
// the naive async strawman. Scatter is the PR-1 baseline: communication
// deferred to reclaim time.
//
// Acceptance (ISSUE 2): at 8 locales the aggregated path must inject >= 4x
// fewer AMs (am_sync + am_async + am_batched) than per-op-am, at lower
// simulated completion time. The bench prints the ratios and a PASS/FAIL
// verdict, and exits non-zero on FAIL so CI can gate on it.
#include "bench_common.hpp"

#include <cinttypes>

namespace {

struct Obj {
  std::uint64_t payload[2] = {0, 0};
};

struct PolicyResult {
  pgasnb::bench::Measurement m;
  std::uint64_t total_ams = 0;
  std::uint64_t ops_aggregated = 0;
};

/// One table row: a retire policy, optionally with every batch pinned to a
/// single retire.
struct Row {
  const char* label;
  pgasnb::RemoteRetirePolicy policy;
  bool one_per_batch;
};

PolicyResult runPolicy(const Row& row, std::uint32_t locales,
                       std::uint64_t objs_per_locale,
                       std::uint32_t tasks_per_locale) {
  using namespace pgasnb;
  RuntimeConfig cfg =
      bench::benchConfig(locales, CommMode::none, tasks_per_locale);
  cfg.remote_retire = row.policy;
  if (row.one_per_batch) {
    cfg.retire_batch_size = 1;
    cfg.aggregator_ops_per_batch = 1;
  }
  Runtime rt(cfg);
  DistDomain domain = DistDomain::create();
  const comm::Counters before = comm::counters();

  PolicyResult result;
  result.m = bench::timed([&] {
    coforallLocales([domain, objs_per_locale, locales] {
      auto guard = domain.pin();
      const std::uint32_t here = Runtime::here();
      for (std::uint64_t i = 0; i < objs_per_locale; ++i) {
        const std::uint32_t target =
            (here + 1 + static_cast<std::uint32_t>(i % (locales - 1))) %
            locales;
        guard.retire(gnewOn<Obj>(target));
      }
    });
    domain.clear();  // quiesces in-flight retires, reclaims everything
  });

  const comm::Counters after = comm::counters();
  result.total_ams = after.totalAms() - before.totalAms();
  result.ops_aggregated = after.ops_aggregated - before.ops_aggregated;
  const auto stats = domain.stats();
  PGASNB_CHECK_MSG(stats.reclaimed == stats.deferred,
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
      {"per-op-am", RemoteRetirePolicy::aggregated, true},
      {"aggregated", RemoteRetirePolicy::aggregated, false},
      {"scatter", RemoteRetirePolicy::scatter, false},
  };

  FigureTable table("fig8-aggregated-retire");
  PolicyResult at8_per_op, at8_aggregated;
  for (std::uint32_t locales : {2u, 4u, 8u}) {
    if (locales > opts.max_locales) break;
    for (const Row& row : kRows) {
      const PolicyResult r =
          runPolicy(row, locales, objs_per_locale, opts.tasks_per_locale);
      char notes[128];
      std::snprintf(notes, sizeof(notes),
                    "ams=%" PRIu64 " ops_aggregated=%" PRIu64, r.total_ams,
                    r.ops_aggregated);
      table.addRow(row.label, locales, r.m, notes);
      if (locales == 8) {
        if (row.one_per_batch) {
          at8_per_op = r;
        } else if (row.policy == RemoteRetirePolicy::aggregated) {
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
