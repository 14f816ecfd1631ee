// Figure 4: Pin-Unpin with *sparse* tryReclaim -- deletion workload where
// tryReclaim runs once per 1024 iterations, across 0% / 50% / 100%
// remote-object panels, with and without network atomics.
//
// Each panel runs twice: under the default EBR domain and under the
// interval domain (series suffix "[interval]"), so the per-op cost of
// birth-era tagging and interval scans is visible next to the EBR
// baseline on the same workload.
//
// Expected shape (paper): scales with locales in both comm modes; FCFS
// election keeps the reclaim path from swamping the epoch's host. Both
// domains route every retire to its owner in a run and free in place, so
// the remote-object percentage moves retires into shipped runs; no series
// pays a reclaim-time bulk transfer. The interval series should track the
// EBR one closely here -- this workload has no stalled guards, so the
// interval domain's bounded-garbage advantage doesn't show; its era
// tagging and per-block scan are what's being measured.
#include "epoch_workload.hpp"

int main(int argc, char** argv) {
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  FigureTable table("fig4-sparse-tryReclaim");
  for (const int remote_pct : {0, 50, 100}) {
    EpochWorkload wl;
    wl.objs_per_locale = opts.scaled(2048);
    // Paper cadence: once per 1024 iterations (scaled with the workload so
    // reclaims still happen at small --bench-scale).
    wl.reclaim_every = std::max<std::uint64_t>(1, opts.scaled(1024));
    wl.remote_pct = remote_pct;
    runEpochFigure(table, opts, wl);
    runEpochFigure<pgasnb::IntervalDomain>(table, opts, wl, " [interval]");
  }
  table.print();
  std::printf("expected shape: near-flat weak scaling per mode; remote%% "
              "ships retires in runs, with no reclaim-time bulk transfer in "
              "either series; the interval series pays a small tag/scan "
              "overhead over EBR.\n");
  return 0;
}
