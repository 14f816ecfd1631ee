// Ablation: first-come-first-serve election for tryReclaim (paper Sec.
// II.C / III.B: "not even the locale where the global epoch is allocated
// is bogged down by redundant requests thanks to the FCFS election").
//
// We compare a tryReclaim storm (every task, every iteration -- the
// election absorbs almost all of them locally) against a "no local
// election" variant where every task goes straight for the *global* flag,
// hammering the epoch's host locale. In that row only the testAndSet waits
// for locale 0: the winner's clear() is a one-way release
// (comm::atomicClear), so each win costs one round trip and one posted AM.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pgasnb;
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t iters_per_task = opts.scaled(512);

  FigureTable table("ablation-election");
  for (std::uint32_t locales : opts.localeSweep(2)) {
    {  // with the two-level FCFS election (the real tryReclaim)
      Runtime rt(benchConfig(locales, CommMode::none, opts.tasks_per_locale));
      DistDomain domain = DistDomain::create();
      const std::uint32_t tasks = opts.tasks_per_locale;
      const auto m = timed([&] {
        coforallLocales([domain, tasks, iters_per_task] {
          coforallHere(tasks, [&](std::uint32_t) {
            auto guard = domain.attach();
            for (std::uint64_t i = 0; i < iters_per_task; ++i) {
              guard.tryReclaim();
            }
          });
        });
      });
      const auto stats = domain.stats();
      table.addRow("FCFS election", locales, m,
                   "lost_local=" + std::to_string(stats.elections_lost_local) +
                       " lost_global=" +
                       std::to_string(stats.elections_lost_global));
      domain.destroy();
    }
    {  // without the local election: every attempt hits the global flag
      Runtime rt(benchConfig(locales, CommMode::none, opts.tasks_per_locale));
      DistDomain domain = DistDomain::create();
      GlobalEpoch& global = *domain.implHere().global_;
      const std::uint32_t tasks = opts.tasks_per_locale;
      const auto m = timed([&] {
        coforallLocales([&global, tasks, iters_per_task] {
          coforallHere(tasks, [&](std::uint32_t) {
            for (std::uint64_t i = 0; i < iters_per_task; ++i) {
              // The first step of a reclaim without local filtering:
              // contend on the global flag (remote for most locales).
              if (!global.is_setting_epoch.testAndSet()) {
                global.is_setting_epoch.clear();
              }
            }
          });
        });
      });
      table.addRow("global flag only", locales, m);
      domain.destroy();
    }
  }
  table.print();
  std::printf("expected shape: FCFS keeps reclaim-storm cost near-flat "
              "(losers bounce off a locale-local flag); without it every "
              "attempt is remote traffic to the epoch's host.\n");
  return 0;
}
