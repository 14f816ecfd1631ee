// Figure 6: Pin-Unpin with deletion + cleanup only at the end -- no
// tryReclaim during the loop; everything is reclaimed by one clear().
// Typical when the object count fits in memory (paper Sec. III.B).
//
// Expected shape (paper): the cheapest deletion workload (pure wait-free
// retires during the loop); remote%% shows up in the final clear (the
// paper's scatter + bulk transfer; here the retire runs shipped home).
#include "epoch_workload.hpp"

int main(int argc, char** argv) {
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  FigureTable table("fig6-deletion-cleanup");
  for (const int remote_pct : {0, 50, 100}) {
    EpochWorkload wl;
    wl.objs_per_locale = opts.scaled(2048);
    wl.reclaim_every = 0;  // only the final clear reclaims
    wl.remote_pct = remote_pct;
    runEpochFigure(table, opts, wl);
  }
  table.print();
  std::printf("expected shape: cheapest of fig4/5/6; remote%% cost "
              "concentrates in the final clear.\n");
  return 0;
}
