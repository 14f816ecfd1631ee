// Ablation: scatter lists (sort deferred objects by owning locale, one
// bulk transfer per destination) vs naive per-object remote deletion
// (paper Sec. II.C: "a scatter list is constructed ... significantly
// cutting down unnecessary communication").
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pgasnb;
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t objs_per_locale = opts.scaled(2048);

  struct Obj {
    std::uint64_t payload[2] = {0, 0};
  };

  FigureTable table("ablation-scatter-list");
  for (std::uint32_t locales : opts.localeSweep(2)) {
    {  // scatter: the DistDomain's real reclaim path (100% remote objs)
      RuntimeConfig cfg =
          benchConfig(locales, CommMode::none, opts.tasks_per_locale);
      cfg.remote_retire = RemoteRetirePolicy::scatter;
      Runtime rt(cfg);
      DistDomain domain = DistDomain::create();
      coforallLocales([domain, objs_per_locale, locales] {
        auto guard = domain.pin();
        const std::uint32_t next = (Runtime::here() + 1) % locales;
        for (std::uint64_t i = 0; i < objs_per_locale; ++i) {
          guard.retire(gnewOn<Obj>(next));
        }
      });
      const auto m = timed([&] { domain.clear(); });
      table.addRow("scatter + bulk delete", locales, m);
      domain.destroy();
    }
    {  // naive: one remote execution per object
      Runtime rt(benchConfig(locales, CommMode::none, opts.tasks_per_locale));
      // Same object population, deleted via one AM each.
      std::vector<std::vector<Obj*>> owned(locales);
      coforallLocales([&owned, objs_per_locale, locales] {
        const std::uint32_t next = (Runtime::here() + 1) % locales;
        auto& mine = owned[Runtime::here()];
        mine.reserve(objs_per_locale);
        for (std::uint64_t i = 0; i < objs_per_locale; ++i) {
          mine.push_back(gnewOn<Obj>(next));
        }
      });
      const auto m = timed([&] {
        coforallLocales([&owned] {
          for (Obj* obj : owned[Runtime::here()]) {
            const std::uint32_t owner = localeOf(obj);
            comm::amSync(owner, [obj] { gdelete(obj); });
          }
        });
      });
      table.addRow("per-object RPC", locales, m);
    }
  }
  table.print();
  std::printf("expected shape: scatter pays one bulk transfer per (src, "
              "dst) pair; per-object RPC pays one AM round trip per object "
              "-- orders of magnitude apart at scale.\n");
  return 0;
}
