// Ablation: scatter lists (sort deferred objects by owning locale, one
// bulk transfer per destination) vs naive per-object remote deletion
// (paper Sec. II.C: "a scatter list is constructed ... significantly
// cutting down unnecessary communication").
//
// Acceptance: at every locale count the scatter reclaim's model time is at
// most a tenth of the per-object RPC time. The bench prints PASS/FAIL and
// exits non-zero on FAIL.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pgasnb;
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t objs_per_locale = opts.scaled(2048);
  constexpr double kMinSpeedup = 10.0;

  struct Obj {
    std::uint64_t payload[2] = {0, 0};
  };

  FigureTable table("ablation-scatter-list");
  bool pass = true;
  for (std::uint32_t locales : opts.localeSweep(2)) {
    Measurement scatter_m;
    {  // scatter: the paper's reclaim-time route (100% remote objs)
      Runtime rt(benchConfig(locales, CommMode::none, opts.tasks_per_locale));
      ScatterBaseline scatter;
      coforallLocales([&scatter, objs_per_locale, locales] {
        const std::uint32_t next = (Runtime::here() + 1) % locales;
        for (std::uint64_t i = 0; i < objs_per_locale; ++i) {
          scatter.retire(gnewOn<Obj>(next));
        }
      });
      scatter_m = timed([&] { scatter.reclaim(); });
      table.addRow("scatter + bulk delete", locales, scatter_m);
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
      const bool ok = scatter_m.model_s * kMinSpeedup <= m.model_s;
      std::printf("locales=%u: per-object RPC / scatter = %.1fx model time "
                  "(need >= %.0fx): %s\n",
                  locales, m.model_s / scatter_m.model_s, kMinSpeedup,
                  ok ? "ok" : "FAIL");
      pass = pass && ok;
    }
  }
  table.print();
  std::printf("expected shape: scatter pays one bulk transfer per (src, "
              "dst) pair; per-object RPC pays one AM round trip per object "
              "-- orders of magnitude apart at scale.\n");
  std::printf("acceptance (scatter <= per-object RPC / %.0f at every "
              "locale count): %s\n",
              kMinSpeedup, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
