// The reclamation microbenchmark of paper Listing 5, shared by the
// Figure 4/5/6 benches:
//
//   forall obj in objs (cyclically distributed, locales randomized by a
//   remote-object percentage) with task-private guards:
//     pin; retire(obj); unpin;
//     every `reclaim_every` iterations: tryReclaim
//   finally: domain.clear()
#pragma once

#include "bench_common.hpp"

namespace pgasnb::bench {

struct EpochWorkload {
  std::uint64_t objs_per_locale = 1024;
  /// tryReclaim cadence: 0 = never (reclamation only via the final clear).
  std::uint64_t reclaim_every = 0;
  /// Percentage of objects allocated on a random *other* locale.
  int remote_pct = 0;
  std::uint32_t tasks_per_locale = 2;
};

struct BenchObject {
  std::uint64_t payload[2] = {0xAB, 0xCD};
};

/// Listing 5's `forall obj in objs with (var state = init())` over `objs`
/// distributed cyclically (Chapel's `dmapped Cyclic`: element i belongs to
/// locale i % L). Each locale runs `tasks_per_locale` tasks over the
/// elements it owns; init() runs once per task, on the task's locale, and
/// body(state, elem) once per element.
template <typename T, typename Init, typename Body>
void forallCyclic(std::vector<T>& objs, std::uint32_t tasks_per_locale,
                  const Init& init, const Body& body) {
  PGASNB_CHECK(tasks_per_locale >= 1);
  const std::uint32_t n = Runtime::get().numLocales();
  coforallLocales([&] {
    const std::uint32_t l = Runtime::here();
    const std::uint64_t count = (objs.size() + n - 1 - l) / n;
    coforallHere(tasks_per_locale, [&](std::uint32_t t) {
      auto state = init();
      const std::uint64_t lo = count * t / tasks_per_locale;
      const std::uint64_t hi = count * (t + 1) / tasks_per_locale;
      for (std::uint64_t k = lo; k < hi; ++k) body(state, objs[l + k * n]);
    });
  });
}

/// Runs one (locales, mode) cell of a Figure 4/5/6 sweep and returns the
/// measured deletion time (Listing 5's loop plus the final clear).
///
/// Templated over the distributed reclaim domain so the same deletion
/// workload measures EBR (DistDomain, the default) against interval-based
/// reclamation (IntervalDomain) -- allocation goes through the domain's
/// birth-tagging makeOn hook instead of raw gnewOn, everything else is the
/// shared Listing 5 loop.
template <ReclaimDomain Domain = DistDomain>
inline Measurement runEpochWorkload(std::uint32_t locales, CommMode mode,
                                    const EpochWorkload& wl) {
  static_assert(Domain::kDistributed,
                "the epoch workload allocates across locales");
  Runtime rt(benchConfig(locales, mode, wl.tasks_per_locale));
  Domain domain = Domain::create();

  const std::uint64_t num_objects = wl.objs_per_locale * locales;
  std::vector<BenchObject*> objs(num_objects);

  // randomizeObjs: allocate each object either on its index's locale or,
  // with probability remote_pct, on a uniformly random other locale.
  {
    Xoshiro256 rng(12345);
    const double p_remote = wl.remote_pct / 100.0;
    for (std::uint64_t i = 0; i < num_objects; ++i) {
      const auto home = static_cast<std::uint32_t>(i % locales);
      std::uint32_t target = home;
      if (locales > 1 && rng.nextBool(p_remote)) {
        target = static_cast<std::uint32_t>(rng.nextBelow(locales - 1));
        if (target >= home) ++target;
      }
      objs[i] = Domain::template makeOn<BenchObject>(target);
    }
  }

  const std::uint64_t reclaim_every = wl.reclaim_every;
  const Measurement m = timed([&] {
    forallCyclic(
        objs, wl.tasks_per_locale,
        [domain] {
          return std::pair<typename Domain::Guard, std::uint64_t>(
              domain.attach(), 0);
        },
        [reclaim_every](auto& state, BenchObject*& obj) {
          auto& [guard, count] = state;
          guard.pin();
          guard.retire(obj);
          obj = nullptr;
          guard.unpin();
          if (reclaim_every != 0 && ++count % reclaim_every == 0) {
            guard.tryReclaim();
          }
        });
    domain.clear();  // Reclaim all remaining objects at the end.
  });

  const auto stats = domain.stats();
  PGASNB_CHECK_MSG(stats.reclaimed == num_objects,
                   "benchmark invariant: every object reclaimed");
  domain.destroy();
  return m;
}

/// Prints one full figure: locales sweep x {none, ugni} for a fixed
/// remote-object percentage panel. `series_tag` suffixes the series label
/// (e.g. " [interval]" when sweeping a non-default domain).
template <ReclaimDomain Domain = DistDomain>
inline void runEpochFigure(FigureTable& table, const BenchOptions& opts,
                           const EpochWorkload& base,
                           const char* series_tag = "") {
  for (const CommMode mode : {CommMode::none, CommMode::ugni}) {
    for (std::uint32_t locales : opts.localeSweep(2)) {
      EpochWorkload wl = base;
      wl.tasks_per_locale = opts.tasks_per_locale;
      const Measurement m = runEpochWorkload<Domain>(locales, mode, wl);
      table.addRow(std::string(toString(mode)) + " / " +
                       std::to_string(base.remote_pct) + "% remote" +
                       series_tag,
                   locales, m);
    }
  }
}

}  // namespace pgasnb::bench
