// Distributed work queue: a global-view DistStack as a task bag, consumed
// by the workers of every locale through one shared completion queue.
//
//   ./examples/dist_workqueue [--locales=N] [--items=K] [--workers=W]
//                             [--comm=ugni|none]
//
// Locale 0 seeds a bag of integration subintervals with aggregated async
// pushes issued inside a comm::OpWindow -- the whole seed is a handful of
// batched AMs, and closing the window ships + joins them with no manual
// flushAll() anywhere. Every locale then keeps a table of popAsync
// operations in flight, all watched by ONE CompletionQueue per locale: the
// bag's home progress thread pushes each completion into that queue, and
// the locale's W worker tasks drain it with next() (MPMC: every
// completion reaches exactly one worker). A worker reissues the drained
// slot's pop first and integrates the item second, so the next pop
// overlaps the compute. Whichever worker is free takes the next
// completion, so the load balances without any per-worker queue. The
// DistDomain reclaims the work-item nodes while consumers race.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "pgasnb.hpp"

using namespace pgasnb;

namespace {

struct WorkItem {
  double lo = 0.0;
  double hi = 0.0;
};

double f(double x) { return 4.0 / (1.0 + x * x); }  // integrates to pi on [0,1]

double integrate(const WorkItem& item) {
  constexpr int kSteps = 20000;
  const double h = (item.hi - item.lo) / kSteps;
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    acc += f(item.lo + (i + 0.5) * h) * h;
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  RuntimeConfig cfg;
  cfg.num_locales = static_cast<std::uint32_t>(opts.integer("locales", 4));
  cfg.comm_mode = parseCommMode(opts.str("comm", "none"));
  cfg.workers_per_locale = 2;
  cfg.inject_delays = false;
  Runtime rt(cfg);
  const auto items = static_cast<std::uint64_t>(opts.integer("items", 512));
  const auto workers =
      static_cast<std::uint32_t>(opts.integer("workers", 2));

  DistDomain domain = DistDomain::create();
  // Home the bag on the *last* locale: seeding runs on locale 0, so the
  // aggregated pushes below genuinely ship their link loops across the
  // wire (with home == 0 they would all take the inline fast path).
  auto* bag = DistStack<WorkItem>::create(domain, cfg.num_locales - 1);

  // Seed: locale 0 splits [0, 1] into `items` subintervals. Pushes ride the
  // task Aggregator (one batched AM per aggregator threshold instead of one
  // AM per item) and are owned by the OpWindow: closing the scope flushes
  // whatever is still buffered and joins every push at the max sim-time.
  {
    auto guard = domain.pin();
    comm::OpWindow window;
    for (std::uint64_t i = 0; i < items; ++i) {
      const double lo = static_cast<double>(i) / items;
      const double hi = static_cast<double>(i + 1) / items;
      bag->pushAsyncAggregated(guard, WorkItem{lo, hi});
    }
  }  // window closes: batch shipped + joined; the bag is fully seeded

  // Consume: the locale primes a table of in-flight pops, all watched by
  // the locale's one shared queue under their slot index as tag. A worker
  // that drains a tag owns that slot until it rewatches it (the queue lock
  // orders reissue-write -> watch -> drain-read). next() returns nullopt
  // once nothing is outstanding; each worker reissues BEFORE computing so
  // the drained->rewatched gap stays tiny (an idle sibling catching it
  // exits early, which costs parallelism, never items -- the reissuing
  // workers drain the rest).
  const std::uint64_t window_slots = std::max<std::uint64_t>(8, workers);
  const comm::Counters before = comm::counters();
  std::atomic<std::uint64_t> items_done{0};
  std::vector<CachePadded<std::atomic<double>>> partial(cfg.num_locales);
  coforallLocales([&, domain, bag] {
    std::vector<comm::Handle<std::optional<WorkItem>>> slots(window_slots);
    comm::CompletionQueue cq;
    {
      auto guard = domain.pin();
      for (std::uint64_t s = 0; s < window_slots; ++s) {
        slots[s] = bag->popAsync(guard);
        cq.watch(slots[s], s);
      }
    }
    std::atomic<bool> bag_drained{false};

    std::vector<CachePadded<std::atomic<double>>> worker_sum(workers);
    std::atomic<std::uint64_t> locale_count{0};
    coforallHere(workers, [&](std::uint32_t w) {
      auto guard = domain.attach();
      double sum = 0.0;
      std::uint64_t count = 0;
      while (auto slot = cq.next()) {
        // Copy the payload out: the reissue below overwrites the slot.
        const std::optional<WorkItem> item = slots[*slot].value();
        if (!item.has_value()) {
          // The bag was empty at this pop's linearization; pops only
          // remove, so it stays empty -- stop reissuing and let the
          // locale's remaining pops drain.
          bag_drained.store(true, std::memory_order_relaxed);
          continue;
        }
        // Reissue FIRST, compute second: the pop overlaps the integration.
        if (!bag_drained.load(std::memory_order_relaxed)) {
          guard.pin();
          slots[*slot] = bag->popAsync(guard);
          guard.unpin();
          cq.watch(slots[*slot], *slot);
        }
        sum += integrate(*item);
        ++count;
        if (count % 64 == 0) guard.tryReclaim();
      }
      worker_sum[w]->store(sum, std::memory_order_relaxed);
      locale_count.fetch_add(count, std::memory_order_relaxed);
    });

    double locale_sum = 0.0;
    for (auto& s : worker_sum) locale_sum += s->load(std::memory_order_relaxed);
    partial[Runtime::here()]->store(locale_sum, std::memory_order_relaxed);
    items_done.fetch_add(locale_count.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  });
  const comm::Counters after = comm::counters();

  double pi = 0.0;
  for (auto& p : partial) pi += p->load(std::memory_order_relaxed);

  std::printf("locales=%u workers=%u items=%llu consumed=%llu\n",
              cfg.num_locales, workers,
              static_cast<unsigned long long>(items),
              static_cast<unsigned long long>(items_done.load()));
  std::printf("drained %llu completions from %u shared queues\n",
              static_cast<unsigned long long>(after.cq_drained -
                                              before.cq_drained),
              cfg.num_locales);
  std::printf("integral of 4/(1+x^2) on [0,1] = %.12f (pi = %.12f)\n", pi,
              M_PI);

  const bool ok =
      items_done.load() == items && std::abs(pi - M_PI) < 1e-6;
  DistStack<WorkItem>::destroy(bag);  // drains + clears the domain
  const auto stats = domain.stats();
  std::printf("reclaimed %llu work nodes across %llu epoch advances\n",
              static_cast<unsigned long long>(stats.reclaimed),
              static_cast<unsigned long long>(stats.advances));
  domain.destroy();
  std::printf(ok ? "ok\n" : "MISMATCH\n");
  return ok ? 0 : 1;
}
