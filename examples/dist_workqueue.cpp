// Distributed work queue: a global-view DistStack as a task bag, consumed
// by the workers of every locale, each through its own ring of pops.
//
//   ./examples/dist_workqueue [--locales=N] [--items=K] [--workers=W]
//                             [--comm=ugni|none]
//
// Locale 0 seeds a bag of integration subintervals with aggregated async
// pushes issued inside a comm::OpWindow -- the whole seed is a handful of
// batched AMs, and closing the window ships + joins them with no manual
// flushAll() anywhere. Each of a locale's W worker tasks then keeps a ring
// of popAsync operations in flight. It waits on the oldest (the bag's home
// progress thread serves a task's pops in FIFO order, so the oldest
// completes first), reissues that slot's pop first and integrates the item
// second, so the next pop overlaps the compute. Every worker pulls from the
// one shared bag, so a worker that is free sooner simply pops more: the
// load balances with no queue between the workers. The DistDomain reclaims
// the work-item nodes while consumers race.
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
  const auto items = static_cast<std::uint64_t>(opts.integer("items", 512));
  const auto workers =
      static_cast<std::uint32_t>(opts.integer("workers", 2));
  opts.rejectUnread();
  Runtime rt(cfg);

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

  // Consume: every worker primes a ring of in-flight pops, then waits on
  // the oldest, reissues into its slot BEFORE computing, and integrates the
  // item. A pop that finds the bag empty retires its slot: pops only
  // remove, so the bag stays empty. The worker stops when its ring is
  // empty.
  const std::size_t ring_slots = 4;
  std::atomic<std::uint64_t> items_done{0};
  std::atomic<std::uint64_t> pops_done{0};
  std::vector<CachePadded<std::atomic<double>>> partial(cfg.num_locales);
  coforallLocales([&, domain, bag] {
    std::vector<CachePadded<std::atomic<double>>> worker_sum(workers);
    coforallHere(workers, [&](std::uint32_t w) {
      auto guard = domain.attach();
      std::vector<comm::Handle<std::optional<WorkItem>>> ring(ring_slots);
      guard.pin();
      for (auto& slot : ring) slot = bag->popAsync(guard);
      guard.unpin();
      double sum = 0.0;
      std::uint64_t count = 0;
      std::uint64_t pops = 0;
      std::size_t live = ring_slots;
      for (std::size_t head = 0; live > 0; head = (head + 1) % ring_slots) {
        auto& slot = ring[head];
        if (!slot.valid()) continue;
        // Copy the payload out: the reissue below overwrites the slot.
        const std::optional<WorkItem> item = slot.value();
        ++pops;
        if (!item.has_value()) {
          slot = {};
          --live;
          continue;
        }
        // Reissue FIRST, compute second: the pop overlaps the integration.
        guard.pin();
        slot = bag->popAsync(guard);
        guard.unpin();
        sum += integrate(*item);
        ++count;
        if (count % 64 == 0) guard.tryReclaim();
      }
      worker_sum[w]->store(sum, std::memory_order_relaxed);
      items_done.fetch_add(count, std::memory_order_relaxed);
      pops_done.fetch_add(pops, std::memory_order_relaxed);
    });

    double locale_sum = 0.0;
    for (auto& s : worker_sum) locale_sum += s->load(std::memory_order_relaxed);
    partial[Runtime::here()]->store(locale_sum, std::memory_order_relaxed);
  });

  double pi = 0.0;
  for (auto& p : partial) pi += p->load(std::memory_order_relaxed);

  std::printf("locales=%u workers=%u items=%llu consumed=%llu\n",
              cfg.num_locales, workers,
              static_cast<unsigned long long>(items),
              static_cast<unsigned long long>(items_done.load()));
  std::printf("joined %llu pops from %u per-worker rings\n",
              static_cast<unsigned long long>(pops_done.load()),
              cfg.num_locales * workers);
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
