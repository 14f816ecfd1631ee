// Quickstart: the two constructs of the paper in ~60 lines, through the
// unified Domain/Guard reclamation API.
//
//   ./examples/quickstart [--locales=N] [--comm=ugni|none]
//
// 1. AtomicObject: lock-free atomic operations on class instances across
//    locales (pointer compression -> a single 64-bit word the NIC can CAS).
// 2. DistDomain: distributed epoch-based reclamation -- pin a guard, retire
//    objects while tasks may hold references, reclaim when provably safe.
//    (Shared-memory programs use LocalDomain the same way, no runtime.)
#include <cstdio>

#include "pgasnb.hpp"

using namespace pgasnb;

struct Node {
  std::uint64_t value = 0;
  Node* next = nullptr;
};

int main(int argc, char** argv) {
  Options opts(argc, argv);
  RuntimeConfig cfg;
  cfg.num_locales = static_cast<std::uint32_t>(opts.integer("locales", 4));
  cfg.comm_mode = parseCommMode(opts.str("comm", "none"));
  cfg.inject_delays = false;  // quickstart: semantics, not timing
  opts.rejectUnread();
  Runtime rt(cfg);

  std::printf("pgas-nb quickstart (%s)\n", cfg.describe().c_str());

  // --- AtomicObject: a Treiber push from every locale (paper Listing 1) --
  auto* head = gnewOn<AtomicObject<Node, /*WithAba=*/true>>(0);
  coforallLocales([head] {
    Node* node = gnew<Node>();  // allocated on *this* locale
    node->value = Runtime::here();
    while (true) {
      ABA<Node> old_head = head->readABA();
      node->next = old_head.getObject();
      if (head->compareAndSwapABA(old_head, node)) break;
    }
  });
  std::printf("stack after one push per locale:");
  for (Node* n = head->read(); n != nullptr; n = n->next) {
    std::printf(" <- node@locale%u", localeOf(n));
  }
  std::printf("\n");

  // --- DistDomain: concurrent-safe reclamation (paper Listing 3) ---------
  DistDomain domain = DistDomain::create();
  coforallLocales([domain, head] {
    auto guard = domain.pin();  // register + enter the current epoch
    // Pop one node (it may live on any locale) and retire it: no task can
    // free it under us, and it is eventually deleted on the locale that
    // owns it.
    while (true) {
      ABA<Node> old_head = head->readABA();
      if (old_head.isNil()) break;
      if (head->compareAndSwapABA(old_head, old_head->next)) {
        guard.retire(old_head.getObject());
        break;
      }
    }
  });  // guard unpins + unregisters at scope exit
  domain.clear();  // reclaim everything at once (quiescent point)

  const auto stats = domain.stats();
  std::printf("deferred=%llu reclaimed=%llu epoch=%llu\n",
              static_cast<unsigned long long>(stats.deferred),
              static_cast<unsigned long long>(stats.reclaimed),
              static_cast<unsigned long long>(domain.currentEpoch()));

  domain.destroy();
  onLocale(0, [head] { gdelete(head); });
  std::printf("ok\n");
  return 0;
}
