// Safe reclamation under churn: a Harris ordered list hammered by
// concurrent inserters, removers, and readers, with live statistics.
//
//   ./examples/epoch_list_churn [--threads=T] [--seconds=S]
//
// This is the shared-memory face of the library (LocalDomain +
// HarrisList): readers traverse without locks while removers physically
// unlink nodes; epochs guarantee no reader ever dereferences freed memory.
// The canary check makes that guarantee observable.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "pgasnb.hpp"

using namespace pgasnb;

int main(int argc, char** argv) {
  Options opts(argc, argv);
  const int threads = static_cast<int>(opts.integer("threads", 4));
  const double seconds = opts.real("seconds", 2.0);
  opts.rejectUnread();
  constexpr std::uint64_t kKeySpace = 1024;
  constexpr std::uint64_t kCanary = 0xC0FFEE;

  LocalDomain domain;
  HarrisList<std::uint64_t, std::uint64_t> list;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> inserts{0}, removes{0}, finds{0}, corrupt{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto guard = domain.attach();
      Xoshiro256 rng(t * 2654435761u + 17);
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t key = rng.nextBelow(kKeySpace);
        const double dice = rng.nextDouble();
        guard.pin();
        if (dice < 0.4) {
          if (list.insert(guard, key, key ^ kCanary)) {
            inserts.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (dice < 0.8) {
          if (list.remove(guard, key).has_value()) {
            removes.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (auto v = list.find(guard, key)) {
            // Canary: a freed node would not hold key ^ kCanary anymore.
            if (*v != (key ^ kCanary)) {
              corrupt.fetch_add(1, std::memory_order_relaxed);
            }
            finds.fetch_add(1, std::memory_order_relaxed);
          }
        }
        guard.unpin();
        if ((inserts.load(std::memory_order_relaxed) & 255) == 0) {
          guard.tryReclaim();
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  domain.clear();
  const auto stats = domain.stats();
  const double total = static_cast<double>(inserts.load() + removes.load() +
                                           finds.load());
  std::printf("churn: %llu inserts, %llu removes, %llu successful finds "
              "(%.0f ops/s aggregate)\n",
              static_cast<unsigned long long>(inserts.load()),
              static_cast<unsigned long long>(removes.load()),
              static_cast<unsigned long long>(finds.load()), total / seconds);
  std::printf("reclamation: deferred=%llu reclaimed=%llu advances=%llu\n",
              static_cast<unsigned long long>(stats.deferred),
              static_cast<unsigned long long>(stats.reclaimed),
              static_cast<unsigned long long>(stats.advances));
  std::printf("net size: %llu (inserts - removes = %lld)\n",
              static_cast<unsigned long long>(list.sizeApprox()),
              static_cast<long long>(inserts.load()) -
                  static_cast<long long>(removes.load()));

  const bool ok = corrupt.load() == 0 &&
                  stats.reclaimed == stats.deferred &&
                  list.sizeApprox() ==
                      inserts.load() - removes.load();
  std::printf("%s (corrupt reads: %llu)\n", ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(corrupt.load()));
  return ok ? 0 : 1;
}
