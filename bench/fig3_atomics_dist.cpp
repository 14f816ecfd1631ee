// Figure 3 (right panel): AtomicObject vs atomic int, distributed memory.
//
// Weak scaling over locales; every locale runs tasks performing the 25/25/
// 25/25 read/write/CAS/exchange mix against a shared word hosted on locale
// 0, with and without network atomics.
//
// Series (paper legend): "atomic int (none)", "atomic int (ugni)",
// "AtomicObject (ABA)", "AtomicObject (none)", "AtomicObject (ugni)".
//
// Expected shape (paper): the ugni lines sit orders of magnitude below the
// none lines and stay flat (NIC atomics, no target-CPU involvement); the
// none lines grow with locales (active messages serialize at locale 0's
// progress thread); AtomicObject tracks atomic int in both modes, and the
// ABA variant tracks the none lines because 16-byte atomics cannot ride
// the NIC.
//
// The ABA series drives AtomicObject<T, true>'s read/write/compareAndSwap/
// exchange, whose write and exchange are comm::dcas retry loops. It never
// calls the paper's ABA write/exchange primitives, comm::dwrite and
// comm::dexchange (AtomicObject::writeABA, AtomicObjectDcas), which no
// figure reaches.
#include "bench_common.hpp"

namespace {

using namespace pgasnb;
using namespace pgasnb::bench;

struct Obj {
  std::uint64_t v = 0;
};

template <typename T>
inline void doNotOptimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

void mixInt(DistAtomicU64* a, std::uint64_t iters, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    switch (rng.nextBelow(4)) {
      case 0:
        doNotOptimize(a->read());
        break;
      case 1:
        a->write(i);
        break;
      case 2: {
        std::uint64_t expected = a->read();
        a->compareAndSwap(expected, i);
        break;
      }
      default:
        doNotOptimize(a->exchange(i));
        break;
    }
  }
}

template <typename Box>
void mixObj(Box* box, Obj* mine, std::uint64_t iters, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    switch (rng.nextBelow(4)) {
      case 0:
        doNotOptimize(box->read());
        break;
      case 1:
        box->write(mine);
        break;
      case 2: {
        Obj* expected = box->read();
        box->compareAndSwap(expected, mine);
        break;
      }
      default:
        doNotOptimize(box->exchange(mine));
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t ops_per_task = opts.scaled(512);
  const std::uint32_t tasks = opts.tasks_per_locale;
  FigureTable table("fig3-dist");

  std::vector<std::uint32_t> sweep = opts.localeSweep(1);

  for (const CommMode mode : {CommMode::none, CommMode::ugni}) {
    for (std::uint32_t locales : sweep) {
      Runtime rt(benchConfig(locales, mode, tasks));
      const std::string suffix = std::string(" (") + toString(mode) + ")";

      {  // atomic int
        DistAtomicU64* shared = gnewOn<DistAtomicU64>(0, 0u);
        const auto m = timed([&] {
          coforallLocales([&] {
            coforallHere(tasks, [&](std::uint32_t t) {
              mixInt(shared, ops_per_task, Runtime::here() * 131 + t);
            });
          });
        });
        table.addRow("atomic int" + suffix, locales, m);
        onLocale(0, [shared] { gdelete(shared); });
      }
      {  // AtomicObject, compressed pointer (RDMA-able word)
        auto* shared = gnewOn<AtomicObject<Obj>>(0);
        const auto m = timed([&] {
          coforallLocales([&] {
            Obj* mine = gnew<Obj>();
            coforallHere(tasks, [&](std::uint32_t t) {
              mixObj(shared, mine, ops_per_task, Runtime::here() * 177 + t);
            });
          });
        });
        table.addRow("AtomicObject" + suffix, locales, m);
        onLocale(0, [shared] { gdelete(shared); });
      }
      if (mode == CommMode::none) {
        // ABA variant behaves identically under both modes (always remote
        // execution); report it once, like the paper's single series.
        auto* shared = gnewOn<AtomicObject<Obj, true>>(0);
        const auto m = timed([&] {
          coforallLocales([&] {
            Obj* mine = gnew<Obj>();
            coforallHere(tasks, [&](std::uint32_t t) {
              mixObj(shared, mine, ops_per_task, Runtime::here() * 231 + t);
            });
          });
        });
        table.addRow("AtomicObject (ABA)", locales, m);
        onLocale(0, [shared] { gdelete(shared); });
      }
    }
  }

  table.print();
  std::printf("expected shape: ugni flat & low (RDMA atomics); none grows "
              "(AM serialization at the host locale); AtomicObject == "
              "atomic int; ABA tracks the none lines.\n");
  return 0;
}
