// Figure 3 (left panel): AtomicObject vs atomic int, shared memory.
//
// Strong scaling over tasks in one locale; every task performs the same
// number of operations -- 25% read, 25% write, 25% compare-and-swap, 25%
// exchange -- against one shared atomic (so wall time grows roughly
// linearly with tasks, as in the paper).
//
// Series (paper legend): "atomic int", "AtomicObject (ABA)", "AtomicObject".
//
// The ABA series is LocalAtomicObject<T, true>: shared-memory DCAS that
// never calls the distributed ABA write/exchange primitives, comm::dwrite
// and comm::dexchange, which no figure reaches.
#include "bench_common.hpp"

namespace {

using namespace pgasnb;
using namespace pgasnb::bench;

struct Obj {
  std::uint64_t v = 0;
};

template <typename T>
inline void benchmark_do_not_optimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// One op mix iteration against any atomic-like box holding Obj*.
template <typename Box>
void runMix(Box& box, Obj* mine, std::uint64_t iters, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    switch (rng.nextBelow(4)) {
      case 0:
        benchmark_do_not_optimize(box.read());
        break;
      case 1:
        box.write(mine);
        break;
      case 2: {
        Obj* expected = box.read();
        box.compareAndSwap(expected, mine);
        break;
      }
      default:
        benchmark_do_not_optimize(box.exchange(mine));
        break;
    }
  }
}

void runMixInt(DistAtomicU64& a, std::uint64_t iters, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < iters; ++i) {
    switch (rng.nextBelow(4)) {
      case 0:
        benchmark_do_not_optimize(a.read());
        break;
      case 1:
        a.write(i);
        break;
      case 2: {
        std::uint64_t expected = a.read();
        a.compareAndSwap(expected, i);
        break;
      }
      default:
        benchmark_do_not_optimize(a.exchange(i));
        break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t ops_per_task = opts.scaled(1 << 16);
  FigureTable table("fig3-shared");

  for (std::uint32_t tasks : {1u, 2u, 4u, 8u, 16u, 32u}) {
    // Shared memory: one locale, no interconnect; wall time is the real
    // measurement, so delay injection is irrelevant here.
    RuntimeConfig cfg = benchConfig(1, CommMode::none, tasks);
    cfg.inject_delays = false;
    Runtime rt(cfg);

    {  // atomic int
      DistAtomicU64 shared(0);
      const auto m = timed([&] {
        coforallHere(tasks, [&](std::uint32_t t) {
          runMixInt(shared, ops_per_task, t + 1);
        });
      });
      table.addRow("atomic int", tasks, m);
    }
    {  // AtomicObject (no ABA): LocalAtomicObject, the shared-memory variant
      std::vector<Obj> objs(tasks);
      LocalAtomicObject<Obj> shared(&objs[0]);
      const auto m = timed([&] {
        coforallHere(tasks, [&](std::uint32_t t) {
          runMix(shared, &objs[t], ops_per_task, t + 1);
        });
      });
      table.addRow("AtomicObject", tasks, m);
    }
    {  // AtomicObject (ABA): 128-bit DCAS on every operation
      std::vector<Obj> objs(tasks);
      LocalAtomicObject<Obj, true> shared(&objs[0]);
      const auto m = timed([&] {
        coforallHere(tasks, [&](std::uint32_t t) {
          runMix(shared, &objs[t], ops_per_task, t + 1);
        });
      });
      table.addRow("AtomicObject (ABA)", tasks, m);
    }
  }

  table.print();
  std::printf("expected shape: AtomicObject tracks atomic int; the ABA "
              "variant pays a constant DCAS factor.\n");
  return 0;
}
