// Umbrella header for the pgas-nb library.
//
// The documented entry point to reclamation is the Domain/Guard API
// (epoch/domain.hpp): pick a reclaim domain, pin a guard, retire garbage.
//
//   #include <pgasnb.hpp>
//
//   // Shared memory (no runtime needed):
//   pgasnb::LocalDomain domain;
//   pgasnb::EbrStack<int> stack(domain);
//   {
//     auto guard = domain.pin();        // RAII: unpin+unregister at scope exit
//     stack.push(guard, 42);
//     stack.pop(guard);                 // popped node retired via the guard
//     guard.tryReclaim();
//   }
//
//   // PGAS (distributed):
//   int main() {
//     pgasnb::RuntimeConfig cfg;
//     cfg.num_locales = 8;
//     pgasnb::Runtime rt(cfg);
//     auto domain = pgasnb::DistDomain::create();
//     auto* stack = pgasnb::DistStack<std::uint64_t>::create(domain);
//     pgasnb::coforallLocales([domain, stack] {
//       auto guard = domain.pin();
//       stack->push(guard, pgasnb::Runtime::here());
//       stack->pop(guard);              // node shipped home at reclaim time
//     });
//     pgasnb::DistStack<std::uint64_t>::destroy(stack);
//     domain.destroy();
//   }
//
// Every data structure in ds/ takes the Domain as a template parameter, so
// the same algorithm body serves both builds. The communication layer is
// non-blocking underneath: operation-shipped ops (DistStack::popAsync, the
// hash tables' *Async ops) return a comm::Handle<T>, the task's
// comm::Aggregator coalesces DistDomain retires and the *AsyncAggregated
// ops per destination, and a comm::OpWindow scopes batch-then-join over
// the aggregated ops (close = auto-flush + join at the max sim-time).
// A worker that pipelines ops keeps a ring of handles and waits on the
// oldest. See docs/API.md for the guide and docs/ARCHITECTURE.md for the
// layer map.
#pragma once

#include "util/backoff.hpp"
#include "util/cache_line.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "runtime/config.hpp"
#include "runtime/runtime.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "runtime/collectives.hpp"
#include "runtime/privatization.hpp"
#include "runtime/wide_ptr.hpp"

#include "atomic/aba.hpp"
#include "atomic/dcas.hpp"
#include "atomic/pointer_compression.hpp"
#include "atomic/local_atomic_object.hpp"
#include "atomic/atomic_object.hpp"
#include "atomic/domain_traits.hpp"

#include "epoch/limbo_list.hpp"
#include "epoch/token.hpp"
#include "epoch/reclaim_stats.hpp"
#include "epoch/epoch_manager.hpp"
#include "epoch/local_epoch_manager.hpp"
#include "epoch/domain.hpp"
#include "epoch/interval_manager.hpp"

#include "ds/treiber_stack.hpp"
#include "ds/ms_queue.hpp"
#include "ds/harris_list.hpp"
#include "ds/dist_stack.hpp"
#include "ds/interlocked_hash_table.hpp"
#include "ds/robinhood_map.hpp"

#include "engine/epoch_engine.hpp"
