#include "epoch/interval_manager.hpp"

#include <vector>

namespace pgasnb {

std::atomic<std::uint64_t>& intervalEraClock() noexcept {
  static std::atomic<std::uint64_t> era{1};
  return era;
}

// ---------------------------------------------------------------------------
// IntervalManagerImpl
// ---------------------------------------------------------------------------

void IntervalManagerImpl::pin(Token* token) {
  if (token->pinned()) return;
  const std::uint64_t e = intervalEraClock().load(std::memory_order_seq_cst);
  token->interval_upper.store(e, std::memory_order_seq_cst);
  token->local_epoch.store(e, std::memory_order_seq_cst);
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 2);
}

void IntervalManagerImpl::unpin(Token* token) noexcept {
  // lo first: a scan that still reads lo != 0 then sees a hi from this
  // reservation's lifetime, which is only conservative.
  token->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
  token->interval_upper.store(kEpochQuiescent, std::memory_order_seq_cst);
  if (Runtime::active()) {
    sim::chargeModelOnly(Runtime::get().config().latency.cpu_atomic_ns);
  }
}

void IntervalManagerImpl::deferRetire(Token* token, void* obj,
                                      ObjectDeleter deleter,
                                      std::uint64_t birth) {
  PGASNB_CHECK_MSG(token->pinned(), "deferRetire requires a pinned token");
  auto& era = intervalEraClock();
  const std::uint64_t retire_era = era.load(std::memory_order_seq_cst);
  LimboNode* node = node_pool_.acquire(obj, deleter, birth, retire_era);
  retired_.push(node);
  counters_.noteDeferred(1);
  const LatencyModel& lat = Runtime::get().config().latency;
  // recycle-pop + exchange + link, all locale-local processor atomics
  sim::charge(lat.cpu_atomic_ns * 3);
  // Retire-path era amortization: reservations age out of long-running
  // workloads even if nobody calls tryReclaim.
  if (retires_since_era_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      kEraFreq) {
    retires_since_era_.store(0, std::memory_order_relaxed);
    era.fetch_add(1, std::memory_order_seq_cst);
    sim::charge(lat.nic_atomic_ns);  // modeled FADD on the locale-0 era
  }
}

// ---------------------------------------------------------------------------
// Reclamation driver
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// A retired block pulled off a locale's retired list during a scan.
struct RetiredRecord {
  void* obj;
  ObjectDeleter deleter;
  std::uint64_t birth;
  std::uint64_t retire;
};

}  // namespace

bool intervalTryReclaim(Privatized<IntervalManagerImpl> handle) {
  IntervalManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // Local FCFS election only: concurrent scans on different locales each
  // pop their own retired list against a full reservation snapshot, so
  // they are independent and may overlap safely.
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_scanning_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.counters_.elections_lost_local.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Advance the era first: every reservation we are about to read that
  // validates against the *old* era already has its widening published
  // (protect's seq_cst era check), and blocks retired from here on carry
  // retire eras past the snapshot.
  intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
  sim::charge(lat.nic_atomic_ns);  // modeled FADD on the locale-0 era
  inst.counters_.advances.fetch_add(1, std::memory_order_relaxed);

  const std::uint32_t num_locales = Runtime::get().numLocales();

  // Phase 1: every locale pops its retired list privately (one exchange).
  // A block popped here is unreachable to any reader that pins later, so
  // reading reservations *after* the pops cannot miss a holder.
  std::vector<std::vector<RetiredRecord>> popped(num_locales);
  auto* popped_p = &popped;  // coforall joins before the frame unwinds
  coforallLocales([handle, popped_p] {
    IntervalManagerImpl& li = handle.local();
    auto& records = (*popped_p)[Runtime::here()];
    LimboNode* const first = li.retired_.popAll();
    sim::charge(Runtime::get().config().latency.cpu_atomic_ns);
    LimboNode* last = first;
    for (LimboNode* n = first; n != nullptr; n = LimboList::next(n)) {
      records.push_back(
          RetiredRecord{n->obj, n->deleter, n->birth, n->retire_era});
      last = n;
    }
    li.node_pool_.releaseChain(first, last);
  });

  // Phase 2: gather every locale's live reservations.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      reservations_per_locale(num_locales);
  auto* resv_p = &reservations_per_locale;
  coforallLocales([handle, resv_p] {
    IntervalManagerImpl& li = handle.local();
    const LatencyModel& llat = Runtime::get().config().latency;
    auto& out = (*resv_p)[Runtime::here()];
    for (Token* t = li.tokens_.allocatedHead(); t != nullptr;
         t = t->next_allocated) {
      sim::chargeModelOnly(llat.cpu_atomic_ns);
      // lo before hi: pin publishes hi first, so a nonzero lo implies the
      // hi we read next is from this reservation (or a later widening --
      // wider is merely conservative).
      const std::uint64_t lo = t->local_epoch.load(std::memory_order_seq_cst);
      if (lo == kEpochQuiescent) continue;
      std::uint64_t hi = t->interval_upper.load(std::memory_order_seq_cst);
      if (hi < lo) hi = lo;  // torn with a concurrent unpin: clamp, keep
      out.push_back({lo, hi});
    }
  });
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reservations;
  for (const auto& per_locale : reservations_per_locale) {
    reservations.insert(reservations.end(), per_locale.begin(),
                        per_locale.end());
  }

  // Phase 3: partition each locale's snapshot against the full reservation
  // list -- freed iff no [lo, hi] intersects [birth, retire] -- scatter the
  // freeable blocks by owner, bulk-delete, and re-defer the survivors.
  auto* reservations_p = &reservations;
  coforallLocales([handle, popped_p, reservations_p] {
    IntervalManagerImpl& li = handle.local();
    Runtime& rt = Runtime::get();
    auto& records = (*popped_p)[Runtime::here()];
    ScatterBuckets to_delete(rt.numLocales());
    std::uint64_t freed = 0;
    for (const RetiredRecord& rec : records) {
      sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
      bool held = false;
      for (const auto& [lo, hi] : *reservations_p) {
        if (rec.birth <= hi && rec.retire >= lo) {
          held = true;
          break;
        }
      }
      if (held) {
        // Survivor: re-defer at its original interval.
        li.retired_.push(
            li.node_pool_.acquire(rec.obj, rec.deleter, rec.birth, rec.retire));
      } else {
        to_delete[rt.localeOfAddress(rec.obj)].push_back(
            comm::RetireEntry{rec.obj, rec.deleter});
        ++freed;
      }
    }
    li.counters_.reclaimed.fetch_add(freed, std::memory_order_relaxed);
    bulkDeleteScattered(to_delete);
  });

  inst.is_scanning_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  return true;
}

void intervalClearAll(Privatized<IntervalManagerImpl> handle) {
  // Tasks are quiescent per the clear() contract, but async structure ops
  // may still have retires in flight through the AM queues; fence them so
  // every retire has landed in some locale's retired list.
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  coforallLocales([handle] {
    IntervalManagerImpl& li = handle.local();
    ScatterBuckets to_delete(Runtime::get().numLocales());
    li.counters_.reclaimed.fetch_add(
        scatterList(li.retired_, li.node_pool_, to_delete),
        std::memory_order_relaxed);
    bulkDeleteScattered(to_delete);
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// IntervalDomain
// ---------------------------------------------------------------------------

void IntervalDomain::destroy() {
  if (!valid()) return;
  clear();
  detail::dropThreadCachedGuards<Guard>(handle_.id());
  handle_.destroy();
}

}  // namespace pgasnb
