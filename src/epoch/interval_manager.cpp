#include "epoch/interval_manager.hpp"

#include <utility>
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

void IntervalManagerImpl::insertRetires(
    const std::vector<comm::RetireEntry>& entries) {
  // Stamped at insert, not at retire: the era only grows, so a late stamp
  // widens [birth, retire] and can only keep the block longer.
  detail::insertRun(retired_, node_pool_, counters_, entries,
                    intervalEraClock().load(std::memory_order_seq_cst));
}

// ---------------------------------------------------------------------------
// IntervalGuard
// ---------------------------------------------------------------------------

void IntervalGuard::route(void* obj, ObjectDeleter deleter,
                          std::uint64_t birth) {
  PGASNB_CHECK_MSG(token_ != nullptr, "retire() on an invalid guard");
  checkHome();
  PGASNB_CHECK_MSG(pinned(), "retire() requires a pinned guard");
  routed_retire_ = true;
  detail::routeRetire(handle_, {obj, deleter, birth});
  // Retire-path era amortization: reservations age out of long-running
  // workloads even if nobody calls tryReclaim.
  auto& since = handle_.local().retires_since_era_;
  if (since.fetch_add(1, std::memory_order_relaxed) + 1 >=
      IntervalManagerImpl::kEraFreq) {
    since.store(0, std::memory_order_relaxed);
    intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
    // modeled FADD on the locale-0 era
    sim::charge(Runtime::get().config().latency.nic_atomic_ns);
  }
}

// ---------------------------------------------------------------------------
// Reclamation driver
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// Every locale's live reservations [lo, hi].
using Reservations =
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>;

/// Whether some reservation intersects the block's [birth, retire].
bool held(const Reservations& reservations, const LimboNode& n) {
  for (const auto& per_locale : reservations) {
    for (const auto& [lo, hi] : per_locale) {
      if (n.birth <= hi && n.retire_era >= lo) return true;
    }
  }
  return false;
}

}  // namespace

bool intervalTryReclaim(Privatized<IntervalManagerImpl> handle) {
  IntervalManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // Local FCFS election only: scans started on different locales pop
  // disjoint chains and each reads the reservations after its own pops, so
  // they are independent and may overlap safely.
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_scanning_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.counters_.elections_lost_local.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Advance the era first: every reservation we are about to read that
  // validates against the *old* era already has its widening published
  // (protect's seq_cst era check), and runs inserted from here on carry
  // retire eras past the snapshot.
  intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
  sim::charge(lat.nic_atomic_ns);  // modeled FADD on the locale-0 era
  inst.counters_.advances.fetch_add(1, std::memory_order_relaxed);

  const std::uint32_t num_locales = Runtime::get().numLocales();

  // Phase 1: every locale pops its retired list privately (one exchange).
  // A block popped here is unreachable to any reader that pins later, so
  // reading reservations *after* the pops cannot miss a holder.
  std::vector<LimboNode*> popped(num_locales);
  auto* popped_p = &popped;  // coforall joins before the frame unwinds
  coforallLocales([handle, popped_p] {
    (*popped_p)[Runtime::here()] = handle.local().retired_.popAll();
    sim::charge(Runtime::get().config().latency.cpu_atomic_ns);
  });

  // Phase 2: gather every locale's live reservations.
  Reservations reservations(num_locales);
  auto* reservations_p = &reservations;
  coforallLocales([handle, reservations_p] {
    IntervalManagerImpl& li = handle.local();
    const LatencyModel& llat = Runtime::get().config().latency;
    auto& out = (*reservations_p)[Runtime::here()];
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

  // Phase 3: each locale splits its popped chain in place against the full
  // reservation list -- freed iff no [lo, hi] intersects [birth, retire] --
  // frees the freed chain right here (every block in a locale's list is its
  // own) and re-pushes the kept chain at its original interval.
  coforallLocales([handle, popped_p, reservations_p] {
    IntervalManagerImpl& li = handle.local();
    const LatencyModel& llat = Runtime::get().config().latency;
    LimboNode* freed = nullptr;
    LimboNode* kept = nullptr;
    LimboNode* kept_last = nullptr;
    for (LimboNode *n = (*popped_p)[Runtime::here()], *next; n != nullptr;
         n = next) {
      next = LimboList::next(n);
      sim::chargeModelOnly(llat.cpu_atomic_ns);
      if (held(*reservations_p, *n)) {
        if (kept == nullptr) kept_last = n;
        n->next.store(kept, std::memory_order_relaxed);
        kept = n;
      } else {
        n->next.store(freed, std::memory_order_relaxed);
        freed = n;
      }
    }
    freeChain(freed, li.node_pool_, li.counters_);
    if (kept != nullptr) li.retired_.pushChain(kept, kept_last);
  });

  inst.is_scanning_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  return true;
}

void intervalClearAll(Privatized<IntervalManagerImpl> handle) {
  // Tasks are quiescent per the clear() contract, but retire runs may still
  // be buffered or in flight through the AM queues: ship this task's, then
  // fence every queue so every retire has landed in its owner's list.
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  coforallLocales([handle] {
    IntervalManagerImpl& li = handle.local();
    freeChain(li.retired_.popAll(), li.node_pool_, li.counters_);
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
