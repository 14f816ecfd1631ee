#include "epoch/interval_manager.hpp"

#include <memory>
#include <vector>

#include "runtime/task.hpp"
#include "util/backoff.hpp"

namespace pgasnb {

std::atomic<std::uint64_t>& intervalEraClock() noexcept {
  static std::atomic<std::uint64_t> era{1};
  return era;
}

// ---------------------------------------------------------------------------
// Per-thread cached guards (progress-thread handler pins)
// ---------------------------------------------------------------------------
//
// Mirror of the EpochManager guard cache (epoch_manager.cpp): one attached
// IntervalGuard per (thread, domain), keyed by (runtime generation,
// privatization id), dropped by IntervalDomain::destroy()'s progress-thread
// broadcast, abandoned when the runtime died first.

namespace detail {

namespace {

struct CachedIntervalGuardEntry {
  std::uint64_t generation = 0;
  std::size_t pid = 0;
  IntervalGuard guard;
};

struct IntervalGuardCache {
  std::vector<std::unique_ptr<CachedIntervalGuardEntry>> entries;

  ~IntervalGuardCache() {
    for (auto& entry : entries) {
      if (!Runtime::active() ||
          Runtime::get().generation() != entry->generation) {
        entry->guard.token().abandon();
      }
    }
  }
};

IntervalGuardCache& intervalGuardCache() {
  thread_local IntervalGuardCache cache;
  return cache;
}

}  // namespace

IntervalGuard& threadCachedIntervalGuard(const IntervalDomain& domain) {
  PGASNB_CHECK_MSG(taskContext().progress_thread,
                   "threadGuard(): cached guards are progress-thread state; "
                   "use domain.pin()/attach() from tasks");
  auto& entries = intervalGuardCache().entries;
  const std::uint64_t gen = Runtime::get().generation();
  const std::size_t pid = domain.privatizationId();
  for (auto it = entries.begin(); it != entries.end();) {
    if ((*it)->generation != gen) {
      (*it)->guard.token().abandon();
      it = entries.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& entry : entries) {
    if (entry->pid == pid && entry->guard.valid()) return entry->guard;
  }
  entries.push_back(
      std::make_unique<CachedIntervalGuardEntry>(CachedIntervalGuardEntry{
          gen, pid, IntervalGuard(domain.acquireToken(), /*pin_now=*/false)}));
  return entries.back()->guard;
}

void dropThreadCachedIntervalGuards(std::size_t pid) {
  auto& entries = intervalGuardCache().entries;
  for (auto it = entries.begin(); it != entries.end();) {
    if ((*it)->pid == pid) {
      it = entries.erase(it);  // IntervalGuard dtor unregisters the token
    } else {
      ++it;
    }
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// IntervalManagerImpl
// ---------------------------------------------------------------------------

IntervalManagerImpl::~IntervalManagerImpl() {
  // Return stranded limbo nodes to the pool (payloads were reclaimed by
  // destroy()'s clear(); skipping destroy() leaks them, as with EBR).
  LimboNode* node = retired_.popAll();
  while (node != nullptr) {
    LimboNode* next = LimboList::next(node);
    node_pool_.destroyNode(node);
    node = next;
  }
}

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
  notePendingAfterDefer(1);
  const LatencyModel& lat = Runtime::get().config().latency;
  // recycle-pop + exchange + link, all locale-local processor atomics
  sim::charge(lat.cpu_atomic_ns * 3);
  // Retire-path era amortization: reservations age out of long-running
  // workloads even if nobody calls tryReclaim.
  if (era_freq_ != 0 &&
      retires_since_era_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          era_freq_) {
    retires_since_era_.store(0, std::memory_order_relaxed);
    era.fetch_add(1, std::memory_order_seq_cst);
    sim::charge(lat.nic_atomic_ns);  // modeled FADD on the locale-0 era
  }
}

ReclaimStats IntervalManagerImpl::statsSnapshot() const {
  ReclaimStats s;
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  s.advances = advances_.load(std::memory_order_relaxed);
  s.elections_lost_local =
      elections_lost_local_.load(std::memory_order_relaxed);
  // No global election and no unsafe scans under IBR: both stay 0.
  s.max_pending = max_pending_.load(std::memory_order_relaxed);
  return s;
}

void IntervalManagerImpl::resetStatsHere() {
  deferred_.store(0, std::memory_order_relaxed);
  reclaimed_.store(0, std::memory_order_relaxed);
  advances_.store(0, std::memory_order_relaxed);
  elections_lost_local_.store(0, std::memory_order_relaxed);
  max_pending_.store(0, std::memory_order_relaxed);
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

using ScatterBuckets = std::vector<std::vector<comm::RetireEntry>>;

/// Nested bulk delete: ship each owner's scatter bucket to its locale and
/// delete there (identical shape and cost model to the EBR scatter path).
/// The buckets are SCAN-PRIVATE -- there is no global election, so scans
/// elected on different locales may overlap, and a shared per-instance
/// bucket would race (concurrent push_back) and double-deliver blocks.
void bulkDeleteScattered(const ScatterBuckets& buckets) {
  const std::uint32_t src = Runtime::here();
  auto* buckets_p = &buckets;  // coforall joins before the frame unwinds
  coforallLocales([buckets_p, src] {
    const LatencyModel& lat = Runtime::get().config().latency;
    const std::uint32_t dest = Runtime::here();
    const auto& bucket = (*buckets_p)[dest];
    if (dest != src && !bucket.empty()) {
      sim::charge(lat.bulkCost(bucket.size() * sizeof(void*) * 2));
    }
    for (const comm::RetireEntry& entry : bucket) {
      entry.deleter(entry.obj);
    }
  });
}

}  // namespace

bool intervalTryReclaim(Privatized<IntervalManagerImpl> handle) {
  IntervalManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // Local FCFS election only: concurrent scans on different locales each
  // pop their own retired list against a full reservation snapshot, so
  // they are independent and may overlap safely.
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_scanning_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.elections_lost_local_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Advance the era first: every reservation we are about to read that
  // validates against the *old* era already has its widening published
  // (protect's seq_cst era check), and blocks retired from here on carry
  // retire eras past the snapshot.
  intervalEraClock().fetch_add(1, std::memory_order_seq_cst);
  sim::charge(lat.nic_atomic_ns);  // modeled FADD on the locale-0 era
  inst.advances_.fetch_add(1, std::memory_order_relaxed);

  const std::uint32_t num_locales = Runtime::get().numLocales();

  // Phase 1: every locale pops its retired list privately (one exchange).
  // A block popped here is unreachable to any reader that pins later, so
  // reading reservations *after* the pops cannot miss a holder.
  std::vector<std::vector<RetiredRecord>> popped(num_locales);
  auto* popped_p = &popped;  // coforall joins before the frame unwinds
  coforallLocales([handle, popped_p] {
    IntervalManagerImpl& li = handle.local();
    auto& records = (*popped_p)[Runtime::here()];
    LimboNode* node = li.retired_.popAll();
    sim::charge(Runtime::get().config().latency.cpu_atomic_ns);
    while (node != nullptr) {
      LimboNode* next = LimboList::next(node);
      records.push_back(
          RetiredRecord{node->obj, node->deleter, node->birth,
                        node->retire_era});
      li.node_pool_.release(node);
      node = next;
    }
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
    li.reclaimed_.fetch_add(freed, std::memory_order_relaxed);
    bulkDeleteScattered(to_delete);
  });

  inst.is_scanning_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  return true;
}

std::uint64_t intervalAdvance(Privatized<IntervalManagerImpl> handle) {
  const std::uint64_t entry =
      intervalEraClock().load(std::memory_order_seq_cst);
  Backoff backoff;
  while (intervalEraClock().load(std::memory_order_seq_cst) == entry) {
    if (intervalTryReclaim(handle)) break;
    backoff.pause();  // lost the local election; the winner advances
  }
  return intervalEraClock().load(std::memory_order_seq_cst);
}

void intervalClearAll(Privatized<IntervalManagerImpl> handle) {
  // Tasks are quiescent per the clear() contract, but async structure ops
  // may still have retires in flight through the AM queues; fence them so
  // every retire has landed in some locale's retired list.
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  coforallLocales([handle] {
    IntervalManagerImpl& li = handle.local();
    Runtime& rt = Runtime::get();
    ScatterBuckets to_delete(rt.numLocales());
    LimboNode* node = li.retired_.popAll();
    std::uint64_t count = 0;
    while (node != nullptr) {
      LimboNode* next = LimboList::next(node);
      to_delete[rt.localeOfAddress(node->obj)].push_back(
          comm::RetireEntry{node->obj, node->deleter});
      li.node_pool_.release(node);
      node = next;
      ++count;
    }
    li.reclaimed_.fetch_add(count, std::memory_order_relaxed);
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
  // Drop progress-thread cached guards before the token pools die (same
  // AM-queue broadcast as EpochManager::destroy).
  {
    const std::size_t pid = handle_.id();
    const std::uint32_t n = Runtime::get().numLocales();
    std::vector<comm::Handle<>> drops;
    drops.reserve(n);
    for (std::uint32_t l = 0; l < n; ++l) {
      drops.push_back(comm::amProgressHandle(
          l, [pid] { detail::dropThreadCachedIntervalGuards(pid); }));
    }
    comm::waitAll(drops);
  }
  handle_.destroy();
}

ReclaimStats IntervalDomain::stats() const {
  ReclaimStats total;
  Runtime& rt = Runtime::get();
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    total += implOn(l)->statsSnapshot();
  }
  return total;
}

void IntervalDomain::resetStats() const {
  Runtime& rt = Runtime::get();
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    implOn(l)->resetStatsHere();
  }
}

}  // namespace pgasnb
