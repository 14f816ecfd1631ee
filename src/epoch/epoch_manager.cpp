#include "epoch/epoch_manager.hpp"

#include <vector>

#include "epoch/domain.hpp"

namespace pgasnb {

// ---------------------------------------------------------------------------
// EpochManagerImpl
// ---------------------------------------------------------------------------

void EpochManagerImpl::pin(Token* token) {
  if (token->pinned()) return;
  const LatencyModel& lat = Runtime::get().config().latency;
  // Read the locale-private epoch cache (the paper's zero-communication
  // fast path), publish it, then re-validate: if an advance raced between
  // the read and the publish, chase it. The scan runs on this locale, so
  // seq_cst here orders the publish against the scanner's read.
  std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  token->local_epoch.store(e, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns * 2);
  std::uint64_t current;
  while ((current = locale_epoch_.load(std::memory_order_seq_cst)) != e) {
    e = current;
    token->local_epoch.store(e, std::memory_order_seq_cst);
    sim::charge(lat.cpu_atomic_ns * 2);
  }
}

void EpochManagerImpl::unpin(Token* token) noexcept {
  token->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
  if (Runtime::active()) {
    sim::chargeModelOnly(Runtime::get().config().latency.cpu_atomic_ns);
  }
}

void EpochManagerImpl::insertRetires(
    const std::vector<comm::RetireEntry>& entries) {
  if (entries.empty()) return;
  // Take the run's nodes off the pool with one multi-pop, fill and link
  // them privately, then publish the chain with one exchange: a run of N
  // retires costs the same limbo-list atomics as a single retire.
  LimboNode* first = node_pool_.acquireChain(entries.size());
  LimboNode* last = nullptr;
  for (const comm::RetireEntry& entry : entries) {
    last = last == nullptr ? first : last->next.load(std::memory_order_relaxed);
    last->obj = entry.obj;
    last->deleter = entry.deleter;
  }
  const std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  limbo_[limboIndexFor(e)].pushChain(first, last);
  counters_.noteDeferred(entries.size());
  // The multi-pop, the exchange and the link, whatever the run's length.
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 3);
}

// ---------------------------------------------------------------------------
// DistGuard: retire routing
// ---------------------------------------------------------------------------

void DistGuard::retireRaw(void* obj, ObjectDeleter deleter) {
  PGASNB_CHECK_MSG(token_ != nullptr, "retire() on an invalid guard");
  checkHome();
  PGASNB_CHECK_MSG(pinned(), "retire() requires a pinned guard");
  Runtime& rt = Runtime::get();
  // The retire joins its owner's run in the task's comm::Aggregator. A
  // remote run ships at its threshold or age cutoff (or at
  // tryReclaim/release/clear); the own locale's run is inserted inline at
  // the same points. Charged first, so a threshold flush stamps this send
  // time.
  sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
  routed_retire_ = true;
  const std::uint32_t owner = rt.localeOfAddress(obj);
  comm::taskAggregator().enqueueRetire(
      owner,
      [](void* impl, const std::vector<comm::RetireEntry>& run) {
        static_cast<EpochManagerImpl*>(impl)->insertRetires(run);
      },
      handle_.instanceOn(owner), {obj, deleter});
}

void DistGuard::flush() {
  // A guard that never routed a retire has nothing of its own buffered, so
  // it leaves the aggregator (and the ops other code buffered there) alone.
  if (token_ == nullptr || !routed_retire_) return;
  checkHome();
  comm::taskAggregator().flushAll();
}

// ---------------------------------------------------------------------------
// Reclamation driver (paper Listing 4)
// ---------------------------------------------------------------------------

namespace detail {

std::uint64_t scatterList(LimboList& list,
                          LimboNodePool<ArenaLimboNodeAlloc>& pool,
                          ScatterBuckets& buckets) {
  Runtime& rt = Runtime::get();
  LimboNode* const first = list.popAll();
  std::uint64_t count = 0;
  LimboNode* last = first;
  for (LimboNode* n = first; n != nullptr; n = LimboList::next(n)) {
    buckets[rt.localeOfAddress(n->obj)].push_back({n->obj, n->deleter});
    last = n;
    ++count;
  }
  pool.releaseChain(first, last);
  return count;
}

void bulkDeleteScattered(const ScatterBuckets& buckets) {
  const auto freeBucket = [](const std::vector<comm::RetireEntry>& bucket) {
    for (const comm::RetireEntry& entry : bucket) entry.deleter(entry.obj);
  };
  const std::uint32_t src = Runtime::here();
  // Spawn the other owners' tasks first, so they run while the caller
  // frees its own bucket in place.
  TaskGroup owners;
  for (std::uint32_t dest = 0; dest < buckets.size(); ++dest) {
    const auto& bucket = buckets[dest];
    if (dest == src || bucket.empty()) continue;
    owners.spawnOn(dest, [&bucket, freeBucket] {
      // One aggregated transfer instead of one RPC per object -- the
      // scatter list's entire purpose.
      sim::charge(Runtime::get().config().latency.bulkCost(
          bucket.size() * sizeof(void*) * 2));
      freeBucket(bucket);
    });
  }
  freeBucket(buckets[src]);
  owners.wait();  // before the buckets' owner unwinds them
}

namespace {

/// Detach limbo list `index` of this locale: take its chain with the one
/// popAll exchange and splice it onto the to-free list with one more.
/// Finding the chain's tail resolves any straggler's link (LimboList::next).
/// Returns the number of objects detached.
std::uint64_t detachList(EpochManagerImpl& inst, std::uint32_t index) {
  const LatencyModel& lat = Runtime::get().config().latency;
  LimboNode* first = inst.limbo_[index].popAll();
  sim::charge(lat.cpu_atomic_ns);  // the popAll exchange
  if (first == nullptr) return 0;
  std::uint64_t count = 1;
  LimboNode* last = first;
  for (LimboNode* n; (n = LimboList::next(last)) != nullptr; last = n) {
    ++count;
  }
  inst.to_free_.pushChain(first, last);
  sim::charge(lat.cpu_atomic_ns);  // the splice exchange
  return count;
}

/// Free what this locale has detached: pop the to-free list (one exchange),
/// run every deleter in place, then return the whole chain to the pool
/// with one CAS. Every object in this locale's lists is its own: a retire
/// is routed to its owner's run, and a pointer outside the partitioned heap
/// belongs to the retiring locale. A concurrent walker may take the chain
/// first; then it frees it.
void freeDetached(EpochManagerImpl& inst) {
  LimboNode* const first = inst.to_free_.popAll();
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns);  // the popAll
  std::uint64_t count = 0;
  LimboNode* last = first;
  for (LimboNode* n = first; n != nullptr; n = LimboList::next(n)) {
    n->deleter(n->obj);
    last = n;
    ++count;
  }
  inst.node_pool_.releaseChain(first, last);
  inst.counters_.reclaimed.fetch_add(count, std::memory_order_relaxed);
}

}  // namespace

bool epochTryReclaim(Privatized<EpochManagerImpl> handle) {
  EpochManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // First-come-first-serve election, local then global; losers back out
  // immediately so the operation is non-blocking (Listing 4 lines 2-6).
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_setting_epoch_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.counters_.elections_lost_local.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (inst.global_->is_setting_epoch.testAndSet()) {
    inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
    inst.counters_.elections_lost_global.fetch_add(1,
                                                   std::memory_order_relaxed);
    sim::charge(lat.cpu_atomic_ns);
    return false;
  }

  // The previous winner stored every locale cache before it released the
  // global flag, and the testAndSet above read that release: this locale's
  // cache holds the global epoch, with no round trip to locale 0.
  const std::uint64_t this_epoch =
      inst.locale_epoch_.load(std::memory_order_seq_cst);

  // Is it safe to reclaim across all locales? (Listing 4 lines 8-21)
  // The initiator's own locale scans as one of the spawned tasks, and the
  // join folds every locale's simulated scan time in at once.
  const bool safe = allLocalesAnd([handle, this_epoch, &lat] {
    EpochManagerImpl& li = handle.local();
    for (Token* t = li.tokens_.allocatedHead(); t != nullptr;
         t = t->next_allocated) {
      sim::chargeModelOnly(lat.cpu_atomic_ns);
      const std::uint64_t e = t->local_epoch.load(std::memory_order_seq_cst);
      if (e != kEpochQuiescent && e != this_epoch) return false;
    }
    return true;
  });

  std::uint64_t detached = 0;
  if (safe) {
    const std::uint64_t new_epoch = nextEpoch(this_epoch);
    inst.global_->advances.fetch_add(1, std::memory_order_relaxed);
    inst.counters_.advances.fetch_add(1, std::memory_order_relaxed);
    // Update each locale's epoch cache, then detach the list that is now
    // three advances old (Listing 4 lines 26-54, up to the pop). The
    // detach must happen under the election: the list takes new retires
    // again one advance later.
    detached = allLocalesSum([handle, new_epoch] {
      EpochManagerImpl& li = handle.local();
      li.locale_epoch_.store(new_epoch, std::memory_order_seq_cst);
      return detachList(li, reclaimIndexFor(new_epoch));
    });
  } else {
    inst.counters_.scans_unsafe.fetch_add(1, std::memory_order_relaxed);
  }

  // A one-way release: the next testAndSet from this locale queues behind
  // it, and one from another locale that arrives first loses.
  inst.global_->is_setting_epoch.clear();
  inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  // Free outside the election: every detached object was safe when it was
  // detached, so freeing it later is only later, and the next advance need
  // not wait for this walk.
  if (detached != 0) {
    coforallLocales([handle] { freeDetached(handle.local()); });
  }
  return safe;
}

void epochClearAll(Privatized<EpochManagerImpl> handle) {
  // Caller guarantees quiescence of *tasks*, but aggregated/per-op-AM
  // retires may still be in flight: ship anything this task has buffered,
  // then fence every AM queue (including this locale's own -- other
  // locales inject retires destined for us) so all of them have landed.
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  // Reclaim all limbo lists on every locale, and anything an advance
  // detached that its walk has not freed yet.
  coforallLocales([handle] {
    EpochManagerImpl& li = handle.local();
    for (std::uint32_t k = 0; k < kNumEpochs; ++k) detachList(li, k);
    freeDetached(li);
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// DistDomain
// ---------------------------------------------------------------------------

DistDomain DistDomain::create() {
  DistDomain d;
  GlobalEpoch* global = gnewOn<GlobalEpoch>(0);
  d.global_ = global;
  d.handle_ = Privatized<EpochManagerImpl>::create(
      [global] { return gnew<EpochManagerImpl>(global); });
  return d;
}

void DistDomain::destroy() {
  if (!valid()) return;
  // clear() also fences every AM queue, so a one-way release of the global
  // flag lands before the GlobalEpoch is freed below.
  clear();
  detail::dropThreadCachedGuards<Guard>(handle_.id());
  handle_.destroy();
  GlobalEpoch* global = global_;
  onLocale(0, [global] { gdelete(global); });
  global_ = nullptr;
}

}  // namespace pgasnb
