#include "epoch/epoch_manager.hpp"

#include <memory>
#include <vector>

#include "epoch/domain.hpp"
#include "runtime/task.hpp"

namespace pgasnb {

// ---------------------------------------------------------------------------
// Per-thread cached guards (progress-thread handler pins)
// ---------------------------------------------------------------------------
//
// An AM handler that dereferences protected nodes (MsQueue::enqueueAsync's
// append loop, DistStack::popAsync's pop loop) needs an epoch pin on the
// progress thread. Registering a fresh token per message costs pool atomics
// and allocated-list churn on the hot path; instead each thread keeps one
// *attached* guard per domain, and PinScope pins it once per AM service --
// the handler plus its whole batch -- unpinning at the service's end
// (quiescent-state style: the service is the natural boundary).
//
// Lifetime: entries are keyed by (runtime generation, privatization id).
// EpochManager::destroy() broadcasts dropThreadCachedGuards() through every
// AM queue, so each progress thread unregisters its cached token while the
// token pools are still alive. Entries that outlive their runtime (leaked
// domains, teardown races) are *abandoned* -- the pool died with the arena,
// so unregistering would be a use-after-free.

namespace detail {

namespace {

struct CachedGuardEntry {
  std::uint64_t generation = 0;
  std::size_t pid = 0;
  DistGuard guard;
};

struct GuardCache {
  // unique_ptr entries: handed-out DistGuard& stay stable across later
  // insertions/erasures (a handler can touch several domains).
  std::vector<std::unique_ptr<CachedGuardEntry>> entries;

  ~GuardCache() {
    for (auto& entry : entries) {
      if (!Runtime::active() ||
          Runtime::get().generation() != entry->generation) {
        entry->guard.token().abandon();
      }
      // Otherwise the DistGuard destructor unregisters normally (the
      // domain is still alive on a live runtime).
    }
  }
};

GuardCache& guardCache() {
  thread_local GuardCache cache;
  return cache;
}

}  // namespace

DistGuard& threadCachedGuard(const EpochManager& manager) {
  // Progress threads only: destroy()'s cache-drop broadcast reaches exactly
  // the progress threads, so an entry created on a task thread would
  // outlive its domain and later alias a recycled privatization slot.
  PGASNB_CHECK_MSG(taskContext().progress_thread,
                   "threadGuard(): cached guards are progress-thread state; "
                   "use domain.pin()/attach() from tasks");
  auto& entries = guardCache().entries;
  const std::uint64_t gen = Runtime::get().generation();
  const std::size_t pid = manager.privatizationId();
  // Sweep entries from dead runtimes while we're here (their token pools
  // are gone -- abandon, never unregister).
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
  entries.push_back(std::make_unique<CachedGuardEntry>(CachedGuardEntry{
      gen, pid, DistGuard(manager.acquireToken(), /*pin_now=*/false)}));
  return entries.back()->guard;
}

void dropThreadCachedGuards(std::size_t pid) {
  auto& entries = guardCache().entries;
  for (auto it = entries.begin(); it != entries.end();) {
    if ((*it)->pid == pid) {
      it = entries.erase(it);  // DistGuard dtor unregisters the token
    } else {
      ++it;
    }
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EpochManagerImpl
// ---------------------------------------------------------------------------

EpochManagerImpl::~EpochManagerImpl() {
  // Any nodes still sitting in limbo lists belong to this pool; return them
  // so the pool can hand them back to the arena. Their payload objects were
  // reclaimed by destroy()'s clear(); if the user skipped destroy() the
  // objects leak (exactly like forgetting `delete` on an unmanaged class).
  for (auto& list : limbo_) {
    LimboNode* node = list.popAll();
    while (node != nullptr) {
      LimboNode* next = LimboList::next(node);
      node_pool_.destroyNode(node);
      node = next;
    }
  }
}

void EpochManagerImpl::unregisterToken(Token* token) {
  unpin(token);
  tokens_.release(token);
}

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

void EpochManagerImpl::deferDelete(Token* token, void* obj,
                                   ObjectDeleter deleter) {
  const std::uint64_t e = token->local_epoch.load(std::memory_order_seq_cst);
  PGASNB_CHECK_MSG(e != kEpochQuiescent,
                   "deferDelete requires a pinned token");
  LimboNode* node = node_pool_.acquire(obj, deleter);
  limbo_[limboIndexFor(e)].push(node);
  notePendingAfterDefer(1);
  // recycle-pop + exchange + link, all locale-local processor atomics
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 3);
}

void EpochManagerImpl::insertRemoteRetires(
    const std::vector<comm::RetireEntry>& entries) {
  if (entries.empty()) return;
  // Acquire and pre-link the whole chain privately, then publish it with
  // one exchange: a batch of N retires costs the same number of limbo-list
  // atomics as a single retire.
  LimboNode* first = nullptr;
  LimboNode* last = nullptr;
  for (const comm::RetireEntry& entry : entries) {
    LimboNode* node = node_pool_.acquire(entry.obj, entry.deleter);
    if (first == nullptr) {
      first = node;
    } else {
      last->next.store(node, std::memory_order_relaxed);
    }
    last = node;
  }
  const std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  limbo_[limboIndexFor(e)].pushChain(first, last);
  notePendingAfterDefer(entries.size());
  // Node recycles (one pool pop per entry) + the single exchange.
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns *
              (entries.size() + 2));
}

void EpochManagerImpl::scatterLimboList(std::uint32_t index) {
  Runtime& rt = Runtime::get();
  LimboNode* node = limbo_[index].popAll();
  sim::charge(rt.config().latency.cpu_atomic_ns);  // the popAll exchange
  std::uint64_t count = 0;
  while (node != nullptr) {
    LimboNode* next = LimboList::next(node);
    const std::uint32_t owner = rt.localeOfAddress(node->obj);
    objs_to_delete_[owner].push_back({node->obj, node->deleter});
    node_pool_.release(node);
    node = next;
    ++count;
  }
  reclaimed_.fetch_add(count, std::memory_order_relaxed);
}

void EpochManagerImpl::deleteBucketFor(std::uint32_t dest) {
  PGASNB_DCHECK(dest == Runtime::here());
  auto& bucket = objs_to_delete_[dest];
  for (const comm::RetireEntry& entry : bucket) {
    entry.deleter(entry.obj);
  }
}

ReclaimStats EpochManagerImpl::statsSnapshot() const {
  ReclaimStats s;
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  s.advances = advances_.load(std::memory_order_relaxed);
  s.elections_lost_local =
      elections_lost_local_.load(std::memory_order_relaxed);
  s.elections_lost_global =
      elections_lost_global_.load(std::memory_order_relaxed);
  s.scans_unsafe = scans_unsafe_.load(std::memory_order_relaxed);
  s.max_pending = max_pending_.load(std::memory_order_relaxed);
  return s;
}

void EpochManagerImpl::resetStatsHere() {
  deferred_.store(0, std::memory_order_relaxed);
  reclaimed_.store(0, std::memory_order_relaxed);
  advances_.store(0, std::memory_order_relaxed);
  elections_lost_local_.store(0, std::memory_order_relaxed);
  elections_lost_global_.store(0, std::memory_order_relaxed);
  scans_unsafe_.store(0, std::memory_order_relaxed);
  max_pending_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// EpochToken: cross-locale retire routing
// ---------------------------------------------------------------------------

void EpochToken::deferDeleteRaw(void* obj, ObjectDeleter deleter) {
  PGASNB_CHECK_MSG(token_ != nullptr, "retire() on an invalid guard");
  checkHome();
  Runtime& rt = Runtime::get();
  const std::uint32_t owner = rt.localeOfAddress(obj);
  const RemoteRetirePolicy policy = rt.config().remote_retire;
  if (owner == Runtime::here() || policy == RemoteRetirePolicy::scatter) {
    // Local object, or the paper's baseline: retire into the local limbo
    // list; reclamation ships remote objects home via the scatter lists.
    handle_.local().deferDelete(token_, obj, deleter);
    return;
  }
  PGASNB_CHECK_MSG(pinned(), "deferDelete requires a pinned token");
  // Aggregated: the retire joins the owner's run in the task's
  // comm::Aggregator, which ships at its threshold (or at unpin/release/
  // tryReclaim). Charged first, so a threshold flush stamps this send time.
  sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
  routed_remote_ = true;
  comm::taskAggregator().enqueueRetire(
      owner,
      [](void* impl, const std::vector<comm::RetireEntry>& run) {
        static_cast<EpochManagerImpl*>(impl)->insertRemoteRetires(run);
      },
      handle_.instanceOn(owner), {obj, deleter});
}

void EpochToken::flush() {
  // A token that never routed a retire has nothing of its own buffered, so
  // it leaves the aggregator (and the ops other code buffered there) alone.
  if (token_ == nullptr || !routed_remote_) return;
  checkHome();
  comm::taskAggregator().flushAll();
}

// ---------------------------------------------------------------------------
// Reclamation driver (paper Listing 4)
// ---------------------------------------------------------------------------

namespace detail {

namespace {

/// The scatter + bulk-delete body shared by tryReclaim and clear: runs on
/// one locale, pops the given limbo lists, sorts objects by owner, then a
/// nested coforall deletes each bucket on its owning locale ("Bulk transfer
/// and delete" in Listing 4).
void reclaimOnThisLocale(Privatized<EpochManagerImpl> handle,
                         std::uint32_t first_index,
                         std::uint32_t index_count) {
  EpochManagerImpl& inst = handle.local();
  for (std::uint32_t k = 0; k < index_count; ++k) {
    inst.scatterLimboList((first_index + k) % kNumEpochs);
  }
  const std::uint32_t src = Runtime::here();
  coforallLocales([handle, src] {
    const LatencyModel& lat = Runtime::get().config().latency;
    const std::uint32_t dest = Runtime::here();
    EpochManagerImpl* src_inst = handle.instanceOn(src);
    auto& bucket = src_inst->objs_to_delete_[dest];
    if (dest != src && !bucket.empty()) {
      // One aggregated transfer instead of one RPC per object -- the
      // scatter list's entire purpose.
      sim::charge(lat.bulkCost(bucket.size() * sizeof(void*) * 2));
    }
    src_inst->deleteBucketFor(dest);
  });
  inst.clearScatter();
}

}  // namespace

bool epochTryReclaim(Privatized<EpochManagerImpl> handle) {
  EpochManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // First-come-first-serve election, local then global; losers back out
  // immediately so the operation is non-blocking (Listing 4 lines 2-6).
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_setting_epoch_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.elections_lost_local_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (inst.global_->is_setting_epoch.testAndSet()) {
    inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
    inst.elections_lost_global_.fetch_add(1, std::memory_order_relaxed);
    sim::charge(lat.cpu_atomic_ns);
    return false;
  }

  // Is it safe to reclaim across all locales? (Listing 4 lines 8-21)
  // The scan is initiated asynchronously: the kick-off returns immediately,
  // the initiator's own locale scans as one of the spawned tasks, and the
  // join folds every locale's simulated scan time in at once.
  const std::uint64_t this_epoch = inst.global_->epoch.read();
  PendingAnd scan = allLocalesAndAsync([handle, this_epoch, &lat] {
    EpochManagerImpl& li = handle.local();
    for (Token* t = li.tokens_.allocatedHead(); t != nullptr;
         t = t->next_allocated) {
      sim::chargeModelOnly(lat.cpu_atomic_ns);
      const std::uint64_t e = t->local_epoch.load(std::memory_order_seq_cst);
      if (e != kEpochQuiescent && e != this_epoch) return false;
    }
    return true;
  });
  const bool safe = scan.wait();

  bool advanced = false;
  if (safe) {
    const std::uint64_t new_epoch = nextEpoch(this_epoch);
    inst.global_->epoch.write(new_epoch);
    inst.global_->advances.fetch_add(1, std::memory_order_relaxed);
    inst.advances_.fetch_add(1, std::memory_order_relaxed);
    coforallLocales([handle, new_epoch] {
      EpochManagerImpl& li = handle.local();
      // Update each locale's epoch cache, then reclaim the list that is
      // now two epochs old (Listing 4 lines 26-54).
      li.locale_epoch_.store(new_epoch, std::memory_order_seq_cst);
      reclaimOnThisLocale(handle, reclaimIndexFor(new_epoch), 1);
    });
    advanced = true;
  } else {
    inst.scans_unsafe_.fetch_add(1, std::memory_order_relaxed);
  }

  inst.global_->is_setting_epoch.clear();
  inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  return advanced;
}

std::uint64_t epochAdvance(Privatized<EpochManagerImpl> handle) {
  EpochManagerImpl& inst = handle.local();
  // Epoch values cycle 1..kNumEpochs, so "moved past entry" is detected by
  // *change*, not ordering. One successful epochTryReclaim changes the
  // value; a concurrent advancer changing it also satisfies the caller
  // (the boundary needs the epoch to have moved, not to have moved by us).
  const std::uint64_t entry = inst.global_->epoch.read();
  Backoff backoff;
  while (inst.global_->epoch.read() == entry) {
    if (epochTryReclaim(handle)) break;
    // Lost the election or the scan found a lagging pinned token; both are
    // transient under the engine's boundary protocol (all engine guards
    // are unpinned between collectives, handler guards unpin at the end of each AM service).
    backoff.pause();
  }
  return inst.global_->epoch.read();
}

void epochClearAll(Privatized<EpochManagerImpl> handle) {
  // Caller guarantees quiescence of *tasks*, but aggregated/per-op-AM
  // retires may still be in flight: ship anything this task has buffered,
  // then fence every AM queue (including this locale's own -- other
  // locales inject retires destined for us) so all of them have landed.
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  // Reclaim all limbo lists on every locale.
  coforallLocales([handle] {
    reclaimOnThisLocale(handle, 0, kNumEpochs);
  });
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EpochManager
// ---------------------------------------------------------------------------

EpochManager EpochManager::create() {
  EpochManager manager;
  manager.global_ = gnewOn<GlobalEpoch>(0);
  GlobalEpoch* global = manager.global_;
  const std::uint32_t num_locales = Runtime::get().numLocales();
  manager.handle_ = Privatized<EpochManagerImpl>::create([global, num_locales] {
    return gnew<EpochManagerImpl>(global, num_locales);
  });
  return manager;
}

void EpochManager::destroy() {
  if (!valid()) return;
  clear();
  // Drop every progress thread's cached guard for this domain *before* the
  // per-locale instances (and their token pools) die. The broadcast must
  // traverse the AM queues -- amProgressHandle, never amSync's local fast
  // path -- because the thread_local cache lives on the progress thread,
  // not on whichever task thread happens to run destroy().
  {
    const std::size_t pid = handle_.id();
    const std::uint32_t n = Runtime::get().numLocales();
    std::vector<comm::Handle<>> drops;
    drops.reserve(n);
    for (std::uint32_t l = 0; l < n; ++l) {
      drops.push_back(comm::amProgressHandle(
          l, [pid] { detail::dropThreadCachedGuards(pid); }));
    }
    comm::waitAll(drops);
  }
  handle_.destroy();
  if (global_ != nullptr) {
    GlobalEpoch* global = global_;
    onLocale(0, [global] { gdelete(global); });
    global_ = nullptr;
  }
}

ReclaimStats EpochManager::stats() const {
  ReclaimStats total;
  Runtime& rt = Runtime::get();
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    total += implOn(l)->statsSnapshot();
  }
  return total;
}

void EpochManager::resetStats() const {
  Runtime& rt = Runtime::get();
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    implOn(l)->resetStatsHere();
  }
}

}  // namespace pgasnb
