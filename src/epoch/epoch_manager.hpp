// The distributed epoch manager behind DistDomain: lock-free Epoch-Based
// Reclamation across locales (paper Sec. II.B-C, Fig. 1-2, Listing 4).
//
// Structure
// ---------
// * One privatized EpochManagerImpl per locale (record-wrapped handle =>
//   zero communication to reach the local instance, even inside
//   distributed forall loops).
// * Each instance has the limbo lists, a locale-private epoch cache, a
//   local election flag and a token pool.
// * A single GlobalEpoch object lives on locale 0. It holds the global
//   election flag, accessed with network atomics (RDMA in CommMode::ugni),
//   and an advance counter. The epoch itself is the locale caches, which
//   only the election's winner writes: every cache holds the global epoch
//   whenever the flag is clear (docs/ARCHITECTURE.md, "Deviations from the
//   paper").
// * A DistGuard (the paper's token) is one registration in the pool of the
//   locale that created it. Its retires, local and remote alike, buffer as
//   runs in the task's comm::Aggregator; a run enters its owner's limbo
//   list in one multi-pop and one exchange (EpochManagerImpl::
//   insertRetires).
//
// Reclamation protocol (tryReclaim, Listing 4)
// --------------------------------------------
// 1. first-come-first-serve election, local flag then global flag; losers
//    return immediately (non-blocking, keeps the manager lock-free).
// 2. read the epoch from the winner's own locale cache, then scan every
//    locale's allocated tokens on that locale; safe iff every token is
//    quiescent or pinned in that epoch.
// 3. if safe: on every locale store the next epoch into the cache, pop the
//    limbo list that is now three advances old in one exchange and splice
//    it onto the locale's to-free list.
// 4. release both flags, the global one with a one-way store (no reply is
//    awaited); then, outside the election, pop every locale's to-free list
//    and free its objects in place: each is owned by the locale whose list
//    holds it (Fraser's EBR frees each list outside the critical section;
//    docs/ARCHITECTURE.md, "Deviations from the paper").
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "epoch/limbo_list.hpp"
#include "epoch/reclaim_stats.hpp"
#include "epoch/token.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "runtime/privatization.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb {

/// The election state all locales share; allocated on locale 0 and
/// accessed via network atomics. The paper's class also wraps the global
/// epoch word; here the winner reads the epoch from its locale cache
/// instead, which the previous winner stored before it released the flag.
struct GlobalEpoch {
  DistAtomicU64 is_setting_epoch{0};
  std::atomic<std::uint64_t> advances{0};  // diagnostics
};

namespace detail {

struct ArenaLimboNodeAlloc {
  static LimboNode* alloc() { return gnew<LimboNode>(); }
  static void free(LimboNode* n) { gdelete(n); }
};
struct ArenaTokenAlloc {
  static Token* alloc() { return gnew<Token>(); }
  static void free(Token* t) { gdelete(t); }
};

template <typename T>
void arenaDeleter(void* p) {
  Runtime::get().deleteLocal(static_cast<T*>(p));
}

/// Insert a run of retires into `list`, each node tagged with its entry's
/// birth and `retire_era`: one multi-pop (LimboNodePool::acquireChain) and
/// one exchange (LimboList::pushChain), charged as three processor atomics
/// whatever the run's length.
void insertRun(LimboList& list, LimboNodePool<ArenaLimboNodeAlloc>& pool,
               ReclaimCounters& counters,
               const std::vector<comm::RetireEntry>& entries,
               std::uint64_t retire_era);

/// Run every deleter of the null-terminated chain at `first` in place, then
/// return the chain to `pool` with one CAS. A locale's lists hold only its
/// own objects: a retire rides its owner's run, and a pointer outside the
/// partitioned heap belongs to the retiring locale.
void freeChain(LimboNode* first, LimboNodePool<ArenaLimboNodeAlloc>& pool,
               ReclaimCounters& counters);

/// Route one retire to the owner's run in the calling task's
/// comm::Aggregator, for the owner's Impl::insertRetires. Charged first, so
/// a threshold flush stamps this send time.
template <typename Impl>
void routeRetire(Privatized<Impl> handle, comm::RetireEntry entry) {
  Runtime& rt = Runtime::get();
  sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
  const std::uint32_t owner = rt.localeOfAddress(entry.obj);
  comm::taskAggregator().enqueueRetire(
      owner,
      [](void* impl, const std::vector<comm::RetireEntry>& run) {
        static_cast<Impl*>(impl)->insertRetires(run);
      },
      handle.instanceOn(owner), entry);
}

}  // namespace detail

/// Per-locale privatized instance of a DistDomain. Users never touch this
/// directly; it is public only for tests and the benchmark harness.
class EpochManagerImpl {
 public:
  explicit EpochManagerImpl(GlobalEpoch* global) : global_(global) {}

  ~EpochManagerImpl() {
    for (auto& list : limbo_) node_pool_.destroyList(list);
    node_pool_.destroyList(to_free_);
  }

  EpochManagerImpl(const EpochManagerImpl&) = delete;
  EpochManagerImpl& operator=(const EpochManagerImpl&) = delete;

  /// Enter the locale's current epoch. Re-validates the epoch cache after
  /// publishing (hardening of the paper's pin; see docs/ARCHITECTURE.md,
  /// "Deviations from the paper") so a pinned token can lag the global
  /// epoch by at most one advance.
  void pin(Token* token);
  void unpin(Token* token) noexcept;

  /// Insert a run of aggregated retires into this locale's current-epoch
  /// limbo list (detail::insertRun). A shipped run is inserted on the
  /// progress thread, the own locale's run inline on the task that flushes
  /// it. Inserting at this locale's *current* epoch is safe however late
  /// the run arrives: that epoch is at least the one the retire was pinned
  /// in, so the objects can only wait longer.
  void insertRetires(const std::vector<comm::RetireEntry>& entries);

  // Fields are accessed directly by the reclaim driver in epoch_manager.cpp
  // and by white-box tests; this type is an implementation detail.
  GlobalEpoch* global_;
  /// This locale's copy of the global epoch; written only by an advance's
  /// winner, under the election.
  std::atomic<std::uint64_t> locale_epoch_{1};
  std::atomic<std::uint64_t> is_setting_epoch_{0};  // local FCFS flag
  LimboList limbo_[kNumEpochs];
  /// Chains detached from limbo_ by an advance, every object already safe
  /// and owned by this locale; the advance's winner frees them in place
  /// after releasing the election.
  LimboList to_free_;
  LimboNodePool<detail::ArenaLimboNodeAlloc> node_pool_;
  TokenPool<detail::ArenaTokenAlloc> tokens_;
  ReclaimCounters counters_;  // summed across locales for reports
};

namespace detail {
/// Listing 4: attempt to advance the global epoch and reclaim. Returns
/// true iff the epoch advanced.
bool epochTryReclaim(Privatized<EpochManagerImpl> handle);
/// Reclaim everything in every epoch; caller guarantees quiescence.
void epochClearAll(Privatized<EpochManagerImpl> handle);
}  // namespace detail

/// A task's registration in a DistDomain and its RAII epoch guard: scope
/// exit unregisters (the paper's `forall ... with (var tok = ...)` pattern,
/// made safe). A retire buffers only in the task's comm::Aggregator, as
/// part of a run of retires bound for its owner, this locale included.
///
/// A guard is bound to the locale and OS thread that registered it: the
/// underlying Token lives in that locale's pool, and buffered retires ride
/// the registering thread's thread-local aggregator. Moving it within the
/// task is fine; retiring through it or flushing it from a different
/// locale or thread is not (debug-checked). Move-only.
class DistGuard {
 public:
  DistGuard() = default;
  DistGuard(DistGuard&& other) noexcept { *this = std::move(other); }
  DistGuard& operator=(DistGuard&& other) noexcept {
    release();
    handle_ = other.handle_;
    token_ = other.token_;
    home_ = other.home_;
    owner_thread_ = other.owner_thread_;
    routed_retire_ = other.routed_retire_;
    other.token_ = nullptr;
    other.routed_retire_ = false;
    return *this;
  }
  DistGuard(const DistGuard&) = delete;
  DistGuard& operator=(const DistGuard&) = delete;

  ~DistGuard() { release(); }

  /// False once moved-from or released.
  bool valid() const noexcept { return token_ != nullptr; }

  /// Enter the current epoch; idempotent. Temporarily leaving and
  /// re-entering (unpin()/pin()) suits a long task between phases.
  void pin() {
    PGASNB_CHECK_MSG(token_ != nullptr, "pin() on an invalid guard");
    handle_.local().pin(token_);
  }
  /// Leave the epoch. Buffered retires stay in the task's comm::Aggregator
  /// (see flush()): a pin/retire/unpin loop then inserts them in full
  /// runs. A late insert is safe, since the owner files a run under its
  /// current epoch, which can only make the objects wait longer.
  void unpin() {
    // No-op on an invalid (released/moved-from) guard: already quiescent.
    if (token_ == nullptr) return;
    handle_.local().unpin(token_);
  }
  /// An invalid (default-constructed or moved-from) guard is quiescent.
  bool pinned() const noexcept { return token_ != nullptr && token_->pinned(); }
  /// The epoch this guard is pinned in; kEpochQuiescent when unpinned.
  std::uint64_t epoch() const noexcept {
    return token_ == nullptr
               ? kEpochQuiescent
               : token_->local_epoch.load(std::memory_order_relaxed);
  }

  /// Defer deletion of an object allocated with gnew/gnewOn until no task
  /// can still hold a reference; requires the guard to be pinned. May
  /// target any locale's object. Every retire, local or remote, joins its
  /// owner's run in the task's comm::Aggregator and costs one processor
  /// atomic; the run reaches the owner's limbo list when it is flushed (see
  /// flush()).
  template <typename T>
  void retire(T* obj) {
    retireRaw(obj, &detail::arenaDeleter<T>);
  }

  /// Custom-deleter escape hatch. The deleter runs on the object's owner;
  /// a pointer outside the partitioned heap is owned by the retiring
  /// locale.
  void retireRaw(void* obj, ObjectDeleter deleter);

  /// Flush buffered retires now: remote runs ship, the own locale's run is
  /// inserted inline. Normally automatic: at the batch threshold, at the
  /// age cutoff, on tryReclaim(), on release() or scope exit, on the
  /// domain's clear(), and at the end of the AM service that pinned a
  /// progress thread's guard (PinScope). unpin() does not flush, nor does
  /// the domain-level DistDomain::tryReclaim(). Flushes the whole task
  /// aggregator once this guard has routed a retire through it.
  void flush();

  /// Protected read for domain-generic traversals: evaluate `load` under
  /// this guard's protection and return its result. A pinned EBR guard
  /// already protects every load, so this passes the call through; the
  /// interval guard widens its reservation first (IntervalGuard::protect).
  /// Wrap every traversal load of a shared node pointer; reads of an
  /// already-protected snapshot need no wrapping.
  template <typename F>
  auto protect(F&& load) {
    return std::forward<F>(load)();
  }

  /// Run `op` exactly once; true iff everything `op` observed is covered
  /// by this guard, so a failed CAS's witness may be dereferenced. A
  /// pinned EBR guard covers every load: always true. On false (interval
  /// guard, era moved) the caller re-reads under protect(). protect()
  /// itself cannot wrap a CAS: it re-runs its load when the era moves.
  template <typename F>
  bool protectOnce(F&& op) {
    std::forward<F>(op)();
    return true;
  }

  /// Attempt an epoch advance + reclamation; non-blocking, true iff this
  /// call won the election and advanced the epoch. False on an invalid
  /// guard.
  bool tryReclaim() {
    if (token_ == nullptr) return false;
    flush();
    return detail::epochTryReclaim(handle_);
  }

  /// Early unregistration (otherwise the destructor does it).
  void release() {
    if (token_ == nullptr) return;
    flush();
    handle_.local().unpin(token_);
    handle_.local().tokens_.release(token_);
    token_ = nullptr;
  }

  /// Internal: forget the registration WITHOUT unregistering it. Used by
  /// the progress-thread guard cache when the runtime (or the domain's
  /// privatized instances) died before the caching thread: the token pool
  /// the Token lives in is already gone, so unregistering would be a
  /// use-after-free; the Token's memory went down with the arena.
  void abandon() noexcept { token_ = nullptr; }

 private:
  friend class DistDomain;
  /// Register in the calling locale's pool (DistDomain::pin()/attach()).
  DistGuard(Privatized<EpochManagerImpl> handle, bool pin_now)
      : handle_(handle),
        token_(handle.local().tokens_.acquire()),
        home_(Runtime::here()),
        owner_thread_(std::this_thread::get_id()) {
    if (pin_now) pin();
  }

  /// The guard must be used on its registering locale AND OS thread:
  /// handle_.local() resolves per-calling-locale, and threshold-shipped
  /// batch closures live in the *enqueueing thread's* thread-local
  /// aggregator -- flushing from another thread drains the wrong buffer
  /// and strands the batches past the domain's lifetime.
  void checkHome() const {
    PGASNB_DCHECK(Runtime::here() == home_);
    PGASNB_DCHECK(std::this_thread::get_id() == owner_thread_);
  }

  Privatized<EpochManagerImpl> handle_;
  Token* token_ = nullptr;
  std::uint32_t home_ = 0;                ///< registering locale
  std::thread::id owner_thread_;          ///< registering OS thread
  /// Set by the guard's first retire: only then does flush() touch the
  /// task aggregator.
  bool routed_retire_ = false;
};

}  // namespace pgasnb
