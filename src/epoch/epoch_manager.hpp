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
// * A single GlobalEpoch object lives on locale 0 so all locales reach
//   consensus on one centralized epoch; it is accessed with network
//   atomics (RDMA in CommMode::ugni).
// * A DistGuard (the paper's token) is one registration in the pool of the
//   locale that created it.
//
// Reclamation protocol (tryReclaim, Listing 4)
// --------------------------------------------
// 1. first-come-first-serve election, local flag then global flag; losers
//    return immediately (non-blocking, keeps the manager lock-free).
// 2. scan every locale's allocated tokens on that locale; safe iff every
//    token is quiescent or pinned in the current global epoch.
// 3. if safe: advance the global epoch, then on every locale update the
//    epoch cache, pop the limbo list that is now two epochs old in one
//    exchange, scatter its objects by owner locale into scan-private
//    buckets, and bulk-delete each bucket on its owner.
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

/// The single, centralized epoch all locales agree on; allocated on locale
/// 0 and accessed via network atomics (paper: "a class instance wraps the
/// global epoch itself").
struct GlobalEpoch {
  DistAtomicU64 epoch{1};
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

/// Objects to free, bucketed by owning locale.
using ScatterBuckets = std::vector<std::vector<comm::RetireEntry>>;

/// Pop `list`, append each object to its owner's bucket and recycle the
/// nodes into `pool`; returns the number of objects moved.
std::uint64_t scatterList(LimboList& list,
                          LimboNodePool<ArenaLimboNodeAlloc>& pool,
                          ScatterBuckets& buckets);

/// "Bulk transfer and delete" (Listing 4): a nested coforall ships each
/// owner's bucket to its locale in one transfer and runs the deleters
/// there. Both distributed domains reclaim through it. The buckets are
/// scan-private, so scans that overlap share no mutable state.
void bulkDeleteScattered(const ScatterBuckets& buckets);

}  // namespace detail

/// Per-locale privatized instance of a DistDomain. Users never touch this
/// directly; it is public only for tests and the benchmark harness.
class EpochManagerImpl {
 public:
  explicit EpochManagerImpl(GlobalEpoch* global) : global_(global) {
    locale_epoch_.store(global->epoch.peek(), std::memory_order_relaxed);
  }

  ~EpochManagerImpl() {
    for (auto& list : limbo_) node_pool_.destroyList(list);
  }

  EpochManagerImpl(const EpochManagerImpl&) = delete;
  EpochManagerImpl& operator=(const EpochManagerImpl&) = delete;

  /// Enter the locale's current epoch. Re-validates the epoch cache after
  /// publishing (hardening of the paper's pin; see docs/ARCHITECTURE.md,
  /// "Deviations from the paper") so a pinned token can lag the global
  /// epoch by at most one advance.
  void pin(Token* token);
  void unpin(Token* token) noexcept;

  /// Defer deletion of `obj` into the limbo list of the token's epoch.
  /// Wait-free: node recycle + one exchange + one store.
  void deferDelete(Token* token, void* obj, ObjectDeleter deleter);

  /// Insert a run of aggregated retires shipped from another locale into
  /// this locale's current-epoch limbo list: acquires limbo nodes for every
  /// entry, pre-links them, and splices the chain with ONE exchange
  /// (LimboList::pushChain). Runs on the progress thread. Inserting at the
  /// *receiver's* epoch is safe regardless of sender lag: it can only delay
  /// the objects past more grace periods, never fewer.
  void insertRemoteRetires(const std::vector<comm::RetireEntry>& entries);

  // Fields are accessed directly by the reclaim driver in epoch_manager.cpp
  // and by white-box tests; this type is an implementation detail.
  GlobalEpoch* global_;
  std::atomic<std::uint64_t> locale_epoch_{1};
  std::atomic<std::uint64_t> is_setting_epoch_{0};  // local FCFS flag
  LimboList limbo_[kNumEpochs];
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
/// made safe). A cross-locale retire buffers only in the task's
/// comm::Aggregator, as part of a run of retires bound for its owner.
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
    routed_remote_ = other.routed_remote_;
    other.token_ = nullptr;
    other.routed_remote_ = false;
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
  /// Leave the epoch. First drains the task's comm::Aggregator (see
  /// flush()) -- flush-on-unpin is what guarantees an aggregated retire
  /// cannot be stranded past its guard's lifetime.
  void unpin() {
    // No-op on an invalid (released/moved-from) guard: already quiescent.
    if (token_ == nullptr) return;
    flush();
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
  /// target any locale's object: local (and scatter-policy) retires go
  /// into the local limbo list, cross-locale retires are routed per
  /// RuntimeConfig::remote_retire (aggregated through the task's
  /// comm::Aggregator by default).
  template <typename T>
  void retire(T* obj) {
    retireRaw(obj, &detail::arenaDeleter<T>);
  }

  /// Custom-deleter escape hatch (deleter runs on the object's owner).
  void retireRaw(void* obj, ObjectDeleter deleter);

  /// Ship buffered cross-locale retires now (normally automatic: batch
  /// threshold, unpin, release, tryReclaim): flushes the whole task
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
  /// Set by the first retire routed through the task aggregator.
  bool routed_remote_ = false;
};

}  // namespace pgasnb
