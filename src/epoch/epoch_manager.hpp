// EpochManager: distributed, lock-free Epoch-Based Reclamation
// (paper Sec. II.B-C, Fig. 1-2, Listing 4).
//
// Structure
// ---------
// * One privatized instance per locale (record-wrapped handle => zero
//   communication to reach the local instance, even inside distributed
//   forall loops).
// * Each instance has three limbo lists -- the epochs e-1, e, e+1 -- a
//   locale-private epoch cache, a local election flag, a token pool, and a
//   scatter array used to sort deferred objects by owning locale before
//   bulk deletion.
// * A single GlobalEpoch object lives on locale 0 so all locales reach
//   consensus on one centralized epoch; it is accessed with network
//   atomics (RDMA in CommMode::ugni).
//
// Reclamation protocol (tryReclaim, Listing 4)
// --------------------------------------------
// 1. first-come-first-serve election, local flag then global flag; losers
//    return immediately (non-blocking, keeps the manager lock-free).
// 2. scan every locale's allocated tokens on that locale; safe iff every
//    token is quiescent or pinned in the current global epoch.
// 3. if safe: advance the global epoch, then on every locale update the
//    epoch cache, pop the limbo list that is now two epochs old in one
//    exchange, scatter its objects by owner locale, and bulk-delete each
//    bucket on its owner.
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

}  // namespace detail

/// Per-locale privatized instance. Users never touch this directly; it is
/// public only for tests and the benchmark harness.
class EpochManagerImpl {
 public:
  EpochManagerImpl(GlobalEpoch* global, std::uint32_t num_locales)
      : global_(global), objs_to_delete_(num_locales) {
    locale_epoch_.store(global->epoch.peek(), std::memory_order_relaxed);
  }

  ~EpochManagerImpl();

  EpochManagerImpl(const EpochManagerImpl&) = delete;
  EpochManagerImpl& operator=(const EpochManagerImpl&) = delete;

  // --- token operations (called via EpochToken) -------------------------

  Token* registerToken() { return tokens_.acquire(); }
  void unregisterToken(Token* token);

  /// Enter the locale's current epoch. Re-validates the epoch cache after
  /// publishing (hardening of the paper's pin; see DESIGN.md) so a pinned
  /// token can lag the global epoch by at most one advance.
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

  // --- reclamation machinery (called by free functions below) -----------

  /// Pop the limbo list `index` and scatter its objects into
  /// objs_to_delete_ buckets keyed by owning locale; recycles the nodes.
  void scatterLimboList(std::uint32_t index);

  /// Delete every object in `objs_to_delete_[dest]`; must run on `dest`.
  void deleteBucketFor(std::uint32_t dest);

  void clearScatter() {
    for (auto& bucket : objs_to_delete_) bucket.clear();
  }

  /// Count `n` fresh deferrals and raise the max_pending high-water mark.
  void notePendingAfterDefer(std::uint64_t n) noexcept {
    const std::uint64_t deferred =
        deferred_.fetch_add(n, std::memory_order_relaxed) + n;
    detail::raiseMax(max_pending_,
                     deferred - reclaimed_.load(std::memory_order_relaxed));
  }

  GlobalEpoch& global() noexcept { return *global_; }

  ReclaimStats statsSnapshot() const;
  /// Zero this locale's statistics (counters only; see
  /// LocalEpochManager::resetStats for the quiescence caveat).
  void resetStatsHere();

  // Fields are accessed directly by the reclaim driver in epoch_manager.cpp
  // and by white-box tests; this type is an implementation detail.
  GlobalEpoch* global_;
  std::atomic<std::uint64_t> locale_epoch_{1};
  std::atomic<std::uint64_t> is_setting_epoch_{0};  // local FCFS flag
  LimboList limbo_[kNumEpochs];
  LimboNodePool<detail::ArenaLimboNodeAlloc> node_pool_;
  TokenPool<detail::ArenaTokenAlloc> tokens_;

  std::vector<std::vector<comm::RetireEntry>> objs_to_delete_;

  // statistics (relaxed; summed across locales for reports)
  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> elections_lost_local_{0};
  std::atomic<std::uint64_t> elections_lost_global_{0};
  std::atomic<std::uint64_t> scans_unsafe_{0};
  std::atomic<std::uint64_t> max_pending_{0};
};

namespace detail {
/// Listing 4: attempt to advance the global epoch and reclaim. Returns
/// true iff the epoch advanced.
bool epochTryReclaim(Privatized<EpochManagerImpl> handle);
/// Phase-boundary advance: drive epochTryReclaim (with backoff) until the
/// global epoch has moved past the value observed at entry; returns the
/// new epoch. Blocking -- the *structural* advance the batch engine issues
/// at phase boundaries, as opposed to the opportunistic tryReclaim.
/// Requires eventual quiescence: every registered token must be (or
/// become) quiescent or pinned in the current epoch, or the scan never
/// turns safe and this spins forever.
std::uint64_t epochAdvance(Privatized<EpochManagerImpl> handle);
/// Reclaim everything in every epoch; caller guarantees quiescence.
void epochClearAll(Privatized<EpochManagerImpl> handle);
}  // namespace detail

class EpochManager;

/// RAII token handle (the paper wraps tokens in a managed class so scope
/// exit unregisters them -- this is the C++ equivalent, which makes the
/// `forall ... with (var tok = manager.acquireToken())` pattern safe).
/// A cross-locale retire buffers only in the task's comm::Aggregator, as
/// part of a run of retires bound for its owner.
///
/// A token is bound to the locale and OS thread that registered it: the
/// underlying Token lives in that locale's pool, and buffered retires ride
/// the registering thread's thread-local aggregator. Moving it within the
/// task is fine; retiring through it or flushing it from a different
/// locale or thread is not (debug-checked).
class EpochToken {
 public:
  EpochToken() = default;
  EpochToken(EpochToken&& other) noexcept { *this = std::move(other); }
  EpochToken& operator=(EpochToken&& other) noexcept {
    reset();
    handle_ = other.handle_;
    token_ = other.token_;
    home_ = other.home_;
    owner_thread_ = other.owner_thread_;
    routed_remote_ = other.routed_remote_;
    other.token_ = nullptr;
    other.routed_remote_ = false;
    return *this;
  }
  EpochToken(const EpochToken&) = delete;
  EpochToken& operator=(const EpochToken&) = delete;

  ~EpochToken() { reset(); }

  bool valid() const noexcept { return token_ != nullptr; }

  void pin() {
    PGASNB_CHECK_MSG(token_ != nullptr, "pin() on an invalid guard");
    handle_.local().pin(token_);
  }
  /// Leave the epoch. First drains the task's comm::Aggregator (see
  /// flush()) -- flush-on-unpin is what guarantees an aggregated retire
  /// cannot be stranded past its guard's lifetime.
  void unpin() {
    // No-op on an invalid (released/moved-from) token: already quiescent.
    if (token_ == nullptr) return;
    flush();
    handle_.local().unpin(token_);
  }
  /// An invalid (default-constructed or moved-from) token is quiescent.
  bool pinned() const noexcept { return token_ != nullptr && token_->pinned(); }
  std::uint64_t epoch() const noexcept {
    return token_ == nullptr
               ? kEpochQuiescent
               : token_->local_epoch.load(std::memory_order_relaxed);
  }

  /// Defer deletion of an object allocated with gnew/gnewOn. May target any
  /// locale's object; local (and scatter-policy) retires go into the local
  /// limbo list, cross-locale retires are routed per
  /// RuntimeConfig::remote_retire (aggregated through the task's
  /// comm::Aggregator by default).
  template <typename T>
  void deferDelete(T* obj) {
    deferDeleteRaw(obj, &detail::arenaDeleter<T>);
  }

  /// Custom-deleter escape hatch (deleter runs on the object's owner).
  void deferDeleteRaw(void* obj, ObjectDeleter deleter);

  /// Ship buffered cross-locale retires now (normally automatic: batch
  /// threshold, unpin, release, tryReclaim): flushes the whole task
  /// aggregator once this token has routed a retire through it.
  void flush();

  /// Protected read: pass-through under EBR (a pinned token protects every
  /// load); the interval manager's token widens its reservation here. See
  /// BasicGuard::protect (epoch/domain.hpp).
  template <typename F>
  auto protect(F&& load) {
    return std::forward<F>(load)();
  }

  /// Attempt a reclamation from this task (paper: "intended to be invoked
  /// on the token or EpochManager"). False on an invalid token (mirrors
  /// the LocalEpochToken hardening).
  bool tryReclaim() {
    if (token_ == nullptr) return false;
    flush();
    return detail::epochTryReclaim(handle_);
  }

  /// Early unregistration (otherwise the destructor does it).
  void reset() {
    if (token_ == nullptr) return;
    flush();
    handle_.local().unregisterToken(token_);
    token_ = nullptr;
  }

  /// Internal: forget the underlying token WITHOUT unregistering it. Used
  /// by the progress-thread guard cache when the runtime (or the domain's
  /// privatized instances) died before the caching thread: the token pool
  /// the Token lives in is already gone, so unregistering would be a
  /// use-after-free; the Token's memory went down with the arena.
  void abandon() noexcept { token_ = nullptr; }

 private:
  friend class EpochManager;
  EpochToken(Privatized<EpochManagerImpl> handle, Token* token)
      : handle_(handle),
        token_(token),
        home_(Runtime::here()),
        owner_thread_(std::this_thread::get_id()) {}

  /// The token must be used on its registering locale AND OS thread:
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

/// Global-view EpochManager handle. Trivially copyable record-wrapper:
/// capture it by value in forall/coforall lambdas and every call resolves
/// to the privatized instance of the executing locale.
class EpochManager {
 public:
  EpochManager() = default;  // invalid handle; use create()

  /// Collective: creates the global epoch (locale 0) and one privatized
  /// instance per locale.
  static EpochManager create();

  /// Collective teardown: reclaims all deferred objects, then destroys the
  /// per-locale instances and the global epoch.
  void destroy();

  bool valid() const noexcept { return handle_.valid(); }

  /// Register the calling task; the token is bound to the calling locale.
  /// Low-level entry used by DistDomain::pin()/attach() -- application code
  /// should program against Guards (epoch/domain.hpp).
  EpochToken acquireToken() const {
    return EpochToken(handle_, handle_.local().registerToken());
  }

  bool tryReclaim() const { return detail::epochTryReclaim(handle_); }

  /// Blocking phase-boundary advance (see detail::epochAdvance): retries
  /// tryReclaim until the global epoch moves, then returns the new epoch.
  std::uint64_t advance() const { return detail::epochAdvance(handle_); }

  /// Reclaim everything across all epochs. Caller guarantees no concurrent
  /// use (paper's `clear`).
  void clear() const { detail::epochClearAll(handle_); }

  std::uint64_t currentGlobalEpoch() const {
    return handle_.local().global().epoch.read();
  }

  /// Summed statistics across locales (diagnostic; quiescent-exact).
  ReclaimStats stats() const;

  /// Zero the statistics on every locale (counters only). Call at a
  /// quiescent point -- typically right after clear().
  void resetStats() const;

  /// White-box access for tests/benches.
  EpochManagerImpl& implHere() const { return handle_.local(); }
  EpochManagerImpl* implOn(std::uint32_t locale) const {
    return handle_.instanceOn(locale);
  }

  /// Stable per-domain identity (the privatization slot); keys the
  /// per-thread cached-guard registry.
  std::size_t privatizationId() const noexcept { return handle_.id(); }

 private:
  Privatized<EpochManagerImpl> handle_;
  GlobalEpoch* global_ = nullptr;
};

}  // namespace pgasnb
