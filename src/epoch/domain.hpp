// The unified reclamation API: Domains and Guards.
//
// The paper's core point (Sec. II.C) is that *one* epoch-based reclamation
// protocol serves both shared memory and the PGAS; this header makes that
// true at the API level. A *reclaim domain* owns the epoch machinery; a
// task enters it with `domain.pin()`, which returns an RAII `Guard`:
//
//   LocalDomain domain;                 // or DistDomain::create()
//   {
//     auto guard = domain.pin();        // register + pin, crossbeam-style
//     ...traverse lock-free structures...
//     guard.retire(node);               // deferred reclamation
//     guard.tryReclaim();               // opportunistic epoch advance
//   }                                   // unpin + unregister at scope exit
//
// Three models of the `ReclaimDomain` concept are provided:
//   * LocalDomain -- the paper's LocalEpochManager: runtime-free
//     shared-memory EBR for ordinary multithreaded programs.
//   * DistDomain  -- the paper's privatized distributed EpochManager; a
//     trivially copyable record-wrapper handle, capture it by value in
//     forall/coforall lambdas.
//   * IntervalDomain (epoch/interval_manager.hpp) -- interval-based
//     reclamation over the same guard surface; bounded garbage under a
//     stalled pinned guard (docs/ARCHITECTURE.md, "Choosing a
//     reclamation domain").
//
// Every data structure in src/ds/ is templated over a Domain, so one
// algorithm body serves both builds; the domain also centralizes node
// allocation (`Domain::make<N>()` / `Domain::destroyNode()` /
// `Domain::retireNode()`), replacing the per-structure node policies.
//
// A guard is the task's registration (the paper's token): pin()/attach()
// register it in the domain, its destructor unregisters it.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "epoch/epoch_manager.hpp"
#include "epoch/local_epoch_manager.hpp"
#include "epoch/reclaim_stats.hpp"
#include "runtime/active_message.hpp"
#include "runtime/task.hpp"
#include "util/backoff.hpp"

namespace pgasnb {

/// RAII pin of an attached (typically thread-cached) guard around a scope.
/// The AM-handler spelling of the guard protocol, with two boundaries:
///   * Inside an AM service on a progress thread (AmServiceScope), the AM
///     service is the pin boundary: the first scope pins the guard and
///     registers a service-end hook that ships the retires the service
///     buffered (unpin() does not) and then unpins, so a batch of handlers
///     pays one pin/unpin per (service, domain), both landing before the
///     service's completion is stamped, and an idle progress thread never
///     holds a run. The guard must outlive the service; the thread-cached
///     guard (threadGuard()) does.
///   * Everywhere else the scope itself is the boundary: pin at entry,
///     unpin at exit.
/// Scopes nest: one that finds the guard already pinned neither pins nor
/// unpins, so an inner scope never strips an outer scope's protection.
template <typename GuardT>
class PinScope {
 public:
  explicit PinScope(GuardT& guard) : guard_(guard) {
    if (guard_.pinned()) return;
    guard_.pin();
    if (AmServiceScope::active()) {
      AmServiceScope::atEnd(
          [](void* g) {
            auto* guard = static_cast<GuardT*>(g);
            guard->flush();
            guard->unpin();
          },
          &guard_);
    } else {
      owns_pin_ = true;
    }
  }
  ~PinScope() {
    if (owns_pin_) guard_.unpin();
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

  GuardT& guard() noexcept { return guard_; }

 private:
  GuardT& guard_;
  bool owns_pin_ = false;
};

namespace detail {

// ---------------------------------------------------------------------------
// Per-thread cached guards (progress-thread handler pins)
// ---------------------------------------------------------------------------
//
// An AM handler that dereferences protected nodes (DistStack::popAsync's
// pop loop, an InterlockedHashTable bucket walk) needs a pin on the
// progress thread. Registering a fresh guard per message costs pool atomics and
// allocated-list churn on the hot path; instead each thread keeps one
// *attached* guard per domain, and PinScope pins it once per AM service --
// the handler plus its whole batch -- unpinning at the service's end
// (quiescent-state style: the service is the natural boundary).
//
// Lifetime: entries are keyed by (runtime generation, privatization id).
// A distributed domain's destroy() broadcasts dropThreadCachedGuards()
// through every AM queue, so each progress thread unregisters its cached
// guard while the token pools are still alive. Entries that outlive their
// runtime (leaked domains, teardown races) are *abandoned* -- the pool died
// with the arena, so unregistering would be a use-after-free.

template <typename GuardT>
struct CachedGuards {
  struct Entry {
    std::uint64_t generation;
    std::size_t pid;
    GuardT guard;
  };
  // unique_ptr entries: handed-out guard references stay stable across
  // later insertions/erasures (a handler can touch several domains).
  std::vector<std::unique_ptr<Entry>> entries;

  ~CachedGuards() {
    for (auto& entry : entries) {
      if (!Runtime::active() ||
          Runtime::get().generation() != entry->generation) {
        entry->guard.abandon();
      }
      // Otherwise the guard's destructor unregisters normally (the domain
      // is still alive on a live runtime).
    }
  }

  static CachedGuards& here() {
    thread_local CachedGuards cache;
    return cache;
  }
};

/// The calling progress thread's cached attached guard for `domain`: one
/// registration per (OS thread, domain), created lazily and reused across
/// AM handlers. The guard is bound to the registering thread and locale
/// like any guard.
template <typename Domain>
typename Domain::Guard& threadCachedGuard(const Domain& domain) {
  // Progress threads only: destroy()'s drop broadcast reaches exactly the
  // progress threads, so an entry created on a task thread would outlive
  // its domain and, at thread exit, unregister into a destroyed instance.
  PGASNB_CHECK_MSG(taskContext().progress_thread,
                   "threadGuard(): cached guards are progress-thread state; "
                   "use domain.pin()/attach() from tasks");
  using Cache = CachedGuards<typename Domain::Guard>;
  auto& entries = Cache::here().entries;
  const std::uint64_t gen = Runtime::get().generation();
  const std::size_t pid = domain.privatizationId();
  // Sweep entries from dead runtimes while we're here (their token pools
  // are gone -- abandon, never unregister).
  std::erase_if(entries, [gen](const auto& entry) {
    if (entry->generation == gen) return false;
    entry->guard.abandon();
    return true;
  });
  for (auto& entry : entries) {
    if (entry->pid == pid && entry->guard.valid()) return entry->guard;
  }
  entries.push_back(std::make_unique<typename Cache::Entry>(
      typename Cache::Entry{gen, pid, domain.attach()}));
  return entries.back()->guard;
}

/// Collective half of a distributed domain's destroy(): drop every progress
/// thread's cache entry for the domain `pid` (the guard destructors
/// unregister) *before* the per-locale instances and their token pools die.
/// The broadcast must traverse the AM queues -- amProgressHandle, never
/// amSync's local fast path -- because the thread_local cache lives on the
/// progress thread, not on whichever task thread runs destroy().
template <typename GuardT>
void dropThreadCachedGuards(std::size_t pid) {
  const std::uint32_t n = Runtime::get().numLocales();
  std::vector<comm::Handle<>> drops;
  drops.reserve(n);
  for (std::uint32_t l = 0; l < n; ++l) {
    drops.push_back(comm::amProgressHandle(l, [pid] {
      std::erase_if(CachedGuards<GuardT>::here().entries,
                    [pid](const auto& entry) { return entry->pid == pid; });
    }));
  }
  comm::waitAll(drops);
}

/// Blocking phase-boundary advance, one loop for every domain: retry
/// tryReclaim (with backoff) until currentEpoch() has moved past its value
/// at entry, then return the new epoch. Epochs cycle 1..kNumEpochs, so the
/// move is detected by *change*, not ordering; a concurrent advancer
/// changing it also satisfies the caller (the boundary needs the epoch to
/// have moved, not to have moved by us). Requires eventual quiescence --
/// every registered guard quiescent or pinned in the current epoch -- or
/// the advance spins forever. Lost elections and lagging pins are
/// transient under the engine's boundary protocol (all engine guards are
/// unpinned between collectives, handler guards unpin at the end of each
/// AM service).
template <typename Domain>
std::uint64_t advanceEpoch(Domain& domain) {
  const std::uint64_t entry = domain.currentEpoch();
  Backoff backoff;
  while (domain.currentEpoch() == entry) {
    if (domain.tryReclaim()) break;
    backoff.pause();
  }
  return domain.currentEpoch();
}

/// Every locale's counter block of a distributed domain, summed (diagnostic;
/// quiescent-exact).
template <typename Domain>
ReclaimStats sumLocaleStats(const Domain& domain) {
  ReclaimStats total;
  for (std::uint32_t l = 0; l < Runtime::get().numLocales(); ++l) {
    total += domain.implOn(l)->counters_.snapshot();
  }
  return total;
}

/// Zero every locale's counter block (counters only; quiescent point).
template <typename Domain>
void resetLocaleStats(const Domain& domain) {
  for (std::uint32_t l = 0; l < Runtime::get().numLocales(); ++l) {
    domain.implOn(l)->counters_.reset();
  }
}

}  // namespace detail

/// Shared-memory reclaim domain (the paper's LocalEpochManager): plain C++
/// threads, heap nodes, no runtime required. It functions like DistDomain
/// but has no global epoch and takes no remote objects into consideration.
/// Guards and limbo nodes come from the heap; deferred objects are deleted
/// with their registered deleter on the reclaiming thread. Non-copyable;
/// pass by reference.
class LocalDomain {
 public:
  using Guard = LocalGuard;
  static constexpr bool kDistributed = false;
  /// Reclamation traits, for trait-generic tests and harnesses:
  /// successful tryReclaim() calls needed after a retire (all guards
  /// quiescent) before the object is freed, and whether a single lagging
  /// pinned guard stalls *all* reclamation (EBR) or only the garbage its
  /// reservation interval covers (interval manager).
  static constexpr std::uint64_t kGraceAdvances = 3;
  static constexpr bool kBlocksOnLaggingPin = true;

  LocalDomain() = default;
  ~LocalDomain() { clear(); }
  LocalDomain(const LocalDomain&) = delete;
  LocalDomain& operator=(const LocalDomain&) = delete;

  bool valid() const noexcept { return true; }

  /// Register the calling task and enter the current epoch.
  Guard pin() { return Guard(this, /*pin_now=*/true); }
  /// Register without pinning (for tasks that toggle pin()/unpin()).
  Guard attach() { return Guard(this, /*pin_now=*/false); }

  /// Advance the epoch and reclaim the list two epochs behind, if every
  /// registered guard is quiescent or in the current epoch. Non-blocking:
  /// losers of the one-flag election return immediately.
  bool tryReclaim();
  /// Blocking phase-boundary advance (detail::advanceEpoch); the batch
  /// engine issues it at phase boundaries, where it guarantees the
  /// quiescence it requires.
  std::uint64_t advance() { return detail::advanceEpoch(*this); }
  /// Reclaim everything; caller guarantees no concurrent use.
  void clear();
  std::uint64_t currentEpoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }
  ReclaimStats stats() const { return counters_.snapshot(); }
  /// Zero the statistics (counters only; call at a quiescent point).
  void resetStats() { counters_.reset(); }

  // --- node hooks (used by the Domain-generic data structures) ------------
  template <typename N, typename... Args>
  static N* make(Args&&... args) {
    return new N(std::forward<Args>(args)...);
  }
  template <typename N>
  static void destroyNode(N* n) {
    delete n;
  }
  template <typename N>
  static void retireNode(Guard& guard, N* n) {
    guard.retire(n);
  }

 private:
  friend class LocalGuard;

  struct HeapLimboNodeAlloc {
    static LimboNode* alloc() { return new LimboNode; }
    static void free(LimboNode* n) { delete n; }
  };
  struct HeapTokenAlloc {
    static Token* alloc() { return new Token; }
    static void free(Token* t) { delete t; }
  };

  void pin(Token* token) noexcept;
  void deferDelete(Token* token, void* obj, ObjectDeleter deleter);
  void reclaimList(std::uint32_t index);

  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> is_setting_epoch_{0};
  LimboList limbo_[kNumEpochs];
  LimboNodePool<HeapLimboNodeAlloc> node_pool_;
  TokenPool<HeapTokenAlloc> tokens_;
  ReclaimCounters counters_;
};

/// Distributed reclaim domain (the paper's EpochManager): a trivially
/// copyable record-wrapper over one privatized EpochManagerImpl per locale
/// and the GlobalEpoch on locale 0. Capture by value in task lambdas; every
/// call resolves against the executing locale's instance.
class DistDomain {
 public:
  using Guard = DistGuard;
  static constexpr bool kDistributed = true;
  /// Reclamation traits (see LocalDomain): the distributed manager keeps
  /// the same 4-list, 3-advance grace discipline.
  static constexpr std::uint64_t kGraceAdvances = 3;
  static constexpr bool kBlocksOnLaggingPin = true;

  DistDomain() = default;  // invalid handle; use create()

  /// Collective: the election state (locale 0) plus one privatized
  /// instance per locale.
  static DistDomain create();
  /// Collective teardown: reclaims everything, drops every progress
  /// thread's cached guard, then destroys the per-locale instances and the
  /// election state.
  void destroy();

  bool valid() const noexcept { return handle_.valid(); }

  /// Register the calling task (guard bound to the calling locale) and
  /// enter the current epoch.
  Guard pin() const { return Guard(handle_, /*pin_now=*/true); }
  Guard attach() const { return Guard(handle_, /*pin_now=*/false); }

  /// The calling thread's cached attached guard for this domain (one
  /// registration per (thread, domain), reused across AM handlers). Wrap
  /// uses in a PinScope: `PinScope<DistGuard> pin(domain.threadGuard());`
  /// -- one pin per AM service, however many handlers of the batch use it.
  /// destroy() drops every progress thread's cache entry for this domain.
  /// Progress threads only (checked): task threads must use pin()/attach().
  Guard& threadGuard() const { return detail::threadCachedGuard(*this); }

  bool tryReclaim() const { return detail::epochTryReclaim(handle_); }
  /// Blocking phase-boundary advance (paper's opportunistic tryReclaim
  /// made structural, detail::advanceEpoch): returns the new epoch. The
  /// batch engine (engine/epoch_engine.hpp) issues this at every phase
  /// boundary, after fencing the AM queues.
  std::uint64_t advance() const { return detail::advanceEpoch(*this); }
  /// Reclaim everything across all epochs. Caller guarantees no concurrent
  /// use (paper's `clear`).
  void clear() const { detail::epochClearAll(handle_); }
  /// The calling locale's epoch cache: no communication. Every cache holds
  /// the global epoch except while an advance is storing the next one.
  std::uint64_t currentEpoch() const {
    return handle_.local().locale_epoch_.load(std::memory_order_seq_cst);
  }
  /// Summed statistics across locales (diagnostic; quiescent-exact).
  ReclaimStats stats() const { return detail::sumLocaleStats(*this); }
  /// Zero the statistics on every locale (counters only; quiescent point).
  void resetStats() const { detail::resetLocaleStats(*this); }

  // --- node hooks ---------------------------------------------------------
  /// Nodes live in the calling locale's arena; a retire ships each node
  /// back to its owner in a run.
  template <typename N, typename... Args>
  static N* make(Args&&... args) {
    return gnew<N>(std::forward<Args>(args)...);
  }
  /// Allocate in a specific locale's arena (harnesses that spread nodes
  /// across owners; make() is makeOn(here)).
  template <typename N, typename... Args>
  static N* makeOn(std::uint32_t locale, Args&&... args) {
    return gnewOn<N>(locale, std::forward<Args>(args)...);
  }
  template <typename N>
  static void destroyNode(N* n) {
    gdelete(n);
  }
  template <typename N>
  static void retireNode(Guard& guard, N* n) {
    guard.retire(n);
  }

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

/// How a data structure holds on to its domain: distributed domains are
/// trivially copyable record-wrappers and are stored *by value* (the
/// paper's handle idiom -- safe to capture across locales and to outlive
/// the caller's variable); local domains are non-copyable and stored by
/// pointer, so the caller keeps ownership. One helper instead of each
/// structure hand-rolling the conditional.
template <typename Domain>
class DomainRef {
 public:
  DomainRef() = default;
  DomainRef(Domain& domain) {  // NOLINT: implicit by design
    if constexpr (Domain::kDistributed) {
      handle_ = domain;
    } else {
      handle_ = &domain;
    }
  }

  Domain& get() const noexcept {
    if constexpr (Domain::kDistributed) {
      return handle_;
    } else {
      return *handle_;
    }
  }

 private:
  // mutable: a by-value distributed handle is logically a reference; get()
  // must hand out Domain& from const contexts (e.g. const data structures).
  mutable std::conditional_t<Domain::kDistributed, Domain, Domain*> handle_{};
};

/// The concept every reclamation backend models. Data structures constrain
/// their Domain parameter with this, so a misuse fails at the constraint
/// rather than deep inside an algorithm body.
template <typename D>
concept ReclaimDomain = requires(D d, const D cd, typename D::Guard g,
                                 void* obj, ObjectDeleter del, int* node) {
  typename D::Guard;
  { D::kDistributed } -> std::convertible_to<bool>;
  { D::kGraceAdvances } -> std::convertible_to<std::uint64_t>;
  { D::kBlocksOnLaggingPin } -> std::convertible_to<bool>;
  { d.pin() } -> std::same_as<typename D::Guard>;
  { d.attach() } -> std::same_as<typename D::Guard>;
  { d.tryReclaim() } -> std::convertible_to<bool>;
  { d.clear() };
  { d.resetStats() };
  { cd.currentEpoch() } -> std::convertible_to<std::uint64_t>;
  { cd.stats() } -> std::convertible_to<ReclaimStats>;
  // node hooks
  { D::template make<int>() } -> std::same_as<int*>;
  { D::template destroyNode<int>(node) };
  { D::template retireNode<int>(g, node) };
  // guard surface
  { g.pinned() } -> std::convertible_to<bool>;
  { g.epoch() } -> std::convertible_to<std::uint64_t>;
  { g.pin() };
  { g.unpin() };
  { g.retire(node) };
  { g.retireRaw(obj, del) };
  { g.flush() };
  { g.tryReclaim() } -> std::convertible_to<bool>;
  {
    g.protect([] { return static_cast<int*>(nullptr); })
  } -> std::same_as<int*>;
  { g.protectOnce([] {}) } -> std::same_as<bool>;
};

static_assert(ReclaimDomain<LocalDomain>);
static_assert(ReclaimDomain<DistDomain>);

}  // namespace pgasnb
