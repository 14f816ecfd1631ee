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
//   * LocalDomain -- wraps LocalEpochManager; runtime-free shared-memory
//     EBR for ordinary multithreaded programs.
//   * DistDomain  -- wraps the privatized distributed EpochManager; a
//     trivially copyable record-wrapper handle, capture it by value in
//     forall/coforall lambdas exactly like EpochManager.
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
// The managers expose acquireToken() as the low-level entry the domains
// build on; application code never touches tokens directly. (Migrating
// from the historical token-registration API? docs/API.md has the table.)
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

#include "epoch/epoch_manager.hpp"
#include "epoch/local_epoch_manager.hpp"
#include "epoch/reclaim_stats.hpp"
#include "runtime/active_message.hpp"
#include "util/backoff.hpp"

namespace pgasnb {

/// RAII epoch guard over either token flavour. Constructing a guard from a
/// freshly registered token pins it; destruction unpins and unregisters
/// (the token's own RAII). Move-only, like the tokens.
template <typename TokenT>
class BasicGuard {
 public:
  BasicGuard() = default;
  explicit BasicGuard(TokenT token, bool pin_now = true)
      : token_(std::move(token)) {
    if (pin_now && token_.valid()) token_.pin();
  }
  BasicGuard(BasicGuard&&) noexcept = default;
  BasicGuard& operator=(BasicGuard&&) noexcept = default;
  BasicGuard(const BasicGuard&) = delete;
  BasicGuard& operator=(const BasicGuard&) = delete;

  /// False once moved-from or released.
  bool valid() const noexcept { return token_.valid(); }

  // --- epoch introspection ------------------------------------------------
  bool pinned() const noexcept { return token_.pinned(); }
  /// The epoch this guard is pinned in; kEpochQuiescent when unpinned.
  std::uint64_t epoch() const noexcept { return token_.epoch(); }

  /// Temporarily leave the epoch (e.g. between phases of a long task) and
  /// re-enter it. pin() is idempotent. Unpinning flushes any buffered
  /// cross-locale retires (aggregated-retire policy) before going
  /// quiescent.
  void pin() { token_.pin(); }
  void unpin() { token_.unpin(); }

  // --- deferred reclamation ----------------------------------------------
  /// Defer deletion of `obj` until no task can still hold a reference.
  /// Requires the guard to be pinned.
  template <typename T>
  void retire(T* obj) {
    token_.deferDelete(obj);
  }
  /// Custom-deleter escape hatch (for a DistDomain the deleter runs on the
  /// object's owning locale).
  void retireRaw(void* obj, ObjectDeleter deleter) {
    token_.deferDeleteRaw(obj, deleter);
  }

  /// Ship any buffered cross-locale retires now (DistDomain aggregated
  /// policy; a no-op for LocalDomain). Happens automatically at batch
  /// threshold, unpin(), release(), and tryReclaim().
  void flush() { token_.flush(); }

  /// Protected read for domain-generic traversals: evaluate `load` under
  /// this guard's protection and return its result. EBR tokens pass the
  /// call through (a pinned token already protects every load); the
  /// interval token (epoch/interval_manager.hpp) widens its reservation's
  /// upper bound to the current era first and re-runs `load` if the era
  /// moved mid-read. Wrap every traversal load of a shared node pointer;
  /// reads of an already-protected snapshot need no wrapping.
  template <typename F>
  auto protect(F&& load) {
    return token_.protect(std::forward<F>(load));
  }

  /// Attempt an epoch advance + reclamation; non-blocking, returns true
  /// iff this call won the election and advanced the epoch.
  bool tryReclaim() { return token_.tryReclaim(); }

  /// Early unregistration (otherwise the destructor does it).
  void release() { token_.reset(); }

  /// The wrapped legacy token (white-box access for tests).
  TokenT& token() noexcept { return token_; }

 private:
  TokenT token_;
};

using LocalGuard = BasicGuard<LocalEpochToken>;
using DistGuard = BasicGuard<EpochToken>;

/// RAII pin of an attached (typically thread-cached) guard around a scope.
/// The AM-handler spelling of the guard protocol, with two boundaries:
///   * Inside an AM service on a progress thread (AmServiceScope), the AM
///     service is the pin boundary: the first scope pins the guard and
///     registers its unpin as a service-end hook, so a batch of handlers
///     pays one pin/unpin per (service, domain), the unpin landing before
///     the service's completion is stamped. The guard must outlive the
///     service; the thread-cached guard (threadGuard()) does.
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
          [](void* g) { static_cast<GuardT*>(g)->unpin(); }, &guard_);
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
/// The calling thread's cached attached guard for `manager`: one token
/// registration per (OS thread, domain), created lazily and reused across
/// AM handlers. Entries are dropped by EpochManager::destroy()'s
/// progress-thread broadcast (before the token pools die) and at thread
/// exit. Intended for progress threads -- the guard is bound to the
/// registering thread and locale like any EpochToken.
DistGuard& threadCachedGuard(const EpochManager& manager);
/// Drop every cache entry for the domain identified by `pid` on the
/// calling thread (unregisters the tokens; the instances must still be
/// alive). EpochManager::destroy() broadcasts this to every progress
/// thread.
void dropThreadCachedGuards(std::size_t pid);
}  // namespace detail

/// Shared-memory reclaim domain: plain C++ threads, heap nodes, no runtime
/// required. Non-copyable; pass by reference, like the manager it wraps.
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
  LocalDomain(const LocalDomain&) = delete;
  LocalDomain& operator=(const LocalDomain&) = delete;

  bool valid() const noexcept { return true; }

  /// Register the calling task and enter the current epoch.
  Guard pin() { return Guard(manager_.acquireToken(), /*pin_now=*/true); }
  /// Register without pinning (for tasks that toggle pin()/unpin()).
  Guard attach() { return Guard(manager_.acquireToken(), /*pin_now=*/false); }

  bool tryReclaim() { return manager_.tryReclaim(); }
  /// Blocking phase-boundary advance: retries tryReclaim (with backoff)
  /// until the epoch has moved past the value observed at entry, then
  /// returns the new epoch. Epochs cycle 1..kNumEpochs, so the move is
  /// detected by change, not ordering. Requires eventual quiescence --
  /// every registered token quiescent or pinned in the current epoch --
  /// or the advance spins forever. The batch engine issues this at phase
  /// boundaries, where it guarantees exactly that.
  std::uint64_t advance() {
    const std::uint64_t entry = manager_.currentEpoch();
    Backoff backoff;
    while (manager_.currentEpoch() == entry) {
      if (manager_.tryReclaim()) break;
      backoff.pause();
    }
    return manager_.currentEpoch();
  }
  /// Reclaim everything; caller guarantees no concurrent use.
  void clear() { manager_.clear(); }
  std::uint64_t currentEpoch() const noexcept {
    return manager_.currentEpoch();
  }
  ReclaimStats stats() const { return manager_.stats(); }
  /// Zero the statistics (counters only; call at a quiescent point).
  void resetStats() { manager_.resetStats(); }

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

  /// White-box access for tests/benches.
  LocalEpochManager& manager() noexcept { return manager_; }

 private:
  LocalEpochManager manager_;
};

/// Distributed reclaim domain: a trivially copyable record-wrapper over the
/// privatized EpochManager. Capture by value in task lambdas; every call
/// resolves against the executing locale's instance.
class DistDomain {
 public:
  using Guard = DistGuard;
  static constexpr bool kDistributed = true;
  /// Reclamation traits (see LocalDomain): the distributed manager keeps
  /// the same 4-list, 3-advance grace discipline.
  static constexpr std::uint64_t kGraceAdvances = 3;
  static constexpr bool kBlocksOnLaggingPin = true;

  DistDomain() = default;  // invalid handle; use create()

  /// Collective: one privatized instance per locale + the global epoch.
  static DistDomain create() {
    DistDomain d;
    d.manager_ = EpochManager::create();
    return d;
  }
  /// Collective teardown: reclaims everything, destroys all instances.
  void destroy() { manager_.destroy(); }

  bool valid() const noexcept { return manager_.valid(); }

  /// Register the calling task (token bound to the calling locale) and
  /// enter the current epoch.
  Guard pin() const { return Guard(manager_.acquireToken(), /*pin_now=*/true); }
  Guard attach() const {
    return Guard(manager_.acquireToken(), /*pin_now=*/false);
  }

  /// The calling thread's cached attached guard for this domain (one token
  /// registration per (thread, domain), reused across AM handlers). Wrap
  /// uses in a PinScope: `PinScope<DistGuard> pin(domain.threadGuard());`
  /// -- one pin per AM service, however many handlers of the batch use it.
  /// destroy() drops every progress thread's cache entry for this domain.
  /// Progress threads only (checked): task threads must use pin()/attach().
  Guard& threadGuard() const { return detail::threadCachedGuard(manager_); }

  bool tryReclaim() const { return manager_.tryReclaim(); }
  /// Blocking phase-boundary advance (paper's opportunistic tryReclaim
  /// made structural): drives the reclamation protocol until the global
  /// epoch has moved, returns the new epoch. Same quiescence requirement
  /// as LocalDomain::advance(); the batch engine (engine/epoch_engine.hpp)
  /// issues this at every phase boundary, after fencing the AM queues.
  std::uint64_t advance() const { return manager_.advance(); }
  void clear() const { manager_.clear(); }
  std::uint64_t currentEpoch() const { return manager_.currentGlobalEpoch(); }
  ReclaimStats stats() const { return manager_.stats(); }
  /// Zero the statistics on every locale (counters only; quiescent point).
  void resetStats() const { manager_.resetStats(); }

  // --- node hooks ---------------------------------------------------------
  /// Nodes live in the calling locale's arena; reclamation ships each node
  /// back to its owner (scatter lists).
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
  EpochManager manager() const noexcept { return manager_; }

 private:
  EpochManager manager_;
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
};

static_assert(ReclaimDomain<LocalDomain>);
static_assert(ReclaimDomain<DistDomain>);

}  // namespace pgasnb
