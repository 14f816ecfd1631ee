// IntervalDomain: distributed Interval-Based Reclamation (IBR).
//
// A third model of the ReclaimDomain concept, alongside the paper's
// epoch managers (Wen et al., "Interval-Based Memory Reclamation",
// PPoPP'18, adapted to the PGAS simulation -- see docs/ARCHITECTURE.md
// "Choosing a reclamation domain" for the three-way comparison).
//
// Protocol
// --------
// * A process-wide monotone *era* clock replaces the cycling 4-value
//   epoch. Every make<N>() allocation is tagged with its birth era. A
//   retire carries it to its owner's run, like a DistDomain retire, and
//   the owner stamps the retire era on insert, so each garbage block
//   carries a lifetime interval [birth, retire]; the late stamp only
//   widens it, keeping the block longer.
// * A pinned guard holds a *reservation* [lo, hi]: lo is the era at pin
//   time (stored in Token::local_epoch, so quiescence detection is shared
//   with EBR), hi (Token::interval_upper) starts equal to lo and is
//   widened by guard.protect() whenever the era advances during a
//   traversal.
// * A retired block is reclaimable as soon as NO live reservation
//   intersects its lifetime interval: freed iff for every reservation
//   [lo, hi], birth > hi or retire < lo. A guard pinned for K eras holds
//   back only blocks whose intervals cross its reservation -- garbage born
//   after its last protect() widening is freed immediately, so a stalled
//   locale bounds pending garbage by a constant instead of stalling all
//   reclamation (kBlocksOnLaggingPin = false).
// * tryReclaim never fails a scan: it advances the era, pops every
//   locale's retired list (one exchange each), gathers all reservations,
//   then each locale splits its popped chain in place, frees one part
//   (detail::freeChain) and re-pushes the other with one exchange.
//
// Simulation note (deviation from a real PGAS): the era clock is a plain
// process-wide atomic rather than a locale-0 DistAtomicU64. A per-protect
// network read of the era would defeat the locale-cached design the paper
// exists to demonstrate; real IBR implementations likewise read a cached
// era. We charge era *advances* as NIC atomics against locale 0 and era
// *reads* as processor atomics, modeling a locale-cached replica kept
// fresh by the advancing side.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "epoch/domain.hpp"
#include "epoch/limbo_list.hpp"
#include "epoch/reclaim_stats.hpp"
#include "epoch/token.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "runtime/privatization.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb {

/// The process-wide monotone era clock (starts at 1; 0 marks "birth
/// unknown" for retireRaw'd objects, kept maximally conservative). One
/// clock is shared by every IntervalDomain -- eras are only compared for
/// ordering, so sharing is harmless and keeps make<N>() static.
std::atomic<std::uint64_t>& intervalEraClock() noexcept;

namespace interval_detail {

/// Header prepended to every make<N>() allocation: the birth era rides
/// directly in front of the payload so retire can read it back without a
/// side table. Standard-layout by construction (offsetof is required).
template <typename N>
struct BirthBlock {
  std::uint64_t birth;
  alignas(N) unsigned char storage[sizeof(N)];
};

template <typename N>
BirthBlock<N>* blockOf(N* n) noexcept {
  return reinterpret_cast<BirthBlock<N>*>(reinterpret_cast<unsigned char*>(n) -
                                          offsetof(BirthBlock<N>, storage));
}

/// Deleter registered for make<N>() objects: destroy the payload, then
/// return the whole birth-tagged block to the owning locale's arena (runs
/// on the owner, like arenaDeleter).
template <typename N>
void blockDeleter(void* p) {
  N* n = static_cast<N*>(p);
  BirthBlock<N>* block = blockOf(n);
  n->~N();
  Runtime::get().deleteLocal(block);
}

}  // namespace interval_detail

/// Per-locale privatized instance: one retired list (all eras share it --
/// the interval tags, not the list index, decide reclaimability), node and
/// token pools, and a local scan-election flag. There is no global
/// election: scans started on different locales may overlap. Each pops
/// every locale's retired list, so each frees or re-pushes only the chains
/// it popped, and it reads the reservations after its own pops
/// (elections_lost_global stays 0 by construction).
class IntervalManagerImpl {
 public:
  /// Retire-path era amortization: every kEraFreq retires on a locale bump
  /// the shared era, so long-lived reservations age out even without
  /// tryReclaim calls.
  static constexpr std::uint64_t kEraFreq = 128;

  IntervalManagerImpl() = default;
  ~IntervalManagerImpl() { node_pool_.destroyList(retired_); }

  IntervalManagerImpl(const IntervalManagerImpl&) = delete;
  IntervalManagerImpl& operator=(const IntervalManagerImpl&) = delete;

  /// Publish the reservation [era, era]. Order matters for the scan: hi is
  /// stored before lo, and the scan reads lo first, so a nonzero lo
  /// guarantees hi is already at least as fresh. No re-validation loop is
  /// needed (unlike the epoch pin): a reservation that lags the era only
  /// keeps *more* garbage, never less.
  void pin(Token* token);
  void unpin(Token* token) noexcept;

  /// Insert a run of retires bound for this locale into the retired list,
  /// each stamped [birth, now] (detail::insertRun).
  void insertRetires(const std::vector<comm::RetireEntry>& entries);

  // Fields are accessed directly by the reclaim driver and the guard in
  // interval_manager.cpp and by white-box tests.
  LimboList retired_;
  LimboNodePool<detail::ArenaLimboNodeAlloc> node_pool_;
  TokenPool<detail::ArenaTokenAlloc> tokens_;

  std::atomic<std::uint64_t> is_scanning_{0};  // local FCFS election flag
  std::atomic<std::uint64_t> retires_since_era_{0};
  /// Summed across locales for reports; elections_lost_global and
  /// scans_unsafe stay 0 (no global election, no unsafe scan under IBR).
  ReclaimCounters counters_;
};

namespace detail {
/// Advance the era and reclaim every retired block no live reservation
/// covers. Returns true iff this call won its locale's election (the era
/// always advances on a win -- there is no unsafe scan under IBR).
bool intervalTryReclaim(Privatized<IntervalManagerImpl> handle);
/// Reclaim everything regardless of reservations; caller guarantees no
/// concurrent use (drains the AM queues first, like epochClearAll).
void intervalClearAll(Privatized<IntervalManagerImpl> handle);
}  // namespace detail

/// A task's registration in an IntervalDomain and its RAII guard; same
/// surface as DistGuard (epoch/epoch_manager.hpp), so every domain-generic
/// structure works unchanged. Retires take DistGuard's route: each joins
/// its owner's run in the task's comm::Aggregator, with DistGuard's flush
/// points, and the guard is bound to the locale and OS thread that
/// registered it. Move-only.
class IntervalGuard {
 public:
  IntervalGuard() = default;
  IntervalGuard(IntervalGuard&& other) noexcept { *this = std::move(other); }
  IntervalGuard& operator=(IntervalGuard&& other) noexcept {
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
  IntervalGuard(const IntervalGuard&) = delete;
  IntervalGuard& operator=(const IntervalGuard&) = delete;

  ~IntervalGuard() { release(); }

  bool valid() const noexcept { return token_ != nullptr; }

  void pin() {
    PGASNB_CHECK_MSG(token_ != nullptr, "pin() on an invalid guard");
    handle_.local().pin(token_);
  }
  void unpin() {
    if (token_ == nullptr) return;
    handle_.local().unpin(token_);
  }
  bool pinned() const noexcept { return token_ != nullptr && token_->pinned(); }
  /// The reservation's lower bound (the era at pin time); kEpochQuiescent
  /// when unpinned. Named epoch() for surface parity with the EBR guards.
  std::uint64_t epoch() const noexcept {
    return token_ == nullptr
               ? kEpochQuiescent
               : token_->local_epoch.load(std::memory_order_relaxed);
  }

  /// Defer deletion of an IntervalDomain::make<T>() object; the birth era
  /// is read back from the block header and rides the retire to its owner.
  /// Requires the guard to be pinned. May target any locale's object.
  template <typename T>
  void retire(T* obj) {
    route(obj, &interval_detail::blockDeleter<T>,
          interval_detail::blockOf(obj)->birth);
  }

  /// Custom-deleter escape hatch for objects without a birth tag. Birth 0
  /// means "unknown, assume ancient": the block is freed only once every
  /// live reservation was pinned after its owner inserted the retire.
  void retireRaw(void* obj, ObjectDeleter deleter) {
    route(obj, deleter, /*birth=*/0);
  }

  /// Flush buffered retires now; same points and contract as
  /// DistGuard::flush.
  void flush() {
    if (token_ == nullptr || !routed_retire_) return;
    checkHome();
    comm::taskAggregator().flushAll();
  }

  /// Protected read (the IBR read protocol): protectOnce(load) until the
  /// era holds still across it -- on return, everything `load` observed is
  /// covered by [lo, hi]. See DistGuard::protect.
  template <typename F>
  auto protect(F&& load) {
    std::invoke_result_t<F&> value{};
    while (!protectOnce([&] { value = load(); })) {
    }
    return value;
  }

  /// Widen the reservation's upper bound to the current era `e`, run `op`
  /// exactly once, and return whether the era is still `e`: true iff
  /// everything `op` observed (a CAS's witness included) is covered by
  /// [lo, hi]. See DistGuard::protectOnce.
  template <typename F>
  bool protectOnce(F&& op) {
    PGASNB_DCHECK(pinned());
    auto& era = intervalEraClock();
    const std::uint64_t e = era.load(std::memory_order_seq_cst);
    if (token_->interval_upper.load(std::memory_order_relaxed) < e) {
      token_->interval_upper.store(e, std::memory_order_seq_cst);
      if (Runtime::active()) {
        sim::chargeModelOnly(Runtime::get().config().latency.cpu_atomic_ns);
      }
    }
    std::forward<F>(op)();
    return era.load(std::memory_order_seq_cst) == e;
  }

  bool tryReclaim() {
    if (token_ == nullptr) return false;
    flush();
    return detail::intervalTryReclaim(handle_);
  }

  void release() {
    if (token_ == nullptr) return;
    flush();
    handle_.local().unpin(token_);
    handle_.local().tokens_.release(token_);
    token_ = nullptr;
  }

  /// Forget the registration WITHOUT unregistering (see DistGuard::abandon).
  void abandon() noexcept { token_ = nullptr; }

 private:
  friend class IntervalDomain;
  /// Register in the calling locale's pool (IntervalDomain::pin()/attach()).
  IntervalGuard(Privatized<IntervalManagerImpl> handle, bool pin_now)
      : handle_(handle),
        token_(handle.local().tokens_.acquire()),
        home_(Runtime::here()),
        owner_thread_(std::this_thread::get_id()) {
    if (pin_now) pin();
  }

  /// Route one retire to its owner's run; every kEraFreq-th on this locale
  /// bumps the era.
  void route(void* obj, ObjectDeleter deleter, std::uint64_t birth);

  /// Registering locale and OS thread only (see DistGuard::checkHome).
  void checkHome() const {
    PGASNB_DCHECK(Runtime::here() == home_);
    PGASNB_DCHECK(std::this_thread::get_id() == owner_thread_);
  }

  Privatized<IntervalManagerImpl> handle_;
  Token* token_ = nullptr;
  std::uint32_t home_ = 0;        ///< registering locale
  std::thread::id owner_thread_;  ///< registering OS thread
  /// Set by the guard's first retire: only then does flush() touch the
  /// task aggregator.
  bool routed_retire_ = false;
};

/// Distributed interval-based reclaim domain: a trivially copyable
/// record-wrapper handle, used exactly like DistDomain.
class IntervalDomain {
 public:
  using Guard = IntervalGuard;
  static constexpr bool kDistributed = true;
  /// One successful tryReclaim frees a retired block once no reservation
  /// covers it -- there are no extra grace periods to wait out.
  static constexpr std::uint64_t kGraceAdvances = 1;
  /// A lagging pinned guard holds back only the garbage whose lifetime
  /// interval crosses its reservation; reclamation of everything else
  /// proceeds. This is the trait the garbage-bound stress test pivots on.
  static constexpr bool kBlocksOnLaggingPin = false;

  IntervalDomain() = default;  // invalid handle; use create()

  /// Collective: one privatized instance per locale.
  static IntervalDomain create() {
    IntervalDomain d;
    d.handle_ = Privatized<IntervalManagerImpl>::create(
        [] { return gnew<IntervalManagerImpl>(); });
    return d;
  }
  /// Collective teardown: reclaims everything, destroys all instances.
  void destroy();

  bool valid() const noexcept { return handle_.valid(); }

  Guard pin() const { return Guard(handle_, /*pin_now=*/true); }
  Guard attach() const { return Guard(handle_, /*pin_now=*/false); }

  /// The calling thread's cached attached guard (progress threads only;
  /// see DistDomain::threadGuard -- same contract).
  Guard& threadGuard() const { return detail::threadCachedGuard(*this); }

  bool tryReclaim() const { return detail::intervalTryReclaim(handle_); }
  /// Blocking phase-boundary advance (detail::advanceEpoch); under IBR a
  /// won election always advances, so this only waits out concurrent
  /// scanners.
  std::uint64_t advance() const { return detail::advanceEpoch(*this); }
  void clear() const { detail::intervalClearAll(handle_); }
  /// The current era (the interval analogue of the global epoch).
  std::uint64_t currentEpoch() const {
    return intervalEraClock().load(std::memory_order_seq_cst);
  }
  /// Summed statistics across locales. scans_unsafe and
  /// elections_lost_global are structurally zero for this domain.
  ReclaimStats stats() const { return detail::sumLocaleStats(*this); }
  /// Zero the statistics on every locale (counters only; quiescent point).
  void resetStats() const { detail::resetLocaleStats(*this); }

  // --- node hooks ---------------------------------------------------------
  /// Allocate a birth-tagged block in the calling locale's arena and
  /// construct N inside it. retire() reads the tag back; destroyNode()
  /// frees the whole block.
  template <typename N, typename... Args>
  static N* make(Args&&... args) {
    return makeOn<N>(Runtime::here(), std::forward<Args>(args)...);
  }
  /// Same, in a specific locale's arena (the payload is still constructed
  /// by the calling task -- one address space).
  template <typename N, typename... Args>
  static N* makeOn(std::uint32_t locale, Args&&... args) {
    auto* block = gnewOn<interval_detail::BirthBlock<N>>(locale);
    block->birth = intervalEraClock().load(std::memory_order_seq_cst);
    return ::new (static_cast<void*>(block->storage))
        N(std::forward<Args>(args)...);
  }
  template <typename N>
  static void destroyNode(N* n) {
    auto* block = interval_detail::blockOf(n);
    n->~N();
    gdelete(block);
  }
  template <typename N>
  static void retireNode(Guard& guard, N* n) {
    guard.retire(n);
  }

  /// White-box access for tests/benches.
  IntervalManagerImpl& implHere() const { return handle_.local(); }
  IntervalManagerImpl* implOn(std::uint32_t locale) const {
    return handle_.instanceOn(locale);
  }
  std::size_t privatizationId() const noexcept { return handle_.id(); }

 private:
  Privatized<IntervalManagerImpl> handle_;
};

static_assert(ReclaimDomain<IntervalDomain>);

}  // namespace pgasnb
