// The locale-wide drain scheduler.
//
// Every locale owns one `comm::DrainGroup`: a registry of the sibling
// CompletionQueues draining on that locale plus a queue of *deferred
// continuations* (then() bodies routed off the AM service path with
// ExecPolicy::worker). It is the locale's single consumer surface --
// queue-draining workers and continuation execution both route through
// it:
//
//   * `CompletionQueue::enrollLocal()` registers a queue here; an enrolled
//     consumer draining with `nextAny()` pops its own queue first and then
//     *steals* a ready completion from any sibling (randomized victim
//     order, Chapel-style distributed workstealing rendered per locale).
//   * `then(fn, ExecPolicy::worker)` defers the continuation body into the
//     issuing locale's group via `defer()`; the completing progress thread
//     only enqueues. Idle locale workers, helping task joins, and every
//     comm-layer wait/park loop call `runOneDeferred()` to execute them --
//     the body's charges land on the *executing* thread's sim clock, after
//     folding the parent's join-ready time at steal time.
//
// The group itself never blocks: stealing and deferred execution are
// try-operations; *bounded parking* between attempts lives in the consumer
// loops (CompletionQueue::next/nextAny park for comm.hpp's constant
// 200us detail::kCqParkSlice). Idle locale workers block on their task
// queue instead and are woken by defer()'s wake hook, so a quiet locale
// costs nothing.
//
// This header is runtime-free on purpose (std only): `Locale` embeds a
// DrainGroup, and the comm layer reaches it through the Runtime.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pgasnb::comm {

namespace detail {

/// One drainable completion: the watcher's tag plus the operation's
/// join-ready simulated time (completion + return wire, ready to max-fold).
struct ReadyCompletion {
  std::uint64_t tag = 0;
  std::uint64_t join = 0;
};

/// The shared state behind a CompletionQueue, factored out so a DrainGroup
/// can hold (weak) references to sibling queues without owning them.
/// `outstanding` counts watched-but-not-yet-drained completions; `ready`
/// items are included in it (a watch only leaves the count when popped --
/// by the owner or by a stealer).
struct CqShared {
  mutable std::mutex lock;
  std::condition_variable cv;
  std::deque<ReadyCompletion> ready;
  std::size_t outstanding = 0;
};

// Counter hooks (the process-wide comm counters live in comm.cpp).
void noteCqStolen() noexcept;
void noteContinuationStolen() noexcept;
/// Reports the deferred-queue depth observed right after a defer();
/// maintains the deferred_peak high-water counter.
void noteDeferredDepth(std::size_t depth) noexcept;

}  // namespace detail

/// Per-locale registry of sibling completion queues + deferred
/// continuations. All operations are thread-safe; none of them block or
/// charge simulated time themselves (folding a stolen completion's join is
/// the caller's business, and a deferred body folds its own start time).
class DrainGroup {
 public:
  DrainGroup() = default;
  DrainGroup(const DrainGroup&) = delete;
  DrainGroup& operator=(const DrainGroup&) = delete;

  /// Register a queue's shared state as a steal victim / outstanding-work
  /// source for this locale. Idempotent per state. Held weakly: a queue
  /// that dies unenrolls in its destructor, and expired entries are pruned
  /// opportunistically either way.
  ///
  /// Contract: every queue enrolled on one locale shares ONE tag
  /// namespace -- a stolen completion surfaces from the *stealer's*
  /// nextAny() carrying the tag the victim's watcher chose, so consumers
  /// must agree on what tags mean (the work-queue pattern: tags index one
  /// shared slot table). Queues with private tag meanings must not enroll.
  void enroll(const std::shared_ptr<detail::CqShared>& q) {
    std::lock_guard<std::mutex> g(lock_);
    for (const auto& w : queues_) {
      if (auto s = w.lock(); s.get() == q.get()) return;
    }
    queues_.push_back(q);
  }

  /// Remove a queue from the registry (CompletionQueue destructor).
  void unenroll(const detail::CqShared* q) {
    std::lock_guard<std::mutex> g(lock_);
    for (auto it = queues_.begin(); it != queues_.end();) {
      auto s = it->lock();
      if (s == nullptr || s.get() == q) {
        it = queues_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Steal one ready completion from any enrolled sibling other than
  /// `self` (which may be null for an anonymous stealer). Victims are tried
  /// in a rotation from a random start, so concurrent stealers spread
  /// instead of hammering one queue. The stolen completion leaves the
  /// victim's outstanding count exactly like an owner pop (releasing its
  /// blocked consumers when it was the last one). Never blocks; the caller
  /// folds `out.join` into its own clock.
  bool stealReady(const detail::CqShared* self, detail::ReadyCompletion& out) {
    auto& victims = siblingScratch();
    snapshotSiblings(self, victims);
    bool stolen = false;
    if (!victims.empty()) {
      const std::size_t n = victims.size();
      const std::size_t start = stealRng().nextBelow(n);
      for (std::size_t i = 0; i < n && !stolen; ++i) {
        stolen = tryStealFrom(*victims[(start + i) % n], out);
      }
    }
    victims.clear();
    return stolen;
  }

  /// Park for up to `slice` on the condition variable of some sibling
  /// that still has watches outstanding (woken early when a completion
  /// lands there or its count reaches 0). Returns false without parking
  /// when no such sibling exists -- the caller's termination check fires
  /// next. This is what keeps a stealer with an *empty own queue* from
  /// busy-spinning against producing siblings.
  bool parkOnAnySibling(const detail::CqShared* self,
                        std::chrono::microseconds slice) {
    auto& siblings = siblingScratch();
    snapshotSiblings(self, siblings);
    std::shared_ptr<detail::CqShared> victim;
    if (!siblings.empty()) {
      // Randomized start like stealReady: concurrent parkers spread over
      // the producing siblings instead of herding onto the first one (and
      // a completion elsewhere waiting out the full slice).
      const std::size_t start = stealRng().nextBelow(siblings.size());
      for (std::size_t i = 0; i < siblings.size(); ++i) {
        auto& s = siblings[(start + i) % siblings.size()];
        std::lock_guard<std::mutex> qg(s->lock);
        if (s->outstanding != 0) {
          victim = s;
          break;
        }
      }
    }
    siblings.clear();
    if (victim == nullptr) return false;
    std::unique_lock<std::mutex> g(victim->lock);
    victim->cv.wait_for(g, slice, [&] {
      return !victim->ready.empty() || victim->outstanding == 0;
    });
    return true;
  }

  /// Queue a deferred continuation body for execution by whichever task
  /// thread of this locale drains it next. Called by completing threads
  /// (typically a progress thread): enqueue-only plus one wake-hook call,
  /// so heavy bodies never serialize the AM service path. The hook (set by
  /// the owning Locale to poke its parked workers) runs *outside* the
  /// registry lock.
  void defer(std::function<void()> run) {
    std::function<void()> hook;
    std::size_t depth;
    {
      std::lock_guard<std::mutex> g(lock_);
      deferred_.push_back(std::move(run));
      depth = deferred_.size();
      hook = wake_hook_;
    }
    detail::noteDeferredDepth(depth);
    if (hook) hook();
  }

  /// Install the callback defer() fires after enqueuing (Locale wires this
  /// to its task queue's notifyAll so idle workers wake immediately
  /// instead of discovering the work on their next fallback timeout).
  void setWakeHook(std::function<void()> hook) {
    std::lock_guard<std::mutex> g(lock_);
    wake_hook_ = std::move(hook);
  }

  /// Execute one deferred continuation on the calling thread, if any is
  /// pending. The body folds the parent's join-ready time and then charges
  /// the caller's sim clock. Returns false when nothing was pending. Must
  /// not be called from a progress thread (the comm-layer helpers guard).
  bool runOneDeferred() {
    std::function<void()> run;
    {
      std::lock_guard<std::mutex> g(lock_);
      if (deferred_.empty()) return false;
      run = std::move(deferred_.front());
      deferred_.pop_front();
    }
    detail::noteContinuationStolen();
    try {
      run();
    } catch (...) {
      // A deferred body's exception has no owner to land on: the executor
      // is an arbitrary task thread (an escape would surface a foreign
      // exception inside an unrelated wait, or terminate an idle worker),
      // and the chain's derived handle would stay incomplete forever
      // either way. Fail fast with an attributable message instead --
      // same contract as completer-policy continuations, which run on
      // progress threads and must not throw either.
      PGASNB_CHECK_MSG(false,
                       "ExecPolicy::worker continuation threw; continuation "
                       "bodies must not throw");
    }
    return true;
  }

  /// Pending deferred continuations (racy snapshot).
  bool hasDeferred() const {
    std::lock_guard<std::mutex> g(lock_);
    return !deferred_.empty();
  }

  /// Current deferred-queue depth (racy snapshot; diagnostics/tests).
  std::size_t deferredDepth() const {
    std::lock_guard<std::mutex> g(lock_);
    return deferred_.size();
  }

  /// Backpressure cap on the deferred queue (0 = uncapped). defer() itself
  /// never drops or blocks -- the *issuing* side consults saturated() and
  /// throttles (holds aggregator batches, helps drain) before producing
  /// more, so the cap is a contract between producer and group, enforced
  /// end-to-end rather than at the queue mouth.
  void setDeferredCap(std::size_t cap) {
    std::lock_guard<std::mutex> g(lock_);
    deferred_cap_ = cap;
  }

  std::size_t deferredCap() const {
    std::lock_guard<std::mutex> g(lock_);
    return deferred_cap_;
  }

  /// True once the queue is at half the cap or beyond: producers start
  /// throttling early enough that batches already in flight land under the
  /// cap itself.
  bool saturated() const {
    std::lock_guard<std::mutex> g(lock_);
    return deferred_cap_ != 0 && deferred_.size() * 2 >= deferred_cap_;
  }

  /// Currently enrolled (live) queues -- diagnostics and tests.
  std::size_t enrolledApprox() const {
    std::lock_guard<std::mutex> g(lock_);
    std::size_t n = 0;
    for (const auto& w : queues_) {
      if (!w.expired()) ++n;
    }
    return n;
  }

 private:
  /// Pop the head of `victim` if it has anything ready. Exactly the
  /// owner-pop/steal protocol: the completion leaves the outstanding count,
  /// and the last one out releases blocked consumers.
  static bool tryStealFrom(detail::CqShared& victim,
                           detail::ReadyCompletion& out) {
    std::unique_lock<std::mutex> g(victim.lock);
    if (victim.ready.empty()) return false;
    out = victim.ready.front();
    victim.ready.pop_front();
    const bool drained_out = --victim.outstanding == 0;
    g.unlock();
    if (drained_out) victim.cv.notify_all();
    detail::noteCqStolen();
    return true;
  }

  static Xoshiro256& stealRng() {
    thread_local Xoshiro256 rng(
        0x9e3779b97f4a7c15ULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    return rng;
  }

  /// Thread-local scratch for registry snapshots: probes sit in consumer
  /// retry loops, so they must not allocate per call. No user code runs
  /// while a snapshot is live (no reentrancy), and every user clears it
  /// before returning so it never pins a dead queue's state.
  static std::vector<std::shared_ptr<detail::CqShared>>& siblingScratch() {
    static thread_local std::vector<std::shared_ptr<detail::CqShared>>
        scratch;
    return scratch;
  }

  /// Copy the live sibling states (everything enrolled except `self`) into
  /// `out`, pruning expired entries. Holds only the registry lock -- queue
  /// locks are always taken *outside* it, so completion delivery and
  /// defer() on other threads never serialize behind a sibling scan.
  void snapshotSiblings(const detail::CqShared* self,
                        std::vector<std::shared_ptr<detail::CqShared>>& out) {
    out.clear();
    std::lock_guard<std::mutex> g(lock_);
    out.reserve(queues_.size());
    for (auto it = queues_.begin(); it != queues_.end();) {
      if (auto s = it->lock()) {
        if (s.get() != self) out.push_back(std::move(s));
        ++it;
      } else {
        it = queues_.erase(it);
      }
    }
  }

  mutable std::mutex lock_;
  std::vector<std::weak_ptr<detail::CqShared>> queues_;
  std::deque<std::function<void()>> deferred_;
  std::size_t deferred_cap_ = 0;
  std::function<void()> wake_hook_;
};

}  // namespace pgasnb::comm
