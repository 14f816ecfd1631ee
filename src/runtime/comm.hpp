// Communication layer: RDMA-style GET, remote atomics, and remote
// execution -- with a non-blocking surface layered on top.
//
// The atomics, DCAS and GET are synchronous: they *charge* the caller
// (physically busy-waiting under inject_delays). Remote execution has both
// spellings: `amSync` blocks, while `amAsyncValue` and `amProgressHandle`
// return a `comm::Handle<T>` immediately; the caller overlaps further work
// and calls `wait()`/`value()` when it needs the result.
//
// Operations destined for the same locale can additionally be *aggregated*
// (Chapel's unordered/aggregated operations): the per-task
// `comm::Aggregator` coalesces them into one batched active message per
// destination, paying one wire latency per batch instead of per op. The
// DistDomain routes cross-locale retires through this path.
// An `OpWindow` scopes a batch-then-join step over the aggregated surface:
// ops issued inside the window are owned by it, and closing the window
// flushes and joins them at the max simulated time -- see the class below
// and docs/ARCHITECTURE.md for the lifecycle.
//
// Completions are consumed by joining: waits spin, `whenAll` folds a set,
// and workers that share work share one MPMC `CompletionQueue`.
//
// This is the layer where CommMode matters:
//
//             |  CommMode::ugni              |  CommMode::none
//  -----------+------------------------------+---------------------------------
//  64-bit AMO |  NIC executes it directly    |  local: processor atomic;
//             |  (~1.1us) -- even when the   |  remote: active message run by
//             |  target is local, because    |  the target's progress thread
//             |  NIC atomics aren't coherent |
//  128-bit op |  never RDMA (hardware has no |  same as ugni: local DCAS or
//  (DCAS)     |  16-byte AMO): local DCAS or |  AM + DCAS at the target
//             |  AM + DCAS at the target     |
//  GET        |  RDMA, no target CPU         |  RDMA (Chapel uses RDMA for
//             |                              |  gets regardless)
//
// All functions charge simulated time; physical delays are injected when
// RuntimeConfig::inject_delays is on.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"

namespace pgasnb {

/// 16-byte unit for double-word (DCAS) operations.
struct alignas(16) U128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const U128& a, const U128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

namespace comm {

class Aggregator;

// --- completion handles ---------------------------------------------------

namespace detail {

/// Shared completion state. `done` holds (completion simulated time + 1);
/// 0 means the operation is still pending. The producer (progress thread or
/// inline fast path) stores `done` with release order after writing `value`,
/// so a waiter's acquire load of `done` publishes the value too.
///
/// Beyond the spin-wait channel, a core carries *completion waiters*:
/// closures registered by `whenAll` and by CompletionQueues. The
/// completing thread runs them right after storing `done`, passing the
/// join-ready time (completion + return wire) -- this is what lets progress
/// threads *push* completions instead of tasks polling.
struct HandleCore {
  std::atomic<std::uint64_t> done{0};
  /// Return-path latency folded in at wait() (am_wire_ns for remote AMs,
  /// 0 for local or RDMA completions whose stored time is already final).
  std::uint64_t wire_return_ns = 0;
  /// Non-null while the op sits *buffered* (unshipped) in an Aggregator;
  /// the aggregator stores itself here at enqueue and clears the mark when
  /// the batch ships (or when stale buffers are dropped). Join paths use it
  /// to auto-flush instead of spinning on an op that can never complete --
  /// see flushIfBuffered(). `buffered_loc` is the destination bucket; it is
  /// only read by the enqueuing thread (the one allowed to flush).
  std::atomic<Aggregator*> buffered_in{nullptr};
  std::uint32_t buffered_loc = 0;
  std::mutex waiters_lock;
  /// Guarded by waiters_lock until completion; invoked with the join-ready
  /// simulated time. A waiter added after completion runs inline.
  std::vector<std::function<void(std::uint64_t)>> waiters;
};

template <typename T>
struct HandleState : HandleCore {
  T value{};
};
template <>
struct HandleState<void> : HandleCore {};

/// Mark a core complete at `end_time` and run (then clear) its waiters.
/// Every completion path funnels through here.
void completeCore(HandleCore& core, std::uint64_t end_time);

/// Attach `waiter` to run at completion (inline if already complete). The
/// waiter receives the join-ready time: completion + return wire.
void addCompletionWaiter(HandleCore& core,
                         std::function<void(std::uint64_t)> waiter);

/// Ship `fn` as an AM to `loc` whose completion resolves `core` (shared
/// ownership keeps the state alive until the progress thread has run the
/// waiters). Counter attribution is the caller's business.
void injectHandleAm(std::uint32_t loc, std::shared_ptr<HandleCore> core,
                    std::function<void()> fn);

/// If `core`'s op is still buffered in the *calling task's* aggregator
/// (taskAggregator()), ship its batch now so a subsequent wait cannot block
/// on an op that was never going to be sent. Ops buffered in another
/// thread's aggregator are left alone (aggregators are single-task; only
/// their owner may flush them) -- the owner's own join, unpin, or OpWindow
/// close ships those.
void flushIfBuffered(HandleCore& core);

/// Ship everything buffered in the calling task's aggregator. Drain-loop
/// safety hook: a consumer about to block in CompletionQueue::next() must
/// not leave its own aggregated ops unshipped. Defined in comm.cpp (the
/// Aggregator lives below).
void flushTaskAggregatorForDrain();

/// Spin (with backoff) until `core` completes.
void spinUntilDone(const HandleCore& core);

/// The bounded parking slice a CompletionQueue consumer waits per probe
/// round (wall clock) before re-checking its queue.
inline constexpr std::chrono::microseconds kCqParkSlice{200};

/// One drainable completion: the watcher's tag plus the operation's
/// join-ready simulated time (completion + return wire, ready to max-fold).
struct ReadyCompletion {
  std::uint64_t tag = 0;
  std::uint64_t join = 0;
};

/// The shared state behind a CompletionQueue; watched handles hold it, so
/// it outlives a queue dropped with watches outstanding. `outstanding`
/// counts watched-but-not-yet-drained completions; `ready` items are
/// included in it (a watch only leaves the count when popped).
struct CqShared {
  mutable std::mutex lock;
  std::condition_variable cv;
  std::deque<ReadyCompletion> ready;
  std::size_t outstanding = 0;
};

// Counter hooks for the header-only combinators (the counters themselves
// live in comm.cpp).
void noteAmAsync() noexcept;
void noteHandlesChained() noexcept;
void noteCqDrained() noexcept;

}  // namespace detail

template <typename T = void>
class Handle;

namespace detail {

/// Join bookkeeping for whenAll: last completer closes the group at the
/// max join time seen across the set.
struct WhenAllCtl {
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> max_join{0};
};

}  // namespace detail

/// A lightweight completion future for a non-blocking communication op.
/// Copyable (shared state); dropping every copy without waiting is legal --
/// the operation still completes, its result is simply discarded.
///
/// `whenAll`/`waitAll` join sets of handles; a CompletionQueue turns
/// completions into a drainable stream. A `whenAll` handle completes at its
/// set's *join-ready* time (return wire already folded), so waiting on it
/// never double-charges the wire.
template <typename T>
class Handle {
 public:
  Handle() = default;  // invalid
  /// Internal: adopt a completion state (produced by the comm layer).
  explicit Handle(std::shared_ptr<detail::HandleState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }

  /// True once the operation has completed (never blocks).
  bool ready() const noexcept {
    return state_ != nullptr &&
           state_->done.load(std::memory_order_acquire) != 0;
  }

  /// Block (spin) until completion, folding the completion time plus any
  /// return-wire latency into the calling task's simulated clock (the join
  /// is a max-fold: waiting never rewinds the clock). Idempotent. If the op
  /// is still buffered in the calling task's Aggregator its batch is
  /// shipped first, so waiting on an aggregated handle can never deadlock
  /// on an unflushed batch.
  void wait() {
    PGASNB_CHECK_MSG(valid(), "wait() on an invalid comm::Handle");
    detail::flushIfBuffered(*state_);
    detail::spinUntilDone(*state_);
    sim::joinAtLeast(completionTime() + state_->wire_return_ns);
  }

  /// The operation's simulated completion time at the *target* (valid once
  /// ready; excludes the return wire). Diagnostics and tests.
  std::uint64_t completionTime() const noexcept {
    return state_->done.load(std::memory_order_acquire) - 1;
  }

  /// Wait, then return the operation's result (non-void handles only).
  template <typename U = T>
    requires(!std::is_void_v<U>)
  const U& value() {
    wait();
    return state_->value;
  }

  /// Internal: the shared completion state (whenAll, CompletionQueue).
  const std::shared_ptr<detail::HandleState<T>>& state() const noexcept {
    return state_;
  }

 private:
  std::shared_ptr<detail::HandleState<T>> state_;
};

/// An already-completed handle joining at the current simulated time (used
/// by async entry points whose fast path ran inline).
Handle<> readyHandle();

/// An already-completed value handle joining at the current simulated time.
template <typename R>
Handle<R> readyValueHandle(R value) {
  auto state = std::make_shared<detail::HandleState<R>>();
  state->value = std::move(value);
  detail::completeCore(*state, sim::now());
  return Handle<R>(std::move(state));
}

// --- joining sets of handles ---------------------------------------------

/// Wait for every handle; the caller's clock ends at the max join time of
/// the set (each wait() is a max-fold, so order does not matter).
template <typename T>
void waitAll(std::span<Handle<T>> handles) {
  for (Handle<T>& h : handles) h.wait();
}
template <typename T>
void waitAll(std::vector<Handle<T>>& handles) {
  waitAll(std::span<Handle<T>>(handles));
}

/// A handle that completes when *all* of `handles` have, at the max
/// join-ready time of the set. Non-blocking (charges nothing); the set may
/// be empty (the result is then already complete at the current simulated
/// time). Closing a set is a commitment: any member still buffered in the
/// calling task's Aggregator is shipped here, so waiting on the group can
/// never block on an unflushed batch.
template <typename T>
Handle<> whenAll(std::span<Handle<T>> handles) {
  detail::noteHandlesChained();
  auto group = std::make_shared<detail::HandleState<void>>();
  if (handles.empty()) {
    detail::completeCore(*group, sim::now());
    return Handle<>(std::move(group));
  }
  auto ctl = std::make_shared<detail::WhenAllCtl>();
  ctl->remaining.store(handles.size(), std::memory_order_relaxed);
  for (Handle<T>& h : handles) {
    PGASNB_CHECK_MSG(h.valid(), "whenAll() over an invalid comm::Handle");
    detail::flushIfBuffered(*h.state());
    detail::addCompletionWaiter(
        *h.state(), [group, ctl](std::uint64_t join) {
          std::uint64_t seen = ctl->max_join.load(std::memory_order_relaxed);
          while (seen < join && !ctl->max_join.compare_exchange_weak(
                                    seen, join, std::memory_order_acq_rel)) {
          }
          if (ctl->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            detail::completeCore(
                *group, ctl->max_join.load(std::memory_order_acquire));
          }
        });
  }
  return Handle<>(std::move(group));
}
template <typename T>
Handle<> whenAll(std::vector<Handle<T>>& handles) {
  return whenAll(std::span<Handle<T>>(handles));
}

// --- completion queues -----------------------------------------------------

/// A drain point for async completions: `watch` registers a handle under a
/// caller-chosen tag; whichever thread completes the operation (typically a
/// progress thread) *pushes* the completion in, and consumers pop with
/// `next()` -- blocking idle instead of spin-polling a window of handles,
/// and folding each completion's join time into their clock as they drain.
/// Completions arrive in completion order, which for a single destination
/// is the progress thread's FIFO (busy_until) service order.
///
/// The queue is **MPMC**: producers (progress threads) may be many, and so
/// may consumers -- N worker tasks of a locale share one queue, each
/// blocking in next() and waking per completion; every drained completion
/// is delivered to exactly one consumer, which folds its join time. This is
/// how a locale's workers share work: one queue, one tag namespace (tags
/// index a shared slot table), and any worker may drain and reissue any
/// slot. Watched handles keep the queue's shared state alive, so dropping
/// the queue with watches outstanding is safe -- the late completions are
/// simply discarded.
///
/// A consumer about to block first ships anything buffered in its *own*
/// task Aggregator, so draining a window of aggregated ops needs no manual
/// flushAll(). (An op buffered by a *different* task still needs that task
/// to flush -- its wait()/OpWindow close does so automatically.)
class CompletionQueue {
 public:
  CompletionQueue() : state_(std::make_shared<detail::CqShared>()) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Register `h`; its completion will surface from next()/tryNext() (on
  /// exactly one consumer) as `tag`. Non-blocking, charges nothing; an
  /// already-complete handle is delivered immediately.
  template <typename T>
  void watch(const Handle<T>& h, std::uint64_t tag = 0) {
    PGASNB_CHECK_MSG(h.valid(), "watch() on an invalid comm::Handle");
    {
      std::lock_guard<std::mutex> g(state_->lock);
      ++state_->outstanding;
    }
    detail::addCompletionWaiter(
        *h.state(), [s = state_, tag](std::uint64_t join) {
          {
            std::lock_guard<std::mutex> g(s->lock);
            s->ready.push_back({tag, join});
          }
          s->cv.notify_all();
        });
  }

  /// Pop the next completion, blocking (in bounded parking slices) while
  /// any watch is outstanding and nothing is ready; folds the completion's
  /// join time into the caller's simulated clock (max-fold). Returns the
  /// completion's tag, or nullopt once nothing is outstanding (at which
  /// point every blocked sibling consumer is released too). Before
  /// parking, ships anything still buffered in the calling task's
  /// Aggregator.
  ///
  /// Termination is a racy snapshot: with consumers that REISSUE after
  /// draining (pop -> watch), the queue can look momentarily empty inside
  /// one consumer's drained->rewatched gap, letting an idle sibling return
  /// nullopt early. No completion is ever lost -- the reissuing consumers
  /// drain what remains -- but rewatch *before* heavy compute when
  /// full-width parallelism matters.
  std::optional<std::uint64_t> next() {
    for (;;) {
      std::uint64_t tag = 0;
      if (tryNext(tag)) return tag;
      if (outstanding() == 0) return std::nullopt;
      // About to go idle: a watched op still sitting in our own aggregator
      // would never ship (we are its only flusher) -- send it now.
      detail::flushTaskAggregatorForDrain();
      park();
    }
  }

  /// Non-blocking flavor of next(); false when nothing has completed yet.
  /// Folds the popped completion's join time like next().
  bool tryNext(std::uint64_t& tag_out) {
    std::unique_lock<std::mutex> g(state_->lock);
    if (state_->ready.empty()) return false;
    const auto [tag, join] = state_->ready.front();
    state_->ready.pop_front();
    const bool drained_out = --state_->outstanding == 0;
    g.unlock();
    // Release sibling consumers blocked on the now-impossible "more work
    // will arrive" predicate.
    if (drained_out) state_->cv.notify_all();
    detail::noteCqDrained();
    sim::joinAtLeast(join);
    tag_out = tag;
    return true;
  }

  /// Watched-but-not-yet-drained completions (racy snapshot, like any
  /// concurrent size).
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> g(state_->lock);
    return state_->outstanding;
  }

 private:
  /// One bounded parking slice on this queue's condition variable (woken
  /// early by a completion landing here or the outstanding count reaching
  /// 0).
  void park() {
    std::unique_lock<std::mutex> g(state_->lock);
    state_->cv.wait_for(g, detail::kCqParkSlice, [&] {
      return !state_->ready.empty() || state_->outstanding == 0;
    });
  }

  std::shared_ptr<detail::CqShared> state_;
};

// --- remote execution -------------------------------------------------

/// Run `fn` on `loc`'s progress thread and wait for completion. The calling
/// task's simulated clock is advanced to the completion time plus the return
/// wire latency. Handlers must be short (they serialize the target locale).
void amSync(std::uint32_t loc, const std::function<void()>& fn);

/// Non-blocking remote execution with a result: run `fn` on `loc`'s
/// progress thread; the handle resolves to `fn`'s return value. Local
/// targets run inline (the handle is immediately ready). This is the
/// building block for operation-shipped data-structure ops that return
/// values (DistStack::popAsync, InterlockedHashTable's *Async ops).
template <typename R, typename F>
Handle<R> amAsyncValue(std::uint32_t loc, F&& fn) {
  static_assert(!std::is_void_v<R>,
                "amAsyncValue needs a result: use amSync or amProgressHandle "
                "for void work");
  auto state = std::make_shared<detail::HandleState<R>>();
  if (loc == Runtime::here()) {
    sim::charge(Runtime::get().config().latency.cpu_atomic_ns);
    state->value = fn();
    detail::completeCore(*state, sim::now());
    return Handle<R>(std::move(state));
  }
  detail::noteAmAsync();
  auto* raw = state.get();
  detail::injectHandleAm(
      loc, state,
      [raw, fn = std::forward<F>(fn)]() mutable { raw->value = fn(); });
  return Handle<R>(std::move(state));
}

/// Non-blocking remote execution: ship `fn` to `loc`'s progress thread and
/// return a completion handle at once. It ALWAYS traverses `loc`'s AM
/// queue -- even for the caller's own locale -- so the handler is
/// guaranteed to execute on the *progress thread* (for thread-affine state
/// such as the epoch layer's cached handler guards).
Handle<> amProgressHandle(std::uint32_t loc, std::function<void()> fn);

/// Drain every locale's AM queue, *including the caller's own*: a no-op
/// with a completion channel is pushed through each queue and waited for,
/// so FIFO service guarantees every previously injected AM (batched or
/// not) has been handled on return. The epoch layer's clear() uses this to
/// fence in-flight aggregated retires.
void quiesceAmQueues();

// --- network-visible 64-bit atomics ------------------------------------

// `a` must live on locale `ownerOf(&a)`; these are the PGAS equivalents of
// Chapel's `atomic uint` network atomics. Memory order is seq_cst
// throughout: RDMA atomics have no relaxed variants.

std::uint64_t atomicRead(const std::atomic<std::uint64_t>& a);
void atomicWrite(std::atomic<std::uint64_t>& a, std::uint64_t value);
std::uint64_t atomicExchange(std::atomic<std::uint64_t>& a, std::uint64_t value);
bool atomicCas(std::atomic<std::uint64_t>& a, std::uint64_t& expected,
               std::uint64_t desired);
std::uint64_t atomicFetchAdd(std::atomic<std::uint64_t>& a, std::uint64_t delta);

/// Test-and-set / clear on a 64-bit flag word (1 = set). Returns previous.
bool atomicTestAndSet(std::atomic<std::uint64_t>& flag);
void atomicClear(std::atomic<std::uint64_t>& flag);

// --- 128-bit operations (pointer + ABA counter) -------------------------

/// Double-word CAS against a (possibly remote) 16-byte word. RDMA NICs
/// cannot do 16-byte atomics, so remote targets always use remote execution
/// -- this is exactly the "demotion" the paper describes in Sec. II.A.
bool dcas(U128& target, U128& expected, U128 desired);

/// Atomic 128-bit read (CAS-loop based locally, AM remotely).
U128 dread(U128& target);

/// Atomic 128-bit write.
void dwrite(U128& target, U128 desired);

/// Atomic 128-bit exchange; returns the previous value.
U128 dexchange(U128& target, U128 desired);

// --- bulk data movement --------------------------------------------------

/// RDMA GET: copy `bytes` from `src` on `src_locale` into local `dst`.
void get(void* dst, std::uint32_t src_locale, const void* src, std::size_t bytes);

// --- aggregation ----------------------------------------------------------

/// A retired object and the deleter that frees it on its owning locale.
struct RetireEntry {
  void* obj;
  void (*deleter)(void*);
};

/// Hands a run of retires, in enqueue order, to domain instance `target`.
using RetireSink = void (*)(void* target, const std::vector<RetireEntry>& run);

/// Coalesces operations destined for the same locale into batched active
/// messages (Chapel's unordered/aggregated ops): one wire latency + one
/// service charge per batch, one CPU charge per op at the target.
/// Per-destination FIFO order is preserved; cross-destination order is not.
/// Each task has exactly one, taskAggregator(); it is not thread-safe.
///
/// Buffered ops are shipped when a destination's weight (one per op or
/// retire) reaches RuntimeConfig::aggregator_ops_per_batch,
/// when the oldest buffered op for a destination exceeds
/// RuntimeConfig::aggregator_max_batch_age_ns in simulated time (checked
/// at each enqueue -- an under-filled bucket no longer waits for unpin),
/// on flush()/flushAll()/flushAged(), on destruction, and -- via the epoch
/// layer -- when a guard unpins.
///
/// Ops destined for the calling locale never become an AM. Inside an open
/// OpWindow, the task aggregator buffers them in the calling locale's own
/// bucket like any other op; that bucket runs inline on the calling thread
/// when it is flushed -- by flushAll() *after* every remote bucket has
/// shipped (so the local work overlaps the batches' round trip), by its
/// own threshold or age cutoff, or by a wait on one of its handles. Each
/// such op completes at the simulated time it finishes, with no return
/// wire, and counts toward neither am_batched nor ops_aggregated.
/// Everywhere else -- progress threads, enqueues outside a window -- they
/// run in place at enqueue.
/// Own-locale ops, like shipped ones, must not throw.
class Aggregator {
 public:
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Buffer one retire for `loc`, another locale (checked). It extends the
  /// bucket's last op if that is a run for the same `target`, else opens a
  /// new run; a run ships as one op calling `sink(target, run)` on `loc`.
  /// Each retire weighs one (threshold and ops_aggregated).
  void enqueueRetire(std::uint32_t loc, RetireSink sink, void* target,
                     RetireEntry entry);

  /// Buffer `op` and get a completion handle: it resolves when the batched
  /// AM carrying the op has been serviced. All handles riding one batch
  /// resolve *together*, at the batch's completion time -- one progress-
  /// thread push resolves the whole group (drain them via a
  /// CompletionQueue or whenAll). A buffered op ships at batch-full / age /
  /// flush -- or automatically when its handle is waited, drained, or owned
  /// by a closing OpWindow (on the task aggregator, joining an unshipped op
  /// can no longer deadlock). Handles issued while an OpWindow is open on
  /// this thread enroll into it. An own-locale op's handle resolves alone,
  /// when its inline run finishes (see the class comment).
  Handle<> enqueueHandle(std::uint32_t loc, std::function<void()> op);

  /// Internal flavor of enqueueHandle for value-returning ops: `core` is
  /// completed when the op's batch is serviced (the op closure itself is
  /// responsible for writing the value before then).
  void enqueueWithCore(std::uint32_t loc, std::function<void()> op,
                       std::shared_ptr<detail::HandleCore> core);

  /// Ship the pending batch for one destination / for all destinations.
  /// Charges one sender-side injection cost per non-empty bucket shipped;
  /// service/wire costs accrue to the batch's completion time. The calling
  /// locale's bucket runs inline instead, charging its ops to the caller's
  /// clock; flushAll() runs it last and repeats until nothing is buffered,
  /// so ops buffered by that run ship before it returns.
  void flush(std::uint32_t loc);
  void flushAll();

  /// Ship every bucket whose oldest buffered op is older than the
  /// configured max batch age (no-op when the knob is 0). Called
  /// automatically on enqueue; exposed for drain loops that go idle.
  void flushAged();

  /// Buffered (not yet shipped) closures, a run of retires counting one.
  std::size_t pending() const noexcept { return total_pending_; }
  std::size_t pendingFor(std::uint32_t loc) const noexcept {
    return loc < buckets_.size() ? buckets_[loc].ops.size() : 0;
  }

  /// The batch threshold: RuntimeConfig::aggregator_ops_per_batch of the
  /// runtime this aggregator last bound to.
  std::size_t opsPerBatch() const noexcept { return ops_per_batch_; }

 private:
  friend Aggregator& taskAggregator();
  Aggregator() = default;

  /// Whether a bucket ships or runs inline is decided when it flushes, not
  /// at enqueue: a thread helping a TaskGroup join can run another
  /// locale's task inside an open window. Counters and return wire are
  /// therefore set at flush time.
  struct Bucket {
    std::vector<std::function<void()>> ops;
    /// Index-parallel to ops: op i's handle core, null for a run of
    /// retires. A shipped batch resolves its cores together at batch end; an
    /// inline run resolves each as its op finishes.
    std::vector<std::shared_ptr<detail::HandleCore>> cores;
    /// One per buffered op and one per retire in a run: compared to
    /// ops_per_batch, and counted in ops_aggregated when the bucket ships.
    std::uint64_t weight = 0;
    /// Simulated time the oldest currently-buffered op was enqueued.
    std::uint64_t first_op_time = 0;
  };

  /// The op a run of retires rides as; named so enqueueRetire can find an
  /// open run at the bucket's tail through std::function::target.
  struct RetireRun {
    RetireSink sink;
    void* target;
    std::vector<RetireEntry> entries;
    void operator()() const { sink(target, entries); }
  };

  /// Bind to the active runtime; discards stale buffers from a previous
  /// runtime generation (their closures reference dead objects).
  void adoptRuntime();

  /// The threshold check for `loc`, then the age check for every bucket.
  void shipIfDue(std::uint32_t loc);

  /// Run the calling locale's bucket `loc` inline, in FIFO order, resolving
  /// each op's core at its own finish time. The batch is moved out first,
  /// so an op may re-enter this aggregator.
  void runInline(std::uint32_t loc);

  static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

  std::size_t ops_per_batch_ = 1;
  std::uint64_t max_batch_age_ns_ = 0;
  /// Earliest (first_op_time + max age) across non-empty buckets; enqueues
  /// only pay the full aged-bucket sweep once this has passed.
  std::uint64_t next_age_deadline_ = kNoDeadline;
  std::uint64_t runtime_generation_ = 0;
  std::size_t total_pending_ = 0;
  std::vector<Bucket> buckets_;
};

/// The calling task's aggregator (thread-local). The epoch layer drains it
/// on guard unpin/release, so retires routed through it cannot be stranded;
/// Handle::wait / CompletionQueue drains / OpWindow close flush it too, so
/// aggregated handles joined on the issuing task cannot be stranded either.
Aggregator& taskAggregator();

// --- operation windows ------------------------------------------------------

/// An RAII scope owning a set of in-flight asynchronous operations --
/// above all *aggregated* ones. While a window is open on a thread, every
/// handle-carrying op buffered through the thread's **task aggregator**
/// (DistStack::popAsyncAggregated / pushAsyncAggregated, the RobinHoodMap
/// *AsyncAggregated ops, enqueueHandle on taskAggregator()) enrolls into
/// the innermost open window automatically; handles of non-aggregated ops
/// can be adopted with add().
///
/// Closing the window -- join(), or the destructor, including during
/// exception unwinding -- ships every batch the calling task still has
/// buffered (aggregated pops/pushes *and* the retires riding the task
/// aggregator), then runs the own-locale ops the window buffered
/// inline while those batches are in flight, and then waits for every
/// owned operation, folding the **max** join-ready time of the set into
/// the caller's simulated clock: one batch-then-join step, the discipline
/// the aggregated-retire path uses, generalized to all remote ops.
/// Together with the wait()-time auto-flush this removes the
/// manual-flushAll() footgun by construction: no join path can block on an
/// unshipped batch.
///
/// Windows nest LIFO: ops enroll into the innermost open window, an inner
/// join leaves outer ownership intact, and closing out of order is a
/// checked error. A window is bound to the thread that opened it (enroll,
/// add and join assert this). Buffered retires have no completion to own:
/// the window guarantees they *ship* at close, not that they have been
/// serviced.
///
/// `drain()` folds the already-finished head of the batch mid-window, so
/// the caller's compute overlaps the tail; the close then spin-joins only
/// what is left. Both steps use the same max-fold, so a window's model time does
/// not depend on how often it was drained. No queue sits behind any of
/// this: completion is read straight off the owned cores' `done` flags.
class OpWindow {
 public:
  /// Open a window and make it the innermost on this thread. Charges
  /// nothing.
  OpWindow();
  /// Close (join()) if still open: flush + wait-all, even when unwinding.
  ~OpWindow();
  OpWindow(const OpWindow&) = delete;
  OpWindow& operator=(const OpWindow&) = delete;

  /// Adopt an arbitrary handle into the window (e.g. a popAsync) and hand
  /// it back: the window's close will wait for it too.
  /// Charges nothing.
  template <typename T>
  Handle<T> add(Handle<T> h) {
    PGASNB_CHECK_MSG(h.valid(), "OpWindow::add on an invalid comm::Handle");
    enroll(h.state());
    return h;
  }

  /// Close the window: ship every batch the calling task still buffers,
  /// wait for every owned op, and fold the max join-ready time of the set
  /// into the caller's simulated clock (one max-fold for the whole window).
  /// Idempotent; the destructor calls it. After join() the window no longer
  /// accepts enrollments.
  void join();

  /// Release every owned op that has already completed (never blocks):
  /// fold the max join-ready time of that finished set into the caller's
  /// clock and drop those ops from the window. The mid-window overlap
  /// hook: call it between bursts of compute to absorb the finished head
  /// of the batch while the tail is still in flight. O(in-flight); returns
  /// how many ops were released.
  std::size_t drain();

  /// Operations owned and not yet joined or drained. / Whether join() has
  /// not run yet.
  std::size_t inFlight() const noexcept { return cores_.size(); }
  bool open() const noexcept { return open_; }

  /// The innermost open window on the calling thread (nullptr outside any
  /// window scope). Aggregators use this to auto-enroll handle-carrying ops.
  static OpWindow* current() noexcept;

  /// Internal: take ownership of a completion core (auto-enrollment path).
  void enroll(std::shared_ptr<detail::HandleCore> core);

 private:
  std::vector<std::shared_ptr<detail::HandleCore>> cores_;
  OpWindow* parent_ = nullptr;
  std::thread::id owner_;
  std::uint64_t runtime_generation_ = 0;
  bool open_ = true;
};

// --- instrumentation -------------------------------------------------

struct Counters {
  std::uint64_t nic_atomics = 0;
  std::uint64_t cpu_atomics = 0;
  std::uint64_t am_sync = 0;
  std::uint64_t am_async = 0;
  std::uint64_t am_batched = 0;      ///< batched AMs shipped by Aggregators
  std::uint64_t am_fence = 0;        ///< quiesceAmQueues drain fences
  std::uint64_t ops_aggregated = 0;  ///< logical ops routed through Aggregators
  std::uint64_t handles_chained = 0; ///< whenAll group handles
  std::uint64_t cq_drained = 0;      ///< completions popped from CompletionQueues
                                     ///< (OpWindow::drain does not count)
  /// Always 0: the machinery that fed these is gone (the batch tuner,
  /// sibling-queue stealing, deferred worker continuations and their
  /// backpressure). They stay because benchmark/ still reads them.
  std::uint64_t tuner_batch_resizes = 0;
  std::uint64_t cq_stolen = 0;
  std::uint64_t continuations_stolen = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t deferred_peak = 0;
  std::uint64_t gets = 0;
  std::uint64_t dcas_local = 0;
  std::uint64_t dcas_remote = 0;

  /// Every *payload-carrying* active message injected, batched or not.
  /// Quiesce fences are instrumentation/teardown overhead and are counted
  /// separately so benchmarks don't misattribute them to the path under
  /// measurement.
  std::uint64_t totalAms() const noexcept {
    return am_sync + am_async + am_batched;
  }
};

/// Relaxed snapshot of the process-wide communication counters. Each
/// counter is a dedicated std::atomic internally, so a snapshot never
/// tears an individual counter (the set is still only quiescent-exact).
/// Benchmarks use deltas.
Counters counters() noexcept;
void resetCounters() noexcept;

}  // namespace comm

/// Chapel-style `atomic uint` field: a 64-bit atomic whose operations obey
/// the active CommMode, with ownership derived from its address. Embed it in
/// objects allocated via gnewOn/gnew. This is the *network-visible* flavor;
/// for locale-private state use plain std::atomic (the paper's "opting out"
/// of network atomics).
class DistAtomicU64 {
 public:
  explicit DistAtomicU64(std::uint64_t initial = 0) noexcept : v_(initial) {}

  std::uint64_t read() const { return comm::atomicRead(v_); }
  void write(std::uint64_t value) { comm::atomicWrite(v_, value); }
  std::uint64_t exchange(std::uint64_t value) { return comm::atomicExchange(v_, value); }
  bool compareAndSwap(std::uint64_t& expected, std::uint64_t desired) {
    return comm::atomicCas(v_, expected, desired);
  }
  std::uint64_t fetchAdd(std::uint64_t delta) { return comm::atomicFetchAdd(v_, delta); }
  bool testAndSet() { return comm::atomicTestAndSet(v_); }
  void clear() { comm::atomicClear(v_); }

  /// Raw peek without communication semantics (diagnostics only).
  std::uint64_t peek() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::uint64_t> v_;
};

}  // namespace pgasnb
