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
// DistDomain routes its retires through this path, own-locale ones as a
// run that never becomes an AM.
// An `OpWindow` scopes a batch-then-join step over the aggregated surface:
// ops issued inside the window are owned by it, and closing the window
// flushes and joins them at the max simulated time -- see the class below
// and docs/ARCHITECTURE.md for the lifecycle.
//
// Completions are consumed by joining: a wait spins on the handle, and
// `waitAll` and a window close fold a set at its max join time.
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
#include <cstdint>
#include <functional>
#include <memory>
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
/// so a waiter's acquire load of `done` publishes the value too. That store
/// is the whole completion: every join reads `done` directly.
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
};

template <typename T>
struct HandleState : HandleCore {
  T value{};
};
template <>
struct HandleState<void> : HandleCore {};

/// Mark a core complete at `end_time`: one release store of `done`. Every
/// completion path funnels through here.
inline void completeCore(HandleCore& core, std::uint64_t end_time) {
  core.done.store(end_time + 1, std::memory_order_release);
}

/// Ship `fn` as an AM to `loc` whose completion resolves `core` (shared
/// ownership keeps the state alive until the progress thread has stored
/// the completion). Counter attribution is the caller's business.
void injectHandleAm(std::uint32_t loc, std::shared_ptr<HandleCore> core,
                    std::function<void()> fn);

/// If `core`'s op is still buffered in the *calling task's* aggregator
/// (taskAggregator()), ship its batch now so a subsequent wait cannot block
/// on an op that was never going to be sent. Ops buffered in another
/// thread's aggregator are left alone (aggregators are single-task; only
/// their owner may flush them) -- the owner's own join, guard release, or
/// OpWindow close ships those.
void flushIfBuffered(HandleCore& core);

/// Spin (with backoff) until `core` completes.
void spinUntilDone(const HandleCore& core);

// Counter hook for the header-only amAsyncValue (the counters themselves
// live in comm.cpp).
void noteAmAsync() noexcept;

}  // namespace detail

/// A lightweight completion future for a non-blocking communication op.
/// Copyable (shared state); dropping every copy without waiting is legal --
/// the operation still completes, its result is simply discarded.
///
/// A handle is joined by wait()/value(), a set by `waitAll`, or by an
/// OpWindow that owns it. Workers that pipeline ops keep a ring of handles
/// and wait on the oldest: one destination's progress thread serves a
/// task's AMs FIFO, so the oldest completes first.
template <typename T = void>
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

  /// Internal: the shared completion state (OpWindow::add).
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

/// Test-and-set on a 64-bit flag word (1 = set). Returns previous.
bool atomicTestAndSet(std::atomic<std::uint64_t>& flag);
/// Clear a flag word: a non-fetching release. Under CommMode::none with a
/// remote owner it posts the store as a one-way AM (counted in am_async),
/// charges one injection and returns without waiting; FIFO service puts
/// it ahead of any later AM the caller sends the owner. The flag must
/// outlive that AM: fence the owner's queue (quiesceAmQueues) before
/// freeing it.
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
/// at each enqueue -- an under-filled bucket never waits for a flush),
/// on flush()/flushAll()/flushAged(), on destruction, and -- via the epoch
/// layer -- when a guard calls tryReclaim() or is released, when its
/// domain is cleared, and at the end of an AM service that pinned a
/// progress thread's guard (never on unpin).
///
/// Retires destined for the calling locale never join its bucket: they fill
/// a run of their own, window or not, which runs inline on the calling
/// thread at its own threshold (aggregator_ops_per_batch retires), at the
/// age cutoff and on every flushAll(). Filling or running it never runs the
/// bucket's buffered ops early.
///
/// Other ops destined for the calling locale never become an AM either.
/// Inside an open OpWindow, the task aggregator buffers them in the calling
/// locale's own bucket like any other op; that bucket runs inline on the
/// calling thread when it is flushed -- by flushAll() *after* every remote
/// bucket has shipped (so the local work overlaps the batches' round trip),
/// by its own threshold or age cutoff, or by a wait on one of its handles.
/// Each such op completes at the simulated time it finishes, with no return
/// wire, and counts toward neither am_batched nor ops_aggregated.
/// Everywhere else -- progress threads, enqueues outside a window -- they
/// run in place at enqueue.
/// Own-locale ops, like shipped ones, must not throw.
class Aggregator {
 public:
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Buffer one retire for `loc`. For another locale it extends the
  /// bucket's last op if that is a run for the same `target`, else opens a
  /// new run; a run ships as one op calling `sink(target, run)` on `loc`,
  /// and each retire weighs one (threshold and ops_aggregated). For the
  /// calling locale it extends the own-locale run (see the class comment),
  /// which first runs `sink` on what it holds if that is for another
  /// `target`.
  void enqueueRetire(std::uint32_t loc, RetireSink sink, void* target,
                     RetireEntry entry);

  /// Buffer `op` and get a completion handle: it resolves when the batched
  /// AM carrying the op has been serviced. All handles riding one batch
  /// resolve *together*, at the batch's completion time -- one progress-
  /// thread callback stores every `done` of the group (join them with
  /// waitAll or an OpWindow). A buffered op ships at batch-full / age /
  /// flush -- or automatically when its handle is waited or owned by a
  /// closing OpWindow (on the task aggregator, joining an unshipped op can
  /// no longer deadlock). Handles issued while an OpWindow is open on
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

  /// Buffered (not yet shipped) closures, a run of retires counting one,
  /// the own-locale retire run included.
  std::size_t pending() const noexcept { return total_pending_; }
  std::size_t pendingFor(std::uint32_t loc) const noexcept {
    return loc < buckets_.size() ? buckets_[loc].ops.size() : 0;
  }

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

  /// The calling locale's retires, and the domain instance they go to.
  struct LocalRetireRun {
    RetireSink sink = nullptr;
    void* target = nullptr;
    std::vector<RetireEntry> entries;
    /// Simulated time the run's first retire was enqueued.
    std::uint64_t first_op_time = 0;
  };

  /// The threshold check for `loc`, then the age check for every bucket.
  void shipIfDue(std::uint32_t loc);

  /// Hand the own-locale retire run to its sink, on the calling thread.
  void runLocalRetires();

  /// Fold a buffer opened at `first_op_time` into next_age_deadline_.
  void noteOpened(std::uint64_t first_op_time);

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
  LocalRetireRun local_retires_;
};

/// The calling task's aggregator (thread-local). The epoch layer drains it
/// on guard tryReclaim/release, so retires routed through it cannot be
/// stranded past the guard; Handle::wait and OpWindow close flush it too,
/// so aggregated handles joined on the issuing task cannot be stranded
/// either.
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
/// thread bumps its own cache-line shard of every counter, and a snapshot
/// sums the shards, so it is exact only while no thread bumps (quiescent);
/// resetCounters() zeroes every shard. Benchmarks use deltas.
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
  /// Non-fetching release; one-way when remote (see comm::atomicClear).
  void clear() { comm::atomicClear(v_); }

  /// Raw peek without communication semantics (diagnostics only).
  std::uint64_t peek() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::uint64_t> v_;
};

}  // namespace pgasnb
