#include "runtime/comm.hpp"

#include <algorithm>
#include <cstring>

#include "util/backoff.hpp"
#include "util/check.hpp"

namespace pgasnb::comm {

namespace {

struct AtomicCounters {
  std::atomic<std::uint64_t> nic_atomics{0};
  std::atomic<std::uint64_t> cpu_atomics{0};
  std::atomic<std::uint64_t> am_sync{0};
  std::atomic<std::uint64_t> am_async{0};
  std::atomic<std::uint64_t> am_batched{0};
  std::atomic<std::uint64_t> am_fence{0};
  std::atomic<std::uint64_t> ops_aggregated{0};
  std::atomic<std::uint64_t> handles_chained{0};
  std::atomic<std::uint64_t> cq_drained{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> dcas_local{0};
  std::atomic<std::uint64_t> dcas_remote{0};
};

AtomicCounters g_counters;

inline void bump(std::atomic<std::uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint32_t ownerOf(const void* p) {
  return Runtime::get().localeOfAddress(p);
}

/// Dispatch a 64-bit atomic op according to the comm mode. `op` performs
/// the operation with plain processor atomics and must be safe to run on
/// any thread (ugni) or on the owner's progress thread (none/remote).
template <typename Op>
void dispatchAmo(const void* target, const Op& op) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  if (rt.commMode() == CommMode::ugni) {
    // NIC-side atomic: constant cost irrespective of locality, no target
    // CPU involvement, no serialization beyond the memory system itself.
    bump(g_counters.nic_atomics);
    sim::charge(lat.nic_atomic_ns);
    op();
    return;
  }
  const std::uint32_t owner = ownerOf(target);
  if (owner == Runtime::here()) {
    bump(g_counters.cpu_atomics);
    sim::charge(lat.cpu_atomic_ns);
    op();
    return;
  }
  amSync(owner, [&op, &lat] {
    sim::charge(lat.cpu_atomic_ns);
    op();
  });
}

// 16-byte hardware CAS (CMPXCHG16B via the __atomic builtins; GCC routes
// these through libatomic, which uses the lock-free instruction on x86-64).
inline bool dcasHardware(U128* target, U128& expected, U128 desired) {
  return __atomic_compare_exchange(target, &expected, &desired,
                                   /*weak=*/false, __ATOMIC_SEQ_CST,
                                   __ATOMIC_SEQ_CST);
}

inline U128 dloadHardware(U128* target) {
  U128 out;
  __atomic_load(target, &out, __ATOMIC_SEQ_CST);
  return out;
}

inline void dstoreHardware(U128* target, U128 desired) {
  __atomic_store(target, &desired, __ATOMIC_SEQ_CST);
}

inline U128 dexchangeHardware(U128* target, U128 desired) {
  U128 out;
  __atomic_exchange(target, &desired, &out, __ATOMIC_SEQ_CST);
  return out;
}

/// injectHandleAm + a Handle wrapper, for the comm-internal callers.
Handle<> injectAmHandle(std::uint32_t loc, std::function<void()> fn) {
  auto state = std::make_shared<detail::HandleState<void>>();
  detail::injectHandleAm(loc, state, std::move(fn));
  return Handle<>(std::move(state));
}

/// Innermost open window on this thread (LIFO nesting chain via parent_).
thread_local OpWindow* t_current_window = nullptr;

/// Join-ready time of a completed core: completion + return wire.
std::uint64_t joinReadyTime(const detail::HandleCore& core) {
  return core.done.load(std::memory_order_acquire) - 1 + core.wire_return_ns;
}

}  // namespace

namespace detail {

void completeCore(HandleCore& core, std::uint64_t end_time) {
  std::vector<std::function<void(std::uint64_t)>> waiters;
  {
    std::lock_guard<std::mutex> g(core.waiters_lock);
    core.done.store(end_time + 1, std::memory_order_release);
    waiters.swap(core.waiters);
  }
  const std::uint64_t join = end_time + core.wire_return_ns;
  for (auto& waiter : waiters) waiter(join);
}

void addCompletionWaiter(HandleCore& core,
                         std::function<void(std::uint64_t)> waiter) {
  {
    std::lock_guard<std::mutex> g(core.waiters_lock);
    if (core.done.load(std::memory_order_acquire) == 0) {
      core.waiters.push_back(std::move(waiter));
      return;
    }
  }
  // Already complete: run inline on the registering thread.
  waiter(joinReadyTime(core));
}

void injectHandleAm(std::uint32_t loc, std::shared_ptr<HandleCore> core,
                    std::function<void()> fn) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  core->wire_return_ns = lat.am_wire_ns;
  AmRequest req;
  req.fn = std::move(fn);
  req.send_time = sim::now();
  // The callback owns the state: it stays alive until the progress thread
  // has stored the completion time and run every completion waiter.
  req.on_complete = [core](std::uint64_t end) { completeCore(*core, end); };
  rt.locale(loc).amQueue().push(std::move(req));
  // Sender-side injection cost of a one-way message.
  sim::chargeModelOnly(lat.cpu_atomic_ns);
}

void flushIfBuffered(HandleCore& core) {
  if (core.done.load(std::memory_order_acquire) != 0) return;
  Aggregator* agg = core.buffered_in.load(std::memory_order_acquire);
  // Only the task aggregator of the *calling* thread may be flushed from
  // here: the pointer identity proves both ownership (aggregators are
  // single-task) and liveness (a thread_local outlives every handle join
  // its thread performs). An op buffered by a different task stays put --
  // that task's own join/flush ships it.
  if (agg != nullptr && agg == &taskAggregator()) agg->flush(core.buffered_loc);
}

void flushTaskAggregatorForDrain() { taskAggregator().flushAll(); }

void spinUntilDone(const HandleCore& core) {
  Backoff backoff;
  while (core.done.load(std::memory_order_acquire) == 0) backoff.pause();
}

void noteAmAsync() noexcept { bump(g_counters.am_async); }
void noteHandlesChained() noexcept { bump(g_counters.handles_chained); }
void noteCqDrained() noexcept { bump(g_counters.cq_drained); }

}  // namespace detail

// ---------------------------------------------------------------------------
// OpWindow
// ---------------------------------------------------------------------------

OpWindow::OpWindow()
    : parent_(t_current_window),
      owner_(std::this_thread::get_id()),
      runtime_generation_(Runtime::active() ? Runtime::get().generation()
                                            : 0) {
  t_current_window = this;
}

OpWindow::~OpWindow() { join(); }

OpWindow* OpWindow::current() noexcept { return t_current_window; }

void OpWindow::enroll(std::shared_ptr<detail::HandleCore> core) {
  PGASNB_CHECK_MSG(open_, "OpWindow::enroll on a closed window");
  PGASNB_CHECK_MSG(owner_ == std::this_thread::get_id(),
                   "OpWindow is bound to the thread that opened it");
  if (core == nullptr) return;
  cores_.push_back(std::move(core));
}

std::size_t OpWindow::drain() {
  PGASNB_CHECK_MSG(owner_ == std::this_thread::get_id(),
                   "OpWindow is bound to the thread that opened it");
  std::uint64_t max_join = 0;
  const std::size_t before = cores_.size();
  std::erase_if(cores_, [&max_join](const auto& core) {
    if (core->done.load(std::memory_order_acquire) == 0) return false;
    max_join = std::max(max_join, joinReadyTime(*core));
    return true;
  });
  const std::size_t drained = before - cores_.size();
  if (drained != 0) sim::joinAtLeast(max_join);
  return drained;
}

void OpWindow::join() {
  if (open_) {
    PGASNB_CHECK_MSG(t_current_window == this,
                     "OpWindow closed out of LIFO nesting order");
    PGASNB_CHECK_MSG(owner_ == std::this_thread::get_id(),
                     "OpWindow is bound to the thread that opened it");
  }
  // Flush gate: only meaningful while the runtime the ops were issued under
  // is still the active one; otherwise the buffers were (or will be)
  // dropped and the never-completing cores are abandoned below.
  const bool live =
      Runtime::active() && Runtime::get().generation() == runtime_generation_;
  if (live) {
    // Ship everything this task still buffers -- owned aggregated handles
    // and retires alike. This is the auto-flush that replaces a manual
    // flushAll(). The window is still innermost here, so handle ops that
    // the own-locale run issues enroll in it and are joined below.
    taskAggregator().flushAll();
  }
  if (open_) {
    t_current_window = parent_;
    open_ = false;
  }
  if (cores_.empty()) return;
  std::uint64_t max_join = 0;
  for (const auto& core : cores_) {
    if (core->done.load(std::memory_order_acquire) == 0) {
      if (!live) continue;  // op died with its runtime: nothing to wait for
      // The flushAll above shipped everything this task buffered, so the
      // op is in flight: spin for its service.
      detail::spinUntilDone(*core);
    }
    max_join = std::max(max_join, joinReadyTime(*core));
  }
  cores_.clear();
  // One max-fold for the whole window: the caller's clock ends at the
  // latest join-ready time of the set, exactly like waitAll's fold.
  sim::joinAtLeast(max_join);
}

Handle<> readyHandle() {
  auto state = std::make_shared<detail::HandleState<void>>();
  detail::completeCore(*state, sim::now());
  return Handle<>(std::move(state));
}

void amSync(std::uint32_t loc, const std::function<void()>& fn) {
  const LatencyModel& lat = Runtime::get().config().latency;
  if (loc == Runtime::here()) {
    // Chapel elides the fork for local `on` bodies; keep a token cost.
    sim::charge(lat.cpu_atomic_ns);
    fn();
    return;
  }
  bump(g_counters.am_sync);
  injectAmHandle(loc, fn).wait();
}

void quiesceAmQueues() {
  Runtime& rt = Runtime::get();
  const std::uint32_t n = rt.numLocales();
  std::vector<Handle<>> fences;
  fences.reserve(n);
  for (std::uint32_t l = 0; l < n; ++l) {
    // Deliberately no local fast path: the fence must traverse the queue
    // (the caller's own queue can hold batches injected by other locales).
    bump(g_counters.am_fence);
    fences.push_back(injectAmHandle(l, [] {}));
  }
  for (Handle<>& fence : fences) fence.wait();
}

Handle<> amProgressHandle(std::uint32_t loc, std::function<void()> fn) {
  bump(g_counters.am_async);
  return injectAmHandle(loc, std::move(fn));
}

std::uint64_t atomicRead(const std::atomic<std::uint64_t>& a) {
  std::uint64_t out = 0;
  dispatchAmo(&a, [&] { out = a.load(std::memory_order_seq_cst); });
  return out;
}

void atomicWrite(std::atomic<std::uint64_t>& a, std::uint64_t value) {
  dispatchAmo(&a, [&] { a.store(value, std::memory_order_seq_cst); });
}

std::uint64_t atomicExchange(std::atomic<std::uint64_t>& a, std::uint64_t value) {
  std::uint64_t out = 0;
  dispatchAmo(&a, [&] { out = a.exchange(value, std::memory_order_seq_cst); });
  return out;
}

bool atomicCas(std::atomic<std::uint64_t>& a, std::uint64_t& expected,
               std::uint64_t desired) {
  bool ok = false;
  dispatchAmo(&a, [&] {
    ok = a.compare_exchange_strong(expected, desired,
                                   std::memory_order_seq_cst);
  });
  return ok;
}

std::uint64_t atomicFetchAdd(std::atomic<std::uint64_t>& a, std::uint64_t delta) {
  std::uint64_t out = 0;
  dispatchAmo(&a, [&] { out = a.fetch_add(delta, std::memory_order_seq_cst); });
  return out;
}

bool atomicTestAndSet(std::atomic<std::uint64_t>& flag) {
  std::uint64_t out = 0;
  dispatchAmo(&flag, [&] { out = flag.exchange(1, std::memory_order_seq_cst); });
  return out != 0;
}

void atomicClear(std::atomic<std::uint64_t>& flag) {
  dispatchAmo(&flag, [&] { flag.store(0, std::memory_order_seq_cst); });
}

bool dcas(U128& target, U128& expected, U128 desired) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  const std::uint32_t owner = ownerOf(&target);
  if (owner == Runtime::here()) {
    bump(g_counters.dcas_local);
    sim::charge(lat.cpu_atomic_ns);
    return dcasHardware(&target, expected, desired);
  }
  // No RDMA NIC offers 16-byte atomics: always remote execution (paper
  // Sec. II.A -- the DCAS path "demotes" to active messages).
  bump(g_counters.dcas_remote);
  bool ok = false;
  amSync(owner, [&] {
    sim::charge(lat.cpu_atomic_ns);
    ok = dcasHardware(&target, expected, desired);
  });
  return ok;
}

U128 dread(U128& target) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  const std::uint32_t owner = ownerOf(&target);
  if (owner == Runtime::here()) {
    sim::charge(lat.cpu_atomic_ns);
    return dloadHardware(&target);
  }
  U128 out;
  amSync(owner, [&] {
    sim::charge(lat.cpu_atomic_ns);
    out = dloadHardware(&target);
  });
  return out;
}

void dwrite(U128& target, U128 desired) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  const std::uint32_t owner = ownerOf(&target);
  if (owner == Runtime::here()) {
    sim::charge(lat.cpu_atomic_ns);
    dstoreHardware(&target, desired);
    return;
  }
  amSync(owner, [&] {
    sim::charge(lat.cpu_atomic_ns);
    dstoreHardware(&target, desired);
  });
}

U128 dexchange(U128& target, U128 desired) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  const std::uint32_t owner = ownerOf(&target);
  if (owner == Runtime::here()) {
    sim::charge(lat.cpu_atomic_ns);
    return dexchangeHardware(&target, desired);
  }
  U128 out;
  amSync(owner, [&] {
    sim::charge(lat.cpu_atomic_ns);
    out = dexchangeHardware(&target, desired);
  });
  return out;
}

void get(void* dst, std::uint32_t src_locale, const void* src,
         std::size_t bytes) {
  Runtime& rt = Runtime::get();
  bump(g_counters.gets);
  std::memcpy(dst, src, bytes);
  if (src_locale != Runtime::here()) {
    sim::charge(rt.config().latency.bulkCost(bytes));
  }
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

Aggregator::~Aggregator() {
  // Flush only if the runtime the buffers were filled under is still the
  // active one; otherwise the closures reference dead objects -- drop them.
  if (total_pending_ != 0 && Runtime::active() &&
      Runtime::get().generation() == runtime_generation_) {
    flushAll();
  }
}

void Aggregator::adoptRuntime() {
  Runtime& rt = Runtime::get();
  if (runtime_generation_ != rt.generation()) {
    // Dropping stale buffers: clear their buffered-marks so no handle
    // still pointing here believes a flush could revive it.
    for (Bucket& bucket : buckets_) {
      for (const auto& core : bucket.cores) {
        core->buffered_in.store(nullptr, std::memory_order_release);
      }
    }
    buckets_.assign(rt.numLocales(), {});
    total_pending_ = 0;
    next_age_deadline_ = kNoDeadline;
    runtime_generation_ = rt.generation();
    const RuntimeConfig& cfg = rt.config();
    max_batch_age_ns_ = cfg.aggregator_max_batch_age_ns;
    ops_per_batch_ = std::max<std::size_t>(cfg.aggregator_ops_per_batch, 1);
  }
}

void Aggregator::enqueueRetire(std::uint32_t loc, RetireSink sink,
                               void* target, RetireEntry entry) {
  adoptRuntime();
  PGASNB_CHECK_MSG(loc < buckets_.size() && loc != Runtime::here(),
                   "aggregator: a retire goes to another locale");
  Bucket& bucket = buckets_[loc];
  RetireRun* run =
      bucket.ops.empty() ? nullptr : bucket.ops.back().target<RetireRun>();
  if (run == nullptr || run->target != target) {
    enqueueWithCore(loc, RetireRun{sink, target, {entry}}, nullptr);
    return;
  }
  run->entries.push_back(entry);
  ++bucket.weight;
  shipIfDue(loc);
}

Handle<> Aggregator::enqueueHandle(std::uint32_t loc,
                                   std::function<void()> op) {
  auto state = std::make_shared<detail::HandleState<void>>();
  enqueueWithCore(loc, std::move(op), state);
  return Handle<>(std::move(state));
}

void Aggregator::enqueueWithCore(std::uint32_t loc, std::function<void()> op,
                                 std::shared_ptr<detail::HandleCore> core) {
  adoptRuntime();
  PGASNB_CHECK_MSG(loc < buckets_.size(), "aggregator: locale out of range");
  OpWindow* window = OpWindow::current();
  Bucket& bucket = buckets_[loc];
  const bool local = loc == Runtime::here();
  if (local && (window == nullptr || taskContext().progress_thread)) {
    // No window to defer into: run in place (Chapel aggregators do the
    // same), after any own-locale ops still buffered, so per-destination
    // FIFO holds.
    if (!bucket.ops.empty()) runInline(loc);
    op();
    if (core != nullptr) detail::completeCore(*core, sim::now());
    return;
  }
  if (bucket.ops.empty()) {
    bucket.first_op_time = sim::now();
    if (max_batch_age_ns_ != 0) {
      next_age_deadline_ =
          std::min(next_age_deadline_, bucket.first_op_time + max_batch_age_ns_);
    }
  }
  bucket.ops.push_back(std::move(op));
  ++bucket.weight;
  if (core != nullptr) {
    // Mark the op as buffered-here so join paths (Handle::wait, whenAll,
    // OpWindow::join) can ship its batch instead of spinning forever, and
    // enroll it into the innermost open window on this thread, if any.
    core->buffered_loc = loc;
    core->buffered_in.store(this, std::memory_order_release);
    if (window != nullptr) window->enroll(core);
  }
  bucket.cores.push_back(std::move(core));
  ++total_pending_;
  shipIfDue(loc);
}

void Aggregator::shipIfDue(std::uint32_t loc) {
  if (buckets_[loc].weight >= ops_per_batch_) flush(loc);
  // O(1) age check per enqueue: the full bucket sweep only runs once the
  // earliest deadline across all buckets has actually passed.
  if (sim::now() >= next_age_deadline_) flushAged();
}

void Aggregator::flush(std::uint32_t loc) {
  if (loc >= buckets_.size() || buckets_[loc].ops.empty()) return;
  Runtime& rt = Runtime::get();
  PGASNB_CHECK_MSG(rt.generation() == runtime_generation_,
                   "aggregator flush across runtime instances");
  if (loc == Runtime::here()) {
    runInline(loc);
    return;
  }
  Bucket& bucket = buckets_[loc];
  total_pending_ -= bucket.ops.size();
  bump(g_counters.am_batched);
  g_counters.ops_aggregated.fetch_add(bucket.weight, std::memory_order_relaxed);
  bucket.weight = 0;
  // The ops are in flight from here on: nobody should try to flush them
  // out of this aggregator again.
  for (const auto& core : bucket.cores) {
    if (core == nullptr) continue;
    core->wire_return_ns = rt.config().latency.am_wire_ns;
    core->buffered_in.store(nullptr, std::memory_order_release);
  }
  std::erase(bucket.cores, nullptr);
  AmRequest req;
  req.batch = std::move(bucket.ops);
  req.send_time = sim::now();
  if (!bucket.cores.empty()) {
    // One completion callback resolves every handle riding this batch at
    // the batch's service end time -- the whole group at once.
    req.on_complete = [cores = std::move(bucket.cores)](std::uint64_t end) {
      for (const auto& core : cores) detail::completeCore(*core, end);
    };
  }
  rt.locale(loc).amQueue().push(std::move(req));
  bucket.ops.clear();    // moved-from: back to a known-empty state
  bucket.cores.clear();
  // One injection cost per batch -- this is the whole point.
  sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
}

void Aggregator::runInline(std::uint32_t loc) {
  Bucket batch;
  std::swap(batch, buckets_[loc]);
  total_pending_ -= batch.ops.size();
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    batch.ops[i]();
    if (const auto& core = batch.cores[i]) {
      core->buffered_in.store(nullptr, std::memory_order_release);
      detail::completeCore(*core, sim::now());
    }
  }
  // Hand the vectors' storage back unless the run buffered new ops here.
  batch.ops.clear();
  batch.cores.clear();
  batch.weight = 0;
  if (buckets_[loc].ops.empty()) std::swap(batch, buckets_[loc]);
}

void Aggregator::flushAll() {
  // Remote buckets first: the calling locale's bucket runs inline, on this
  // thread, while they are on the wire. That run may buffer new ops, so
  // repeat until nothing is left.
  const std::uint32_t here = Runtime::here();
  while (total_pending_ != 0) {
    for (std::uint32_t loc = 0; loc < buckets_.size(); ++loc) {
      if (loc != here) flush(loc);
    }
    flush(here);
  }
}

void Aggregator::flushAged() {
  if (max_batch_age_ns_ == 0) return;
  const std::uint64_t now = sim::now();
  std::uint64_t next = kNoDeadline;
  for (std::uint32_t loc = 0; loc < buckets_.size(); ++loc) {
    const Bucket& bucket = buckets_[loc];
    if (bucket.ops.empty()) continue;
    const std::uint64_t deadline = bucket.first_op_time + max_batch_age_ns_;
    if (now >= deadline) {
      flush(loc);
    } else {
      next = std::min(next, deadline);
    }
  }
  next_age_deadline_ = next;
}

Aggregator& taskAggregator() {
  thread_local Aggregator aggregator;
  return aggregator;
}

Counters counters() noexcept {
  Counters snapshot;
  snapshot.nic_atomics = g_counters.nic_atomics.load(std::memory_order_relaxed);
  snapshot.cpu_atomics = g_counters.cpu_atomics.load(std::memory_order_relaxed);
  snapshot.am_sync = g_counters.am_sync.load(std::memory_order_relaxed);
  snapshot.am_async = g_counters.am_async.load(std::memory_order_relaxed);
  snapshot.am_batched = g_counters.am_batched.load(std::memory_order_relaxed);
  snapshot.am_fence = g_counters.am_fence.load(std::memory_order_relaxed);
  snapshot.ops_aggregated =
      g_counters.ops_aggregated.load(std::memory_order_relaxed);
  snapshot.handles_chained =
      g_counters.handles_chained.load(std::memory_order_relaxed);
  snapshot.cq_drained = g_counters.cq_drained.load(std::memory_order_relaxed);
  snapshot.gets = g_counters.gets.load(std::memory_order_relaxed);
  snapshot.dcas_local = g_counters.dcas_local.load(std::memory_order_relaxed);
  snapshot.dcas_remote = g_counters.dcas_remote.load(std::memory_order_relaxed);
  return snapshot;
}

void resetCounters() noexcept {
  g_counters.nic_atomics.store(0, std::memory_order_relaxed);
  g_counters.cpu_atomics.store(0, std::memory_order_relaxed);
  g_counters.am_sync.store(0, std::memory_order_relaxed);
  g_counters.am_async.store(0, std::memory_order_relaxed);
  g_counters.am_batched.store(0, std::memory_order_relaxed);
  g_counters.am_fence.store(0, std::memory_order_relaxed);
  g_counters.ops_aggregated.store(0, std::memory_order_relaxed);
  g_counters.handles_chained.store(0, std::memory_order_relaxed);
  g_counters.cq_drained.store(0, std::memory_order_relaxed);
  g_counters.gets.store(0, std::memory_order_relaxed);
  g_counters.dcas_local.store(0, std::memory_order_relaxed);
  g_counters.dcas_remote.store(0, std::memory_order_relaxed);
}

}  // namespace pgasnb::comm
