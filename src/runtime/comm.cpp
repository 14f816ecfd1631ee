#include "runtime/comm.hpp"

#include <algorithm>
#include <cstring>

#include "util/backoff.hpp"
#include "util/cache_line.hpp"
#include "util/check.hpp"

namespace pgasnb::comm {

namespace {

// Every thread bumps these on its hot path, so each thread bumps its own
// shard (threadShard()): a shard is whole cache lines, so no other global
// (Runtime::get()'s pointer, say) shares one with it either.
struct alignas(kCacheLineSize) CounterShard {
  std::atomic<std::uint64_t> nic_atomics{0};
  std::atomic<std::uint64_t> cpu_atomics{0};
  std::atomic<std::uint64_t> am_sync{0};
  std::atomic<std::uint64_t> am_async{0};
  std::atomic<std::uint64_t> am_batched{0};
  std::atomic<std::uint64_t> am_fence{0};
  std::atomic<std::uint64_t> ops_aggregated{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> dcas_local{0};
  std::atomic<std::uint64_t> dcas_remote{0};
};

CounterShard g_shards[kThreadShards];

inline CounterShard& myShard() noexcept { return g_shards[threadShard()]; }

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
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
    bump(myShard().nic_atomics);
    sim::charge(lat.nic_atomic_ns);
    op();
    return;
  }
  const std::uint32_t owner = ownerOf(target);
  if (owner == Runtime::here()) {
    bump(myShard().cpu_atomics);
    sim::charge(lat.cpu_atomic_ns);
    op();
    return;
  }
  amSync(owner, [&op, &lat] {
    sim::charge(lat.cpu_atomic_ns);
    op();
  });
}

/// Dispatch a 16-byte op to its owner. No RDMA NIC offers 16-byte
/// atomics, so under every comm mode a remote target demotes to an active
/// message (paper Sec. II.A). `op` runs with plain processor atomics on the
/// caller (local) or on the owner's progress thread (remote). Returns true
/// if the target was remote.
template <typename Op>
bool dispatchDword(const void* target, const Op& op) {
  const LatencyModel& lat = Runtime::get().config().latency;
  const std::uint32_t owner = ownerOf(target);
  if (owner == Runtime::here()) {
    sim::charge(lat.cpu_atomic_ns);
    op();
    return false;
  }
  amSync(owner, [&op, &lat] {
    sim::charge(lat.cpu_atomic_ns);
    op();
  });
  return true;
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

void injectHandleAm(std::uint32_t loc, std::shared_ptr<HandleCore> core,
                    std::function<void()> fn) {
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  core->wire_return_ns = lat.am_wire_ns;
  AmRequest req;
  req.fn = std::move(fn);
  req.send_time = sim::now();
  // The callback owns the state: it stays alive until the progress thread
  // has stored the completion time.
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

void spinUntilDone(const HandleCore& core) {
  Backoff backoff;
  while (core.done.load(std::memory_order_acquire) == 0) backoff.pause();
}

void noteAmAsync() noexcept { bump(myShard().am_async); }

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
  bump(myShard().am_sync);
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
    bump(myShard().am_fence);
    fences.push_back(injectAmHandle(l, [] {}));
  }
  for (Handle<>& fence : fences) fence.wait();
}

Handle<> amProgressHandle(std::uint32_t loc, std::function<void()> fn) {
  bump(myShard().am_async);
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
  Runtime& rt = Runtime::get();
  const std::uint32_t owner = ownerOf(&flag);
  if (rt.commMode() == CommMode::ugni || owner == Runtime::here()) {
    dispatchAmo(&flag, [&] { flag.store(0, std::memory_order_seq_cst); });
    return;
  }
  // A release needs no reply: post the store and go on. Per-destination
  // FIFO keeps every later AM the caller sends to `owner` behind it.
  bump(myShard().am_async);
  const std::uint64_t cpu_atomic_ns = rt.config().latency.cpu_atomic_ns;
  AmRequest req;
  req.fn = [&flag, cpu_atomic_ns] {
    sim::charge(cpu_atomic_ns);
    flag.store(0, std::memory_order_seq_cst);
  };
  req.send_time = sim::now();
  rt.locale(owner).amQueue().push(std::move(req));
  sim::chargeModelOnly(cpu_atomic_ns);  // the injection
}

bool dcas(U128& target, U128& expected, U128 desired) {
  bool ok = false;
  const bool remote = dispatchDword(
      &target, [&] { ok = dcasHardware(&target, expected, desired); });
  bump(remote ? myShard().dcas_remote : myShard().dcas_local);
  return ok;
}

U128 dread(U128& target) {
  U128 out;
  dispatchDword(&target, [&] { out = dloadHardware(&target); });
  return out;
}

void dwrite(U128& target, U128 desired) {
  dispatchDword(&target, [&] { dstoreHardware(&target, desired); });
}

U128 dexchange(U128& target, U128 desired) {
  U128 out;
  dispatchDword(&target, [&] { out = dexchangeHardware(&target, desired); });
  return out;
}

void get(void* dst, std::uint32_t src_locale, const void* src,
         std::size_t bytes) {
  Runtime& rt = Runtime::get();
  bump(myShard().gets);
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
    local_retires_.entries.clear();
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
  PGASNB_CHECK_MSG(loc < buckets_.size(), "aggregator: locale out of range");
  if (loc == Runtime::here()) {
    LocalRetireRun& run = local_retires_;
    if (!run.entries.empty() && run.target != target) runLocalRetires();
    if (run.entries.empty()) {
      run.sink = sink;
      run.target = target;
      run.first_op_time = sim::now();
      ++total_pending_;
      noteOpened(run.first_op_time);
    }
    run.entries.push_back(entry);
    if (run.entries.size() >= ops_per_batch_) runLocalRetires();
    if (sim::now() >= next_age_deadline_) flushAged();
    return;
  }
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
    noteOpened(bucket.first_op_time);
  }
  bucket.ops.push_back(std::move(op));
  ++bucket.weight;
  if (core != nullptr) {
    // Mark the op as buffered-here so join paths (Handle::wait,
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

void Aggregator::noteOpened(std::uint64_t first_op_time) {
  if (max_batch_age_ns_ != 0) {
    next_age_deadline_ =
        std::min(next_age_deadline_, first_op_time + max_batch_age_ns_);
  }
}

void Aggregator::runLocalRetires() {
  if (local_retires_.entries.empty()) return;
  --total_pending_;
  local_retires_.sink(local_retires_.target, local_retires_.entries);
  local_retires_.entries.clear();  // keeps its capacity for the next run
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
  bump(myShard().am_batched);
  bump(myShard().ops_aggregated, bucket.weight);
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
  // Remote buckets first: the calling locale's bucket and retire run go
  // inline, on this thread, while they are on the wire. The bucket's run
  // may buffer new ops, so repeat until nothing is left.
  const std::uint32_t here = Runtime::here();
  while (total_pending_ != 0) {
    for (std::uint32_t loc = 0; loc < buckets_.size(); ++loc) {
      if (loc != here) flush(loc);
    }
    flush(here);
    runLocalRetires();
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
  if (!local_retires_.entries.empty()) {
    const std::uint64_t deadline =
        local_retires_.first_op_time + max_batch_age_ns_;
    if (now >= deadline) {
      runLocalRetires();
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
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Counters sum;
  for (const CounterShard& s : g_shards) {
    sum.nic_atomics += load(s.nic_atomics);
    sum.cpu_atomics += load(s.cpu_atomics);
    sum.am_sync += load(s.am_sync);
    sum.am_async += load(s.am_async);
    sum.am_batched += load(s.am_batched);
    sum.am_fence += load(s.am_fence);
    sum.ops_aggregated += load(s.ops_aggregated);
    sum.gets += load(s.gets);
    sum.dcas_local += load(s.dcas_local);
    sum.dcas_remote += load(s.dcas_remote);
  }
  return sum;
}

void resetCounters() noexcept {
  for (CounterShard& s : g_shards) {
    for (std::atomic<std::uint64_t>* c :
         {&s.nic_atomics, &s.cpu_atomics, &s.am_sync, &s.am_async,
          &s.am_batched, &s.am_fence, &s.ops_aggregated, &s.gets,
          &s.dcas_local, &s.dcas_remote}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace pgasnb::comm
