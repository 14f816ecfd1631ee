#include "runtime/task.hpp"

#include <algorithm>

#include "runtime/runtime.hpp"
#include "runtime/sim_clock.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"

namespace pgasnb {

void TaskQueue::push(TaskItem&& item) {
  {
    std::lock_guard<std::mutex> guard(lock_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

bool TaskQueue::tryTake(const TaskState* state, TaskItem& out) {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const TaskItem& i) { return i.state.get() == state; });
  if (it == queue_.end()) return false;
  out = std::move(*it);
  queue_.erase(it);
  return true;
}

bool TaskQueue::popOrWaitFor(TaskItem& out, const std::atomic<bool>& stop,
                             std::chrono::microseconds slice) {
  std::unique_lock<std::mutex> guard(lock_);
  cv_.wait_for(guard, slice, [&] {
    return !queue_.empty() || stop.load(std::memory_order_acquire);
  });
  if (queue_.empty()) return false;
  out = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void TaskQueue::notifyAll() {
  // The state this broadcast signals (stop_) is NOT guarded by lock_, so
  // without this empty critical section the notify could land between a waiter's predicate check and
  // its block and be lost: acquiring lock_ orders us after any in-progress
  // predicate evaluation, so the waiter is either already blocked (and our
  // notify wakes it) or will see the new state when it evaluates.
  { std::lock_guard<std::mutex> guard(lock_); }
  cv_.notify_all();
}

void executeTaskInline(TaskItem& item) {
  TaskContext saved = taskContext();
  taskContext().here = item.state->locale;
  taskContext().sim_now = item.start_time;
  try {
    item.fn();
  } catch (...) {
    item.state->error = std::current_exception();
  }
  item.state->end_time = sim::now();
  item.state->done.store(true, std::memory_order_release);
  taskContext() = saved;
}

TaskGroup::~TaskGroup() {
  if (!waited_ && !states_.empty()) {
    // Joining in a destructor cannot rethrow; swallow child errors here.
    try {
      wait();
    } catch (...) {
    }
  }
}

void TaskGroup::spawnOn(std::uint32_t loc, std::function<void()> fn) {
  Runtime& rt = Runtime::get();
  PGASNB_CHECK_MSG(loc < rt.numLocales(), "spawnOn: locale out of range");
  const LatencyModel& lat = rt.config().latency;
  auto state = std::make_shared<TaskState>();
  state->locale = loc;

  TaskItem item;
  item.fn = std::move(fn);
  item.state = state;
  const bool remote = loc != Runtime::here();
  item.start_time = sim::now() + (remote ? lat.am_wire_ns + lat.remote_task_spawn_ns
                                         : lat.local_task_spawn_ns);
  states_.push_back(std::move(state));
  rt.taskQueue(loc).push(std::move(item));
  waited_ = false;
}

void TaskGroup::wait() {
  waited_ = true;
  if (states_.empty()) return;
  Runtime& rt = Runtime::get();
  const LatencyModel& lat = rt.config().latency;
  const std::uint32_t my_locale = Runtime::here();

  // Join with helping: run every child a worker has not popped yet inline.
  // A child that is gone from its queue has started elsewhere and never
  // comes back, so one pass suffices.
  for (const auto& st : states_) {
    TaskItem mine;
    if (rt.taskQueue(st->locale).tryTake(st.get(), mine)) {
      executeTaskInline(mine);
    }
  }
  std::size_t next_unfinished = 0;
  Backoff backoff;
  while (true) {
    while (next_unfinished < states_.size() &&
           states_[next_unfinished]->done.load(std::memory_order_acquire)) {
      ++next_unfinished;
    }
    if (next_unfinished == states_.size()) break;
    backoff.pause();
  }

  // Fold children's completion times into this task's clock and surface the
  // first error (after all children have quiesced, like Chapel's coforall).
  std::uint64_t join_time = sim::now();
  std::exception_ptr first_error;
  for (const auto& st : states_) {
    const bool remote = st->locale != my_locale;
    const std::uint64_t arrival =
        st->end_time + (remote ? lat.am_wire_ns : 0);
    join_time = std::max(join_time, arrival);
    if (st->error && !first_error) first_error = st->error;
  }
  sim::joinAtLeast(join_time);
  states_.clear();
  if (first_error) std::rethrow_exception(first_error);
}

void onLocale(std::uint32_t loc, const std::function<void()>& fn) {
  TaskGroup group;
  group.spawnOn(loc, fn);
  group.wait();
}

void coforallLocales(const std::function<void()>& fn) {
  Runtime& rt = Runtime::get();
  TaskGroup group;
  for (std::uint32_t l = 0; l < rt.numLocales(); ++l) {
    group.spawnOn(l, fn);
  }
  group.wait();
}

void coforallHere(std::uint32_t n,
                  const std::function<void(std::uint32_t)>& fn) {
  TaskGroup group;
  const std::uint32_t here = Runtime::here();
  for (std::uint32_t t = 0; t < n; ++t) {
    group.spawnOn(here, [&fn, t] { fn(t); });
  }
  group.wait();
}

void forallHere(std::uint64_t n, std::uint32_t tasks,
                const std::function<void(std::uint64_t)>& fn) {
  if (n == 0) return;
  tasks = std::max<std::uint32_t>(1, std::min<std::uint64_t>(tasks, n));
  TaskGroup group;
  const std::uint32_t here = Runtime::here();
  const std::uint64_t chunk = (n + tasks - 1) / tasks;
  for (std::uint32_t t = 0; t < tasks; ++t) {
    const std::uint64_t lo = t * chunk;
    const std::uint64_t hi = std::min(n, lo + chunk);
    if (lo >= hi) break;
    group.spawnOn(here, [&fn, lo, hi] {
      for (std::uint64_t i = lo; i < hi; ++i) fn(i);
    });
  }
  group.wait();
}

}  // namespace pgasnb
