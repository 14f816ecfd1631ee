// Tasking: `on` statements, coforall, and task groups.
//
// Chapel semantics reproduced here:
//   * onLocale(l, f)        - synchronous remote task (Chapel `on loc do ...`)
//   * group.spawnOn(l, f)   - begin-on (a TaskGroup task, joined by wait())
//   * coforallLocales(f)    - one task per locale, joined (Chapel `coforall
//                             loc in Locales do on loc ...`)
//   * coforallHere(n, f)    - n tasks on the current locale
//
// Each locale has a small pool of persistent worker threads. A blocked
// TaskGroup::wait() *helps*: it takes its own still-queued children out of
// their locales' queues and executes them inline, so nested coforalls can
// never deadlock regardless of pool size. It never runs a foreign task: one
// that waits on the joiner's caller would then sit beneath it on the same
// stack and never finish.
//
// Simulated time: a child task starts at parent_now + spawn cost (+ wire if
// cross-locale) and the join folds max(child end + return wire) back into
// the parent, so weak-scaling sweeps report interconnect-shaped timings.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pgasnb {

struct TaskState {
  std::atomic<bool> done{false};
  std::uint64_t end_time = 0;  // valid once done is true (release/acquire)
  std::uint32_t locale = 0;    // the task's locale, set at spawn
  std::exception_ptr error;
};

struct TaskItem {
  std::function<void()> fn;
  std::uint64_t start_time = 0;
  std::shared_ptr<TaskState> state;
};

class TaskQueue {
 public:
  void push(TaskItem&& item);
  /// Remove the queued item whose state is `state`, if it has not been
  /// popped yet. A TaskGroup join uses this to run its own children.
  bool tryTake(const TaskState* state, TaskItem& out);
  /// Bounded blocking pop: parks at most `slice`, woken early by pushes or
  /// stop. Returns false whenever nothing was popped (timeout or stop);
  /// the caller inspects its own conditions.
  bool popOrWaitFor(TaskItem& out, const std::atomic<bool>& stop,
                    std::chrono::microseconds slice);
  void notifyAll();

 private:
  std::mutex lock_;
  std::condition_variable cv_;
  std::deque<TaskItem> queue_;
};

/// Executes a task item on the calling thread, impersonating the task's
/// locale and clock, then restores the caller's context.
void executeTaskInline(TaskItem& item);

/// Handle to a set of spawned tasks; join point with helping.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup();  // waits if the user forgot (keeps RAII honest)

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Spawn `fn` as a task on locale `loc`.
  void spawnOn(std::uint32_t loc, std::function<void()> fn);

  /// Join all spawned tasks; folds child completion times into the caller's
  /// simulated clock and rethrows the first child exception.
  void wait();

  bool empty() const { return states_.empty(); }

 private:
  std::vector<std::shared_ptr<TaskState>> states_;
  bool waited_ = false;
};

/// Synchronous `on loc do fn()`.
void onLocale(std::uint32_t loc, const std::function<void()>& fn);

/// One task per locale; `fn` observes its locale via Runtime::here().
void coforallLocales(const std::function<void()>& fn);

/// `n` tasks on the current locale; fn(task_index).
void coforallHere(std::uint32_t n, const std::function<void(std::uint32_t)>& fn);

/// Parallel iteration of [0, n) on the current locale with `tasks` chunks.
void forallHere(std::uint64_t n, std::uint32_t tasks,
                const std::function<void(std::uint64_t)>& fn);

}  // namespace pgasnb
