// Active messages and progress threads.
//
// In CommMode::none every remote operation -- atomics, remote class-instance
// updates, fire-and-forget deletions -- is shipped to the target locale and
// executed by its *progress thread*, exactly as the paper describes for
// Chapel without network atomics.  The progress thread is a real OS thread
// per locale, so remote operations genuinely serialize at the recipient; in
// simulated time the same serialization is modeled with a `busy_until`
// channel clock (FIFO queueing: start = max(arrival, busy_until)).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pgasnb {

struct AmRequest {
  std::function<void()> fn;
  /// Aggregated payload (comm::Aggregator): the progress thread drains the
  /// whole vector in one service -- one wire+service latency charge for the
  /// batch, one CPU charge per op. Empty for ordinary single-handler AMs.
  std::vector<std::function<void()>> batch;
  std::uint64_t send_time = 0;  ///< sender's simulated clock at injection
  /// Completion channel for AMs with a waiter (amSync / comm::Handle): the
  /// progress thread invokes it with the service end time (simulated ns)
  /// after the handler -- and the whole batch, if any -- has run. The comm
  /// layer uses it to resolve handles (one release store each); a single
  /// callback can resolve a whole group of handles at once (aggregated
  /// ops). Empty for a batch of retires.
  std::function<void(std::uint64_t end_sim_time)> on_complete;
};

/// The AM service the calling progress thread is running: one AmRequest,
/// its handler plus its whole batch. ProgressThread::run opens one scope per
/// request. Code inside it may defer work to the service's end with
/// atEnd(); the hooks run after the last op and before the service-end time
/// is stamped, so what they charge lands inside the service and the
/// request's handles resolve only after every hook has run. PinScope uses
/// this to make the service the pin boundary (epoch/domain.hpp).
class AmServiceScope {
 public:
  using Hook = void (*)(void* arg);

  AmServiceScope();
  /// Ends the service: runs the registered hooks in registration order.
  ~AmServiceScope();
  AmServiceScope(const AmServiceScope&) = delete;
  AmServiceScope& operator=(const AmServiceScope&) = delete;

  /// True while the calling thread is inside an AM service (and not yet
  /// running its end hooks).
  static bool active() noexcept;
  /// Run `hook(arg)` when the calling thread's service ends. `arg` must
  /// outlive the service. Requires active().
  static void atEnd(Hook hook, void* arg);
};

class AmQueue {
 public:
  void push(AmRequest&& req) {
    {
      std::lock_guard<std::mutex> guard(lock_);
      queue_.push_back(std::move(req));
    }
    cv_.notify_one();
  }

  /// Blocks until a request arrives or stop is requested.
  bool popOrWait(AmRequest& out, const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> guard(lock_);
    cv_.wait(guard, [&] {
      return !queue_.empty() || stop.load(std::memory_order_acquire);
    });
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

  /// Wakes every waiter after a change to the stop flag. That flag is not
  /// guarded by lock_, so the empty critical section orders this notify
  /// after any predicate check in progress; without it a waiter that just
  /// saw "not stopped" could block after the notify and never wake.
  void notifyAll() {
    { std::lock_guard<std::mutex> guard(lock_); }
    cv_.notify_all();
  }

 private:
  std::mutex lock_;
  std::condition_variable cv_;
  std::deque<AmRequest> queue_;
};

/// One progress thread per locale: drains the AM queue, runs each handler
/// with the thread impersonating the target locale, and models FIFO service.
class ProgressThread {
 public:
  ProgressThread(std::uint32_t locale_id, AmQueue& queue);
  ~ProgressThread();

  ProgressThread(const ProgressThread&) = delete;
  ProgressThread& operator=(const ProgressThread&) = delete;

  std::uint64_t messagesServiced() const noexcept {
    return serviced_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  std::uint32_t locale_id_;
  AmQueue& queue_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> serviced_{0};
  std::uint64_t busy_until_ = 0;  // progress-thread-private channel clock
  std::thread thread_;
};

}  // namespace pgasnb
