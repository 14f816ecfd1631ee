#include "runtime/locale.hpp"

#include <chrono>

#include "runtime/sim_clock.hpp"

namespace pgasnb {

Locale::Locale(std::uint32_t id, std::byte* arena_base,
               std::size_t arena_bytes, std::uint32_t num_workers)
    : id_(id), arena_(id, arena_base, arena_bytes), num_workers_(num_workers) {
  for (auto& slot : priv_slots_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }
}

Locale::~Locale() { stopThreads(); }

void Locale::startThreads() {
  progress_ = std::make_unique<ProgressThread>(id_, am_queue_);
  workers_.reserve(num_workers_);
  for (std::uint32_t w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

void Locale::stopThreads() {
  stop_.store(true, std::memory_order_release);
  task_queue_.notifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  progress_.reset();  // ProgressThread dtor joins
}

void Locale::workerLoop() {
  taskContext().here = id_;
  // Parking is event-driven -- task pushes and stop poke the task queue's
  // cv -- with a long fallback slice as a safety net, so a quiet locale
  // does not poll.
  constexpr auto kIdleFallback = std::chrono::seconds(1);
  TaskItem item;
  for (;;) {
    if (task_queue_.popOrWaitFor(item, stop_, kIdleFallback)) {
      executeTaskInline(item);
      item = TaskItem{};  // release closure state before blocking
    } else if (stop_.load(std::memory_order_acquire)) {
      return;  // stopped and the queue is drained
    }
  }
}

}  // namespace pgasnb
