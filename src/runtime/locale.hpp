// A simulated locale: one compute node of the PGAS machine.
//
// Owns its memory arena, its active-message queue + progress thread, a task
// queue + persistent workers, and its slice of the privatization table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/active_message.hpp"
#include "runtime/arena.hpp"
#include "runtime/task.hpp"

namespace pgasnb {

class Locale {
 public:
  static constexpr std::size_t kPrivatizationSlots = 4096;

  Locale(std::uint32_t id, std::byte* arena_base, std::size_t arena_bytes,
         std::uint32_t num_workers);
  ~Locale();

  Locale(const Locale&) = delete;
  Locale& operator=(const Locale&) = delete;

  std::uint32_t id() const noexcept { return id_; }
  Arena& arena() noexcept { return arena_; }
  AmQueue& amQueue() noexcept { return am_queue_; }
  TaskQueue& taskQueue() noexcept { return task_queue_; }

  /// Starts the progress thread and workers; called by the Runtime after the
  /// global instance pointer is published (threads consult Runtime::get()).
  void startThreads();
  /// Stops and joins all threads; called by the Runtime before teardown.
  void stopThreads();

  void* privSlot(std::size_t pid) const noexcept {
    return priv_slots_[pid].load(std::memory_order_acquire);
  }
  void setPrivSlot(std::size_t pid, void* instance) noexcept {
    priv_slots_[pid].store(instance, std::memory_order_release);
  }

  std::uint64_t amServiced() const noexcept {
    return progress_ ? progress_->messagesServiced() : 0;
  }

 private:
  void workerLoop();

  std::uint32_t id_;
  Arena arena_;
  AmQueue am_queue_;
  TaskQueue task_queue_;
  std::uint32_t num_workers_;
  std::unique_ptr<ProgressThread> progress_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::vector<std::atomic<void*>> priv_slots_{kPrivatizationSlots};
};

}  // namespace pgasnb
