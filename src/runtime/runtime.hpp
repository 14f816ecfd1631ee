// The PGAS runtime: the set of simulated locales plus the global address
// space they partition.
//
// Exactly one Runtime may be active per process at a time (RAII). The
// calling thread becomes locale 0's initial task, mirroring Chapel's main.
//
//   pgasnb::RuntimeConfig cfg;
//   cfg.num_locales = 8;
//   pgasnb::Runtime rt(cfg);
//   pgasnb::coforallLocales([]{ /* runs once per locale */ });
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/locale.hpp"
#include "runtime/sim_clock.hpp"

namespace pgasnb {

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = RuntimeConfig{});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// The active runtime; aborts if none.
  static Runtime& get();
  static bool active() noexcept;

  /// Current simulated locale of the calling thread.
  static std::uint32_t here() noexcept { return taskContext().here; }

  std::uint32_t numLocales() const noexcept { return static_cast<std::uint32_t>(locales_.size()); }
  const RuntimeConfig& config() const noexcept { return config_; }
  CommMode commMode() const noexcept { return config_.comm_mode; }

  /// Monotonic per-process id of this Runtime instance (never 0). Long-lived
  /// thread-local state (e.g. comm::Aggregator buffers) uses it to detect
  /// that a previous runtime died and its buffered closures are stale.
  std::uint64_t generation() const noexcept { return generation_; }

  Locale& locale(std::uint32_t id);
  TaskQueue& taskQueue(std::uint32_t id) { return locale(id).taskQueue(); }

  // --- global address space ---

  /// Owning locale of an address inside the partitioned heap; addresses
  /// outside the heap (stack, globals, malloc) belong to the current locale
  /// by convention, mirroring Chapel's treatment of non-heap data.
  std::uint32_t localeOfAddress(const void* p) const noexcept;

  void* allocateOn(std::uint32_t locale_id, std::size_t bytes,
                   std::size_t align = Arena::kMinAlign);
  void deallocateLocal(void* p, std::size_t bytes);

  /// Allocate + construct on a specific locale's arena, honouring
  /// alignof(T). Note: the constructor body runs on the *calling* thread;
  /// objects that capture Runtime::here() in their constructor should be
  /// built via onLocale.
  template <typename T, typename... Args>
  T* newOn(std::uint32_t locale_id, Args&&... args) {
    void* mem = allocateOn(locale_id, sizeof(T), alignof(T));
    return ::new (mem) T(std::forward<Args>(args)...);
  }

  template <typename T, typename... Args>
  T* newHere(Args&&... args) {
    return newOn<T>(here(), std::forward<Args>(args)...);
  }

  /// Destroy + free; must be called on the owning locale (arena asserts).
  template <typename T>
  void deleteLocal(T* p) {
    if (p == nullptr) return;
    p->~T();
    deallocateLocal(p, sizeof(T));
  }

 private:
  RuntimeConfig config_;
  std::uint64_t generation_ = 0;
  std::byte* heap_base_ = nullptr;
  std::size_t heap_bytes_ = 0;
  std::size_t per_locale_bytes_ = 0;
  std::vector<std::unique_ptr<Locale>> locales_;
};

/// Convenience free functions (the common spelling in examples/tests).
template <typename T, typename... Args>
T* gnewOn(std::uint32_t locale_id, Args&&... args) {
  return Runtime::get().newOn<T>(locale_id, std::forward<Args>(args)...);
}

template <typename T, typename... Args>
T* gnew(Args&&... args) {
  return Runtime::get().newHere<T>(std::forward<Args>(args)...);
}

template <typename T>
void gdelete(T* p) {
  Runtime::get().deleteLocal(p);
}

inline std::uint32_t localeOf(const void* p) {
  return Runtime::get().localeOfAddress(p);
}

}  // namespace pgasnb
