// LocalGuard: a task's registration in a LocalDomain, the shared-memory
// epoch manager (paper Sec. II.C; the domain itself is in epoch/domain.hpp).
//
// Deliberately runtime-free: this type works in any multithreaded C++
// program.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "epoch/limbo_list.hpp"
#include "epoch/token.hpp"

namespace pgasnb {

class LocalDomain;

/// RAII registration + epoch guard for a LocalDomain; unregisters at scope
/// exit. Same surface as DistGuard (epoch/epoch_manager.hpp), whose
/// comments document each call. Move-only.
class LocalGuard {
 public:
  LocalGuard() = default;
  LocalGuard(LocalGuard&& other) noexcept { *this = std::move(other); }
  LocalGuard& operator=(LocalGuard&& other) noexcept;
  LocalGuard(const LocalGuard&) = delete;
  LocalGuard& operator=(const LocalGuard&) = delete;
  ~LocalGuard() { release(); }

  bool valid() const noexcept { return token_ != nullptr; }

  void pin();
  void unpin() noexcept;
  /// An invalid (default-constructed or moved-from) guard is quiescent.
  bool pinned() const noexcept { return token_ != nullptr && token_->pinned(); }
  std::uint64_t epoch() const noexcept {
    return token_ == nullptr
               ? kEpochQuiescent
               : token_->local_epoch.load(std::memory_order_relaxed);
  }

  /// Defer `delete obj` until the epoch advances prove quiescence.
  template <typename T>
  void retire(T* obj) {
    retireRaw(obj, [](void* p) { delete static_cast<T*>(p); });
  }
  void retireRaw(void* obj, ObjectDeleter deleter);

  /// Shared-memory retires are never buffered; parity with DistGuard so
  /// the guard surface is domain-generic.
  void flush() noexcept {}

  /// Protected read: under EBR a pinned guard already protects every load
  /// (nothing retired since the pin can be freed while it stays pinned), so
  /// this is a pass-through (see DistGuard::protect).
  template <typename F>
  auto protect(F&& load) {
    return std::forward<F>(load)();
  }

  /// Run `op` once; always covered (see DistGuard::protectOnce).
  template <typename F>
  bool protectOnce(F&& op) {
    std::forward<F>(op)();
    return true;
  }

  bool tryReclaim();
  void release();

 private:
  friend class LocalDomain;
  LocalGuard(LocalDomain* domain, bool pin_now);

  LocalDomain* domain_ = nullptr;
  Token* token_ = nullptr;
};

}  // namespace pgasnb
