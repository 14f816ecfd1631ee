// Cache-line geometry and false-sharing avoidance helpers.
//
// Non-blocking algorithms are dominated by coherence traffic; every hot
// atomic in this library is isolated on its own cache line via CachePadded.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pgasnb {

// Pinned to 64 (x86-64 / AArch64 reality) rather than
// std::hardware_destructive_interference_size, which is ABI-unstable across
// compiler flags and triggers -Winterference-size.
inline constexpr std::size_t kCacheLineSize = 64;

/// Wraps a value so it occupies (at least) one full cache line, preventing
/// false sharing between adjacent hot objects.
template <typename T>
struct alignas(kCacheLineSize) CachePadded {
  T value;

  CachePadded() = default;
  template <typename... Args>
  explicit CachePadded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T* operator->() { return &value; }
  const T* operator->() const { return &value; }
  T& operator*() { return value; }
  const T& operator*() const { return value; }
};

/// Shards per hot counter. A counter every thread bumps keeps one cache
/// line per shard, and each thread bumps the shard `threadShard()` names;
/// shards are dealt round-robin, so the first this-many threads to bump
/// get lines of their own. Reads sum the shards: exact whenever the
/// bumpers are quiescent.
inline constexpr std::size_t kThreadShards = 16;

/// The calling thread's shard index, dealt round-robin on first use.
inline std::size_t threadShard() noexcept {
  static std::atomic<std::size_t> next{0};
  constexpr std::size_t kUnassigned = ~std::size_t{0};
  thread_local std::size_t shard = kUnassigned;
  if (shard == kUnassigned) [[unlikely]] {
    shard = next.fetch_add(1, std::memory_order_relaxed) % kThreadShards;
  }
  return shard;
}

/// Pause instruction for spin loops; keeps the pipeline and a hyper-twin
/// happy without giving up the time slice.
inline void cpuRelax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

}  // namespace pgasnb
