// Per-locale memory arenas.
//
// Every locale owns a contiguous slice of one big virtual reservation, so
// (a) the owning locale of any arena pointer is computable in O(1) from its
// address -- this is what makes wide pointers and owner-routed retires
// work -- and (b) deallocation can assert it runs on the owner locale,
// which mirrors the paper's "remote deallocation would result in RPC".
//
// Allocation is a bump pointer plus segregated power-of-two free lists.
// Freed blocks are poisoned so use-after-free slips become loud; tests rely
// on this (see tests/epoch/safety_test.cpp).
//
// Blocks are 16-byte aligned. Over-aligned requests (up to a cache line)
// pad the bump pointer to a cache line, and every size class keeps its
// cache-line-aligned free blocks on a separate list, so a recycled block
// still satisfies the request it is handed to. Requests at the default
// alignment pay no padding.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/cache_line.hpp"

namespace pgasnb {

class Arena {
 public:
  static constexpr std::size_t kMinBlock = 16;
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 20;
  /// Default block alignment, and the largest one allocate() supports.
  static constexpr std::size_t kMinAlign = kMinBlock;
  static constexpr std::size_t kMaxAlign = kCacheLineSize;
  static constexpr int kNumClasses = 17;  // 16B .. 1MiB, powers of two
  static constexpr std::uint64_t kFreeMagic = 0xfeedfacedeadbeefULL;

  Arena(std::uint32_t locale_id, std::byte* base, std::size_t bytes) noexcept;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `size` bytes aligned to `align` (a power of two no larger
  /// than kMaxAlign and no larger than `size`, which holds for every C++
  /// type). Aborts if the arena is full -- arenas are sized for the
  /// workload, not paged out.
  void* allocate(std::size_t size, std::size_t align = kMinAlign);

  /// Returns a block to the arena. Must be called on the owning locale; the
  /// caller guarantees `size` matches the original allocation request.
  void deallocate(void* ptr, std::size_t size) noexcept;

  bool contains(const void* ptr) const noexcept {
    const auto* p = static_cast<const std::byte*>(ptr);
    return p >= base_ && p < base_ + bytes_;
  }

  std::uint32_t localeId() const noexcept { return locale_id_; }

  // --- statistics (approximate under concurrency, exact when quiescent) ---
  std::uint64_t liveBlocks() const noexcept {
    return allocated_.load(std::memory_order_relaxed) -
           freed_.load(std::memory_order_relaxed);
  }
  std::uint64_t totalAllocations() const noexcept {
    return allocated_.load(std::memory_order_relaxed);
  }
  std::size_t bytesUsed() const noexcept {
    return bump_.load(std::memory_order_relaxed);
  }

  /// Size class index for a request (power-of-two rounding).
  static int classIndex(std::size_t size) noexcept;
  static std::size_t classSize(int index) noexcept {
    return std::size_t{kMinBlock} << index;
  }

 private:
  struct FreeNode {
    FreeNode* next;
    std::uint64_t magic;  // kFreeMagic while on the free list
  };

  std::uint32_t locale_id_;
  std::byte* base_;
  std::size_t bytes_;
  std::atomic<std::size_t> bump_{0};
  std::atomic<std::uint64_t> allocated_{0};
  std::atomic<std::uint64_t> freed_{0};

  /// Carve a fresh block off the bump pointer, padding its start up to
  /// `align`.
  void* bumpAllocate(std::size_t block, std::size_t align);

  struct SizeClass {
    std::mutex lock;
    FreeNode* head = nullptr;          // free blocks not kMaxAlign-aligned
    FreeNode* aligned_head = nullptr;  // free blocks aligned to kMaxAlign
  };
  CachePadded<SizeClass> classes_[kNumClasses];
};

}  // namespace pgasnb
