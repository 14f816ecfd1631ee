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
// on this (see tests/epoch_safety_test.cpp). Every free checks the owner
// and the double-free magic, whichever path the block then takes.
//
// Classes below kCacheBypassBytes go through a per-thread cache first, so
// a steady alloc/free mix touches no shared word: a free pushes the block
// onto the calling thread's LIFO bin for (arena, class, alignment), and an
// allocation pops it. A full bin spills one batch to the class's shared
// list under its lock; an empty bin refills one batch from that list when
// its atomic count says it is non-empty, and otherwise carves a short run
// of blocks off the bump pointer with one fetch_add. Larger classes (the
// Robin Hood tables' slot arrays) take the shared list directly.
//
// Blocks are 16-byte aligned. Over-aligned requests (up to a cache line)
// pad the bump pointer to a cache line, and every size class keeps its
// cache-line-aligned free blocks on a separate list (and thread bin), so a
// recycled block still satisfies the request it is handed to. Requests at
// the default alignment prefer unaligned blocks and pay no padding.
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
  /// Blocks of this size and up bypass the per-thread cache.
  static constexpr std::size_t kCacheBypassBytes = 4096;

  Arena(std::uint32_t locale_id, std::byte* base, std::size_t bytes) noexcept;
  /// Blocks still cached by threads are dropped, never touched: a thread
  /// that meets this arena's entry later discards it by uid.
  ~Arena();

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

  // --- statistics (approximate under concurrency, exact when quiescent;
  // a block in a thread's cache counts as freed) ---
  std::uint64_t liveBlocks() const noexcept;
  /// Bytes carved off the bump pointer, including blocks a thread's cache
  /// has carved but not handed out yet.
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
    std::uint64_t magic;  // kFreeMagic while free (shared list or cache)
  };

  /// A class's shared free list. `size` is read without the lock, so an
  /// empty list costs a thread-cache refill no lock.
  struct FreeList {
    FreeNode* head = nullptr;
    std::atomic<std::size_t> size{0};
  };

  struct SizeClass {
    std::mutex lock;
    FreeList lists[2];  // [1]: blocks aligned to kMaxAlign, [0]: the rest
  };

  struct alignas(kCacheLineSize) CountShard {
    std::atomic<std::uint64_t> allocated{0};
    std::atomic<std::uint64_t> freed{0};
  };

  /// One thread's free blocks of one (arena, class, alignment), plus the
  /// unused tail of the run it last carved off the bump pointer.
  struct CacheBin {
    FreeNode* head = nullptr;
    std::byte* run = nullptr;
    std::uint32_t count = 0;
    std::uint32_t run_left = 0;
  };

  /// Direct-mapped thread-cache entry for (arena uid, class): one cache
  /// line, bins indexed like SizeClass::lists. `key` 0 is an empty slot.
  struct CacheSlot {
    std::uint64_t key = 0;  // uid << 8 | class
    Arena* arena = nullptr;
    CacheBin bins[2];
  };
  static constexpr std::size_t kCacheSlots = 16;

  /// Carve a fresh run off the bump pointer, padding its start up to
  /// `align`.
  std::byte* bumpAllocate(std::size_t bytes, std::size_t align);
  void* allocateShared(int cls, bool over_aligned);
  void* allocateCached(int cls, bool over_aligned);
  /// Move up to one batch from the shared list `aligned` into `bin`.
  bool refill(CacheBin& bin, int cls, bool aligned);
  /// Hand the chain `first..last` (`n` blocks) to the shared list.
  void pushShared(int cls, bool aligned, FreeNode* first, FreeNode* last,
                  std::size_t n) noexcept;
  /// The calling thread's cache slot for (this arena, `cls`), claimed (and
  /// its previous entry flushed or dropped) on a miss.
  CacheSlot& cacheSlot(int cls) noexcept;
  /// Return every block of a slot this arena owns to the shared lists.
  void flush(CacheSlot& slot) noexcept;
  CountShard& countShard() noexcept { return counts_[threadShard()]; }

  std::uint32_t locale_id_;
  std::uint64_t uid_;  // process-unique; keys thread-cache entries
  std::byte* base_;
  std::size_t bytes_;
  alignas(kCacheLineSize) std::atomic<std::size_t> bump_{0};
  CountShard counts_[kThreadShards];
  CachePadded<SizeClass> classes_[kNumClasses];

  static thread_local CacheSlot t_cache_[kCacheSlots];
};

}  // namespace pgasnb
