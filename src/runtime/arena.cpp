#include "runtime/arena.hpp"

#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace pgasnb {

Arena::Arena(std::uint32_t locale_id, std::byte* base,
             std::size_t bytes) noexcept
    : locale_id_(locale_id), base_(base), bytes_(bytes) {}

int Arena::classIndex(std::size_t size) noexcept {
  const std::size_t clamped = size < kMinBlock ? kMinBlock : size;
  PGASNB_CHECK_MSG(clamped <= kMaxBlock, "allocation exceeds max block size");
  const auto rounded = std::bit_ceil(clamped);
  return std::countr_zero(rounded) - std::countr_zero(kMinBlock);
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  const bool over_aligned = align > kMinAlign;
  if (over_aligned) {
    PGASNB_CHECK_MSG(std::has_single_bit(align) && align <= kMaxAlign &&
                         align <= size,
                     "unsupported arena alignment");
  }
  const int cls = classIndex(size);
  SizeClass& sc = *classes_[cls];
  {
    std::lock_guard<std::mutex> guard(sc.lock);
    // Over-aligned requests may only take cache-line-aligned blocks; the
    // rest prefer the unaligned list so aligned blocks stay available.
    FreeNode** list = over_aligned || sc.head == nullptr ? &sc.aligned_head
                                                         : &sc.head;
    if (FreeNode* node = *list; node != nullptr) {
      *list = node->next;
      node->magic = 0;  // un-poison; block is live again
      allocated_.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
  }
  void* p = bumpAllocate(classSize(cls), over_aligned ? kMaxAlign : kMinAlign);
  allocated_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* Arena::bumpAllocate(std::size_t block, std::size_t align) {
  std::size_t start;
  if (align == kMinAlign) {
    // Block sizes are multiples of kMinAlign: the bump stays aligned.
    start = bump_.fetch_add(block, std::memory_order_relaxed);
  } else {
    // Skip (and waste) the padding in front of an over-aligned block.
    std::size_t offset = bump_.load(std::memory_order_relaxed);
    do {
      const std::size_t misalign =
          reinterpret_cast<std::uintptr_t>(base_ + offset) % align;
      start = misalign == 0 ? offset : offset + (align - misalign);
    } while (!bump_.compare_exchange_weak(offset, start + block,
                                          std::memory_order_relaxed));
  }
  PGASNB_CHECK_MSG(start + block <= bytes_,
                   "locale arena exhausted; raise arena_bytes_per_locale");
  return base_ + start;
}

void Arena::deallocate(void* ptr, std::size_t size) noexcept {
  PGASNB_CHECK_MSG(contains(ptr), "deallocate: pointer not owned by arena");
  const int cls = classIndex(size);
  auto* node = static_cast<FreeNode*>(ptr);
  // Heuristic double-free detection: a live object is astronomically
  // unlikely to carry the poison magic in its second word.
  PGASNB_CHECK_MSG(node->magic != kFreeMagic, "double free detected");
  // Poison the entire block so use-after-free reads are conspicuous.
  std::memset(ptr, 0xEF, classSize(cls));
  node->magic = kFreeMagic;
  SizeClass& sc = *classes_[cls];
  const bool aligned = reinterpret_cast<std::uintptr_t>(ptr) % kMaxAlign == 0;
  FreeNode*& list = aligned ? sc.aligned_head : sc.head;
  {
    std::lock_guard<std::mutex> guard(sc.lock);
    node->next = list;
    list = node;
  }
  freed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pgasnb
