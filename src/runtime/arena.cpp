#include "runtime/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace pgasnb {

namespace {

// Thread-cache shape. A bin holds up to kCacheCap blocks and moves
// kCacheBatch at a time to or from its class's shared list; a run carves
// up to kRunBlocks blocks, at most kRunBytes, off the bump pointer.
constexpr std::uint32_t kCacheCap = 32;
constexpr std::uint32_t kCacheBatch = 16;
constexpr std::size_t kRunBlocks = 16;
constexpr std::size_t kRunBytes = 4096;
constexpr int kCachedClasses =
    std::countr_zero(Arena::kCacheBypassBytes / Arena::kMinBlock);

std::atomic<std::uint64_t> g_next_uid{1};
/// Every arena whose uid is at most this has been destroyed. Uids only
/// grow, so a larger uid names a live arena: a thread-cache entry keyed by
/// a uid at or below it is dropped without touching its blocks. (Arenas
/// die in runtime teardown, all of one runtime's at once.)
std::atomic<std::uint64_t> g_dead_uid{0};

constexpr std::uint64_t cacheKey(std::uint64_t uid, int cls) {
  return uid << 8 | static_cast<std::uint64_t>(cls);
}

}  // namespace

thread_local Arena::CacheSlot Arena::t_cache_[kCacheSlots];

Arena::Arena(std::uint32_t locale_id, std::byte* base,
             std::size_t bytes) noexcept
    : locale_id_(locale_id),
      uid_(g_next_uid.fetch_add(1, std::memory_order_relaxed)),
      base_(base),
      bytes_(bytes) {}

Arena::~Arena() {
  std::uint64_t dead = g_dead_uid.load(std::memory_order_relaxed);
  while (dead < uid_ &&
         !g_dead_uid.compare_exchange_weak(dead, uid_,
                                           std::memory_order_release)) {
  }
}

int Arena::classIndex(std::size_t size) noexcept {
  const std::size_t clamped = size < kMinBlock ? kMinBlock : size;
  PGASNB_CHECK_MSG(clamped <= kMaxBlock, "allocation exceeds max block size");
  const auto rounded = std::bit_ceil(clamped);
  return std::countr_zero(rounded) - std::countr_zero(kMinBlock);
}

std::uint64_t Arena::liveBlocks() const noexcept {
  std::uint64_t live = 0;
  for (const CountShard& s : counts_) {
    live += s.allocated.load(std::memory_order_relaxed) -
            s.freed.load(std::memory_order_relaxed);
  }
  return live;
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  const bool over_aligned = align > kMinAlign;
  if (over_aligned) {
    PGASNB_CHECK_MSG(std::has_single_bit(align) && align <= kMaxAlign &&
                         align <= size,
                     "unsupported arena alignment");
  }
  const int cls = classIndex(size);
  void* p = cls < kCachedClasses ? allocateCached(cls, over_aligned)
                                 : allocateShared(cls, over_aligned);
  countShard().allocated.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* Arena::allocateShared(int cls, bool over_aligned) {
  SizeClass& sc = *classes_[cls];
  {
    std::lock_guard<std::mutex> guard(sc.lock);
    // Over-aligned requests may only take cache-line-aligned blocks; the
    // rest prefer the unaligned list so aligned blocks stay available.
    FreeList& list = over_aligned || sc.lists[0].head == nullptr
                         ? sc.lists[1]
                         : sc.lists[0];
    if (FreeNode* node = list.head; node != nullptr) {
      list.head = node->next;
      list.size.fetch_sub(1, std::memory_order_relaxed);
      node->magic = 0;  // un-poison; block is live again
      return node;
    }
  }
  return bumpAllocate(classSize(cls), over_aligned ? kMaxAlign : kMinAlign);
}

void* Arena::allocateCached(int cls, bool over_aligned) {
  CacheSlot& slot = cacheSlot(cls);
  // The shared path's preference, bin by bin: an over-aligned request
  // takes only aligned blocks, any other prefers the unaligned ones.
  for (int aligned = over_aligned ? 1 : 0; aligned < 2; ++aligned) {
    CacheBin& bin = slot.bins[aligned];
    if (bin.head != nullptr || refill(bin, cls, aligned == 1)) {
      FreeNode* node = bin.head;
      bin.head = node->next;
      --bin.count;
      node->magic = 0;  // un-poison; block is live again
      return node;
    }
  }
  // Nothing free anywhere: carve from this thread's run.
  CacheBin& bin = slot.bins[over_aligned];
  const std::size_t block = classSize(cls);
  if (bin.run_left == 0) {
    const std::size_t n = std::min(kRunBlocks, kRunBytes / block);
    bin.run = bumpAllocate(n * block, over_aligned ? kMaxAlign : kMinAlign);
    bin.run_left = static_cast<std::uint32_t>(n);
  }
  void* p = bin.run;
  bin.run += block;
  --bin.run_left;
  return p;
}

std::byte* Arena::bumpAllocate(std::size_t bytes, std::size_t align) {
  std::size_t start;
  if (align == kMinAlign) {
    // Block sizes are multiples of kMinAlign: the bump stays aligned.
    start = bump_.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    // Skip (and waste) the padding in front of an over-aligned block.
    std::size_t offset = bump_.load(std::memory_order_relaxed);
    do {
      const std::size_t misalign =
          reinterpret_cast<std::uintptr_t>(base_ + offset) % align;
      start = misalign == 0 ? offset : offset + (align - misalign);
    } while (!bump_.compare_exchange_weak(offset, start + bytes,
                                          std::memory_order_relaxed));
  }
  PGASNB_CHECK_MSG(start + bytes <= bytes_,
                   "locale arena exhausted; raise arena_bytes_per_locale");
  return base_ + start;
}

bool Arena::refill(CacheBin& bin, int cls, bool aligned) {
  FreeList& list = classes_[cls]->lists[aligned];
  if (list.size.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> guard(classes_[cls]->lock);
  FreeNode* first = list.head;
  if (first == nullptr) return false;
  FreeNode* last = first;
  std::uint32_t n = 1;
  for (; n < kCacheBatch && last->next != nullptr; ++n) last = last->next;
  list.head = last->next;
  list.size.fetch_sub(n, std::memory_order_relaxed);
  last->next = bin.head;  // the bin is empty here
  bin.head = first;
  bin.count += n;
  return true;
}

void Arena::pushShared(int cls, bool aligned, FreeNode* first, FreeNode* last,
                       std::size_t n) noexcept {
  SizeClass& sc = *classes_[cls];
  std::lock_guard<std::mutex> guard(sc.lock);
  FreeList& list = sc.lists[aligned];
  last->next = list.head;
  list.head = first;
  list.size.fetch_add(n, std::memory_order_relaxed);
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
  const bool aligned = reinterpret_cast<std::uintptr_t>(ptr) % kMaxAlign == 0;
  if (cls < kCachedClasses) {
    CacheBin& bin = cacheSlot(cls).bins[aligned];
    if (bin.count == kCacheCap) {
      // Spill the top batch: one walk of a batch finds its tail.
      FreeNode* first = bin.head;
      FreeNode* last = first;
      for (std::uint32_t i = 1; i < kCacheBatch; ++i) last = last->next;
      bin.head = last->next;
      bin.count -= kCacheBatch;
      pushShared(cls, aligned, first, last, kCacheBatch);
    }
    node->next = bin.head;
    bin.head = node;
    ++bin.count;
  } else {
    pushShared(cls, aligned, node, node, 1);
  }
  countShard().freed.fetch_add(1, std::memory_order_relaxed);
}

Arena::CacheSlot& Arena::cacheSlot(int cls) noexcept {
  const std::uint64_t key = cacheKey(uid_, cls);
  // Consecutive arenas (one runtime's locales) land a class on
  // consecutive-by-3 slots, so they rarely evict each other.
  CacheSlot& slot = t_cache_[(uid_ * 3 + static_cast<std::uint64_t>(cls)) %
                             kCacheSlots];
  if (slot.key != key) [[unlikely]] {
    if (slot.key != 0 &&
        (slot.key >> 8) > g_dead_uid.load(std::memory_order_acquire)) {
      slot.arena->flush(slot);
    }
    slot = CacheSlot{};
    slot.key = key;
    slot.arena = this;
  }
  return slot;
}

void Arena::flush(CacheSlot& slot) noexcept {
  const int cls = static_cast<int>(slot.key & 0xff);
  const std::size_t block = classSize(cls);
  // Sort every block by its own alignment: below a cache line, a run's
  // blocks alternate. A run's unused blocks were never handed out, so they
  // join as they are (no counter moves).
  FreeNode* heads[2] = {nullptr, nullptr};
  FreeNode* tails[2] = {nullptr, nullptr};
  std::size_t counts[2] = {0, 0};
  const auto take = [&](FreeNode* node) {
    const bool a = reinterpret_cast<std::uintptr_t>(node) % kMaxAlign == 0;
    node->next = heads[a];
    heads[a] = node;
    if (tails[a] == nullptr) tails[a] = node;
    ++counts[a];
  };
  for (CacheBin& bin : slot.bins) {
    for (FreeNode* node = bin.head; node != nullptr;) {
      FreeNode* next = node->next;
      take(node);
      node = next;
    }
    for (; bin.run_left != 0; --bin.run_left, bin.run += block) {
      auto* node = reinterpret_cast<FreeNode*>(bin.run);
      node->magic = kFreeMagic;
      take(node);
    }
  }
  for (const bool a : {false, true}) {
    if (counts[a] != 0) pushShared(cls, a, heads[a], tails[a], counts[a]);
  }
}

}  // namespace pgasnb
