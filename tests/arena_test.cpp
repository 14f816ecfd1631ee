// Per-locale arena allocator: size classes, recycling, poisoning, ownership.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

TEST(ArenaSizeClasses, RoundsToPowersOfTwo) {
  EXPECT_EQ(Arena::classIndex(1), 0);
  EXPECT_EQ(Arena::classIndex(16), 0);
  EXPECT_EQ(Arena::classIndex(17), 1);
  EXPECT_EQ(Arena::classIndex(32), 1);
  EXPECT_EQ(Arena::classIndex(33), 2);
  EXPECT_EQ(Arena::classIndex(1 << 20), Arena::kNumClasses - 1);
}

TEST(ArenaSizeClasses, ClassSizeInvertsIndex) {
  for (int c = 0; c < Arena::kNumClasses; ++c) {
    EXPECT_EQ(Arena::classIndex(Arena::classSize(c)), c);
  }
}

TEST(ArenaSizeClasses, OversizeAborts) {
  EXPECT_DEATH((void)Arena::classIndex((1 << 20) + 1), "max block");
}

class ArenaTest : public RuntimeTest {};

TEST_F(ArenaTest, AllocateGivesWritableMemory) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* p = arena.allocate(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 64);
  EXPECT_TRUE(arena.contains(p));
  arena.deallocate(p, 64);
}

TEST_F(ArenaTest, FreeListRecyclesSameBlock) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* a = arena.allocate(48);
  arena.deallocate(a, 48);
  void* b = arena.allocate(48);  // same size class -> same block back
  EXPECT_EQ(a, b);
  arena.deallocate(b, 48);
}

TEST_F(ArenaTest, DifferentClassesDoNotAlias) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* a = arena.allocate(16);
  void* b = arena.allocate(256);
  EXPECT_NE(a, b);
  arena.deallocate(a, 16);
  arena.deallocate(b, 256);
  void* c = arena.allocate(200);  // class of 256
  EXPECT_EQ(c, b);
  arena.deallocate(c, 200);
}

TEST_F(ArenaTest, PoisonsFreedMemory) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  auto* p = static_cast<unsigned char*>(arena.allocate(64));
  std::memset(p, 0, 64);
  arena.deallocate(p, 64);
  // Bytes beyond the free-list header must carry the poison pattern.
  for (int i = 16; i < 64; ++i) {
    ASSERT_EQ(p[i], 0xEF) << "offset " << i;
  }
}

TEST_F(ArenaTest, DoubleFreeDetected) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* p = arena.allocate(64);
  arena.deallocate(p, 64);
  EXPECT_DEATH(arena.deallocate(p, 64), "double free");
}

TEST_F(ArenaTest, ForeignPointerRejected) {
  startRuntime(2);
  Arena& arena0 = runtime_->locale(0).arena();
  Arena& arena1 = runtime_->locale(1).arena();
  void* p = arena0.allocate(64);
  EXPECT_DEATH(arena1.deallocate(p, 64), "not owned");
  arena0.deallocate(p, 64);
}

TEST_F(ArenaTest, StatsTrackLiveBlocks) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  const auto live0 = arena.liveBlocks();
  void* a = arena.allocate(32);
  void* b = arena.allocate(32);
  EXPECT_EQ(arena.liveBlocks(), live0 + 2);
  arena.deallocate(a, 32);
  EXPECT_EQ(arena.liveBlocks(), live0 + 1);
  arena.deallocate(b, 32);
  EXPECT_EQ(arena.liveBlocks(), live0);
}

TEST_F(ArenaTest, ManyAllocationsAreDistinct) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.allocate(24);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block while live";
    blocks.push_back(p);
  }
  for (void* p : blocks) arena.deallocate(p, 24);
}

TEST_F(ArenaTest, OverAlignedObjectsStayAlignedThroughRecycling) {
  // Token and CachePadded<T> are alignas(64); the arena only guarantees 16
  // by default. Interleave them with 16-aligned allocations of every small
  // size so the bump pointer sits at every 16-byte phase, and free and
  // reallocate so recycled blocks are checked too.
  startRuntime(1);
  using Padded = CachePadded<std::uint64_t>;
  static_assert(alignof(Token) == 64 && alignof(Padded) == 64);
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
  };
  const auto keep_odd = [](auto& v) {
    std::size_t w = 0;
    for (std::size_t k = 1; k < v.size(); k += 2) v[w++] = v[k];
    v.resize(w);
  };
  Arena& arena = runtime_->locale(0).arena();
  std::vector<Token*> tokens;
  std::vector<Padded*> padded;
  std::vector<std::pair<void*, std::size_t>> plain;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) {
      const std::size_t bytes = 16 * (1 + i % 8);  // 16..128: every phase
      plain.emplace_back(arena.allocate(bytes), bytes);
      tokens.push_back(gnew<Token>());
      padded.push_back(gnew<Padded>(std::uint64_t(i)));
      ASSERT_TRUE(aligned(tokens.back())) << "round " << round << " i " << i;
      ASSERT_TRUE(aligned(padded.back())) << "round " << round << " i " << i;
    }
    // Free every other object of each kind (mixed sizes on the free
    // lists), then the next round reallocates out of them.
    for (std::size_t k = 0; k < tokens.size(); k += 2) {
      gdelete(tokens[k]);
      gdelete(padded[k]);
      arena.deallocate(plain[k].first, plain[k].second);
    }
    keep_odd(tokens);
    keep_odd(padded);
    keep_odd(plain);
  }
  for (Token* t : tokens) gdelete(t);
  for (Padded* p : padded) gdelete(p);
  for (auto [p, bytes] : plain) arena.deallocate(p, bytes);
}

TEST_F(ArenaTest, OverAlignedRequestReusesItsFreedBlock) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* pad = arena.allocate(16);  // knock the bump off cache-line phase
  void* a = arena.allocate(64, 64);
  arena.deallocate(a, 64);
  void* b = arena.allocate(64, 64);
  EXPECT_EQ(a, b) << "an aligned free block is recycled, not re-bumped";
  arena.deallocate(b, 64);
  arena.deallocate(pad, 16);
}

TEST_F(ArenaTest, ConcurrentAllocFreeIsSafe) {
  startRuntime(1, CommMode::none, 4);
  Arena& arena = runtime_->locale(0).arena();
  const auto live0 = arena.liveBlocks();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena] {
      std::vector<void*> mine;
      for (int i = 0; i < kIters; ++i) {
        mine.push_back(arena.allocate(40));
        if (mine.size() > 16) {
          arena.deallocate(mine.back(), 40);
          mine.pop_back();
          arena.deallocate(mine.front(), 40);
          mine.erase(mine.begin());
        }
      }
      for (void* p : mine) arena.deallocate(p, 40);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.liveBlocks(), live0);
}

// --- per-thread cache ---------------------------------------------------

/// Runs `fn` on a thread of its own and joins it.
template <typename Fn>
void onNewThread(Fn fn) {
  std::thread(fn).join();
}

TEST_F(ArenaTest, FreedBlockReturnsToItsThreadWhileAnotherAllocates) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  std::atomic<int> phase{0};
  void* freed = nullptr;
  void* again = nullptr;
  std::set<void*> others;
  std::thread a([&] {
    freed = arena.allocate(64);
    arena.deallocate(freed, 64);
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
    again = arena.allocate(64);
  });
  std::thread b([&] {
    while (phase.load() != 1) std::this_thread::yield();
    for (int i = 0; i < 100; ++i) others.insert(arena.allocate(64));
    phase.store(2);
  });
  a.join();
  b.join();
  EXPECT_EQ(again, freed) << "a thread gets its own freed block back";
  EXPECT_EQ(others.count(freed), 0u) << "another thread allocates elsewhere";
  EXPECT_EQ(others.size(), 100u);
  arena.deallocate(again, 64);
  for (void* p : others) arena.deallocate(p, 64);
}

TEST_F(ArenaTest, CacheFromAnEarlierRuntimeIsNeverHandedOut) {
  // This thread caches blocks of every cached class of the first runtime's
  // arena (a freed one and the rest of a carved run each). The next
  // runtime's arena -- often mapped at the very same address -- evicts
  // some of those cache entries and must hand out none of their blocks:
  // each would be a block outside it or one it also bumps fresh.
  std::vector<std::size_t> sizes;
  for (std::size_t b = Arena::kMinBlock; b < Arena::kCacheBypassBytes; b *= 2) {
    sizes.push_back(b);
  }
  startRuntime(1);
  Arena& first = runtime_->locale(0).arena();
  for (const std::size_t b : sizes) first.deallocate(first.allocate(b), b);
  runtime_.reset();

  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  const auto live0 = arena.liveBlocks();
  std::set<void*> seen;
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (const std::size_t b : sizes) {
    for (int i = 0; i < 32; ++i) {  // past every offset the first one used
      void* p = arena.allocate(b);
      ASSERT_TRUE(arena.contains(p)) << b << "-byte block " << i;
      ASSERT_TRUE(seen.insert(p).second)
          << b << "-byte block " << i << " handed out twice";
      blocks.emplace_back(p, b);
    }
  }
  EXPECT_EQ(arena.liveBlocks(), live0 + blocks.size());
  for (auto [p, b] : blocks) arena.deallocate(p, b);
  EXPECT_EQ(arena.liveBlocks(), live0);
}

TEST_F(ArenaTest, LiveBlocksExactAcrossSpillAndRefill) {
  // One thread frees far more than its cache holds (spilling batches to
  // the shared list); another allocates them back (refilling from it).
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  constexpr int kBlocks = 200;
  const auto live0 = arena.liveBlocks();
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) blocks.push_back(arena.allocate(48));
  EXPECT_EQ(arena.liveBlocks(), live0 + kBlocks);
  onNewThread([&] {
    for (void* p : blocks) arena.deallocate(p, 48);
  });
  EXPECT_EQ(arena.liveBlocks(), live0);
  std::vector<void*> reused;
  onNewThread([&] {
    for (int i = 0; i < kBlocks; ++i) reused.push_back(arena.allocate(48));
  });
  EXPECT_EQ(arena.liveBlocks(), live0 + kBlocks);
  const std::set<void*> spilled(blocks.begin(), blocks.end());
  int recycled = 0;
  for (void* p : reused) recycled += static_cast<int>(spilled.count(p));
  EXPECT_GE(recycled, kBlocks / 2) << "the spilled batches were refilled";
  onNewThread([&] {
    for (void* p : reused) arena.deallocate(p, 48);
  });
  EXPECT_EQ(arena.liveBlocks(), live0);
}

TEST_F(ArenaTest, LargeClassesBypassTheCache) {
  // A freed large block goes straight to the shared list, so any thread
  // gets it next; a small one stays in its freeing thread's cache.
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  const std::size_t large = Arena::kCacheBypassBytes;
  void* big = nullptr;
  void* small = nullptr;
  onNewThread([&] {
    big = arena.allocate(large);
    small = arena.allocate(64);
    arena.deallocate(big, large);
    arena.deallocate(small, 64);
  });
  void* big_again = arena.allocate(large);
  void* small_other = arena.allocate(64);
  EXPECT_EQ(big_again, big);
  EXPECT_NE(small_other, small);
  arena.deallocate(big_again, large);
  arena.deallocate(small_other, 64);
}

}  // namespace
}  // namespace pgasnb
