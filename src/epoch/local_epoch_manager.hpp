// LocalEpochManager: the shared-memory-optimized variant (paper Sec. II.C).
//
// Functions like the EpochManager but has no global epoch and takes no
// remote objects into consideration, "speeding up computations that do not
// require epoch-based reclamation support across multiple locales."
//
// Deliberately runtime-free: this type works in any multithreaded C++
// program (tokens and limbo nodes come from the heap, deferred objects are
// deleted with their registered deleter on the reclaiming thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "epoch/limbo_list.hpp"
#include "epoch/reclaim_stats.hpp"
#include "epoch/token.hpp"

namespace pgasnb {

class LocalEpochManager;

/// RAII token for the local manager; unregisters at scope exit.
class LocalEpochToken {
 public:
  LocalEpochToken() = default;
  LocalEpochToken(LocalEpochToken&& other) noexcept { *this = std::move(other); }
  LocalEpochToken& operator=(LocalEpochToken&& other) noexcept;
  LocalEpochToken(const LocalEpochToken&) = delete;
  LocalEpochToken& operator=(const LocalEpochToken&) = delete;
  ~LocalEpochToken() { reset(); }

  bool valid() const noexcept { return token_ != nullptr; }

  void pin();
  void unpin() noexcept;
  /// An invalid (default-constructed or moved-from) token is quiescent.
  bool pinned() const noexcept { return token_ != nullptr && token_->pinned(); }
  std::uint64_t epoch() const noexcept {
    return token_ == nullptr
               ? kEpochQuiescent
               : token_->local_epoch.load(std::memory_order_relaxed);
  }

  /// Defer `delete obj` until two epoch advances prove quiescence.
  template <typename T>
  void deferDelete(T* obj) {
    deferDeleteRaw(obj, [](void* p) { delete static_cast<T*>(p); });
  }
  void deferDeleteRaw(void* obj, ObjectDeleter deleter);

  /// Shared-memory retires are never buffered; parity with EpochToken so
  /// the guard surface is domain-generic.
  void flush() noexcept {}

  /// Protected read: under EBR a pinned token already protects every load
  /// (nothing retired since the pin can be freed while it stays pinned), so
  /// this is a pass-through. Exists so domain-generic traversals can spell
  /// `guard.protect([...]{ return load(); })` and get interval-domain
  /// reservation widening for free.
  template <typename F>
  auto protect(F&& load) {
    return std::forward<F>(load)();
  }

  bool tryReclaim();
  void reset();

 private:
  friend class LocalEpochManager;
  LocalEpochToken(LocalEpochManager* manager, Token* token)
      : manager_(manager), token_(token) {}

  LocalEpochManager* manager_ = nullptr;
  Token* token_ = nullptr;
};

class LocalEpochManager {
 public:
  LocalEpochManager() = default;
  ~LocalEpochManager() { clear(); }

  LocalEpochManager(const LocalEpochManager&) = delete;
  LocalEpochManager& operator=(const LocalEpochManager&) = delete;

  /// Low-level entry used by LocalDomain::pin()/attach() -- application
  /// code should program against Guards (epoch/domain.hpp).
  LocalEpochToken acquireToken() { return {this, tokens_.acquire()}; }

  /// Advance the epoch and reclaim the list two epochs behind, if every
  /// registered token is quiescent or in the current epoch. Non-blocking:
  /// losers of the one-flag election return immediately.
  bool tryReclaim();

  /// Reclaim everything; caller guarantees no concurrent use.
  void clear();

  std::uint64_t currentEpoch() const noexcept {
    return epoch_.load(std::memory_order_seq_cst);
  }

  ReclaimStats stats() const;
  /// Zero every statistic (including the max_pending high-water mark).
  /// Counters only -- limbo lists and tokens are untouched. Call at a
  /// quiescent point (typically right after clear()); resetting while
  /// retires are pending would skew pending() deltas.
  void resetStats();

 private:
  friend class LocalEpochToken;

  struct HeapLimboNodeAlloc {
    static LimboNode* alloc() { return new LimboNode; }
    static void free(LimboNode* n) { delete n; }
  };
  struct HeapTokenAlloc {
    static Token* alloc() { return new Token; }
    static void free(Token* t) { delete t; }
  };

  void pin(Token* token) noexcept;
  void deferDelete(Token* token, void* obj, ObjectDeleter deleter);
  std::uint64_t reclaimList(std::uint32_t index);

  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> is_setting_epoch_{0};
  LimboList limbo_[kNumEpochs];
  LimboNodePool<HeapLimboNodeAlloc> node_pool_;
  TokenPool<HeapTokenAlloc> tokens_;

  std::atomic<std::uint64_t> deferred_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> elections_lost_{0};
  std::atomic<std::uint64_t> scans_unsafe_{0};
  std::atomic<std::uint64_t> max_pending_{0};
};

}  // namespace pgasnb
