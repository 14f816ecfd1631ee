// Tokens: per-task epoch descriptors (paper Sec. II.C).
//
// A task's guard (epoch/domain.hpp) is its registration: it holds a token
// from its domain's pool before touching protected data; pinning enters the
// current epoch, unpinning leaves it. Two token lists are kept per locale:
//   * a free list (lock-free, ABA-protected Treiber stack) used by
//     register/unregister, and
//   * an append-only allocated list, which the epoch-advance scan walks.
// A token on the free list stays on the allocated list; its epoch is 0
// (quiescent) so the scan skips it -- matching the paper's design.
#pragma once

#include <atomic>
#include <cstdint>

#include "atomic/local_atomic_object.hpp"
#include "util/cache_line.hpp"
#include "util/check.hpp"

namespace pgasnb {

/// Epoch values are 1..kNumEpochs; 0 means "not in any epoch" (quiescent).
///
/// SAFETY NOTE (deviation from the paper -- see DESIGN.md "Hardening").
/// The paper maintains *three* limbo lists and retires an object into the
/// list of the *token's pinned epoch*. Because a pinned token's epoch can
/// lag the global epoch by one (it pinned before an advance, or read a
/// stale locale cache), an object can be removed while the global epoch is
/// L+1 yet retired to list L. Freeing list L at the advance to L+2 only
/// requires every pinned token to be in {quiescent, L+1} -- so a reader
/// pinned in L+1 that obtained a reference *before* the removal can still
/// hold it when the object is freed: a use-after-free window. Fraser's
/// original EBR avoids this by retiring to a fresh read of the *global*
/// epoch, but a fresh global read per retire is exactly the communication
/// the paper's locale-cached design exists to avoid.
///
/// We therefore keep the paper's cheap retire-to-token-epoch rule and add
/// ONE extra grace period: four limbo lists, freeing list L at the advance
/// to L+3. Holders of a reference removed at global g are pinned in
/// {g-1, g} (subset of {L, L+1} since L >= g-1), and the advance to L+3
/// requires all pinned tokens in {0, L+2} -- both holder classes are gone.
/// A bonus: pushes into a list and its popAll can then never overlap, so
/// the wait-free limbo list's phases are disjoint by construction, exactly
/// as Listing 2 assumes.
inline constexpr std::uint64_t kEpochQuiescent = 0;
inline constexpr std::uint64_t kNumEpochs = 4;

/// Next epoch in the 1 -> 2 -> ... -> kNumEpochs -> 1 cycle (the paper's
/// Listing 4 line 24 writes `(e % 3) + 1`; ours is `(e % 4) + 1`).
inline constexpr std::uint64_t nextEpoch(std::uint64_t e) noexcept {
  return e % kNumEpochs + 1;
}

/// Limbo-list index a task pinned in epoch `e` defers into.
inline constexpr std::uint32_t limboIndexFor(std::uint64_t e) noexcept {
  return static_cast<std::uint32_t>(e - 1);
}

/// Limbo-list index that is safe to reclaim right after advancing the
/// global epoch to `new_epoch`: the list that is now kNumEpochs-1 = 3
/// epochs old (equivalently: the one `new_epoch + 1` will reuse next).
inline constexpr std::uint32_t reclaimIndexFor(std::uint64_t new_epoch) noexcept {
  return static_cast<std::uint32_t>(new_epoch % kNumEpochs);
}

struct alignas(kCacheLineSize) Token {
  /// The epoch this task is pinned in (0 = quiescent). Written by the owner
  /// task, read by the advance scan running on the same locale, so plain
  /// processor atomics suffice ("opted out" of network atomics).
  ///
  /// Under the interval manager (epoch/interval_manager.hpp) this same
  /// field is the reservation's *lower* bound `lo` (the era at pin time);
  /// `interval_upper` below is the matching `hi`. Quiescent is still 0.
  std::atomic<std::uint64_t> local_epoch{kEpochQuiescent};

  /// Reservation upper bound `hi` for the interval manager: widened by
  /// `Guard::protect()` as the era advances during a pinned traversal.
  /// Epoch managers leave it quiescent.
  std::atomic<std::uint64_t> interval_upper{kEpochQuiescent};

  Token* next_allocated = nullptr;  ///< append-only allocated-list link
  /// Free-stack link. Atomic because pop's optimistic read (tokens are
  /// type-stable) races with a concurrent pusher's store; relaxed is
  /// enough -- the ABA CAS provides the ordering, this just keeps the
  /// race defined.
  std::atomic<Token*> next_free{nullptr};

  bool pinned() const noexcept {
    return local_epoch.load(std::memory_order_relaxed) != kEpochQuiescent;
  }
};

/// Per-locale token storage. `Alloc` provides Token allocation (arena for
/// the distributed manager, heap for the local one).
template <typename Alloc>
class TokenPool {
 public:
  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;

  ~TokenPool() {
    // All tokens live on the allocated list (supersets the free list).
    Token* t = allocated_.read();
    while (t != nullptr) {
      Token* next = t->next_allocated;
      Alloc::free(t);
      t = next;
    }
  }

  /// Register: reuse a free token or mint one (lock-free).
  Token* acquire() {
    ABA<Token> head = free_.readABA();
    while (!head.isNil()) {
      // Safe optimistic read: tokens are type-stable.
      Token* next =
          head.getObject()->next_free.load(std::memory_order_relaxed);
      if (free_.compareAndSwapABA(head, next)) {
        PGASNB_DCHECK(!head.getObject()->pinned());
        return head.getObject();
      }
      head = free_.readABA();
    }
    Token* token = Alloc::alloc();
    pushAllocated(token);
    return token;
  }

  /// Unregister: quiesce and return to the free stack.
  void release(Token* token) noexcept {
    token->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
    token->interval_upper.store(kEpochQuiescent, std::memory_order_seq_cst);
    while (true) {
      ABA<Token> head = free_.readABA();
      token->next_free.store(head.getObject(), std::memory_order_relaxed);
      if (free_.compareAndSwapABA(head, token)) return;
    }
  }

  /// Head of the append-only allocated list (scan entry point).
  Token* allocatedHead() const noexcept { return allocated_.read(); }

  std::uint64_t allocatedCount() const noexcept {
    return allocated_count_.load(std::memory_order_relaxed);
  }

 private:
  void pushAllocated(Token* token) noexcept {
    while (true) {
      Token* head = allocated_.read();
      token->next_allocated = head;
      if (allocated_.compareAndSwap(head, token)) break;
    }
    allocated_count_.fetch_add(1, std::memory_order_relaxed);
  }

  LocalAtomicObject<Token, /*WithAba=*/true> free_;
  LocalAtomicObject<Token> allocated_;  // insert-only: plain CAS is ABA-safe
  std::atomic<std::uint64_t> allocated_count_{0};
};

}  // namespace pgasnb
