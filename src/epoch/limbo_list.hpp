// The wait-free limbo list (paper Listing 2) and its node pool.
//
// A limbo list holds logically-removed objects awaiting reclamation for one
// epoch. Its phases are disjoint by construction of EBR: concurrent pushes
// happen while its epoch is within two of the global epoch; the single
// popAll happens during reclamation of an epoch no task can be pinned in.
//
//   push: one atomic exchange of the head, then link the old head
//   pop:  one atomic exchange of the head with nil, taking the whole chain
//
// Hardening vs. the paper: because `node->next` is written *after* the
// exchange publishes the node, a walker could observe a not-yet-linked
// node. The paper relies on phase disjointness; we additionally initialize
// `next` to a sentinel and make the walker spin the (one-store) window out,
// so even a straggler pushing during reclamation cannot lose nodes. See
// docs/ARCHITECTURE.md, "Deviations from the paper".
//
// Nodes are recycled through a lock-free Treiber stack protected by the
// ABA-counter of LocalAtomicObject (paper Sec. II.C). Recycled nodes are
// type-stable: they return to the pool, never to the allocator, until the
// pool itself is destroyed -- which is what makes the optimistic reads of
// the pop safe. The pop takes a whole run's nodes with one CAS
// (acquireChain), and a reclaim walk returns its whole chain with one
// (releaseChain).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "atomic/local_atomic_object.hpp"
#include "util/cache_line.hpp"
#include "util/check.hpp"

namespace pgasnb {

using ObjectDeleter = void (*)(void*);

struct LimboNode {
  void* obj = nullptr;
  ObjectDeleter deleter = nullptr;
  /// Interval-reclamation era tags (epoch/interval_manager.hpp): the era
  /// the object was allocated in and the era its owner inserted the retire
  /// in. A block is freeable once no reservation `[lo, hi]` intersects
  /// `[birth, retire_era]`. Epoch managers leave both 0 (untagged).
  std::uint64_t birth = 0;
  std::uint64_t retire_era = 0;
  std::atomic<LimboNode*> next{nullptr};
  /// Treiber free-stack linkage. Atomic because the pool pop's optimistic
  /// reads of type-stable nodes race with a concurrent release's store; the
  /// ABA CAS supplies the ordering. Released and acquired, so that each hop
  /// of a multi-node pop (acquireChain) is ordered after the stores that
  /// made the node it reaches, however stale the walk.
  std::atomic<LimboNode*> pool_next{nullptr};
};

namespace detail {
/// Sentinel marking a node whose `next` has not been linked yet.
inline LimboNode* unlinkedSentinel() noexcept {
  return reinterpret_cast<LimboNode*>(std::uintptr_t{1});
}
}  // namespace detail

class LimboList {
 public:
  LimboList() = default;
  LimboList(const LimboList&) = delete;
  LimboList& operator=(const LimboList&) = delete;

  /// Wait-free: one exchange plus one store (Listing 2).
  void push(LimboNode* node) noexcept {
    node->next.store(detail::unlinkedSentinel(), std::memory_order_relaxed);
    LimboNode* old_head = head_.exchange(node);
    node->next.store(old_head, std::memory_order_release);
  }

  /// Bulk insert: splice a privately pre-linked chain `first -> ... -> last`
  /// in one exchange (the aggregated-retire entry point). Interior `next`
  /// links must already be set (relaxed stores are fine -- the exchange
  /// publishes them); only `last`'s link follows the push() protocol, so a
  /// concurrent walker resolves the chain exactly like a single push.
  void pushChain(LimboNode* first, LimboNode* last) noexcept {
    last->next.store(detail::unlinkedSentinel(), std::memory_order_relaxed);
    LimboNode* old_head = head_.exchange(first);
    last->next.store(old_head, std::memory_order_release);
  }

  /// Takes the entire chain in one exchange (Listing 2's `pop`).
  /// Traverse with LimboList::next() to resolve in-flight pushes.
  LimboNode* popAll() noexcept { return head_.exchange(nullptr); }

  /// Successor of a popped node; spins out the one-store window of a
  /// concurrent pusher (bounded: the pusher has already performed its
  /// exchange and only the next-store remains).
  static LimboNode* next(const LimboNode* node) noexcept {
    LimboNode* n = node->next.load(std::memory_order_acquire);
    while (n == detail::unlinkedSentinel()) {
      cpuRelax();
      n = node->next.load(std::memory_order_acquire);
    }
    return n;
  }

  bool emptyApprox() const noexcept { return head_.read() == nullptr; }

 private:
  LocalAtomicObject<LimboNode> head_;
};

/// Lock-free node pool: Treiber stack with ABA protection. `Alloc` supplies
/// fresh nodes when the pool runs dry and reclaims them at destruction.
template <typename Alloc>
class LimboNodePool {
 public:
  LimboNodePool() = default;
  LimboNodePool(const LimboNodePool&) = delete;
  LimboNodePool& operator=(const LimboNodePool&) = delete;

  ~LimboNodePool() {
    LimboNode* n = free_.read();
    while (n != nullptr) {
      LimboNode* next = n->pool_next.load(std::memory_order_relaxed);
      Alloc::free(n);
      n = next;
    }
    // Nodes still sitting in limbo lists are returned by the owner's
    // destructor (destroyList) before the pool dies.
  }

  LimboNode* acquire(void* obj, ObjectDeleter deleter) {
    LimboNode* node = acquireChain(1);
    node->obj = obj;
    node->deleter = deleter;
    return node;
  }

  /// Take `n` >= 1 nodes as one chain linked through `next`, payloads
  /// cleared and the last node's `next` null; returns the first node.
  /// Pooled nodes come off the free stack with ONE ABA-protected CAS: walk
  /// up to `n` nodes along `pool_next`, then swing the head past them. An
  /// unchanged {head, count} proves that nothing was pushed or popped since
  /// the head was read, so the walked links were the stack's own; the
  /// walk's reads are safe because pool nodes are type-stable. Fresh nodes
  /// top up a short pool; n == 1 is the plain Treiber pop.
  LimboNode* acquireChain(std::size_t n) {
    PGASNB_DCHECK(n > 0);
    LimboNode* pooled = nullptr;
    std::size_t taken = 0;
    // A lost CAS hands back the current head: no re-read per retry.
    for (ABA<LimboNode> head = free_.readABA(); !head.isNil();) {
      LimboNode* last = head.getObject();
      std::size_t walked = 1;
      for (LimboNode* next;
           walked < n &&
           (next = last->pool_next.load(std::memory_order_acquire)) != nullptr;
           ++walked) {
        last = next;
      }
      if (free_.compareExchangeABA(
              head, last->pool_next.load(std::memory_order_acquire))) {
        pooled = head.getObject();
        taken = walked;
        break;
      }
    }
    LimboNode* first = nullptr;
    LimboNode* tail = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      LimboNode* node = pooled;
      if (i < taken) {
        pooled = node->pool_next.load(std::memory_order_relaxed);
      } else {
        node = Alloc::alloc();
      }
      node->obj = nullptr;
      node->deleter = nullptr;
      node->birth = 0;
      node->retire_era = 0;
      node->next.store(nullptr, std::memory_order_relaxed);
      if (tail == nullptr) {
        first = node;
      } else {
        tail->next.store(node, std::memory_order_relaxed);
      }
      tail = node;
    }
    outstanding_.fetch_add(n - taken, std::memory_order_relaxed);
    return first;
  }

  void release(LimboNode* node) noexcept { releaseChain(node, node); }

  /// Return the chain `first -> ... -> last` (linked through resolved
  /// `next` links, as a walk with LimboList::next leaves a popped chain)
  /// with ONE ABA-protected CAS: link `pool_next` privately, then swing the
  /// head to `first`. The chain is the caller's until that CAS publishes it.
  /// A null `first` is an empty chain.
  void releaseChain(LimboNode* first, LimboNode* last) noexcept {
    if (first == nullptr) return;
    for (LimboNode* n = first;; n = n->next.load(std::memory_order_relaxed)) {
      n->obj = nullptr;
      n->deleter = nullptr;
      if (n == last) break;
      n->pool_next.store(n->next.load(std::memory_order_relaxed),
                         std::memory_order_release);
    }
    ABA<LimboNode> head = free_.readABA();
    do {
      last->pool_next.store(head.getObject(), std::memory_order_release);
    } while (!free_.compareExchangeABA(head, first));
  }

  /// Teardown: pop `list` and return its nodes directly to the allocator.
  /// Their payloads are the owning domain's business: destroy()'s clear()
  /// reclaimed them, and a domain never destroyed leaks them (exactly like
  /// forgetting `delete` on an unmanaged class).
  void destroyList(LimboList& list) noexcept {
    LimboNode* node = list.popAll();
    while (node != nullptr) {
      LimboNode* next = LimboList::next(node);
      Alloc::free(node);
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      node = next;
    }
  }

  std::uint64_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  LocalAtomicObject<LimboNode, /*WithAba=*/true> free_;
  std::atomic<std::uint64_t> outstanding_{0};
};

}  // namespace pgasnb
