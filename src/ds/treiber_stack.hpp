// Lock-free stacks (paper Listing 1).
//
// Two variants:
//  * LockFreeStack<T>       - Treiber stack with ABA-protected head and node
//    recycling through an ABA-protected free list; nodes are type-stable
//    (never returned to the allocator until destruction). This is the shape
//    the paper's Listing 1 sketches, and the node-recycling strategy its
//    limbo lists use. Runtime-free and domain-free.
//  * EbrStack<T, Domain>    - Treiber stack whose popped nodes are reclaimed
//    through a reclaim domain instead of a free list: the canonical
//    "EBR solves the chicken-and-egg ABA problem" construction.
//    LocalDomain (the default and the tested configuration) is the
//    shared-memory stack. A DistDomain instantiation compiles (arena
//    nodes, network-visible head) but reads node fields with direct
//    loads -- fine in the single-address-space simulation, uncharged by
//    the latency model; DistStack is the faithful distributed variant.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "atomic/domain_traits.hpp"
#include "atomic/local_atomic_object.hpp"
#include "epoch/domain.hpp"

namespace pgasnb {

template <typename T>
class LockFreeStack {
  struct Node {
    T value{};
    /// Atomic (relaxed) because pop/acquire read `next` of a type-stable
    /// node optimistically while a racing push/release may be re-linking
    /// it; the ABA CAS rejects the stale read and supplies the ordering.
    std::atomic<Node*> next{nullptr};
  };

 public:
  LockFreeStack() = default;
  LockFreeStack(const LockFreeStack&) = delete;
  LockFreeStack& operator=(const LockFreeStack&) = delete;

  ~LockFreeStack() {
    deleteChain(head_.read());
    deleteChain(free_.read());
  }

  /// Listing 1's push: read head (with count), link, CAS-with-count.
  /// A lost CAS hands back the head it found, so each retry skips the
  /// re-read (here and in every loop below).
  void push(T value) {
    Node* node = acquireNode(std::move(value));
    pushOnto(head_, node);
    size_.fetch_add(1, std::memory_order_relaxed);
  }

  std::optional<T> pop() {
    Node* node = popFrom(head_);
    if (node == nullptr) return std::nullopt;
    std::optional<T> out(std::move(node->value));
    releaseNode(node);
    size_.fetch_sub(1, std::memory_order_relaxed);
    return out;
  }

  bool empty() const noexcept { return head_.read() == nullptr; }
  std::uint64_t sizeApprox() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  Node* acquireNode(T&& value) {
    Node* node = popFrom(free_);
    if (node == nullptr) node = new Node;
    node->value = std::move(value);
    return node;
  }

  void releaseNode(Node* node) { pushOnto(free_, node); }

  using Head = LocalAtomicObject<Node, /*WithAba=*/true>;

  static void pushOnto(Head& head_word, Node* node) {
    ABA<Node> head = head_word.readABA();
    do {
      node->next.store(head.getObject(), std::memory_order_relaxed);
    } while (!head_word.compareExchangeABA(head, node));
  }

  static Node* popFrom(Head& head_word) {
    ABA<Node> head = head_word.readABA();
    while (!head.isNil()) {
      // Nodes are type-stable, so reading next of a concurrently-popped
      // node is safe; the ABA count makes the CAS reject stale heads.
      Node* next = head->next.load(std::memory_order_relaxed);
      if (head_word.compareExchangeABA(head, next)) return head.getObject();
    }
    return nullptr;
  }

  void deleteChain(Node* node) {
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  Head head_;
  Head free_;
  std::atomic<std::uint64_t> size_{0};
};

/// Treiber stack with EBR reclamation: pop retires the node to the reclaim
/// domain instead of recycling it, so no ABA counter is needed on the
/// traversal (the epoch pin guarantees the head node cannot be freed while
/// we hold it) -- though the head keeps one for the push race.
template <typename T, ReclaimDomain Domain = LocalDomain>
class EbrStack {
  struct Node {
    T value{};
    Node* next = nullptr;
  };

 public:
  using Guard = typename Domain::Guard;

  explicit EbrStack(Domain& domain) : domain_(domain) {}
  EbrStack(const EbrStack&) = delete;
  EbrStack& operator=(const EbrStack&) = delete;

  ~EbrStack() {
    Node* node = head_.read();
    while (node != nullptr) {
      Node* next = node->next;
      Domain::template destroyNode<Node>(node);
      node = next;
    }
  }

  Domain& domain() const noexcept { return domain_.get(); }

  /// Caller holds a pinned guard from domain().
  void push(Guard& guard, T value) {
    PGASNB_CHECK_MSG(guard.pinned(), "EbrStack::push requires a pinned guard");
    Node* node = Domain::template make<Node>();
    node->value = std::move(value);
    // Push never dereferences `head`: a lost CAS's witness is reused as is.
    Node* head = head_.read();
    do {
      node->next = head;
    } while (!head_.compareExchange(head, node));
  }

  std::optional<T> pop(Guard& guard) {
    PGASNB_CHECK_MSG(guard.pinned(), "EbrStack::pop requires a pinned guard");
    // protect(): EBR passes through (the pin defers frees); the interval
    // domain widens this guard's reservation so `head` stays covered.
    Node* head = guard.protect([&] { return head_.read(); });
    while (head != nullptr) {
      Node* next = head->next;  // safe: `head` is covered by the guard
      bool won = false;
      const bool covered =
          guard.protectOnce([&] { won = head_.compareExchange(head, next); });
      if (won) {
        std::optional<T> out(std::move(head->value));
        Domain::retireNode(guard, head);
        return out;
      }
      // The lost CAS's witness is the next head, covered unless the
      // interval guard's era moved under it.
      if (!covered) head = guard.protect([&] { return head_.read(); });
    }
    return std::nullopt;
  }

  bool empty() const noexcept { return head_.read() == nullptr; }

 private:
  typename domain_traits<Domain>::template atomic_object<Node> head_;
  DomainRef<Domain> domain_;
};

}  // namespace pgasnb
