// Michael-Scott lock-free FIFO queue with EBR reclamation.
//
// One of the "most primitive of non-blocking data structures" the paper's
// introduction motivates (queues, stacks, linked lists). Retired dummy
// nodes go through the reclaim domain, which is what makes the optimistic
// `head->next` read safe without hazard pointers.
//
// The algorithm body is Domain-generic. LocalDomain (the default) gives
// the classic shared-memory queue: plain processor atomics, heap nodes, no
// runtime required. Under DistDomain the queue is *communication-faithful*:
// the head/tail words are network-visible AtomicObjects, and node fields
// are no longer touched with direct loads -- the `next` link is a
// network-visible 64-bit atomic driven through comm::atomicRead/atomicCas
// (NIC atomic under ugni, AM under none, charged either way), and a
// remote dummy's value comes back via a charged RDMA snapshot GET, exactly
// like DistStack.
//
// The queue has only the blocking surface; the queue-churn-ugni benchmark
// workload drives it that way.
#pragma once

#include <atomic>
#include <optional>
#include <type_traits>
#include <utility>

#include "atomic/domain_traits.hpp"
#include "epoch/domain.hpp"
#include "runtime/comm.hpp"
#include "runtime/task.hpp"
#include "util/check.hpp"

namespace pgasnb {

template <typename T, ReclaimDomain Domain = LocalDomain>
class MsQueue {
  static_assert(!Domain::kDistributed || std::is_trivially_copyable_v<T>,
                "MsQueue elements move across locales by RDMA GET under a "
                "distributed domain; they must be trivially copyable");

  struct Node {
    T value{};
    /// Node* bits. Network-visible under DistDomain (remote links are read
    /// and CASed through the comm layer); a plain atomic under LocalDomain.
    std::atomic<std::uint64_t> next{0};
  };

 public:
  using Guard = typename Domain::Guard;

  explicit MsQueue(Domain& domain) : domain_(domain) {
    Node* dummy = Domain::template make<Node>();
    head_.write(dummy);
    tail_.write(dummy);
  }

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

  ~MsQueue() {
    Node* node = head_.read();
    while (node != nullptr) {
      Node* next = loadNext(node);
      destroyOnOwner(node);
      node = next;
    }
  }

  Domain& domain() const noexcept { return domain_.get(); }

  void enqueue(Guard& guard, T value) {
    PGASNB_CHECK_MSG(guard.pinned(), "MsQueue::enqueue requires a pinned guard");
    Node* node = Domain::template make<Node>();
    node->value = std::move(value);
    enqueueNode(guard, node);
  }

  std::optional<T> dequeue(Guard& guard) {
    PGASNB_CHECK_MSG(guard.pinned(), "MsQueue::dequeue requires a pinned guard");
    while (true) {
      // protect(): a pointer read under it stays covered by this guard's
      // reservation for the rest of the pin (interval domain); EBR passes
      // through. `tail` is only compared/CASed, never dereferenced here.
      Node* head = guard.protect([&] { return head_.read(); });
      Node* tail = tail_.read();
      Node* next = loadNext(head);
      if (head != head_.read()) continue;
      if (next == nullptr) return std::nullopt;  // empty (head == tail)
      if (head == tail) {
        // Tail lagging behind a half-finished enqueue; help.
        tail_.compareAndSwap(tail, next);
        continue;
      }
      if (head_.compareAndSwap(head, next)) {
        // `next` is the new dummy; its value slot is ours alone now.
        std::optional<T> out(readValue(next));
        Domain::retireNode(guard, head);
        return out;
      }
    }
  }

  bool emptyApprox() const {
    Node* head = head_.read();
    return loadNext(head) == nullptr;
  }

 private:
  static Node* toNode(std::uint64_t bits) noexcept {
    return reinterpret_cast<Node*>(bits);
  }
  static std::uint64_t toBits(Node* node) noexcept {
    return reinterpret_cast<std::uint64_t>(node);
  }

  /// Read a node's link. The node may live on any locale: under DistDomain
  /// this is a network-visible atomic read (NIC atomic under ugni, local
  /// processor atomic or AM under none), charged to the sim clock by the
  /// comm layer -- the distributed analogue of DistStack's snapshot GET,
  /// atomic because enqueuers CAS this word concurrently.
  Node* loadNext(Node* node) const {
    if constexpr (Domain::kDistributed) {
      return toNode(comm::atomicRead(node->next));
    } else {
      return toNode(node->next.load(std::memory_order_acquire));
    }
  }

  bool casNext(Node* node, Node* expected, Node* desired) {
    std::uint64_t e = toBits(expected);
    if constexpr (Domain::kDistributed) {
      return comm::atomicCas(node->next, e, toBits(desired));
    } else {
      return node->next.compare_exchange_strong(e, toBits(desired),
                                                std::memory_order_seq_cst);
    }
  }

  /// Read the new dummy's value after winning the head CAS. The slot is
  /// ours alone (written before the node was published), so a remote node
  /// is fetched with a charged RDMA snapshot GET, DistStack-style.
  T readValue(Node* node) {
    if constexpr (Domain::kDistributed) {
      const std::uint32_t owner = Runtime::get().localeOfAddress(node);
      if (owner != Runtime::here()) {
        T out{};
        comm::get(&out, owner, &node->value, sizeof(T));
        return out;
      }
      return node->value;
    } else {
      return std::move(node->value);
    }
  }

  /// Teardown: nodes live on whichever locale enqueued them; a distributed
  /// domain's arena delete must run on the owner.
  void destroyOnOwner(Node* node) {
    if constexpr (Domain::kDistributed) {
      const std::uint32_t owner = Runtime::get().localeOfAddress(node);
      if (owner != Runtime::here()) {
        onLocale(owner, [node] { Domain::template destroyNode<Node>(node); });
        return;
      }
    }
    Domain::template destroyNode<Node>(node);
  }

  void enqueueNode(Guard& guard, Node* node) {
    while (true) {
      // The observed tail is dereferenced (loadNext/casNext) and may be a
      // node another task just retired: read it protected.
      Node* tail = guard.protect([&] { return tail_.read(); });
      Node* next = loadNext(tail);
      if (tail != tail_.read()) continue;  // tail moved under us
      if (next != nullptr) {
        // Tail is lagging; help swing it forward.
        tail_.compareAndSwap(tail, next);
        continue;
      }
      if (casNext(tail, nullptr, node)) {
        tail_.compareAndSwap(tail, node);
        return;
      }
    }
  }

  typename domain_traits<Domain>::template atomic_object<Node> head_;
  typename domain_traits<Domain>::template atomic_object<Node> tail_;
  DomainRef<Domain> domain_;
};

}  // namespace pgasnb
