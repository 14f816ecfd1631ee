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
    // protect(): a pointer read under it stays covered by this guard's
    // reservation for the rest of the pin (interval domain); EBR passes
    // through. `tail` is only compared/CASed, never dereferenced here.
    Node* head = guard.protect([&] { return head_.read(); });
    while (true) {
      // The tail read stays although only the head CAS validates `head`:
      // without it the head could pass a lagging tail and retire the node
      // the tail still names. If that node's enqueuer then stalls before
      // swinging the tail, a later enqueuer reads the tail and
      // dereferences freed memory -- the four limbo lists assume a retired
      // node is unreachable, and a lagging tail keeps it reachable.
      Node* tail = tail_.read();
      // `next` becomes the new dummy whose value we read after winning;
      // read it protected so another dequeuer's retire of it stays covered.
      Node* next = guard.protect([&] { return loadNext(head); });
      // No Michael-Scott re-read of head_ here (Java's ConcurrentLinkedQueue
      // omits it too): the pinned guard keeps `head` from being freed, a
      // link is written once, and the head CAS below validates the
      // snapshot. A `head` dequeued meanwhile has a non-null `next`, so a
      // null `next` means the queue was empty when it was read.
      if (next == nullptr) return std::nullopt;  // empty (head == tail)
      // Tail lagging behind a half-finished enqueue: help swing it. Won or
      // lost, the tail is past `head` afterwards, so the head CAS may go.
      if (head == tail) tail_.compareAndSwap(tail, next);
      bool won = false;
      const bool covered =
          guard.protectOnce([&] { won = head_.compareExchange(head, next); });
      if (won) {
        // `next` is the new dummy; its value slot is ours alone now.
        std::optional<T> out(readValue(next));
        Domain::retireNode(guard, head);
        return out;
      }
      // A lost CAS handed back the current head; reuse it unless the
      // interval guard's era moved under the CAS.
      if (!covered) head = guard.protect([&] { return head_.read(); });
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

  /// CAS a node's link; on failure `expected` becomes the link found.
  bool casNext(Node* node, Node*& expected, Node* desired) {
    std::uint64_t e = toBits(expected);
    bool ok;
    if constexpr (Domain::kDistributed) {
      ok = comm::atomicCas(node->next, e, toBits(desired));
    } else {
      ok = node->next.compare_exchange_strong(e, toBits(desired),
                                              std::memory_order_seq_cst);
    }
    expected = toNode(e);
    return ok;
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
    // The observed tail is dereferenced (casNext) and may be a node another
    // task just retired: read it protected.
    Node* tail = guard.protect([&] { return tail_.read(); });
    while (true) {
      bool linked = false;
      const bool covered = guard.protectOnce([&] {
        // Link CAS against null: no link read first. A lost CAS hands back
        // the successor it found. No re-read of tail_ either (see
        // dequeue): a stale `tail` is still protected, and its non-null
        // link only sends us helping.
        Node* next = nullptr;
        linked = casNext(tail, next, node);
        if (linked) return;
        // Tail is lagging; help swing it forward. The next tail is `next`
        // if the swing won, else the tail the swing found.
        Node* seen = tail;
        tail = tail_.compareExchange(seen, next) ? next : seen;
      });
      if (linked) {
        tail_.compareAndSwap(tail, node);
        return;
      }
      if (!covered) tail = guard.protect([&] { return tail_.read(); });
    }
  }

  typename domain_traits<Domain>::template atomic_object<Node> head_;
  typename domain_traits<Domain>::template atomic_object<Node> tail_;
  DomainRef<Domain> domain_;
};

}  // namespace pgasnb
