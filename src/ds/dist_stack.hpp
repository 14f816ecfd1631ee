// DistStack: a global-view Treiber stack over any reclaim domain.
//
// The paper's Listing 1 written against the building blocks the Domain
// selects: with DistDomain the head is an ABA-protected AtomicObject
// (compressed wide pointer + generation count), nodes are allocated on the
// pushing task's locale, popped nodes are fetched with an RDMA GET and
// reclaimed through DistDomain -- whose retires
// ship each node back to its owning locale for deallocation. With
// LocalDomain the same algorithm degenerates to a shared-memory EBR stack
// (processor atomics, heap nodes, direct loads instead of GETs).
//
// Any locale may push/pop concurrently; this is the canonical "truly
// scalable algorithm" the two constructs exist to enable.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>

#include "atomic/domain_traits.hpp"
#include "epoch/domain.hpp"
#include "runtime/comm.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb {

template <typename T, ReclaimDomain Domain = DistDomain>
class DistStack {
  static_assert(std::is_trivially_copyable_v<T>,
                "DistStack elements move across locales by RDMA GET; they "
                "must be trivially copyable");

 public:
  using Guard = typename Domain::Guard;

  struct Node {
    T value{};
    Node* next = nullptr;
  };

  /// Allocate the stack on `home` (its head word lives there; remote CAS
  /// cost follows that placement). `home` is ignored for a LocalDomain.
  static DistStack* create(Domain& domain, std::uint32_t home = 0) {
    if constexpr (Domain::kDistributed) {
      return gnewOn<DistStack>(home, domain);
    } else {
      (void)home;
      return new DistStack(domain);
    }
  }

  /// Quiescent teardown: drains remaining nodes through the domain and
  /// frees the stack shell. Caller guarantees no concurrent users.
  static void destroy(DistStack* stack) {
    {
      Guard guard = stack->domain().pin();
      while (stack->pop(guard).has_value()) {
      }
    }
    stack->domain().clear();
    if constexpr (Domain::kDistributed) {
      const std::uint32_t home = Runtime::get().localeOfAddress(stack);
      onLocale(home, [stack] { gdelete(stack); });
    } else {
      delete stack;
    }
  }

  explicit DistStack(Domain& domain) : domain_(domain) {}
  DistStack(const DistStack&) = delete;
  DistStack& operator=(const DistStack&) = delete;

  Domain& domain() const noexcept { return domain_.get(); }

  /// Paper Listing 1. The node is allocated on the *calling* locale, so a
  /// distributed workload naturally interleaves owners -- which is what
  /// DistDomain's owner-routed retires are for.
  void push(Guard& guard, T value) {
    PGASNB_CHECK_MSG(guard.pinned(), "DistStack::push requires a pinned guard");
    Node* node = Domain::template make<Node>();
    node->value = value;
    linkNode(node);
  }

  /// Non-blocking push: the node is allocated here, then the head-CAS loop
  /// is *shipped to the stack's home locale* (where the head word lives, so
  /// every CAS is a processor atomic instead of a remote round trip),
  /// riding the calling task's comm::Aggregator: a window of pushes pays
  /// one wire+service charge per batch instead of per push. The value is
  /// visible to pops once the handle is ready. The batch's handles
  /// resolve together when it is serviced. Ships at batch-full / age /
  /// flush -- or automatically when the handle is waited/drained or an
  /// enclosing comm::OpWindow closes; no manual flushAll() needed. The
  /// window's drain() folds finished pushes mid-window.
  comm::Handle<> pushAsyncAggregated(Guard& guard, T value) {
    PGASNB_CHECK_MSG(guard.pinned(),
                     "DistStack::pushAsyncAggregated requires a pinned guard");
    Node* node = Domain::template make<Node>();
    node->value = value;
    if constexpr (Domain::kDistributed) {
      const std::uint32_t home = Runtime::get().localeOfAddress(this);
      if (home != Runtime::here()) {
        // Linking never dereferences popped nodes, so the shipped handler
        // needs no epoch pin of its own.
        return comm::taskAggregator().enqueueHandle(
            home, [this, node] { linkNode(node); });
      }
    }
    linkNode(node);
    return comm::readyHandle();
  }

  /// Non-blocking pop via operation shipping: the whole pop loop runs on
  /// the stack's home locale -- head read, node snapshot and CAS are all
  /// locale-local there -- under the progress thread's *cached* epoch guard
  /// (one token registration per (progress thread, domain), pinned once
  /// per AM service; see DistDomain::threadGuard). The handle resolves to the
  /// popped value, or nullopt if the stack was empty at linearization.
  comm::Handle<std::optional<T>> popAsync(Guard& guard) {
    PGASNB_CHECK_MSG(guard.pinned(),
                     "DistStack::popAsync requires a pinned guard");
    if constexpr (Domain::kDistributed) {
      const std::uint32_t home = Runtime::get().localeOfAddress(this);
      if (home != Runtime::here()) {
        return comm::amAsyncValue<std::optional<T>>(home, [this] {
          PinScope<Guard> pin(domain().threadGuard());
          return pop(pin.guard());
        });
      }
    }
    return comm::readyValueHandle(pop(guard));
  }

  /// Batched flavor of popAsync: the shipped pop rides the calling task's
  /// comm::Aggregator, so a window of pops pays one wire+service charge
  /// per batch instead of per pop, and the whole window's handles resolve
  /// together when their batch is serviced. A buffered pop ships at
  /// batch-full / age / flush -- or automatically when its handle is
  /// waited/drained or an enclosing comm::OpWindow closes, so joining no
  /// longer needs a manual flushAll(). Call the window's drain() between
  /// bursts of compute to fold finished pops mid-window, so caller compute
  /// overlaps the tail of the batch.
  comm::Handle<std::optional<T>> popAsyncAggregated(Guard& guard) {
    PGASNB_CHECK_MSG(guard.pinned(),
                     "DistStack::popAsyncAggregated requires a pinned guard");
    if constexpr (Domain::kDistributed) {
      const std::uint32_t home = Runtime::get().localeOfAddress(this);
      if (home != Runtime::here()) {
        auto state =
            std::make_shared<comm::detail::HandleState<std::optional<T>>>();
        auto* raw = state.get();
        comm::taskAggregator().enqueueWithCore(
            home,
            [this, raw] {
              PinScope<Guard> pin(domain().threadGuard());
              raw->value = pop(pin.guard());
            },
            state);
        return comm::Handle<std::optional<T>>(std::move(state));
      }
    }
    return comm::readyValueHandle(pop(guard));
  }

  std::optional<T> pop(Guard& guard) {
    PGASNB_CHECK_MSG(guard.pinned(), "DistStack::pop requires a pinned guard");
    // protect(): EBR passes through; the interval domain widens this
    // guard's reservation so the snapshot read below stays covered.
    ABA<Node> old_head = guard.protect([&] { return head_.readABA(); });
    while (true) {
      Node* node = old_head.getObject();
      if (node == nullptr) return std::nullopt;
      // The head node may live on any locale: fetch a snapshot (an RDMA
      // GET under DistDomain, plain loads under LocalDomain). The
      // protected read guarantees the node is not reclaimed underneath
      // us; the ABA count rejects a stale head at the CAS.
      Node snapshot;
      if constexpr (Domain::kDistributed) {
        comm::get(&snapshot, Runtime::get().localeOfAddress(node), node,
                  sizeof(Node));
      } else {
        snapshot.value = node->value;
        snapshot.next = node->next;
      }
      bool won = false;
      const bool covered = guard.protectOnce(
          [&] { won = head_.compareExchangeABA(old_head, snapshot.next); });
      if (won) {
        Domain::retireNode(guard, node);
        return snapshot.value;
      }
      // A lost DCAS handed back the current head: no re-read unless the
      // interval guard's era moved under it.
      if (!covered) old_head = guard.protect([&] { return head_.readABA(); });
    }
  }

  bool emptyApprox() const { return head_.read() == nullptr; }

 private:
  /// Push never dereferences the head it links behind, so a lost DCAS's
  /// witness is the next attempt's head as is.
  void linkNode(Node* node) {
    ABA<Node> old_head = head_.readABA();
    do {
      node->next = old_head.getObject();
    } while (!head_.compareExchangeABA(old_head, node));
  }

  typename domain_traits<Domain>::template atomic_object<Node,
                                                         /*WithAba=*/true>
      head_;
  DomainRef<Domain> domain_;
};

}  // namespace pgasnb
