// InterlockedHashTable: a non-blocking hash map over any reclaim domain.
//
// The paper's conclusion reports a port of the Interlocked Hash Table
// [Jenkins et al., PACT'17] built on AtomicObject + EpochManager (here
// DistDomain) as "complete and awaiting release"; this module is that
// application, built from this library's own pieces:
//
//   * buckets are lock-free ordered lists (HarrisList<.., Domain>);
//   * under DistDomain, buckets are distributed cyclically across locales,
//     each living entirely in its owner's arena so every list operation
//     uses cheap processor atomics ("opting out" of network atomics, as
//     the paper recommends); operations are shipped to the bucket's owner
//     as short active messages and node reclamation goes through
//     DistDomain;
//   * under LocalDomain, the same body degenerates to a single-shard
//     shared-memory hash map executed in place -- no runtime required.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <type_traits>

#include "ds/harris_list.hpp"
#include "epoch/domain.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "runtime/privatization.hpp"
#include "util/rng.hpp"

namespace pgasnb {

namespace detail {

inline std::uint64_t ihtHash(std::uint64_t key) noexcept {
  std::uint64_t s = key;
  return splitmix64(s);
}

}  // namespace detail

template <typename V, ReclaimDomain Domain = DistDomain>
class InterlockedHashTable {
  using Bucket = HarrisList<std::uint64_t, V, Domain>;
  using Guard = typename Domain::Guard;

  /// Per-locale shard: this locale's slice of the bucket array.
  struct Shard {
    DomainRef<Domain> domain;
    std::deque<Bucket> buckets;  // deque: Bucket is neither copyable nor movable

    Shard(DomainRef<Domain> d, std::uint64_t local_buckets) : domain(d) {
      for (std::uint64_t i = 0; i < local_buckets; ++i) buckets.emplace_back();
    }

    Domain& dom() const noexcept { return domain.get(); }
  };

 public:
  InterlockedHashTable() = default;  // invalid; use create()

  /// Collective under DistDomain: distributes `num_buckets` buckets
  /// cyclically over all locales. The table shares the caller's domain.
  static InterlockedHashTable create(std::uint64_t num_buckets,
                                     Domain& domain) {
    InterlockedHashTable table;
    table.num_buckets_ = num_buckets;
    if constexpr (Domain::kDistributed) {
      DomainRef<Domain> handle(domain);
      table.num_locales_ = Runtime::get().numLocales();
      table.shards_ = Privatized<Shard>::create([handle, num_buckets] {
        const std::uint32_t l = Runtime::here();
        const std::uint32_t nloc = Runtime::get().numLocales();
        const std::uint64_t local = (num_buckets + nloc - 1 - l) / nloc;
        return gnew<Shard>(handle, local);
      });
    } else {
      table.num_locales_ = 1;
      table.local_shard_ = new Shard(DomainRef<Domain>(domain), num_buckets);
    }
    return table;
  }

  /// Teardown (collective under DistDomain). Reclaims all deferred nodes
  /// first (the domain may be shared; clear() is idempotent), then frees
  /// the shards.
  void destroy() {
    if (!valid()) return;
    if constexpr (Domain::kDistributed) {
      shards_.local().dom().clear();
      shards_.destroy();
    } else {
      local_shard_->dom().clear();
      delete local_shard_;
      local_shard_ = nullptr;
    }
  }

  bool valid() const noexcept {
    if constexpr (Domain::kDistributed) {
      return shards_.valid();
    } else {
      return local_shard_ != nullptr;
    }
  }

  // The table is a trivially copyable *handle* (like Chapel's record-
  // wrapped distributed objects): operations are const on the handle and
  // mutate the per-locale shards.

  /// Insert (key, value); false if the key already exists.
  bool insert(std::uint64_t key, const V& value) const {
    bool inserted = false;
    onOwner(key, [&](Shard& shard, std::uint64_t local_bucket) {
      Guard guard = shard.dom().pin();
      inserted = shard.buckets[local_bucket].insert(guard, key, value);
    });
    return inserted;
  }

  std::optional<V> find(std::uint64_t key) const {
    std::optional<V> out;
    onOwner(key, [&](Shard& shard, std::uint64_t local_bucket) {
      Guard guard = shard.dom().pin();
      out = shard.buckets[local_bucket].find(guard, key);
    });
    return out;
  }

  bool contains(std::uint64_t key) const { return find(key).has_value(); }

  /// Remove the key; returns its value if it was present.
  std::optional<V> erase(std::uint64_t key) const {
    std::optional<V> out;
    onOwner(key, [&](Shard& shard, std::uint64_t local_bucket) {
      Guard guard = shard.dom().pin();
      out = shard.buckets[local_bucket].remove(guard, key);
    });
    return out;
  }

  // --- asynchronous surface (handle-returning) -----------------------------
  //
  // Each op ships to the key's owning locale as ONE async AM and returns a
  // handle immediately; the handler runs under the progress thread's cached
  // epoch guard (DistDomain::threadGuard -- one token registration per
  // (progress thread, domain), pinned once per AM service). Local keys run in place
  // and return an already-ready handle. These give the workload harness the
  // same handle-based interface as RobinHoodMap, so both tables can be
  // driven through comm::OpWindow joins.

  comm::Handle<bool> insertAsync(std::uint64_t key, const V& value) const {
    return shipOp<bool>(
        key, [key, value](Shard& shard, std::uint64_t lb, Guard& guard) {
          return shard.buckets[lb].insert(guard, key, value);
        });
  }

  comm::Handle<std::optional<V>> findAsync(std::uint64_t key) const {
    return shipOp<std::optional<V>>(
        key, [key](Shard& shard, std::uint64_t lb, Guard& guard) {
          return shard.buckets[lb].find(guard, key);
        });
  }

  comm::Handle<bool> containsAsync(std::uint64_t key) const {
    return shipOp<bool>(
        key, [key](Shard& shard, std::uint64_t lb, Guard& guard) {
          return shard.buckets[lb].find(guard, key).has_value();
        });
  }

  comm::Handle<std::optional<V>> eraseAsync(std::uint64_t key) const {
    return shipOp<std::optional<V>>(
        key, [key](Shard& shard, std::uint64_t lb, Guard& guard) {
          return shard.buckets[lb].remove(guard, key);
        });
  }

  /// Upsert through one shipped handler: remove-then-insert on the owning
  /// locale (the bucket list has no in-place assign). Returns true when the
  /// key was newly inserted, false when an existing value was replaced.
  comm::Handle<bool> updateAsync(std::uint64_t key, const V& value) const {
    return shipOp<bool>(
        key, [key, value](Shard& shard, std::uint64_t lb, Guard& guard) {
          const bool was_present =
              shard.buckets[lb].remove(guard, key).has_value();
          shard.buckets[lb].insert(guard, key, value);
          return !was_present;
        });
  }

  /// Total element count (quiescent-exact, otherwise approximate).
  std::uint64_t sizeApprox() const {
    if constexpr (Domain::kDistributed) {
      auto shards = shards_;
      return allLocalesSum([shards] {
        std::uint64_t total = 0;
        for (const Bucket& bucket : shards.local().buckets) {
          total += bucket.sizeApprox();
        }
        return total;
      });
    } else {
      std::uint64_t total = 0;
      for (const Bucket& bucket : local_shard_->buckets) {
        total += bucket.sizeApprox();
      }
      return total;
    }
  }

  std::uint64_t numBuckets() const noexcept { return num_buckets_; }

 private:
  /// Run `fn(shard, local_bucket_index)` on the key's owning locale (in
  /// place for a LocalDomain).
  template <typename Fn>
  void onOwner(std::uint64_t key, const Fn& fn) const {
    const std::uint64_t bucket = detail::ihtHash(key) % num_buckets_;
    const std::uint64_t local_bucket = bucket / num_locales_;
    if constexpr (Domain::kDistributed) {
      const auto owner = static_cast<std::uint32_t>(bucket % num_locales_);
      auto shards = shards_;
      comm::amSync(owner, [&fn, shards, local_bucket] {
        fn(shards.local(), local_bucket);
      });
    } else {
      fn(*local_shard_, local_bucket);
    }
  }

  /// Ship `op(shard, local_bucket, guard)` -> R to the key's owner as one
  /// async AM (progress-thread cached guard); local owners run inline
  /// under a freshly pinned guard and return a ready handle.
  template <typename R, typename Op>
  comm::Handle<R> shipOp(std::uint64_t key, Op op) const {
    const std::uint64_t bucket = detail::ihtHash(key) % num_buckets_;
    const std::uint64_t local_bucket = bucket / num_locales_;
    if constexpr (Domain::kDistributed) {
      const auto owner = static_cast<std::uint32_t>(bucket % num_locales_);
      auto shards = shards_;
      if (owner != Runtime::here()) {
        return comm::amAsyncValue<R>(
            owner, [shards, local_bucket, op = std::move(op)] {
              Shard& shard = shards.local();
              PinScope<Guard> pin(shard.dom().threadGuard());
              return op(shard, local_bucket, pin.guard());
            });
      }
      Shard& shard = shards.local();
      Guard guard = shard.dom().pin();
      return comm::readyValueHandle(op(shard, local_bucket, guard));
    } else {
      Guard guard = local_shard_->dom().pin();
      return comm::readyValueHandle(op(*local_shard_, local_bucket, guard));
    }
  }

  Privatized<Shard> shards_;       // DistDomain storage
  Shard* local_shard_ = nullptr;   // LocalDomain storage
  std::uint64_t num_buckets_ = 0;
  std::uint32_t num_locales_ = 1;
};

}  // namespace pgasnb
