// RobinHoodMap: a distributed open-addressed hash table with Robin Hood
// probing -- the successor to InterlockedHashTable's closed chaining.
//
// Layout. The slot space is partitioned into one *segment per locale*. The
// low-order part of a key's hash (`h % capacity`) picks a global slot in the
// fixed create()-time partition; the segment containing it is the key's
// owner, and its offset there is the key's *seed home*. A segment that has
// grown by `k` doublings keeps the seed home and appends the hash's top `k`
// bits (see homeIn): the low-order bits already chose the owner, so re-using
// them for a wider table would crowd every key into one seed-size slice of
// it. The probe sequence wraps *within* the segment's current table
// (segments are independent Robin Hood tables, so displacement never
// crosses a locale boundary -- the distributed analogue of per-bucket
// locality). Slots are 16-byte (key, value) pairs accessed with the same
// double-word atomics the DCAS layer uses, so readers always observe a slot
// atomically.
//
// Probing discipline. Entries are displacement-ordered (an entry `d` slots
// past its home has stolen from every richer entry it passed -- Robin Hood's
// take-from-the-rich swap), and erase uses backward-shift deletion: the run
// behind the victim slides back one slot, so there are no tombstones and
// probe sequences never grow from churn.
//
// Concurrency model. Mutations (insert / put / erase) execute on the
// owning locale -- shipped there as (aggregated) active messages from
// remote callers, exactly like the other distributed structures "opt out"
// of network atomics -- and serialize on a per-segment spinlock: a
// displacement chain or backward shift moves several slots at once, which
// is K-CAS territory (cf. the lock-free Robin Hood literature); owner-side
// serialization buys the same atomicity with processor-local cost. Lookups
// never take the lock: a probe is a wait-free scan of atomic 16-byte slots
// validated by a per-segment seqlock version -- structural mutations
// (swap chains, backward shifts, migration chunks) bump the version,
// single-slot placements and in-place value updates do not, so read-mostly
// traffic revalidates only when entries actually moved underneath it.
//
// Incremental resize. When a segment's occupancy crosses
// `RobinHoodOptions::resize_load` (default from RuntimeConfig's
// `rh_resize_load` / PGASNB_RH_RESIZE_LOAD), the owner allocates a doubled
// *shadow* table and publishes it under a seqlock bump. From then on the
// segment is mid-migration:
//   * every owner-serialized mutation (and, under a distributed domain, a
//     self-targeted progress-thread pump AM) moves a bounded chunk
//     (`migrate_chunk` entries) from the old table into the shadow, under
//     an odd seqlock window;
//   * chunks only pause at *run boundaries* (the cursor always rests on an
//     empty slot), so the old table's displacement invariant -- and with it
//     Robin Hood early termination -- keeps holding for concurrent readers
//     mid-migration;
//   * new inserts land in the shadow; lookups/updates/erases check the old
//     table first, then the shadow (a key lives in exactly one of them);
//   * wait-free readers probe old-then-new under seqlock validation, with
//     both table pointers read through `guard.protect()` -- the retired old
//     table goes through the map's ReclaimDomain, so an in-flight reader
//     can keep probing a table that has already been swapped out.
// Under a LocalDomain there is no progress thread, so migration advances
// purely by piggybacking on mutations (including erase of an absent key) --
// which is exactly what the deterministic tests want.
//
// Reclamation. Values live *inline* in the slot array, so ordinary churn
// defers nothing; the Domain's reclamation machinery is exercised only by
// resize, which retires whole old tables through `Domain::retireNode`.
// Every read path therefore runs under a Domain guard (progress threads
// reuse their thread-cached guard; task threads pin per op).
//
// Async surface. insert, put, find and erase each have an aggregated
// variant (`*AsyncAggregated`) that rides the calling task's
// comm::Aggregator, returns a comm::Handle and enrolls in any open
// comm::OpWindow.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "atomic/dcas.hpp"
#include "epoch/domain.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "runtime/config.hpp"
#include "runtime/privatization.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sim_clock.hpp"
#include "runtime/task.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pgasnb {

/// Aggregate health snapshot of a RobinHoodMap (see RobinHoodMap::stats).
struct RobinHoodStats {
  std::uint64_t slots = 0;  ///< live slot capacity (sums each segment's
                            ///< current table -- the shadow's size while a
                            ///< segment is mid-migration)
  std::uint64_t used = 0;   ///< occupied slots
  /// High-water mark of placement displacements since create(), across
  /// every table each segment has had; erase and migration never lower it.
  std::uint64_t max_displacement = 0;
  std::uint64_t full_rejects = 0;  ///< inserts refused by a full segment
  std::uint64_t resizes = 0;           ///< shadow tables started
  std::uint64_t migrate_chunks = 0;    ///< bounded migration steps executed
  std::uint64_t migrated_entries = 0;  ///< entries moved old -> shadow
  std::uint64_t migrating_segments = 0;  ///< segments currently mid-migration
};

/// Tuning for RobinHoodMap's incremental resize. create() without options
/// resolves the defaults from RuntimeConfig (`rh_resize_load`,
/// `rh_migrate_chunk`) when a runtime is active.
struct RobinHoodOptions {
  /// Per-segment load factor that starts a doubling; <= 0 disables resize
  /// entirely (a full segment then rejects inserts, counted in
  /// stats().full_rejects -- the pre-resize behaviour).
  double resize_load = 0.85;
  /// Migration chunk bound: each mutation / pump step moves at most this
  /// many entries (rounded up to the enclosing probe run, so readers keep
  /// early-terminating correctly on the old table).
  std::uint32_t migrate_chunk = 64;
};

template <typename V, ReclaimDomain Domain = DistDomain>
class RobinHoodMap {
  static_assert(std::is_trivially_copyable_v<V> && sizeof(V) <= 8,
                "RobinHoodMap stores values inline in 16-byte slots; V must "
                "be trivially copyable and at most 8 bytes");

 public:
  /// All-ones is the empty-slot sentinel; user keys must avoid it.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

 private:
  /// One Robin Hood slot array. A segment owns one (plus a second, doubled
  /// one while mid-migration). Slots are raw U128s (lo = key, hi = value
  /// bits) accessed exclusively through the __atomic 16-byte ops; `used`
  /// tracks this table's occupancy alone (the segment-level counter spans
  /// both tables during migration). `seed_slots` is the create()-time
  /// segment size and `spread_bits` the number of doublings since (see
  /// homeIn). Allocated via Domain::make so retired tables flow through the
  /// domain (IntervalDomain birth-tags the block).
  struct Table {
    U128* slots = nullptr;
    std::uint64_t nslots = 0;
    std::uint64_t seed_slots = 0;
    unsigned spread_bits = 0;
    std::atomic<std::uint64_t> used{0};

    Table(std::uint64_t n, std::uint64_t seed)
        : nslots(n),
          seed_slots(seed),
          spread_bits(static_cast<unsigned>(std::bit_width(n / seed)) - 1) {
      PGASNB_DCHECK(nslots == seed_slots << spread_bits);
      if constexpr (Domain::kDistributed) {
        slots = static_cast<U128*>(
            Runtime::get().allocateOn(Runtime::here(), n * sizeof(U128)));
      } else {
        slots = new U128[n];
      }
      // key = kEmptyKey everywhere (the hi word is don't-care when empty).
      std::memset(static_cast<void*>(slots), 0xFF, n * sizeof(U128));
    }

    ~Table() {
      if constexpr (Domain::kDistributed) {
        Runtime::get().deallocateLocal(slots, nslots * sizeof(U128));
      } else {
        delete[] slots;
      }
    }

    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;
  };

  /// One locale's segment: the current table, the shadow table while a
  /// resize is in flight (`shadow != nullptr` <=> mid-migration), the
  /// writer lock, the seqlock version, and the migration cursor (owner-only
  /// state, mutated under the writer lock; the cursor always rests on an
  /// empty old-table slot so the emptied region is a whole number of runs).
  struct Segment {
    std::atomic<Table*> cur{nullptr};
    std::atomic<Table*> shadow{nullptr};
    std::atomic<std::uint64_t> version{0};  ///< seqlock: odd = moving slots
    std::atomic<std::uint32_t> lock{0};     ///< writer spinlock (TAS)
    std::atomic<std::uint64_t> used{0};     ///< across both tables
    std::atomic<std::uint64_t> full_rejects{0};
    std::atomic<std::uint64_t> max_disp{0};
    std::atomic<std::uint64_t> resizes{0};
    std::atomic<std::uint64_t> migrate_chunks{0};
    std::atomic<std::uint64_t> migrated_entries{0};
    std::atomic<bool> pump_active{false};  ///< a migration pump AM is live
    std::uint64_t migrate_pos = 0;   ///< next old-table slot to drain
    std::uint64_t migrate_left = 0;  ///< old-table slots not yet drained

    explicit Segment(std::uint64_t n) {
      cur.store(Domain::template make<Table>(n, n), std::memory_order_release);
    }

    ~Segment() {
      if (Table* t = shadow.load(std::memory_order_relaxed)) {
        Domain::template destroyNode<Table>(t);
      }
      Domain::template destroyNode<Table>(
          cur.load(std::memory_order_relaxed));
    }

    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;
  };

 public:
  RobinHoodMap() = default;  // invalid; use create()

  /// Collective under DistDomain: rounds `capacity` up to a whole number of
  /// slots per locale and gives each locale one segment of that size. The
  /// *partition* (which locale owns which key) is fixed for the table's
  /// lifetime; each segment grows independently by incremental doubling
  /// once it crosses `options.resize_load` (see file header).
  static RobinHoodMap create(std::uint64_t capacity, Domain& domain) {
    return create(capacity, domain, defaultOptions());
  }

  static RobinHoodMap create(std::uint64_t capacity, Domain& domain,
                             const RobinHoodOptions& options) {
    RobinHoodMap map;
    map.domain_ = DomainRef<Domain>(domain);
    map.resize_load_ = options.resize_load;
    map.migrate_chunk_ =
        options.migrate_chunk == 0 ? 1 : options.migrate_chunk;
    if constexpr (Domain::kDistributed) {
      map.num_locales_ = Runtime::get().numLocales();
    } else {
      map.num_locales_ = 1;
    }
    map.seg_slots_ =
        (capacity + map.num_locales_ - 1) / map.num_locales_;
    if (map.seg_slots_ == 0) map.seg_slots_ = 1;
    map.capacity_ = map.seg_slots_ * map.num_locales_;
    const std::uint64_t seg_slots = map.seg_slots_;
    if constexpr (Domain::kDistributed) {
      map.segments_ = Privatized<Segment>::create(
          [seg_slots] { return gnew<Segment>(seg_slots); });
    } else {
      map.local_segment_ = new Segment(seg_slots);
    }
    return map;
  }

  /// Resize defaults: RuntimeConfig's knobs when a runtime is active,
  /// otherwise the RobinHoodOptions member initializers.
  static RobinHoodOptions defaultOptions() {
    RobinHoodOptions options;
    if (Runtime::active()) {
      const RuntimeConfig& cfg = Runtime::get().config();
      options.resize_load = cfg.rh_resize_load;
      options.migrate_chunk = cfg.rh_migrate_chunk;
    }
    return options;
  }

  /// Teardown (collective under DistDomain). Waits out any in-flight
  /// migration pump (it holds a raw segment pointer), then frees the
  /// segments; tables already *retired* by completed migrations are the
  /// domain's to reclaim. pump_active is read under the writer lock: the
  /// pump clears it inside its own locked region and touches nothing
  /// afterwards, so lock-acquire here synchronizes with the pump's
  /// lock-release and a false flag means no pump AM still holds the
  /// segment pointer (see pumpStep()).
  void destroy() {
    if (!valid()) return;
    if constexpr (Domain::kDistributed) {
      auto segments = segments_;
      coforallLocales([segments] {
        Segment& seg = segments.local();
        Backoff backoff;
        for (;;) {
          {
            SegLock hold(seg);
            if (!seg.pump_active.load(std::memory_order_acquire)) break;
          }
          backoff.pause();
        }
      });
      segments_.destroy();
    } else {
      delete local_segment_;
      local_segment_ = nullptr;
    }
  }

  bool valid() const noexcept {
    if constexpr (Domain::kDistributed) {
      return segments_.valid();
    } else {
      return local_segment_ != nullptr;
    }
  }

  // Like the other distributed structures, the map is a trivially copyable
  // *handle*: capture it by value in task lambdas.

  // --- synchronous surface -------------------------------------------------

  /// Insert (key, value); false if the key already exists (or the owning
  /// segment is full with resize disabled -- counted in
  /// stats().full_rejects).
  bool insert(std::uint64_t key, const V& value) const {
    const std::uint64_t vbits = packValue(value);
    bool inserted = false;
    onOwner(key, [&](Segment& seg) {
      inserted = ownerPut(seg, key, vbits, /*assign=*/false) ==
                 PutOutcome::inserted;
    });
    return inserted;
  }

  /// Upsert: insert the key or overwrite its value in place. Returns true
  /// when the key was newly inserted.
  bool put(std::uint64_t key, const V& value) const {
    const std::uint64_t vbits = packValue(value);
    bool inserted = false;
    onOwner(key, [&](Segment& seg) {
      inserted = ownerPut(seg, key, vbits, /*assign=*/true) ==
                 PutOutcome::inserted;
    });
    return inserted;
  }

  std::optional<V> find(std::uint64_t key) const {
    std::optional<V> out;
    onOwner(key, [&](Segment& seg) {
      if (auto bits = ownerFind(seg, key)) out = unpackValue(*bits);
    });
    return out;
  }

  bool contains(std::uint64_t key) const { return find(key).has_value(); }

  /// Remove the key (backward-shift deletion; no tombstones); returns its
  /// value if it was present. Mid-migration, an erase -- hit or miss --
  /// also drains one migration chunk.
  std::optional<V> erase(std::uint64_t key) const {
    std::optional<V> out;
    onOwner(key, [&](Segment& seg) {
      if (auto bits = ownerErase(seg, key)) out = unpackValue(*bits);
    });
    return out;
  }

  // --- aggregated surface --------------------------------------------------
  //
  // The ops above riding the calling task's comm::Aggregator: one wire+service
  // charge per batch per destination instead of per op, handles of one
  // batch resolving together. Issued inside a comm::OpWindow they enroll
  // automatically; the window's close (or any wait/drain) auto-flushes, so
  // no manual flushAll() is ever needed. Inside a window, own-locale keys
  // buffer too and run inline on this thread once the window's remote
  // batches have shipped, so a sync op does not observe an aggregated op
  // of an open window -- on any key -- until that op or the window is
  // joined. Per-key FIFO holds within the task.

  comm::Handle<bool> insertAsyncAggregated(std::uint64_t key,
                                           const V& value) const {
    const std::uint64_t vbits = packValue(value);
    return shipAggregated<bool>(key, [key, vbits](RobinHoodMap map,
                                                  Segment& seg) {
      return map.ownerPut(seg, key, vbits, /*assign=*/false) ==
             PutOutcome::inserted;
    });
  }

  comm::Handle<bool> putAsyncAggregated(std::uint64_t key,
                                        const V& value) const {
    const std::uint64_t vbits = packValue(value);
    return shipAggregated<bool>(key, [key, vbits](RobinHoodMap map,
                                                  Segment& seg) {
      return map.ownerPut(seg, key, vbits, /*assign=*/true) ==
             PutOutcome::inserted;
    });
  }

  comm::Handle<std::optional<V>> findAsyncAggregated(std::uint64_t key) const {
    return shipAggregated<std::optional<V>>(
        key, [key](RobinHoodMap map, Segment& seg) {
          std::optional<V> out;
          if (auto bits = map.ownerFind(seg, key)) {
            out = unpackValue(*bits);
          }
          return out;
        });
  }

  comm::Handle<std::optional<V>> eraseAsyncAggregated(std::uint64_t key) const {
    return shipAggregated<std::optional<V>>(
        key, [key](RobinHoodMap map, Segment& seg) {
          std::optional<V> out;
          if (auto bits = map.ownerErase(seg, key)) {
            out = unpackValue(*bits);
          }
          return out;
        });
  }

  // --- introspection -------------------------------------------------------

  /// The create()-time slot count -- the fixed hash *partition*, not the
  /// live capacity: segments grow past it by doubling. For live capacity
  /// use stats().slots.
  std::uint64_t capacity() const noexcept { return capacity_; }

  /// Total occupied slots (quiescent-exact, otherwise approximate).
  std::uint64_t sizeApprox() const {
    if constexpr (Domain::kDistributed) {
      auto segments = segments_;
      return allLocalesSum(
          [segments] { return segments.local().used.load(); });
    } else {
      return local_segment_->used.load();
    }
  }

  /// used / live slots (stats()-based, so mid-migration segments count
  /// their shadow's capacity).
  double loadFactor() const {
    const RobinHoodStats s = stats();
    return s.slots == 0
               ? 0.0
               : static_cast<double>(s.used) / static_cast<double>(s.slots);
  }

  /// The locale whose segment owns `key` (hash-partitioned). Batch drivers
  /// -- the epoch engine's admit phase above all -- use this to group
  /// operations by destination before issuing them aggregated. Stable
  /// across resizes: the partition is fixed even as segments grow.
  std::uint32_t ownerOfKey(std::uint64_t key) const noexcept {
    return ownerOf(key);
  }

  /// Aggregate segment health (quiescent-exact; mid-migration, `slots`
  /// counts each migrating segment's shadow table and `used` stays the
  /// true entry count -- entries are never double-counted because each
  /// lives in exactly one table).
  RobinHoodStats stats() const {
    RobinHoodStats s;
    if constexpr (Domain::kDistributed) {
      std::atomic<std::uint64_t> slots{0}, used{0}, rejects{0}, max_disp{0};
      std::atomic<std::uint64_t> resizes{0}, chunks{0}, migrated{0},
          migrating{0};
      auto map = *this;
      coforallLocales([map, &slots, &used, &rejects, &max_disp, &resizes,
                       &chunks, &migrated, &migrating] {
        Segment& seg = map.segments_.local();
        const auto live = map.liveExtent(seg);
        slots.fetch_add(live.first);
        if (live.second) migrating.fetch_add(1);
        used.fetch_add(seg.used.load());
        rejects.fetch_add(seg.full_rejects.load());
        resizes.fetch_add(seg.resizes.load());
        chunks.fetch_add(seg.migrate_chunks.load());
        migrated.fetch_add(seg.migrated_entries.load());
        std::uint64_t d = seg.max_disp.load();
        std::uint64_t seen = max_disp.load();
        while (seen < d && !max_disp.compare_exchange_weak(seen, d)) {
        }
      });
      s.slots = slots.load();
      s.used = used.load();
      s.full_rejects = rejects.load();
      s.max_displacement = max_disp.load();
      s.resizes = resizes.load();
      s.migrate_chunks = chunks.load();
      s.migrated_entries = migrated.load();
      s.migrating_segments = migrating.load();
    } else {
      Segment& seg = *local_segment_;
      const auto live = liveExtent(seg);
      s.slots = live.first;
      s.migrating_segments = live.second ? 1 : 0;
      s.used = seg.used.load();
      s.full_rejects = seg.full_rejects.load();
      s.max_displacement = seg.max_disp.load();
      s.resizes = seg.resizes.load();
      s.migrate_chunks = seg.migrate_chunks.load();
      s.migrated_entries = seg.migrated_entries.load();
    }
    return s;
  }

  /// Whole-table invariant scan (tests): seqlock parity even at rest,
  /// Robin Hood displacement ordering in *both* live tables of every
  /// segment (an entry displaced `d > 0` slots sits behind a neighbour
  /// displaced at least `d - 1`), no key present in both tables, and the
  /// per-table + per-segment used counters matching the occupied-slot
  /// census. Takes each segment's writer lock, so concurrent mutators are
  /// excluded segment by segment.
  bool validateInvariants() const {
    if constexpr (Domain::kDistributed) {
      auto map = *this;
      return allLocalesAnd(
          [map] { return map.segValidate(map.segments_.local()); });
    } else {
      return segValidate(*local_segment_);
    }
  }

 private:
  enum class PutOutcome : std::uint8_t { inserted, updated, present, full };

  static std::uint64_t rhHash(std::uint64_t key) noexcept {
    std::uint64_t s = key;
    return splitmix64(s);
  }

  static std::uint64_t packValue(const V& v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(V));
    return bits;
  }
  static V unpackValue(std::uint64_t bits) noexcept {
    V v{};
    std::memcpy(&v, &bits, sizeof(V));
    return v;
  }

  std::uint64_t globalSlotOf(std::uint64_t key) const noexcept {
    return rhHash(key) % capacity_;
  }
  std::uint32_t ownerOf(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>(globalSlotOf(key) / seg_slots_);
  }

  /// Home slot of `key` inside table `t`. The seed home `h % seed_slots`
  /// is the key's offset in its owner's create()-time partition slice
  /// (seg_slots_ divides capacity_). A table grown by `spread_bits`
  /// doublings appends the hash's top bits, which are independent of the
  /// low-order bits that picked the owner, so homes stay uniform over the
  /// whole grown table -- `h % nslots` would re-use the owner bits and pile
  /// a segment's keys into one seed-size slice. A key homed at `x` re-homes
  /// into [2x, 2x+1] of the doubled table; a seed table keeps its layout.
  static std::uint64_t homeIn(const Table& t, std::uint64_t key) noexcept {
    const std::uint64_t h = rhHash(key);
    const std::uint64_t seed_home = h % t.seed_slots;
    if (t.spread_bits == 0) return seed_home;
    return (seed_home << t.spread_bits) | (h >> (64 - t.spread_bits));
  }

  /// Displacement of `key` if it sat at `pos` of `t` (distance from home).
  static std::uint64_t dispIn(const Table& t, std::uint64_t key,
                              std::uint64_t pos) noexcept {
    const std::uint64_t home = homeIn(t, key);
    return pos >= home ? pos - home : pos + t.nslots - home;
  }

  /// Charge `probes` slot accesses to the simulated clock (processor
  /// 16-byte atomics on the executing locale). No-op without a runtime
  /// (plain LocalDomain programs).
  static void chargeProbes(std::uint64_t probes) {
    if (probes != 0 && Runtime::active()) {
      sim::charge(probes * Runtime::get().config().latency.cpu_atomic_ns);
    }
  }

  // --- guard plumbing ------------------------------------------------------

  /// Run `fn(guard)` under a pinned Domain guard. Progress threads reuse
  /// their thread-cached guard (one pin per AM service, shared by every op
  /// of the batch, instead of a token registration per op); task threads
  /// pin a fresh guard.
  template <typename Fn>
  auto withGuard(Fn&& fn) const {
    if constexpr (Domain::kDistributed) {
      if (taskContext().progress_thread) {
        auto& guard = domain_.get().threadGuard();
        PinScope<typename Domain::Guard> scope(guard);
        return fn(guard);
      }
    }
    auto guard = domain_.get().pin();
    return fn(guard);
  }

  /// Opportunistic reclamation after a completed migration retired the old
  /// table -- never from a progress thread (a reclaim election may wait on
  /// *other* locales' progress threads; a blocked progress thread is a
  /// comm stall).
  template <typename GuardT>
  static void maybeReclaim(GuardT& guard) {
    bool on_progress_thread = false;
    if constexpr (Domain::kDistributed) {
      on_progress_thread = taskContext().progress_thread;
    }
    if (!on_progress_thread) guard.tryReclaim();
  }

  // --- segment-local core (executes on the owning locale) ------------------

  struct SegLock {
    explicit SegLock(Segment& seg) : seg_(seg) {
      Backoff backoff;
      while (seg_.lock.exchange(1, std::memory_order_acquire) != 0) {
        backoff.pause();
      }
    }
    ~SegLock() { seg_.lock.store(0, std::memory_order_release); }
    Segment& seg_;
  };

  /// Non-blocking lock attempt (the migration pump runs on the progress
  /// thread and must never spin on a task-held writer lock: that would
  /// stall the AM service loop).
  struct SegTryLock {
    explicit SegTryLock(Segment& seg) : seg_(seg) {
      held_ = seg.lock.exchange(1, std::memory_order_acquire) == 0;
    }
    ~SegTryLock() {
      if (held_) seg_.lock.store(0, std::memory_order_release);
    }
    bool held_ = false;
    Segment& seg_;
  };

  /// Probe one table for `key` (reader path: no lock; the caller holds the
  /// seqlock sample and a guard). Returns true on a hit.
  static bool probeTable(const Table& t, std::uint64_t key,
                         std::uint64_t& probes,
                         std::optional<std::uint64_t>& out) {
    const std::uint64_t S = t.nslots;
    std::uint64_t pos = homeIn(t, key);
    for (std::uint64_t d = 0; d < S; ++d) {
      const U128 cur = dloadLocal(t.slots[pos]);
      ++probes;
      if (cur.lo == key) {
        out = cur.hi;
        return true;
      }
      if (cur.lo == kEmptyKey || dispIn(t, cur.lo, pos) < d) {
        return false;  // Robin Hood early termination: definitive miss
      }
      pos = pos + 1 == S ? 0 : pos + 1;
    }
    return false;  // wrapped a full table: miss is definitive
  }

  /// seqlock-validated wait-free probe; never takes the writer lock.
  /// Mid-migration a key lives in exactly one table, so the probe checks
  /// the old table then the shadow; both pointers are read through the
  /// guard (the old table may be retired by the time the value is used).
  template <typename GuardT>
  std::optional<std::uint64_t> segFind(const Segment& seg, std::uint64_t key,
                                       GuardT& guard) const {
    PGASNB_CHECK_MSG(key != kEmptyKey, "RobinHoodMap: reserved key");
    std::uint64_t probes = 0;
    std::optional<std::uint64_t> out;
    Backoff backoff;
    for (;;) {
      const std::uint64_t v1 = seg.version.load(std::memory_order_acquire);
      if ((v1 & 1) != 0) {  // a structural mutation is mid-flight
        backoff.pause();
        continue;
      }
      const Table* told = guard.protect(
          [&seg] { return seg.cur.load(std::memory_order_acquire); });
      const Table* tnew = guard.protect(
          [&seg] { return seg.shadow.load(std::memory_order_acquire); });
      out.reset();
      if (!probeTable(*told, key, probes, out) && tnew != nullptr) {
        probeTable(*tnew, key, probes, out);
      }
      if (seg.version.load(std::memory_order_acquire) == v1) break;
      backoff.pause();  // slots moved underneath the probe; retry
    }
    chargeProbes(probes);
    return out;
  }

  /// Locate `key` in `t` (writer-lock held: no seqlock handling needed).
  std::optional<std::uint64_t> tableLocate(const Table& t, std::uint64_t key,
                                           std::uint64_t& probes) const {
    const std::uint64_t S = t.nslots;
    std::uint64_t pos = homeIn(t, key);
    for (std::uint64_t d = 0; d < S; ++d) {
      const U128 cur = dloadLocal(t.slots[pos]);
      ++probes;
      if (cur.lo == key) return pos;
      if (cur.lo == kEmptyKey || dispIn(t, cur.lo, pos) < d) {
        return std::nullopt;
      }
      pos = pos + 1 == S ? 0 : pos + 1;
    }
    return std::nullopt;
  }

  /// Insert or upsert into one table (writer-lock held). Single-slot
  /// placements and in-place updates are plain atomic stores (readers
  /// cannot be misled); displacement chains bump the seqlock version
  /// around the run of moves unless the caller already holds it odd
  /// (`bump_version = false` inside migration chunks).
  PutOutcome tablePlace(Segment& seg, Table& t, std::uint64_t key,
                        std::uint64_t vbits, bool assign, bool bump_version,
                        std::uint64_t& probes) const {
    const std::uint64_t S = t.nslots;
    std::uint64_t pos = homeIn(t, key);
    std::uint64_t d = 0;
    for (;;) {
      if (d >= S) return PutOutcome::full;  // wrapped: full and key absent
      const U128 cur = dloadLocal(t.slots[pos]);
      ++probes;
      if (cur.lo == key) {
        if (!assign) return PutOutcome::present;
        dstoreLocal(t.slots[pos], U128{key, vbits});
        return PutOutcome::updated;
      }
      if (cur.lo == kEmptyKey) {
        // Free slot at our probe position: single-store placement.
        dstoreLocal(t.slots[pos], U128{key, vbits});
        t.used.fetch_add(1, std::memory_order_relaxed);
        noteDisplacement(seg, d);
        return PutOutcome::inserted;
      }
      const std::uint64_t dc = dispIn(t, cur.lo, pos);
      if (dc < d) {
        // The resident is richer: the key is provably absent. Take the
        // slot and re-place the displaced run (Robin Hood swap chain).
        if (t.used.load(std::memory_order_relaxed) >= S) {
          return PutOutcome::full;
        }
        if (bump_version) {
          seg.version.fetch_add(1, std::memory_order_acq_rel);  // odd
        }
        U128 carry = cur;
        std::uint64_t carry_d = dc;
        dstoreLocal(t.slots[pos], U128{key, vbits});
        noteDisplacement(seg, d);
        pos = pos + 1 == S ? 0 : pos + 1;
        ++carry_d;
        for (;;) {
          const U128 victim = dloadLocal(t.slots[pos]);
          ++probes;
          if (victim.lo == kEmptyKey) {
            dstoreLocal(t.slots[pos], carry);
            noteDisplacement(seg, carry_d);
            break;
          }
          const std::uint64_t vd = dispIn(t, victim.lo, pos);
          if (vd < carry_d) {
            dstoreLocal(t.slots[pos], carry);
            noteDisplacement(seg, carry_d);
            carry = victim;
            carry_d = vd;
          }
          pos = pos + 1 == S ? 0 : pos + 1;
          ++carry_d;
        }
        if (bump_version) {
          seg.version.fetch_add(1, std::memory_order_acq_rel);  // even
        }
        t.used.fetch_add(1, std::memory_order_relaxed);
        return PutOutcome::inserted;
      }
      pos = pos + 1 == S ? 0 : pos + 1;
      ++d;
    }
  }

  /// Erase from one table (writer-lock held): locate, then backward-shift
  /// the trailing run one slot left under an odd seqlock window.
  std::optional<std::uint64_t> tableEraseLocked(Segment& seg, Table& t,
                                                std::uint64_t key,
                                                std::uint64_t& probes) const {
    const auto found = tableLocate(t, key, probes);
    if (!found) return std::nullopt;
    const std::uint64_t S = t.nslots;
    std::uint64_t pos = *found;
    const std::uint64_t vbits = dloadLocal(t.slots[pos]).hi;
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // odd
    for (;;) {
      const std::uint64_t nxt = pos + 1 == S ? 0 : pos + 1;
      const U128 succ = dloadLocal(t.slots[nxt]);
      ++probes;
      if (succ.lo == kEmptyKey || dispIn(t, succ.lo, nxt) == 0) {
        break;  // run ends: home-positioned entries never shift back
      }
      dstoreLocal(t.slots[pos], succ);
      pos = nxt;
    }
    dstoreLocal(t.slots[pos], U128{kEmptyKey, 0});
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // even
    t.used.fetch_sub(1, std::memory_order_relaxed);
    return vbits;
  }

  // --- owner-serialized ops (take the lock, piggyback migration) -----------

  PutOutcome ownerPut(Segment& seg, std::uint64_t key, std::uint64_t vbits,
                      bool assign) const {
    return withGuard([&](auto& guard) {
      return segPut(guard, seg, key, vbits, assign);
    });
  }
  std::optional<std::uint64_t> ownerFind(Segment& seg,
                                         std::uint64_t key) const {
    return withGuard(
        [&](auto& guard) { return segFind(seg, key, guard); });
  }
  std::optional<std::uint64_t> ownerErase(Segment& seg,
                                          std::uint64_t key) const {
    return withGuard(
        [&](auto& guard) { return segErase(guard, seg, key); });
  }

  template <typename GuardT>
  PutOutcome segPut(GuardT& guard, Segment& seg, std::uint64_t key,
                    std::uint64_t vbits, bool assign) const {
    PGASNB_CHECK_MSG(key != kEmptyKey, "RobinHoodMap: reserved key");
    std::uint64_t probes = 0;
    PutOutcome outcome = PutOutcome::full;
    bool completed = false;
    {
      SegLock hold(seg);
      Table& told = *seg.cur.load(std::memory_order_relaxed);
      Table* tnew = seg.shadow.load(std::memory_order_relaxed);
      if (tnew == nullptr) {
        outcome = tablePlace(seg, told, key, vbits, assign,
                             /*bump_version=*/true, probes);
        if (outcome == PutOutcome::inserted) {
          seg.used.fetch_add(1, std::memory_order_relaxed);
          maybeStartResize(seg, told, probes);
        } else if (outcome == PutOutcome::full && resize_load_ > 0.0) {
          // The table filled before crossing the load threshold (tiny
          // segments / threshold ~1): grow now, land the key in the shadow.
          startResize(seg, told, probes);
          Table& fresh = *seg.shadow.load(std::memory_order_relaxed);
          outcome = tablePlace(seg, fresh, key, vbits, assign,
                               /*bump_version=*/true, probes);
          if (outcome == PutOutcome::inserted) {
            seg.used.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } else {
        // Mid-migration: the key lives in at most one of the two tables.
        // Updates hit it where it sits; fresh inserts go to the shadow.
        if (const auto pos = tableLocate(told, key, probes)) {
          if (assign) {
            dstoreLocal(told.slots[*pos], U128{key, vbits});
            outcome = PutOutcome::updated;
          } else {
            outcome = PutOutcome::present;
          }
        } else {
          outcome = tablePlace(seg, *tnew, key, vbits, assign,
                               /*bump_version=*/true, probes);
          if (outcome == PutOutcome::inserted) {
            seg.used.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      if (outcome == PutOutcome::full) {
        seg.full_rejects.fetch_add(1, std::memory_order_relaxed);
      }
      if (seg.shadow.load(std::memory_order_relaxed) != nullptr) {
        completed = migrateChunk(guard, seg, probes);
      }
    }
    chargeProbes(probes);
    if (completed) maybeReclaim(guard);
    return outcome;
  }

  template <typename GuardT>
  std::optional<std::uint64_t> segErase(GuardT& guard, Segment& seg,
                                        std::uint64_t key) const {
    PGASNB_CHECK_MSG(key != kEmptyKey, "RobinHoodMap: reserved key");
    std::uint64_t probes = 0;
    std::optional<std::uint64_t> out;
    bool completed = false;
    {
      SegLock hold(seg);
      Table& told = *seg.cur.load(std::memory_order_relaxed);
      out = tableEraseLocked(seg, told, key, probes);
      if (!out) {
        if (Table* tnew = seg.shadow.load(std::memory_order_relaxed)) {
          out = tableEraseLocked(seg, *tnew, key, probes);
        }
      }
      if (out) seg.used.fetch_sub(1, std::memory_order_relaxed);
      if (seg.shadow.load(std::memory_order_relaxed) != nullptr) {
        completed = migrateChunk(guard, seg, probes);
      }
    }
    chargeProbes(probes);
    if (completed) maybeReclaim(guard);
    return out;
  }

  // --- incremental resize --------------------------------------------------

  void maybeStartResize(Segment& seg, Table& t, std::uint64_t& probes) const {
    if (resize_load_ <= 0.0) return;
    const auto thresh = static_cast<std::uint64_t>(
        resize_load_ * static_cast<double>(t.nslots));
    if (t.used.load(std::memory_order_relaxed) >=
        std::max<std::uint64_t>(1, thresh)) {
      startResize(seg, t, probes);
    }
  }

  /// Allocate the doubled shadow and publish it under a seqlock bump (so a
  /// reader that sampled shadow == nullptr revalidates: without the bump a
  /// racing probe could miss an insert that landed in the just-published
  /// shadow). Writer-lock held. The migration cursor starts at the first
  /// empty slot -- chunks may only pause at run boundaries -- falling back
  /// to 0 for a completely full table (the first chunk then drains it
  /// whole).
  void startResize(Segment& seg, Table& t_old, std::uint64_t& probes) const {
    PGASNB_DCHECK(seg.shadow.load(std::memory_order_relaxed) == nullptr);
    Table* fresh =
        Domain::template make<Table>(t_old.nslots * 2, t_old.seed_slots);
    std::uint64_t start = 0;
    for (std::uint64_t i = 0; i < t_old.nslots; ++i) {
      ++probes;
      if (dloadLocal(t_old.slots[i]).lo == kEmptyKey) {
        start = i;
        break;
      }
    }
    seg.migrate_pos = start;
    seg.migrate_left = t_old.nslots;
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // odd
    seg.shadow.store(fresh, std::memory_order_release);
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // even
    seg.resizes.fetch_add(1, std::memory_order_relaxed);
    maybeSchedulePump(seg);
  }

  /// Drain one bounded chunk of the old table into the shadow (writer-lock
  /// held, shadow non-null). The whole chunk runs under one odd seqlock
  /// window, and the cursor only stops on empty slots: the old table's
  /// occupied region stays a union of intact probe runs, so concurrent
  /// readers' early termination stays sound. Returns true when migration
  /// completed (old table promoted out and retired through the domain).
  template <typename GuardT>
  bool migrateChunk(GuardT& guard, Segment& seg,
                    std::uint64_t& probes) const {
    Table& src = *seg.cur.load(std::memory_order_relaxed);
    Table& dst = *seg.shadow.load(std::memory_order_relaxed);
    const std::uint64_t S = src.nslots;
    std::uint64_t moved = 0;
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // odd
    while (seg.migrate_left > 0) {
      const std::uint64_t pos = seg.migrate_pos;
      const U128 entry = dloadLocal(src.slots[pos]);
      ++probes;
      if (entry.lo == kEmptyKey && moved >= migrate_chunk_) {
        break;  // run boundary reached with the chunk budget spent
      }
      seg.migrate_pos = pos + 1 == S ? 0 : pos + 1;
      --seg.migrate_left;
      if (entry.lo == kEmptyKey) continue;
      const PutOutcome placed =
          tablePlace(seg, dst, entry.lo, entry.hi, /*assign=*/false,
                     /*bump_version=*/false, probes);
      PGASNB_DCHECK(placed == PutOutcome::inserted);
      (void)placed;
      dstoreLocal(src.slots[pos], U128{kEmptyKey, 0});
      src.used.fetch_sub(1, std::memory_order_relaxed);
      ++moved;
    }
    bool completed = false;
    if (seg.migrate_left == 0) {
      Table* old = seg.cur.load(std::memory_order_relaxed);
      PGASNB_DCHECK(old->used.load(std::memory_order_relaxed) == 0);
      seg.cur.store(seg.shadow.load(std::memory_order_relaxed),
                    std::memory_order_release);
      seg.shadow.store(nullptr, std::memory_order_release);
      Domain::template retireNode<Table>(guard, old);
      completed = true;
    }
    seg.version.fetch_add(1, std::memory_order_acq_rel);  // even
    seg.migrate_chunks.fetch_add(1, std::memory_order_relaxed);
    seg.migrated_entries.fetch_add(moved, std::memory_order_relaxed);
    return completed;
  }

  /// Arm the self-targeted migration pump: one AM on our own progress
  /// thread that drains a chunk per service and re-enqueues itself until
  /// the segment finishes migrating. amProgressHandle always goes through
  /// the AM queue (even to self), so the pump never recurses into the
  /// mutation that armed it. LocalDomain has no progress thread: migration
  /// then advances only by piggybacking on mutations.
  void maybeSchedulePump(Segment& seg) const {
    if constexpr (Domain::kDistributed) {
      if (!Runtime::active()) return;
      bool expected = false;
      if (!seg.pump_active.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        return;  // a pump is already in flight
      }
      auto map = *this;
      comm::amProgressHandle(Runtime::here(), [map] { map.pumpStep(); });
    } else {
      (void)seg;
    }
  }

  /// One pump service pass. Invariant: a pump AM in flight (queued or
  /// executing) implies pump_active == true; the flag is cleared only
  /// here, *inside* the writer lock, at the no-more-work exit -- after the
  /// clear this invocation never touches the segment again. That gives
  /// two guarantees at once: a startResize (also under the lock) either
  /// runs before the clear (the pump sees its shadow and keeps going) or
  /// after it (its maybeSchedulePump CAS succeeds and arms a fresh pump),
  /// so no migration is left pumpless; and destroy() can free the segment
  /// once it observes pump_active == false *through the lock* (see
  /// destroy()), because no pump AM can still be holding the pointer.
  void pumpStep() const {
    Segment* segp = segments_.instanceOn(Runtime::here());
    if (segp == nullptr) return;  // raced with destroy()
    Segment& seg = *segp;
    bool more = true;
    withGuard([&](auto& guard) {
      SegTryLock hold(seg);
      if (!hold.held_) return;  // writer active; retry next service pass
      if (seg.shadow.load(std::memory_order_relaxed) == nullptr) {
        // A piggybacking mutation finished the migration.
        seg.pump_active.store(false, std::memory_order_release);
        more = false;
        return;
      }
      std::uint64_t probes = 0;
      more = !migrateChunk(guard, seg, probes);
      chargeProbes(probes);
      if (!more) seg.pump_active.store(false, std::memory_order_release);
    });
    if (more) {
      auto map = *this;
      comm::amProgressHandle(Runtime::here(), [map] { map.pumpStep(); });
    }
  }

  // --- introspection internals ---------------------------------------------

  /// (live slot capacity, mid-migration?) of one segment, read under a
  /// guard with seqlock validation.
  std::pair<std::uint64_t, bool> liveExtent(Segment& seg) const {
    return withGuard([&](auto& guard) {
      Backoff backoff;
      for (;;) {
        const std::uint64_t v1 = seg.version.load(std::memory_order_acquire);
        if ((v1 & 1) != 0) {
          backoff.pause();
          continue;
        }
        const Table* tnew = guard.protect(
            [&seg] { return seg.shadow.load(std::memory_order_acquire); });
        const Table* told = guard.protect(
            [&seg] { return seg.cur.load(std::memory_order_acquire); });
        const std::uint64_t n = tnew != nullptr ? tnew->nslots : told->nslots;
        const bool migrating = tnew != nullptr;
        if (seg.version.load(std::memory_order_acquire) == v1) {
          return std::make_pair(n, migrating);
        }
        backoff.pause();
      }
    });
  }

  bool segValidate(Segment& seg) const {
    SegLock hold(seg);
    if ((seg.version.load(std::memory_order_acquire) & 1) != 0) {
      return false;  // seqlock must be even whenever no writer holds it
    }
    const Table* tables[2] = {seg.cur.load(std::memory_order_relaxed),
                              seg.shadow.load(std::memory_order_relaxed)};
    std::vector<std::uint64_t> keys;
    std::uint64_t occupied = 0;
    for (const Table* t : tables) {
      if (t == nullptr) continue;
      const std::uint64_t S = t->nslots;
      std::uint64_t census = 0;
      for (std::uint64_t pos = 0; pos < S; ++pos) {
        const U128 cur = dloadLocal(t->slots[pos]);
        if (cur.lo == kEmptyKey) continue;
        ++census;
        keys.push_back(cur.lo);
        if (ownerOf(cur.lo) != currentSegmentOwner()) return false;
        const std::uint64_t d = dispIn(*t, cur.lo, pos);
        if (d == 0) continue;
        const std::uint64_t prev_pos = pos == 0 ? S - 1 : pos - 1;
        const U128 prev = dloadLocal(t->slots[prev_pos]);
        // Robin Hood ordering: a displaced entry sits behind a neighbour
        // displaced at least d-1 (an empty or richer predecessor would
        // mean this entry failed to take a slot it was entitled to). This
        // holds mid-migration too: chunks empty whole runs, never a run
        // prefix.
        if (prev.lo == kEmptyKey) return false;
        if (dispIn(*t, prev.lo, prev_pos) + 1 < d) return false;
      }
      if (census != t->used.load(std::memory_order_relaxed)) return false;
      occupied += census;
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return false;  // a key must live in exactly one table
    }
    return occupied == seg.used.load(std::memory_order_relaxed);
  }

  static std::uint32_t currentSegmentOwner() noexcept {
    if constexpr (Domain::kDistributed) {
      return Runtime::here();
    } else {
      return 0;
    }
  }

  // --- op routing ----------------------------------------------------------

  /// Run `fn(segment)` on the key's owning locale (in place for a
  /// LocalDomain), blocking like the other structures' sync ops.
  template <typename Fn>
  void onOwner(std::uint64_t key, const Fn& fn) const {
    if constexpr (Domain::kDistributed) {
      const std::uint32_t owner = ownerOf(key);
      auto segments = segments_;
      comm::amSync(owner, [&fn, segments] { fn(segments.local()); });
    } else {
      fn(*local_segment_);
    }
  }

  /// Run `op(map, segment)` -> R on the key's owner through the calling
  /// task's Aggregator, which alone decides how it runs -- in a batched AM
  /// to a remote owner (resolving with the batch), or inline on this thread
  /// for an own-locale key (after the window's remote batches ship, or at
  /// once outside a window).
  template <typename R, typename Op>
  comm::Handle<R> shipAggregated(std::uint64_t key, Op op) const {
    if constexpr (Domain::kDistributed) {
      auto state = std::make_shared<comm::detail::HandleState<R>>();
      auto* raw = state.get();
      auto map = *this;
      comm::taskAggregator().enqueueWithCore(
          ownerOf(key),
          [map, raw, op = std::move(op)] {
            raw->value = op(map, map.segments_.local());
          },
          state);
      return comm::Handle<R>(std::move(state));
    } else {
      return comm::readyValueHandle(op(*this, *local_segment_));
    }
  }

  static void noteDisplacement(Segment& seg, std::uint64_t disp) {
    std::uint64_t seen = seg.max_disp.load(std::memory_order_relaxed);
    while (seen < disp && !seg.max_disp.compare_exchange_weak(
                              seen, disp, std::memory_order_relaxed)) {
    }
  }

  Privatized<Segment> segments_;      // DistDomain storage
  Segment* local_segment_ = nullptr;  // LocalDomain storage
  DomainRef<Domain> domain_;          // guards readers; reclaims old tables
  std::uint64_t capacity_ = 0;
  std::uint64_t seg_slots_ = 0;
  std::uint32_t num_locales_ = 1;
  double resize_load_ = 0.85;
  std::uint32_t migrate_chunk_ = 64;
};

}  // namespace pgasnb
