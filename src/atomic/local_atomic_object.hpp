// LocalAtomicObject: atomic operations on class instances, shared-memory
// optimized (paper Sec. II.A).
//
// The locality information of the wide pointer is ignored; only the 64-bit
// virtual address is kept, in a plain processor atomic. With `WithAba =
// true` the word grows to 128 bits -- the address plus a generation counter
// updated by DCAS -- and every mutating operation (ABA-suffixed or not)
// bumps the counter, so the ABA and non-ABA APIs can be mixed freely, as
// the paper allows.
//
// This type needs no runtime: it is usable in ordinary multithreaded C++.
#pragma once

#include <atomic>
#include <cstdint>

#include "atomic/aba.hpp"
#include "atomic/dcas.hpp"

namespace pgasnb {

template <typename T, bool WithAba = false>
class LocalAtomicObject {
 public:
  explicit LocalAtomicObject(T* initial = nullptr) noexcept
      : bits_(reinterpret_cast<std::uint64_t>(initial)) {}

  T* read() const noexcept {
    return fromBits(bits_.load(std::memory_order_seq_cst));
  }

  void write(T* desired) noexcept {
    bits_.store(toBits(desired), std::memory_order_seq_cst);
  }

  T* exchange(T* desired) noexcept {
    return fromBits(bits_.exchange(toBits(desired), std::memory_order_seq_cst));
  }

  /// Chapel's compareExchange(ref expected, desired): CAS on the address.
  /// On failure the object is unchanged and `expected` is overwritten with
  /// the address found (the CAS's witness).
  bool compareExchange(T*& expected, T* desired) noexcept {
    std::uint64_t e = toBits(expected);
    if (bits_.compare_exchange_strong(e, toBits(desired),
                                      std::memory_order_seq_cst)) {
      return true;
    }
    expected = fromBits(e);
    return false;
  }

  /// The paper's by-value spelling: the witness is dropped.
  bool compareAndSwap(T* expected, T* desired) noexcept {
    return compareExchange(expected, desired);
  }

 private:
  static std::uint64_t toBits(T* p) noexcept {
    return reinterpret_cast<std::uint64_t>(p);
  }
  static T* fromBits(std::uint64_t bits) noexcept {
    return reinterpret_cast<T*>(bits);
  }

  std::atomic<std::uint64_t> bits_;
};

/// ABA-protected specialization: 128-bit {address, generation} storage.
template <typename T>
class LocalAtomicObject<T, /*WithAba=*/true> {
 public:
  explicit LocalAtomicObject(T* initial = nullptr) noexcept {
    word_.lo = reinterpret_cast<std::uint64_t>(initial);
    word_.hi = 0;
  }

  // --- address-only API (still ABA-safe: every mutation bumps the count) ---

  T* read() const noexcept { return fromBits(dloadLocal(word_).lo); }

  void write(T* desired) noexcept {
    U128 cur = dloadLocal(word_);
    U128 next{toBits(desired), cur.hi + 1};
    while (!dcasLocal(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
  }

  T* exchange(T* desired) noexcept {
    U128 cur = dloadLocal(word_);
    U128 next{toBits(desired), cur.hi + 1};
    while (!dcasLocal(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
    return fromBits(cur.lo);
  }

  bool compareAndSwap(T* expected, T* desired) noexcept {
    U128 cur = dloadLocal(word_);
    while (cur.lo == toBits(expected)) {
      U128 next{toBits(desired), cur.hi + 1};
      if (dcasLocal(word_, cur, next)) return true;
      // cur reloaded by the failed DCAS; loop re-checks the address.
    }
    return false;
  }

  // --- ABA API ----------------------------------------------------------

  ABA<T> readABA() const noexcept {
    const U128 cur = dloadLocal(word_);
    return ABA<T>(fromBits(cur.lo), cur.hi);
  }

  /// Succeeds only if both the address and the generation count match,
  /// defeating ABA even when the same address is recycled. On failure
  /// `expected` is overwritten with the {address, count} found.
  bool compareExchangeABA(ABA<T>& expected, T* desired) noexcept {
    U128 e{toBits(expected.getObject()), expected.getABACount()};
    const U128 next{toBits(desired), e.hi + 1};
    if (dcasLocal(word_, e, next)) return true;
    expected = ABA<T>(fromBits(e.lo), e.hi);
    return false;
  }

  bool compareAndSwapABA(ABA<T> expected, T* desired) noexcept {
    return compareExchangeABA(expected, desired);
  }

  void writeABA(const ABA<T>& desired) noexcept {
    dstoreLocal(word_, U128{toBits(desired.getObject()), desired.getABACount()});
  }

  ABA<T> exchangeABA(T* desired) noexcept {
    U128 cur = dloadLocal(word_);
    U128 next{toBits(desired), cur.hi + 1};
    while (!dcasLocal(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
    return ABA<T>(fromBits(cur.lo), cur.hi);
  }

 private:
  static std::uint64_t toBits(T* p) noexcept {
    return reinterpret_cast<std::uint64_t>(p);
  }
  static T* fromBits(std::uint64_t bits) noexcept {
    return reinterpret_cast<T*>(bits);
  }

  mutable U128 word_;
};

}  // namespace pgasnb
