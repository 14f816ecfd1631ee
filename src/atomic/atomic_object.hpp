// AtomicObject: atomic operations on class instances across locales
// (paper Sec. II.A).
//
// Primary representation: a *compressed* wide pointer -- 48-bit virtual
// address + 16-bit locale id in a single 64-bit word -- held in a
// network-visible atomic. Because the word is 64 bits, the NIC can operate
// on it with RDMA atomics (CommMode::ugni), which is what makes remote CAS
// cost ~1us instead of an active-message round trip. The scheme supports up
// to 2^16 locales; beyond that (or for ablation) AtomicObjectDcas keeps the
// full 128-bit wide pointer and "demotes" every remote operation to remote
// execution + CMPXCHG16B, as the paper describes.
//
// With `WithAba = true` the storage is a 128-bit {compressed pointer,
// generation count}; 16-byte atomics do not exist on any NIC, so ABA
// operations always use local DCAS or remote execution -- again exactly the
// trade-off measured in the paper (Fig. 3: "AtomicObject (ABA)" tracks the
// no-network-atomics line).
#pragma once

#include <cstdint>

#include "atomic/aba.hpp"
#include "atomic/pointer_compression.hpp"
#include "runtime/comm.hpp"
#include "runtime/wide_ptr.hpp"

namespace pgasnb {

template <typename T, bool WithAba = false>
class AtomicObject {
 public:
  explicit AtomicObject(T* initial = nullptr)
      : word_(compressFrom(initial)) {}

  /// The stored instance; usable from any locale (PGAS address space).
  T* read() const { return decompressAddr<T>(word_.read()); }

  /// The stored instance with its locality information.
  WidePtr<T> readWide() const {
    const auto d = decompressPointer(word_.read());
    return WidePtr<T>(static_cast<T*>(d.addr), d.locale);
  }

  void write(T* desired) { word_.write(compressFrom(desired)); }

  T* exchange(T* desired) {
    return decompressAddr<T>(word_.exchange(compressFrom(desired)));
  }

  /// Chapel's compareExchange(ref expected, desired): one CAS (a NIC
  /// atomic under ugni). On failure `expected` is overwritten with the
  /// pointer the CAS found -- its witness -- so a retry loop needs no
  /// re-read.
  bool compareExchange(T*& expected, T* desired) {
    std::uint64_t e = compressFrom(expected);
    if (word_.compareAndSwap(e, compressFrom(desired))) return true;
    expected = decompressAddr<T>(e);
    return false;
  }

  /// The paper's by-value spelling: the witness is dropped.
  bool compareAndSwap(T* expected, T* desired) {
    return compareExchange(expected, desired);
  }

 private:
  static std::uint64_t compressFrom(T* p) {
    if (p == nullptr) return 0;
    return compressPointer(Runtime::get().localeOfAddress(p), p);
  }

  DistAtomicU64 word_;
};

/// ABA-protected specialization: {compressed pointer, generation count} in
/// 16 bytes, updated with (possibly remote) DCAS.
template <typename T>
class AtomicObject<T, /*WithAba=*/true> {
 public:
  explicit AtomicObject(T* initial = nullptr) {
    word_.lo = compressFrom(initial);
    word_.hi = 0;
  }

  T* read() const { return decompressAddr<T>(comm::dread(word_).lo); }

  WidePtr<T> readWide() const {
    const auto d = decompressPointer(comm::dread(word_).lo);
    return WidePtr<T>(static_cast<T*>(d.addr), d.locale);
  }

  void write(T* desired) {
    U128 cur = comm::dread(word_);
    U128 next{compressFrom(desired), cur.hi + 1};
    while (!comm::dcas(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
  }

  T* exchange(T* desired) {
    U128 cur = comm::dread(word_);
    U128 next{compressFrom(desired), cur.hi + 1};
    while (!comm::dcas(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
    return decompressAddr<T>(cur.lo);
  }

  bool compareAndSwap(T* expected, T* desired) {
    const std::uint64_t expected_bits = compressFrom(expected);
    U128 cur = comm::dread(word_);
    while (cur.lo == expected_bits) {
      U128 next{compressFrom(desired), cur.hi + 1};
      if (comm::dcas(word_, cur, next)) return true;
    }
    return false;
  }

  // --- ABA API ----------------------------------------------------------

  ABA<T> readABA() const {
    const U128 cur = comm::dread(word_);
    return ABA<T>(decompressAddr<T>(cur.lo), cur.hi);
  }

  /// One DCAS on {address, count}. On failure `expected` is overwritten
  /// with the {address, count} the DCAS found (comm::dcas's witness).
  bool compareExchangeABA(ABA<T>& expected, T* desired) {
    U128 e{compressFrom(expected.getObject()), expected.getABACount()};
    const U128 next{compressFrom(desired), e.hi + 1};
    if (comm::dcas(word_, e, next)) return true;
    expected = ABA<T>(decompressAddr<T>(e.lo), e.hi);
    return false;
  }

  bool compareAndSwapABA(ABA<T> expected, T* desired) {
    return compareExchangeABA(expected, desired);
  }

  void writeABA(const ABA<T>& desired) {
    comm::dwrite(word_,
                 U128{compressFrom(desired.getObject()), desired.getABACount()});
  }

  ABA<T> exchangeABA(T* desired) {
    U128 cur = comm::dread(word_);
    U128 next{compressFrom(desired), cur.hi + 1};
    while (!comm::dcas(word_, cur, next)) {
      next.hi = cur.hi + 1;
    }
    return ABA<T>(decompressAddr<T>(cur.lo), cur.hi);
  }

 private:
  static std::uint64_t compressFrom(T* p) {
    if (p == nullptr) return 0;
    return compressPointer(Runtime::get().localeOfAddress(p), p);
  }

  mutable U128 word_;
};

/// Fallback for machines beyond 2^16 locales (and the ablation baseline):
/// the full 128-bit wide pointer {address, locale} updated via DCAS. Every
/// remote operation is an active-message round trip -- no RDMA atomics are
/// possible on 16-byte words -- so this is strictly slower than the
/// compressed AtomicObject on ugni networks (bench/ablation_compression_vs_dcas).
template <typename T>
class AtomicObjectDcas {
 public:
  explicit AtomicObjectDcas(T* initial = nullptr) {
    word_.lo = reinterpret_cast<std::uint64_t>(initial);
    word_.hi = initial == nullptr ? 0 : Runtime::get().localeOfAddress(initial);
  }

  T* read() const {
    return reinterpret_cast<T*>(comm::dread(word_).lo);
  }

  WidePtr<T> readWide() const {
    const U128 cur = comm::dread(word_);
    return WidePtr<T>(reinterpret_cast<T*>(cur.lo),
                      static_cast<std::uint32_t>(cur.hi));
  }

  void write(T* desired) { comm::dwrite(word_, widen128(desired)); }

  T* exchange(T* desired) {
    return reinterpret_cast<T*>(comm::dexchange(word_, widen128(desired)).lo);
  }

  bool compareAndSwap(T* expected, T* desired) {
    U128 e = widen128(expected);
    return comm::dcas(word_, e, widen128(desired));
  }

 private:
  static U128 widen128(T* p) {
    U128 w;
    w.lo = reinterpret_cast<std::uint64_t>(p);
    w.hi = p == nullptr ? 0 : Runtime::get().localeOfAddress(p);
    return w;
  }

  mutable U128 word_;
};

}  // namespace pgasnb
