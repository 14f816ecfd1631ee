// Distributed domains and arrays (Chapel's `dmapped Cyclic/Block`).
//
// The benchmark in the paper's Listing 5 iterates a cyclically distributed
// array of objects with per-task intents; CyclicArray::forallTasks is the
// C++ rendering of that loop:
//
//   arr.forallTasks(tasks_per_locale,
//                   [&] { return domain.pin(); },             // task intent
//                   [&](auto& guard, std::uint64_t i, T& elem) { ... });
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/task.hpp"
#include "util/check.hpp"

namespace pgasnb {

/// Cyclic index distribution: global index i lives on locale (i % L).
class CyclicDomain {
 public:
  CyclicDomain() = default;
  explicit CyclicDomain(std::uint64_t size)
      : size_(size), num_locales_(Runtime::get().numLocales()) {}

  std::uint64_t size() const noexcept { return size_; }
  std::uint32_t numLocales() const noexcept { return num_locales_; }

  std::uint32_t localeOf(std::uint64_t i) const noexcept {
    return static_cast<std::uint32_t>(i % num_locales_);
  }
  /// Number of indices owned by locale l.
  std::uint64_t localCount(std::uint32_t l) const noexcept {
    return (size_ + num_locales_ - 1 - l) / num_locales_;
  }
  /// k-th local index of locale l -> global index.
  std::uint64_t globalIndex(std::uint32_t l, std::uint64_t k) const noexcept {
    return static_cast<std::uint64_t>(l) + k * num_locales_;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint32_t num_locales_ = 1;
};

/// Block distribution: contiguous slabs, locale l owns [l*n/L, (l+1)*n/L).
class BlockDomain {
 public:
  BlockDomain() = default;
  explicit BlockDomain(std::uint64_t size)
      : size_(size), num_locales_(Runtime::get().numLocales()) {}

  std::uint64_t size() const noexcept { return size_; }
  std::uint32_t numLocales() const noexcept { return num_locales_; }

  std::uint64_t blockLo(std::uint32_t l) const noexcept {
    return size_ * l / num_locales_;
  }
  std::uint64_t blockHi(std::uint32_t l) const noexcept {
    return size_ * (l + 1) / num_locales_;
  }
  std::uint32_t localeOf(std::uint64_t i) const noexcept {
    // Inverse of blockLo/blockHi; binary-search-free approximation followed
    // by correction handles the rounding.
    auto l = static_cast<std::uint32_t>(i * num_locales_ / (size_ == 0 ? 1 : size_));
    while (l > 0 && i < blockLo(l)) --l;
    while (l + 1 < num_locales_ && i >= blockHi(l)) ++l;
    return l;
  }
  std::uint64_t localCount(std::uint32_t l) const noexcept {
    return blockHi(l) - blockLo(l);
  }
  std::uint64_t globalIndex(std::uint32_t l, std::uint64_t k) const noexcept {
    return blockLo(l) + k;
  }

 private:
  std::uint64_t size_ = 0;
  std::uint32_t num_locales_ = 1;
};

/// A distributed array whose element storage lives in the owning locales'
/// arenas. T must be default-constructible.
template <typename T, typename Dom = CyclicDomain>
class DistArray {
 public:
  DistArray() = default;

  explicit DistArray(std::uint64_t size) : dom_(size) {
    Runtime& rt = Runtime::get();
    chunks_.assign(dom_.numLocales(), nullptr);
    coforallLocales([&] {
      const std::uint32_t l = Runtime::here();
      const std::uint64_t count = dom_.localCount(l);
      if (count == 0) return;
      T* chunk =
          static_cast<T*>(rt.allocateOn(l, sizeof(T) * count, alignof(T)));
      for (std::uint64_t k = 0; k < count; ++k) ::new (chunk + k) T();
      chunks_[l] = chunk;
    });
  }

  DistArray(const DistArray&) = delete;
  DistArray& operator=(const DistArray&) = delete;
  DistArray(DistArray&& other) noexcept { *this = std::move(other); }
  DistArray& operator=(DistArray&& other) noexcept {
    dom_ = other.dom_;
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
    return *this;
  }

  ~DistArray() { destroy(); }

  /// Collective teardown (also run by the destructor).
  void destroy() {
    if (chunks_.empty()) return;
    Runtime& rt = Runtime::get();
    coforallLocales([&] {
      const std::uint32_t l = Runtime::here();
      const std::uint64_t count = dom_.localCount(l);
      T* chunk = chunks_[l];
      if (chunk == nullptr) return;
      for (std::uint64_t k = 0; k < count; ++k) chunk[k].~T();
      rt.locale(l).arena().deallocate(chunk, sizeof(T) * count);
    });
    chunks_.clear();
  }

  const Dom& domain() const noexcept { return dom_; }
  std::uint64_t size() const noexcept { return dom_.size(); }

  /// Direct element access. This is the simulation shortcut used by setup
  /// and verification code; measured code paths should access elements from
  /// their owning locale (forallTasks) or via comm::put/get.
  T& operator[](std::uint64_t i) {
    const std::uint32_t l = dom_.localeOf(i);
    return chunks_[l][localOffset(l, i)];
  }

  T& localAt(std::uint32_t l, std::uint64_t k) { return chunks_[l][k]; }

  /// The paper's Listing 5 loop: `forall x in X with (var state = init())`.
  /// init() runs once per task on the task's locale; body(state, i, elem)
  /// runs for every element owned by that locale.
  template <typename TaskInit, typename Body>
  void forallTasks(std::uint32_t tasks_per_locale, const TaskInit& init,
                   const Body& body) {
    PGASNB_CHECK(tasks_per_locale >= 1);
    coforallLocales([&] {
      const std::uint32_t l = Runtime::here();
      const std::uint64_t count = dom_.localCount(l);
      coforallHere(tasks_per_locale, [&](std::uint32_t t) {
        auto state = init();
        const std::uint64_t lo = count * t / tasks_per_locale;
        const std::uint64_t hi = count * (t + 1) / tasks_per_locale;
        for (std::uint64_t k = lo; k < hi; ++k) {
          body(state, dom_.globalIndex(l, k), chunks_[l][k]);
        }
      });
    });
  }

 private:
  std::uint64_t localOffset(std::uint32_t l, std::uint64_t i) const {
    if constexpr (std::is_same_v<Dom, CyclicDomain>) {
      (void)l;
      return i / dom_.numLocales();
    } else {
      return i - dom_.blockLo(l);
    }
  }

  Dom dom_;
  std::vector<T*> chunks_;
};

template <typename T>
using CyclicArray = DistArray<T, CyclicDomain>;
template <typename T>
using BlockArray = DistArray<T, BlockDomain>;

}  // namespace pgasnb
