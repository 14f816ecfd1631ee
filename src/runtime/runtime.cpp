#include "runtime/runtime.hpp"

#include <sys/mman.h>

#include <atomic>

#include "atomic/pointer_compression.hpp"
#include "util/cache_line.hpp"
#include "util/check.hpp"

namespace pgasnb {

namespace {

// Every Runtime::get() reads this pointer: it gets a whole cache line, so
// a layout shift can never put a counter that other threads bump beside it.
struct alignas(kCacheLineSize) RuntimeSlot {
  std::atomic<Runtime*> ptr{nullptr};
};
RuntimeSlot g_runtime;
std::atomic<std::uint64_t> g_runtime_generation{0};

}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(config),
      generation_(g_runtime_generation.fetch_add(1,
                                                 std::memory_order_relaxed) +
                  1) {
  PGASNB_CHECK_MSG(config_.num_locales >= 1, "need at least one locale");
  PGASNB_CHECK_MSG(config_.num_locales <= kMaxCompressedLocales,
                   "num_locales exceeds the 2^16 locales pointer compression "
                   "can address");
  PGASNB_CHECK_MSG(config_.workers_per_locale >= 1,
                   "need at least one worker per locale");

  // One contiguous reservation partitioned evenly across locales makes
  // locale-of-address a constant-time divide. MAP_NORESERVE keeps the
  // virtual footprint cheap; pages are committed on first touch.
  per_locale_bytes_ = config_.arena_bytes_per_locale;
  heap_bytes_ = per_locale_bytes_ * config_.num_locales;
  void* mem = ::mmap(nullptr, heap_bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PGASNB_CHECK_MSG(mem != MAP_FAILED, "mmap of partitioned heap failed");
  heap_base_ = static_cast<std::byte*>(mem);

  Runtime* expected = nullptr;
  PGASNB_CHECK_MSG(
      g_runtime.ptr.compare_exchange_strong(expected, this),
      "another Runtime is already active in this process");

  locales_.reserve(config_.num_locales);
  for (std::uint32_t l = 0; l < config_.num_locales; ++l) {
    locales_.push_back(std::make_unique<Locale>(
        l, heap_base_ + static_cast<std::size_t>(l) * per_locale_bytes_,
        per_locale_bytes_, config_.workers_per_locale));
  }
  // Threads are started only after the locale table is complete: progress
  // threads and workers call Runtime::get() and locale() freely.
  for (auto& locale : locales_) locale->startThreads();

  // The constructing thread is locale 0's initial task.
  taskContext() = TaskContext{};
}

Runtime::~Runtime() {
  for (auto& locale : locales_) locale->stopThreads();
  locales_.clear();
  g_runtime.ptr.store(nullptr, std::memory_order_release);
  if (heap_base_ != nullptr) {
    ::munmap(heap_base_, heap_bytes_);
  }
}

Runtime& Runtime::get() {
  Runtime* rt = g_runtime.ptr.load(std::memory_order_acquire);
  PGASNB_CHECK_MSG(rt != nullptr, "no active pgasnb::Runtime");
  return *rt;
}

bool Runtime::active() noexcept {
  return g_runtime.ptr.load(std::memory_order_acquire) != nullptr;
}

Locale& Runtime::locale(std::uint32_t id) {
  PGASNB_CHECK_MSG(id < locales_.size(), "locale id out of range");
  return *locales_[id];
}

std::uint32_t Runtime::localeOfAddress(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  if (b < heap_base_ || b >= heap_base_ + heap_bytes_) {
    return here();
  }
  return static_cast<std::uint32_t>(
      static_cast<std::size_t>(b - heap_base_) / per_locale_bytes_);
}

void* Runtime::allocateOn(std::uint32_t locale_id, std::size_t bytes,
                          std::size_t align) {
  return locale(locale_id).arena().allocate(bytes, align);
}

void Runtime::deallocateLocal(void* p, std::size_t bytes) {
  const std::uint32_t owner = localeOfAddress(p);
  PGASNB_CHECK_MSG(owner == here(),
                   "deallocation must run on the owning locale (use "
                   "onLocale or a reclaim domain's retire)");
  locale(owner).arena().deallocate(p, bytes);
}

}  // namespace pgasnb
