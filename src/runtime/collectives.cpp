#include "runtime/collectives.hpp"

#include <atomic>
#include <utility>

#include "runtime/comm.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task.hpp"
#include "util/check.hpp"

namespace pgasnb {

bool PendingAnd::wait() {
  PGASNB_CHECK_MSG(valid(), "wait() on an invalid PendingAnd");
  group_->wait();
  return state_->result.load(std::memory_order_acquire);
}

PendingAnd allLocalesAndAsync(std::function<bool()> f) {
  PendingAnd pending;
  pending.state_ = std::make_shared<PendingAnd::State>();
  pending.group_ = std::make_unique<TaskGroup>();
  const std::uint32_t n = Runtime::get().numLocales();
  pending.state_->fn = std::move(f);
  pending.state_->remaining.store(n, std::memory_order_relaxed);
  auto state = pending.state_;
  for (std::uint32_t l = 0; l < n; ++l) {
    pending.group_->spawnOn(l, [state] {
      // remaining must reach 0 even if fn throws, or ready() never
      // converges; the exception still rethrows at wait() via the group.
      bool ok = false;
      try {
        ok = state->fn();
      } catch (...) {
        state->remaining.fetch_sub(1, std::memory_order_release);
        throw;
      }
      if (!ok) state->result.store(false, std::memory_order_relaxed);
      state->remaining.fetch_sub(1, std::memory_order_release);
    });
  }
  return pending;
}

bool allLocalesAnd(const std::function<bool()>& f) {
  return allLocalesAndAsync(f).wait();
}

bool epochBoundaryCollective(const std::function<bool()>& f) {
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  return allLocalesAndAsync(f).wait();
}

std::uint64_t allLocalesSum(const std::function<std::uint64_t()>& f) {
  std::atomic<std::uint64_t> result{0};
  coforallLocales([&] { result.fetch_add(f(), std::memory_order_relaxed); });
  return result.load(std::memory_order_relaxed);
}

}  // namespace pgasnb
