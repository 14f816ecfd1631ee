#include "runtime/collectives.hpp"

#include <atomic>

#include "runtime/comm.hpp"
#include "runtime/task.hpp"

namespace pgasnb {

bool allLocalesAnd(const std::function<bool()>& f) {
  std::atomic<bool> result{true};
  coforallLocales([&] {
    if (!f()) result.store(false, std::memory_order_relaxed);
  });
  return result.load(std::memory_order_relaxed);
}

bool epochBoundaryCollective(const std::function<bool()>& f) {
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  return allLocalesAnd(f);
}

std::uint64_t allLocalesSum(const std::function<std::uint64_t()>& f) {
  std::atomic<std::uint64_t> result{0};
  coforallLocales([&] { result.fetch_add(f(), std::memory_order_relaxed); });
  return result.load(std::memory_order_relaxed);
}

}  // namespace pgasnb
