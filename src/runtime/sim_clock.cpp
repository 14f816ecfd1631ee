#include "runtime/sim_clock.hpp"

#include "runtime/latency_model.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb {

TaskContext& taskContext() noexcept {
  thread_local TaskContext ctx;
  return ctx;
}

namespace sim {

std::uint64_t now() noexcept { return taskContext().sim_now; }

void setNow(std::uint64_t ns) noexcept { taskContext().sim_now = ns; }

void joinAtLeast(std::uint64_t ns) noexcept {
  // Max-fold: joining an event that finished in the (simulated) past is
  // free; joining the future advances the clock to it. All the higher
  // join semantics (waitAll's order-independence, whenAll/OpWindow closing
  // at the set's max) reduce to this.
  auto& ctx = taskContext();
  if (ns > ctx.sim_now) ctx.sim_now = ns;
}

void charge(std::uint64_t ns) {
  taskContext().sim_now += ns;
  if (Runtime::active()) {
    const auto& cfg = Runtime::get().config();
    if (cfg.inject_delays) {
      busyWaitNanos(ns, cfg.latency.delay_scale);
    }
  }
}

void chargeModelOnly(std::uint64_t ns) noexcept { taskContext().sim_now += ns; }

}  // namespace sim
}  // namespace pgasnb
