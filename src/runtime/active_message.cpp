#include "runtime/active_message.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/sim_clock.hpp"
#include "util/check.hpp"

namespace pgasnb {

namespace {

struct ServiceState {
  bool active = false;
  std::vector<std::pair<AmServiceScope::Hook, void*>> hooks;
};

ServiceState& serviceState() {
  thread_local ServiceState state;
  return state;
}

}  // namespace

AmServiceScope::AmServiceScope() {
  ServiceState& state = serviceState();
  PGASNB_DCHECK(!state.active && state.hooks.empty());
  state.active = true;
}

AmServiceScope::~AmServiceScope() {
  ServiceState& state = serviceState();
  // Leave the service first: code a hook runs is outside the batch.
  state.active = false;
  for (const auto& [hook, arg] : state.hooks) hook(arg);
  state.hooks.clear();  // keeps its capacity: no allocation per service
}

bool AmServiceScope::active() noexcept { return serviceState().active; }

void AmServiceScope::atEnd(Hook hook, void* arg) {
  ServiceState& state = serviceState();
  PGASNB_DCHECK(state.active);
  state.hooks.emplace_back(hook, arg);
}

ProgressThread::ProgressThread(std::uint32_t locale_id, AmQueue& queue)
    : locale_id_(locale_id), queue_(queue), thread_([this] { run(); }) {}

ProgressThread::~ProgressThread() {
  stop_.store(true, std::memory_order_release);
  queue_.notifyAll();
  if (thread_.joinable()) thread_.join();
}

void ProgressThread::run() {
  // The progress thread permanently impersonates its locale.
  taskContext().here = locale_id_;
  taskContext().progress_thread = true;
  const LatencyModel& lat = Runtime::get().config().latency;

  AmRequest req;
  while (queue_.popOrWait(req, stop_)) {
    // FIFO queueing in simulated time: the message reaches this locale at
    // send_time + wire; service begins when the channel frees up.
    const std::uint64_t arrival = req.send_time + lat.am_wire_ns;
    const std::uint64_t start = std::max(arrival, busy_until_);
    sim::setNow(start);
    sim::charge(lat.am_service_ns);
    {
      AmServiceScope service;
      if (req.fn) req.fn();
      // Aggregated payload: the batch already paid its one wire+service
      // charge above; each op costs only its CPU time at the target.
      for (auto& op : req.batch) {
        sim::charge(lat.cpu_atomic_ns);
        op();
      }
    }  // service-end hooks (batch-scoped unpins) charge inside the service
    const std::uint64_t end = sim::now();
    busy_until_ = end;
    serviced_.fetch_add(1, std::memory_order_relaxed);
    if (req.on_complete) {
      // Resolves the waiting handle(s) with one release store each; that
      // charges nothing, so this channel's clock is unaffected.
      req.on_complete(end);
    }
    req = AmRequest{};  // drop closure state before blocking again
  }
}

}  // namespace pgasnb
