// Per-task simulated clocks.
//
// The runtime executes everything for real (real threads, real atomics) and
// *additionally* advances a simulated clock per task, charged from the
// LatencyModel. Three primitives cover every cost in the system (the full
// charging model -- wire/service/CPU and who pays what when -- is laid out
// in docs/ARCHITECTURE.md):
//
//   * charge(ns)          -- the caller spends `ns` doing something (a CPU
//                            atomic, servicing an AM); optionally realized
//                            as a physical busy-wait under inject_delays.
//   * chargeModelOnly(ns) -- the model advances but no physical delay is
//                            ever injected (costs physically realized some
//                            other way, e.g. AM injection overlapping the
//                            progress thread's work).
//   * joinAtLeast(ns)     -- a *max-fold*: the caller observed something
//                            that finished at `ns` (a handle join, a task
//                            join, a drained completion). Never rewinds,
//                            charges nothing if the event is in the past --
//                            which is why joining a set ends at the set's
//                            max and batch-then-join windows report
//                            interconnect-shaped times instead of sums.
//
// Task joins take the max over children, and progress threads model FIFO
// queueing (busy_until), so the aggregate simulated elapsed time has the
// shape a real multi-node interconnect would produce even though the host
// only has a couple of cores.
#pragma once

#include <cstdint>

namespace pgasnb {

/// Thread-local execution context: which simulated locale this OS thread is
/// currently acting as, and its simulated clock (ns since runtime start).
struct TaskContext {
  std::uint32_t here = 0;
  std::uint64_t sim_now = 0;
  /// True only on a locale's progress thread (set once at thread start).
  /// Thread-affine machinery -- the epoch layer's cached handler guards --
  /// asserts on this so misuse from task threads fails loudly.
  bool progress_thread = false;
};

TaskContext& taskContext() noexcept;

namespace sim {

/// Current task's simulated time (ns).
std::uint64_t now() noexcept;

/// Set the simulated clock (used by task executors when starting a task).
void setNow(std::uint64_t ns) noexcept;

/// Fold a completion time into the current task (max-join): the clock
/// advances to `ns` if it is behind, and stays put otherwise. The join
/// primitive of every wait/drain/window-close path.
void joinAtLeast(std::uint64_t ns) noexcept;

/// Charge `ns` of simulated time to the current task. If the active runtime
/// has delay injection enabled, also busy-waits the scaled physical delay.
void charge(std::uint64_t ns);

/// Charge simulated time only, never a physical delay (for costs that are
/// physically realized some other way, e.g. waiting on a progress thread).
void chargeModelOnly(std::uint64_t ns) noexcept;

}  // namespace sim
}  // namespace pgasnb
