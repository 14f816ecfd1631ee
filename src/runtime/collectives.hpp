// Collectives over all locales: and/sum reductions and the epoch-boundary
// fence.
//
// DistDomain's safety scan is an and-reduction executed *on* each
// locale (Listing 4, `coforall ... with (&& reduce safeToReclaim)`); these
// helpers give that loop a first-class spelling.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "runtime/task.hpp"

namespace pgasnb {

/// Runs `f` once on every locale; returns the AND of the results.
/// Short-circuiting is cooperative: once any locale produces `false`,
/// laggards still run but their result cannot flip the outcome.
bool allLocalesAnd(const std::function<bool()>& f);

/// In-flight and-reduction started by allLocalesAndAsync. Move-only;
/// destruction joins (TaskGroup RAII), so a dropped reduction still runs
/// to completion before the scope unwinds.
class PendingAnd {
 public:
  PendingAnd() = default;
  PendingAnd(PendingAnd&&) noexcept = default;
  PendingAnd& operator=(PendingAnd&&) noexcept = default;

  bool valid() const noexcept { return group_ != nullptr; }

  /// True once every locale has produced its result (never blocks).
  bool ready() const noexcept {
    return state_ != nullptr &&
           state_->remaining.load(std::memory_order_acquire) == 0;
  }

  /// Join the per-locale tasks (folding their simulated completion times
  /// into the caller, rethrowing any child exception) and return the AND.
  bool wait();

 private:
  friend PendingAnd allLocalesAndAsync(std::function<bool()> f);

  struct State {
    std::function<bool()> fn;  ///< shared: one copy for all N tasks
    std::atomic<bool> result{true};
    std::atomic<std::uint32_t> remaining{0};
  };

  std::shared_ptr<State> state_;
  std::unique_ptr<TaskGroup> group_;
};

/// Non-blocking flavor of allLocalesAnd: kicks one task per locale and
/// returns immediately, letting the initiator overlap its own work with
/// the scan (DistDomain's safety scan uses this).
PendingAnd allLocalesAndAsync(std::function<bool()> f);

/// Epoch-boundary collective (the batch engine's boundary fence): ships
/// everything the calling task still buffers in its Aggregator, fences
/// every locale's AM queue -- including the caller's own -- so all
/// in-flight batched work (aggregated retires above all) has landed, then
/// runs `f` once on every locale and returns the AND (an
/// allLocalesAndAsync under the hood: the per-locale bodies execute
/// concurrently and the join max-folds their simulated times). A boundary
/// can therefore never strand aggregated ops behind the collective that
/// decides it, and the reclamation advances that follow see every retire
/// already sorted into a limbo list.
bool epochBoundaryCollective(const std::function<bool()>& f);

/// Runs `f` once on every locale; returns the sum of the results.
std::uint64_t allLocalesSum(const std::function<std::uint64_t()>& f);

}  // namespace pgasnb
