// Collectives over all locales: and/sum reductions and the epoch-boundary
// fence.
//
// DistDomain's safety scan is an and-reduction executed *on* each
// locale (Listing 4, `coforall ... with (&& reduce safeToReclaim)`); these
// helpers give that loop a first-class spelling.
#pragma once

#include <cstdint>
#include <functional>

namespace pgasnb {

/// Runs `f` once on every locale; returns the AND of the results.
/// Short-circuiting is cooperative: once any locale produces `false`,
/// laggards still run but their result cannot flip the outcome.
bool allLocalesAnd(const std::function<bool()>& f);

/// Epoch-boundary collective (the batch engine's boundary fence): ships
/// everything the calling task still buffers in its Aggregator, fences
/// every locale's AM queue -- including the caller's own -- so all
/// in-flight batched work (aggregated retires above all) has landed, then
/// runs `f` once on every locale and returns the AND (an allLocalesAnd
/// under the hood: the per-locale bodies execute concurrently and the join
/// max-folds their simulated times). A boundary can therefore never strand
/// aggregated ops behind the collective that decides it, and the
/// reclamation advances that follow see every retire already sorted into a
/// limbo list.
bool epochBoundaryCollective(const std::function<bool()>& f);

/// Runs `f` once on every locale; returns the sum of the results.
std::uint64_t allLocalesSum(const std::function<std::uint64_t()>& f);

}  // namespace pgasnb
