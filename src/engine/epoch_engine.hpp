// Epoch-phased batch execution engine (Caracal / felis style).
//
// The engine turns the library's async/aggregated pipeline into a *phase
// discipline*: a workload hands it an `EpochClient`, and the engine admits
// a batch of M operations per epoch across all locales and runs three
// phases per epoch --
//
//   admit       generate the epoch's operations on per-(locale, worker)
//               lanes and partition each lane's slice by owner locale
//               (a stable counting sort), so the execute phase's
//               aggregated issues fill batches per destination instead
//               of interleaving them;
//   initialize  allocate/stage per-op state under a pinned epoch guard
//               (the client's hook; staging garbage retired here rides
//               the aggregated-retire path like any other retire);
//   execute     issue every staged op through a comm::OpWindow -- the
//               window's drain() folds finished ops mid-window -- and
//               record per-op latency.
//
// The *epoch is the GC boundary*: at the end of every epoch the engine
// fences the AM queues (so in-flight aggregated retires have landed in a
// limbo list), runs an `epochBoundaryCollective` over all locales, and
// advances the reclamation epoch `boundary_advances` times via
// `DistDomain::advance()`. With the default of 2 advances per boundary
// (and kNumEpochs = 4 limbo lists), garbage retired in epoch N has cycled
// through every list by the end of epoch N+1 -- retired-in-N implies
// reclaimed-by-N+1, structurally, without any workload calling
// tryReclaim. (`boundary_advances = kNumEpochs - 1` empties every limbo
// list at each boundary instead.)
//
// One collective per epoch runs every lane: each lane issues epoch e's
// staged ops into one window in window_ops slices. After each slice it
// ships the task aggregator, admits and initializes the matching slice of
// epoch e+1 (Caracal's insert/execute overlap) under one guard pinned for
// the whole lane body, and drains finished ops. After the last slice it
// owner-partitions e+1 and closes the window. Phase boundaries are
// per-lane; the collective advance rides the epoch boundary.
//
// The lane's staging CPU paces its issue: every slice is in flight while
// the next slice of e+1 is staged, and no op waits in a bucket across more
// than one slice of staging. bench/epoch_engine.cpp builds the serial
// baseline (one collective per phase, an advance between phases, spin-join
// windows) over this header's public API and enforces that the engine
// beats it by >= 1.3x on model time at 8 locales.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "epoch/domain.hpp"
#include "epoch/reclaim_stats.hpp"
#include "runtime/comm.hpp"

namespace pgasnb::engine {

/// One admitted operation. `key`/`arg`/`kind` are client-defined payload
/// (kind typically encodes read/update/insert; arg can stash a staged
/// pointer); `owner` is filled by the admit phase from
/// EpochClient::ownerOf, and `issue_ns` by the execute phase at issue.
struct OpRecord {
  std::uint64_t key = 0;
  std::uint64_t arg = 0;
  std::uint32_t kind = 0;
  std::uint32_t owner = 0;
  std::uint64_t issue_ns = 0;
};

/// Type-erased completion ticket: any comm::Handle<T> converts (sharing
/// the completion core), so EpochClient::execute can return whatever
/// handle flavor the underlying operation produced and the engine can
/// still read its completion time for latency accounting.
class OpTicket {
 public:
  OpTicket() = default;
  template <typename T>
  OpTicket(const comm::Handle<T>& h)  // NOLINT: implicit by design
      : core_(h.state()) {}

  bool valid() const noexcept { return core_ != nullptr; }
  bool ready() const noexcept {
    return core_ != nullptr &&
           core_->done.load(std::memory_order_acquire) != 0;
  }
  /// The op's simulated completion time (valid once ready; excludes the
  /// return wire, like Handle::completionTime).
  std::uint64_t completionTime() const noexcept {
    return core_->done.load(std::memory_order_acquire) - 1;
  }

 private:
  std::shared_ptr<comm::detail::HandleCore> core_;
};

/// The workload half of the engine (felis's EpochClient): the engine owns
/// the phase schedule, collectives, windows, and epoch advances; the
/// client owns what an operation *is*. Hooks are invoked on the lane's
/// locale (admit/initialize/execute run inside the engine's collectives),
/// possibly on a different OS thread each epoch -- keep per-lane state in
/// the OpRecords or index it by the `lane` id, not in thread-locals.
class EpochClient {
 public:
  virtual ~EpochClient() = default;

  /// Admit op `k` (0-based within the lane's slice) of `lane` for `epoch`.
  /// Pure generation: no communication, no allocation -- that belongs in
  /// initialize/execute. Deterministic per (epoch, lane, k) makes runs
  /// reproducible across schedules.
  virtual OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) = 0;

  /// The owner locale of an admitted op; the engine partitions each lane's
  /// slice by this (OpRecord::owner) before it is executed.
  virtual std::uint32_t ownerOf(const OpRecord& op) const = 0;

  /// Initialize phase hook: allocate/stage per-op state for the lane's
  /// ops under `guard` (pinned for the duration of the call; unpinning
  /// and flushing are the engine's business). The epoch-0 prologue calls
  /// it once per lane with the whole slice, already owner-partitioned.
  /// Every later epoch gets several calls per lane, between the previous
  /// epoch's issue slices: each call gets the next consecutive slice of up
  /// to window_ops ops in admit order, all calls come before the owner
  /// partitioning, and every call gets the same pinned guard. Garbage
  /// retired here is epoch-N garbage -- the boundary protocol reclaims it
  /// by N+1. Default: nothing to stage.
  virtual void initialize(std::uint64_t epoch, DistGuard& guard,
                          std::span<OpRecord> ops) {
    (void)epoch;
    (void)guard;
    (void)ops;
  }

  /// Execute phase hook: issue `op` asynchronously and return its ticket.
  /// The op must be *owned by `window`* -- either issue through the
  /// aggregated surface (taskAggregator-riding ops auto-enroll into the
  /// innermost open window) or adopt a plain async handle with
  /// `window.add(h)`. The engine never enrolls the ticket itself; it only
  /// reads completion times. Return an invalid ticket for ops with no
  /// completion to track (fire-and-forget).
  virtual OpTicket execute(std::uint64_t epoch, OpRecord& op,
                           comm::OpWindow& window) = 0;
};

/// The engine's phase schedule. It has one value; the enum and
/// `EpochEngineConfig::mode` stay only because the benchmark's engine-kv
/// workload still assigns the field.
enum class PhaseMode : std::uint8_t { pipelined };

struct EpochEngineConfig {
  /// M: operations admitted per epoch across ALL locales, split as evenly
  /// as possible over the locales * workers_per_locale lanes (earlier
  /// lanes absorb the remainder).
  std::uint64_t ops_per_epoch = 1 << 13;
  /// Admit/execute lanes per locale (one coforallHere task each).
  std::uint32_t workers_per_locale = 2;
  /// Execute-phase sub-batch: lanes ship and drain their window every
  /// `window_ops` issues and stage that many ops of the next epoch in
  /// between.
  std::uint64_t window_ops = 64;
  /// See PhaseMode.
  PhaseMode mode = PhaseMode::pipelined;
  /// Reclamation advances per epoch boundary. >= 2 preserves the
  /// retired-in-N => reclaimed-by-end-of-N+1 guarantee (4 limbo lists, 4
  /// advances across two boundaries cycle them all); kNumEpochs - 1 = 3
  /// empties every list at every boundary.
  std::uint32_t boundary_advances = 2;
  /// CPU charged per op by the admit phase's owner partitioning (hash +
  /// counting-sort work, simulated ns).
  std::uint64_t admit_cpu_ns_per_op = 60;
  /// Keep the epoch's raw latency samples (ns) in EpochStats so callers
  /// can feed them into a bench::LatencyRecorder window; the percentiles
  /// are computed either way.
  bool keep_latency_samples = false;
};

/// Per-epoch report, produced at the epoch's boundary.
struct EpochStats {
  std::uint64_t epoch = 0;
  std::uint64_t ops = 0;        ///< ops executed this epoch
  double model_s = 0.0;         ///< simulated duration of the epoch
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  /// Cumulative domain ReclaimStats snapshot taken after the boundary's
  /// advances (quiescent-exact: the AM queues are fenced first).
  ReclaimStats reclaim;
  /// Global-epoch value after the boundary (diagnostics).
  std::uint64_t global_epoch = 0;
  /// Raw latency samples (ns) when keep_latency_samples is set.
  std::vector<double> latencies_ns;

  double throughputOps() const noexcept {
    return model_s > 0.0 ? static_cast<double>(ops) / model_s : 0.0;
  }
};

/// The driver. Construct once per (domain, client, config) and call run();
/// the constructor allocates the lane state, run() executes epochs
/// 0..epochs-1 and returns one EpochStats per epoch. Not thread-safe; the
/// initiator thread owns it (collectives are launched from run()).
class EpochEngine {
 public:
  EpochEngine(DistDomain domain, EpochClient& client,
              EpochEngineConfig config);
  ~EpochEngine();
  EpochEngine(const EpochEngine&) = delete;
  EpochEngine& operator=(const EpochEngine&) = delete;

  /// Run `epochs` epochs. Each epoch ends with the boundary protocol (AM
  /// fence + boundary collective + boundary_advances reclamation advances)
  /// before its stats are snapshotted, so stats[e].reclaim reflects a
  /// quiescent domain.
  std::vector<EpochStats> run(std::uint64_t epochs);

  const EpochEngineConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  DistDomain domain_;
  EpochClient& client_;
  EpochEngineConfig config_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pgasnb::engine
