// EpochEngine driver: the phase schedule, the lane plumbing, and the
// epoch-boundary reclamation protocol. See engine/epoch_engine.hpp for the
// architecture comment.
#include "engine/epoch_engine.hpp"

#include <algorithm>
#include <utility>

#include "runtime/collectives.hpp"
#include "runtime/runtime.hpp"
#include "runtime/sim_clock.hpp"
#include "runtime/task.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace pgasnb::engine {

/// Per-(locale, worker) lane state. Lanes persist across the per-epoch
/// collectives (only plain data -- OpRecords, tickets, samples -- because
/// a lane's task may land on a different OS thread each collective;
/// thread-affine state like guards and windows lives and dies inside one
/// collective body). Each locale's tasks touch only that locale's lanes;
/// the initiator reads them between collectives, synchronized by the
/// task-group joins.
namespace {

struct Lane {
  std::vector<OpRecord> staged;  ///< ops for the next execute phase
  std::vector<OpRecord> next;    ///< next epoch's ops, staged during issue
  std::vector<std::pair<std::uint64_t, OpTicket>> inflight;
  std::vector<double> latencies;  ///< this epoch's samples (ns)
  std::uint64_t executed = 0;     ///< ops issued this epoch
};

}  // namespace

struct EpochEngine::Impl {
  std::vector<Lane> lanes;
};

namespace {

/// M split as evenly as possible across lanes; earlier lanes absorb the
/// remainder (deterministic, schedule-independent).
std::uint64_t opsForLane(std::uint64_t ops_per_epoch, std::uint32_t lane_id,
                         std::uint32_t n_lanes) {
  const std::uint64_t base = ops_per_epoch / n_lanes;
  return base + (lane_id < ops_per_epoch % n_lanes ? 1 : 0);
}

/// Admit step for one lane: generate ops [begin, end) of the lane's slice
/// in admit order, resolve their owners, and append them to `out`. Pure
/// generation; charges admit CPU per admitted op.
void admitOps(EpochClient& client, const EpochEngineConfig& cfg,
              std::uint64_t epoch, std::uint32_t lane_id, std::uint64_t begin,
              std::uint64_t end, std::vector<OpRecord>& out) {
  const std::uint32_t n_loc = Runtime::get().numLocales();
  for (std::uint64_t k = begin; k < end; ++k) {
    OpRecord op = client.admit(epoch, lane_id, k);
    op.owner = client.ownerOf(op);
    PGASNB_CHECK_MSG(op.owner < n_loc,
                     "EpochClient::ownerOf returned an invalid locale");
    out.push_back(op);
  }
  sim::charge((end - begin) * cfg.admit_cpu_ns_per_op);
}

/// Group step for one lane: partition its admitted ops by owner locale
/// with a counting sort. Owners are ranked from (here + 1) mod n round to
/// the lane's own locale, so lanes on different locales start on different
/// owners rather than all issuing to owner 0 at once. Per-owner admit order
/// is preserved (stable scatter), so per-destination FIFO semantics of the
/// aggregated surface carry through.
void groupByOwner(std::vector<OpRecord>& ops) {
  const std::uint32_t n_loc = Runtime::get().numLocales();
  const std::uint32_t first = (Runtime::here() + 1) % n_loc;
  const auto rank = [n_loc, first](const OpRecord& op) {
    return (op.owner + n_loc - first) % n_loc;
  };
  std::vector<std::uint64_t> cursor(n_loc + 1, 0);
  for (const OpRecord& op : ops) ++cursor[rank(op) + 1];
  for (std::uint32_t r = 0; r < n_loc; ++r) cursor[r + 1] += cursor[r];
  std::vector<OpRecord> grouped(ops.size());
  for (const OpRecord& op : ops) grouped[cursor[rank(op)]++] = op;
  ops.swap(grouped);
}

/// Fold the closed window's completion times into latency samples. Every
/// valid ticket must be ready by now -- a pending one means the client
/// issued an op the window did not own (contract violation).
void recordLatencies(Lane& lane) {
  for (const auto& [issue, ticket] : lane.inflight) {
    PGASNB_CHECK_MSG(ticket.ready(),
                     "EpochClient::execute returned a ticket the OpWindow "
                     "did not own (still pending after close)");
    const std::uint64_t done = ticket.completionTime();
    lane.latencies.push_back(
        done > issue ? static_cast<double>(done - issue) : 0.0);
  }
  lane.inflight.clear();
}

/// Execute for one lane: epoch e's staged ops go through one window in
/// window_ops slices. After issuing a slice the lane ships the task
/// aggregator, so the slice is in flight rather than buffered, then admits
/// and initializes the matching slice of epoch e+1 (in admit order, under
/// one guard pinned for the whole body) and drains the window's finished
/// head. The staging CPU thus paces the issue, and no op waits in a bucket
/// across more than one slice of staging. After the last slice the lane
/// owner-partitions e+1 and closes the window. One collective per epoch
/// runs this on every lane.
void executeLane(DistDomain domain, EpochClient& client,
                 const EpochEngineConfig& cfg, std::uint64_t epoch,
                 std::uint32_t lane_id, std::uint64_t next_count, Lane& lane) {
  lane.latencies.clear();
  lane.inflight.clear();
  lane.inflight.reserve(lane.staged.size());
  lane.executed = lane.staged.size();
  lane.next.reserve(next_count);
  {
    DistGuard guard;  // staging guard; the window closes inside its pin
    if (next_count > 0) guard = domain.pin();
    comm::OpWindow window;
    const std::uint64_t count = lane.staged.size();
    for (std::uint64_t lo = 0; lo < std::max(count, next_count);
         lo += cfg.window_ops) {
      const std::uint64_t hi = lo + cfg.window_ops;
      for (std::uint64_t i = lo; i < std::min(hi, count); ++i) {
        OpRecord& op = lane.staged[i];
        op.issue_ns = sim::now();
        OpTicket ticket = client.execute(epoch, op, window);
        if (ticket.valid()) lane.inflight.emplace_back(op.issue_ns, ticket);
      }
      comm::taskAggregator().flushAll();
      if (lo < next_count) {
        const std::size_t first = lane.next.size();
        admitOps(client, cfg, epoch + 1, lane_id, lo, std::min(hi, next_count),
                 lane.next);
        client.initialize(epoch + 1, guard,
                          std::span<OpRecord>(lane.next).subspan(first));
      }
      window.drain();  // absorb the finished head mid-window
    }
    groupByOwner(lane.next);
  }  // close: ship buffered retires, spin-join the tail, one max-fold
  recordLatencies(lane);
  lane.staged.swap(lane.next);
  lane.next.clear();
}

}  // namespace

EpochEngine::EpochEngine(DistDomain domain, EpochClient& client,
                         EpochEngineConfig config)
    : domain_(domain), client_(client), config_(config),
      impl_(std::make_unique<Impl>()) {
  PGASNB_CHECK_MSG(domain_.valid(),
                   "EpochEngine needs a created DistDomain");
  PGASNB_CHECK_MSG(config_.ops_per_epoch > 0,
                   "EpochEngine: ops_per_epoch must be positive");
  PGASNB_CHECK_MSG(config_.workers_per_locale > 0,
                   "EpochEngine: workers_per_locale must be positive");
  if (config_.window_ops == 0) config_.window_ops = 1;
  if (config_.boundary_advances == 0) config_.boundary_advances = 1;
}

EpochEngine::~EpochEngine() = default;

std::vector<EpochStats> EpochEngine::run(std::uint64_t epochs) {
  PGASNB_CHECK_MSG(Runtime::active(), "EpochEngine::run needs a runtime");
  const std::uint32_t n_loc = Runtime::get().numLocales();
  const std::uint32_t W = config_.workers_per_locale;
  const std::uint32_t n_lanes = n_loc * W;
  auto& lanes = impl_->lanes;
  lanes.assign(n_lanes, Lane{});

  std::vector<EpochStats> stats;
  stats.reserve(epochs);
  if (epochs == 0) return stats;

  // One collective per epoch: each locale runs W lane tasks, each
  // operating on its own Lane slot.
  const auto forEachLane =
      [&](const std::function<void(std::uint32_t, Lane&)>& body) {
        coforallLocales([&] {
          const auto here = static_cast<std::uint32_t>(Runtime::here());
          coforallHere(W, [&](std::uint32_t w) {
            const std::uint32_t lane_id = here * W + w;
            body(lane_id, lanes[lane_id]);
          });
        });
      };

  // Prologue: epoch 0's admit + initialize (there is nothing to overlap
  // them with yet; from epoch 1 on they ride the previous execute).
  forEachLane([&](std::uint32_t lane_id, Lane& lane) {
    admitOps(client_, config_, /*epoch=*/0, lane_id, 0,
             opsForLane(config_.ops_per_epoch, lane_id, n_lanes),
             lane.staged);
    groupByOwner(lane.staged);
    // Scope exit unpins, and the release ships any retires staging buffered.
    auto guard = domain_.pin();
    client_.initialize(/*epoch=*/0, guard, lane.staged);
  });

  for (std::uint64_t e = 0; e < epochs; ++e) {
    const std::uint64_t t0 = sim::now();
    const bool prepare_next = e + 1 < epochs;
    forEachLane([&](std::uint32_t lane_id, Lane& lane) {
      executeLane(domain_, client_, config_, e, lane_id,
                  prepare_next
                      ? opsForLane(config_.ops_per_epoch, lane_id, n_lanes)
                      : 0,
                  lane);
    });

    // --- epoch boundary ---------------------------------------------------
    // Fence the AM queues (in-flight aggregated retires land in a limbo
    // list), verify every lane of every locale is quiescent, then advance
    // the reclamation epoch. Two advances per boundary cycle all four
    // limbo lists across two boundaries: retired in N => reclaimed by the
    // end of N+1.
    const bool quiescent = epochBoundaryCollective([&lanes, W] {
      const auto here = static_cast<std::uint32_t>(Runtime::here());
      for (std::uint32_t w = 0; w < W; ++w) {
        if (!lanes[here * W + w].inflight.empty()) return false;
      }
      return true;
    });
    PGASNB_CHECK_MSG(quiescent,
                     "EpochEngine: epoch boundary reached with lane ops "
                     "still in flight");
    for (std::uint32_t i = 0; i < config_.boundary_advances; ++i) {
      domain_.advance();
    }

    EpochStats s;
    s.epoch = e;
    s.global_epoch = domain_.currentEpoch();
    s.reclaim = domain_.stats();
    std::vector<double> merged;
    for (Lane& lane : lanes) {
      s.ops += lane.executed;
      lane.executed = 0;
      merged.insert(merged.end(), lane.latencies.begin(),
                    lane.latencies.end());
      lane.latencies.clear();
    }
    s.p50_us = percentile(merged, 0.50) * 1e-3;
    s.p95_us = percentile(merged, 0.95) * 1e-3;
    s.p99_us = percentile(merged, 0.99) * 1e-3;
    s.model_s = static_cast<double>(sim::now() - t0) * 1e-9;
    if (config_.keep_latency_samples) s.latencies_ns = std::move(merged);
    stats.push_back(std::move(s));
  }
  return stats;
}

}  // namespace pgasnb::engine
