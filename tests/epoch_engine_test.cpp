// EpochEngine: the phase schedule executes every admitted op exactly once, ops
// land on their owner locale, and the boundary protocol upholds the
// reclamation guarantee -- garbage retired in epoch N is reclaimed by the
// end of epoch N+1 (ReclaimStats-verified).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Minimal tenant: admit deterministic keys, stage one retired node per op
/// in initialize (the epoch's garbage), execute as an aggregated remote
/// increment on the owner locale.
class CounterClient : public engine::EpochClient {
 public:
  explicit CounterClient(DistDomain domain) : domain_(domain) {}

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    engine::OpRecord op;
    op.key = splitmix64((epoch << 32) ^ (std::uint64_t{lane} << 20) ^ k);
    op.kind = 0;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return static_cast<std::uint32_t>(op.key %
                                      Runtime::get().numLocales());
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    (void)epoch;
    for (engine::OpRecord& op : ops) {
      auto* node = DistDomain::make<std::uint64_t>(op.key);
      guard.retire(node);  // one piece of epoch-N garbage per op
      staged_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)epoch;
    (void)window;  // aggregated handle auto-enrolls into the open window
    const std::uint32_t owner = op.owner;
    auto* self = this;
    return comm::taskAggregator().enqueueHandle(owner, [self, owner] {
      if (Runtime::here() != owner) {
        self->misrouted_.store(true, std::memory_order_relaxed);
      }
      self->executed_.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t stagedNodes() const {
    return staged_.load(std::memory_order_relaxed);
  }
  bool misrouted() const {
    return misrouted_.load(std::memory_order_relaxed);
  }

 private:
  DistDomain domain_;
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> staged_{0};
  std::atomic<bool> misrouted_{false};
};

class EpochEngineTest : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<Runtime>(
        pgasnb::testing::testConfig(GetParam()));
    domain_ = DistDomain::create();
  }
  void TearDown() override {
    domain_.destroy();
    runtime_.reset();
  }

  engine::EpochEngineConfig config(std::uint64_t ops) {
    engine::EpochEngineConfig cfg;
    cfg.ops_per_epoch = ops;
    cfg.workers_per_locale = 2;
    cfg.window_ops = 16;
    return cfg;
  }

  std::unique_ptr<Runtime> runtime_;
  DistDomain domain_;
};

TEST_P(EpochEngineTest, ExecutesEveryAdmittedOpExactlyOnce) {
  // 77 does not divide evenly over any lane count here -- exercises the
  // remainder split.
  const std::uint64_t kOps = 77, kEpochs = 4;
  CounterClient client(domain_);
  engine::EpochEngine eng(domain_, client, config(kOps));
  auto stats = eng.run(kEpochs);

  ASSERT_EQ(stats.size(), kEpochs);
  EXPECT_EQ(client.executed(), kOps * kEpochs);
  EXPECT_FALSE(client.misrouted());
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(stats[e].epoch, e);
    EXPECT_EQ(stats[e].ops, kOps);
    EXPECT_GT(stats[e].model_s, 0.0);
    EXPECT_GT(stats[e].throughputOps(), 0.0);
    EXPECT_LE(stats[e].p50_us, stats[e].p95_us);
    EXPECT_LE(stats[e].p95_us, stats[e].p99_us);
  }
}

TEST_P(EpochEngineTest, RetiredInEpochNReclaimedByEndOfNPlusOne) {
  // The acceptance assertion: with the default boundary_advances = 2,
  // everything deferred through epoch N's boundary snapshot has been
  // reclaimed by epoch N+1's boundary snapshot (stats are cumulative, so
  // the guarantee reads reclaimed(N+1) >= deferred(N)).
  const std::uint64_t kOps = 64, kEpochs = 5;
  CounterClient client(domain_);
  engine::EpochEngine eng(domain_, client, config(kOps));
  auto stats = eng.run(kEpochs);

  ASSERT_EQ(stats.size(), kEpochs);
  EXPECT_GT(stats.back().reclaim.deferred, 0u) << "client staged no garbage";
  for (std::uint64_t n = 0; n + 1 < kEpochs; ++n) {
    EXPECT_GE(stats[n + 1].reclaim.reclaimed, stats[n].reclaim.deferred)
        << "garbage retired in epoch " << n
        << " not fully reclaimed by the end of epoch " << n + 1;
  }
  // Each epoch boundary runs boundary_advances epoch advances.
  EXPECT_GE(stats.back().reclaim.advances, 2 * kEpochs);
}

TEST_P(EpochEngineTest, ThreeAdvancesPerBoundaryEmptyEveryLimboList) {
  // boundary_advances = kNumEpochs - 1 pops all remaining limbo lists at
  // every boundary: the quiescent snapshot shows zero pending garbage.
  const std::uint64_t kOps = 48, kEpochs = 3;
  CounterClient client(domain_);
  auto cfg = config(kOps);
  cfg.boundary_advances = 3;
  engine::EpochEngine eng(domain_, client, cfg);
  auto stats = eng.run(kEpochs);

  ASSERT_EQ(stats.size(), kEpochs);
  for (const auto& s : stats) {
    EXPECT_EQ(s.reclaim.pending(), 0u)
        << "epoch " << s.epoch << " boundary left pending garbage";
    EXPECT_GE(s.global_epoch, 1u);
    EXPECT_LE(s.global_epoch, 4u);
  }
  EXPECT_EQ(stats.back().reclaim.deferred, client.stagedNodes());
  EXPECT_EQ(stats.back().reclaim.reclaimed, client.stagedNodes());
}

TEST_P(EpochEngineTest, KeepsRawLatencySamplesWhenAsked) {
  const std::uint64_t kOps = 32, kEpochs = 2;
  CounterClient client(domain_);
  auto cfg = config(kOps);
  cfg.keep_latency_samples = true;
  engine::EpochEngine eng(domain_, client, cfg);
  auto stats = eng.run(kEpochs);

  ASSERT_EQ(stats.size(), kEpochs);
  for (const auto& s : stats) {
    // Every op returns a valid ticket, so one sample per op.
    EXPECT_EQ(s.latencies_ns.size(), s.ops);
    for (double ns : s.latencies_ns) EXPECT_GE(ns, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Locales, EpochEngineTest, ::testing::Values(1u, 3u, 4u),
    [](const ::testing::TestParamInfo<std::uint32_t>& info) {
      return std::to_string(info.param) + "loc";
    });

/// Records the engine's staging order. An op carries its lane
/// and admit index in `arg` (initialize and execute do not name the lane);
/// each initialize call logs the admit indices it staged, whether its
/// guard was pinned, and how many execute() calls of the previous epoch
/// its lane had made by then. Each lane's log is touched only by that
/// lane's task.
class SliceOrderClient : public engine::EpochClient {
 public:
  struct InitCall {
    std::vector<std::uint64_t> ks;      ///< admit indices, in span order
    std::uint64_t executes_before = 0;  ///< lane's execute(epoch - 1) calls
    bool pinned = false;
  };

  SliceOrderClient(std::uint32_t lanes, std::uint64_t epochs)
      : executes_(lanes, std::vector<std::uint64_t>(epochs, 0)),
        calls_(lanes, std::vector<std::vector<InitCall>>(epochs)) {}

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    engine::OpRecord op;
    op.key = splitmix64((epoch << 32) ^ (std::uint64_t{lane} << 20) ^ k);
    op.arg = (std::uint64_t{lane} << 32) | k;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return static_cast<std::uint32_t>(op.key %
                                      Runtime::get().numLocales());
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    if (ops.empty()) return;
    const std::uint64_t lane = ops.front().arg >> 32;
    InitCall call;
    call.pinned = guard.pinned();
    call.executes_before = epoch > 0 ? executes_[lane][epoch - 1] : 0;
    for (const engine::OpRecord& op : ops) {
      call.ks.push_back(op.arg & 0xffffffffu);
    }
    calls_[lane][epoch].push_back(std::move(call));
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)window;
    ++executes_[op.arg >> 32][epoch];
    return comm::taskAggregator().enqueueHandle(op.owner, [] {});
  }

  const std::vector<InitCall>& calls(std::uint32_t lane,
                                     std::uint64_t epoch) const {
    return calls_[lane][epoch];
  }
  std::uint64_t executes(std::uint32_t lane, std::uint64_t epoch) const {
    return executes_[lane][epoch];
  }

 private:
  std::vector<std::vector<std::uint64_t>> executes_;
  std::vector<std::vector<std::vector<InitCall>>> calls_;
};

TEST(EpochEngineTest, PipelinedStagingInterleavesWithIssue) {
  // Epoch e+1 is staged one window_ops slice at a time between e's issue
  // slices: a lane's first initialize(e+1) call follows at most window_ops
  // executes of e and precedes its last one, and the calls stage the
  // lane's ops in admit order, each exactly once, under a pinned guard.
  const std::uint64_t kOps = 200, kEpochs = 3, kWindow = 16;
  for (std::uint32_t locales : {1u, 3u, 4u}) {
    SCOPED_TRACE(std::to_string(locales) + " locales");
    Runtime rt(pgasnb::testing::testConfig(locales));
    DistDomain domain = DistDomain::create();
    engine::EpochEngineConfig cfg;
    cfg.ops_per_epoch = kOps;
    cfg.workers_per_locale = 2;
    cfg.window_ops = kWindow;
    const std::uint32_t n_lanes = locales * cfg.workers_per_locale;
    SliceOrderClient client(n_lanes, kEpochs);
    engine::EpochEngine eng(domain, client, cfg);
    ASSERT_EQ(eng.run(kEpochs).size(), kEpochs);

    for (std::uint32_t lane = 0; lane < n_lanes; ++lane) {
      for (std::uint64_t e = 1; e < kEpochs; ++e) {
        const auto& calls = client.calls(lane, e);
        const std::uint64_t n = client.executes(lane, e - 1);
        ASSERT_GT(n, kWindow) << "lane " << lane << " too small to slice";
        ASSERT_GT(calls.size(), 1u)
            << "lane " << lane << " staged epoch " << e << " in one call";
        EXPECT_LE(calls.front().executes_before, kWindow)
            << "lane " << lane << " issued past one slice before staging";
        EXPECT_LT(calls.front().executes_before, n)
            << "lane " << lane << " staged only after its last issue";
        std::uint64_t next_k = 0;
        for (const auto& call : calls) {
          EXPECT_TRUE(call.pinned);
          for (std::uint64_t k : call.ks) {
            EXPECT_EQ(k, next_k) << "lane " << lane << " epoch " << e;
            ++next_k;
          }
        }
        EXPECT_EQ(next_k, client.executes(lane, e))
            << "lane " << lane << " epoch " << e << " staged a wrong count";
      }
    }
    domain.destroy();
  }
}

/// Execute a no-op on the owner; initialize charges a fixed CPU cost per
/// staged op, so a lane's staging of one epoch takes a known model time.
class ChargedStagingClient : public engine::EpochClient {
 public:
  static constexpr std::uint64_t kStageNsPerOp = 10'000;

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    engine::OpRecord op;
    op.key = splitmix64((epoch << 32) ^ (std::uint64_t{lane} << 20) ^ k);
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return static_cast<std::uint32_t>(op.key %
                                      Runtime::get().numLocales());
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    (void)epoch;
    (void)guard;
    sim::charge(ops.size() * kStageNsPerOp);
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)epoch;
    (void)window;
    return comm::taskAggregator().enqueueHandle(op.owner, [] {});
  }
};

TEST(EpochEngineTest, TailShipsBeforeStaging) {
  // No op of epoch e waits in the task aggregator while the lane stages
  // e+1: each slice ships before its staging starts, so every latency
  // stays below the lane's total staging charge. (Were the tail's partial
  // batches held until the window closes, they would wait through all of
  // it.) One lane per locale: each progress thread then serves a single
  // source, so no lane's batches queue behind another lane's later ones.
  const std::uint64_t kOpsPerLane = 48, kEpochs = 3;
  Runtime rt(pgasnb::testing::testConfig(2));
  DistDomain domain = DistDomain::create();
  engine::EpochEngineConfig cfg;
  cfg.ops_per_epoch = 2 * kOpsPerLane;
  cfg.workers_per_locale = 1;
  cfg.window_ops = 16;
  cfg.keep_latency_samples = true;
  ChargedStagingClient client;
  engine::EpochEngine eng(domain, client, cfg);
  auto stats = eng.run(kEpochs);

  ASSERT_EQ(stats.size(), kEpochs);
  const double staging_ns =
      static_cast<double>(kOpsPerLane * ChargedStagingClient::kStageNsPerOp);
  for (std::uint64_t e = 0; e + 1 < kEpochs; ++e) {  // the last stages none
    ASSERT_EQ(stats[e].latencies_ns.size(), 2 * kOpsPerLane);
    const double worst = *std::max_element(stats[e].latencies_ns.begin(),
                                           stats[e].latencies_ns.end());
    EXPECT_LT(worst, staging_ns)
        << "epoch " << e << ": an op waited through the lane's staging";
  }
  domain.destroy();
}

/// Records, per lane and epoch, the owner and admit index of each op in
/// the order the lane issues it. An op carries its lane and admit index in
/// `arg`; each lane's log is touched only by that lane's task.
class IssueOrderClient : public engine::EpochClient {
 public:
  struct Issued {
    std::uint32_t owner;
    std::uint64_t k;
  };

  IssueOrderClient(std::uint32_t lanes, std::uint64_t epochs)
      : log_(lanes, std::vector<std::vector<Issued>>(epochs)) {}

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    engine::OpRecord op;
    op.key = splitmix64((epoch << 32) ^ (std::uint64_t{lane} << 20) ^ k);
    op.arg = (std::uint64_t{lane} << 32) | k;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return static_cast<std::uint32_t>(op.key %
                                      Runtime::get().numLocales());
  }

  void initialize(std::uint64_t, DistGuard&,
                  std::span<engine::OpRecord>) override {}

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow&) override {
    log_[op.arg >> 32][epoch].push_back({op.owner, op.arg & 0xffffffffu});
    return comm::taskAggregator().enqueueHandle(op.owner, [] {});
  }

  const std::vector<Issued>& issued(std::uint32_t lane,
                                    std::uint64_t epoch) const {
    return log_[lane][epoch];
  }

 private:
  std::vector<std::vector<std::vector<Issued>>> log_;
};

TEST(EpochEngineTest, LanesStartOnTheirRightNeighbourAndKeepAdmitOrder) {
  // A lane on locale l issues owner (l + 1) mod n first, then the owners
  // after it round to l itself, so lanes on different locales do not all
  // start on one owner; within an owner the ops keep their admit order.
  const std::uint32_t kLocales = 4, kWorkers = 2;
  const std::uint64_t kOps = 320, kEpochs = 3;
  Runtime rt(pgasnb::testing::testConfig(kLocales));
  DistDomain domain = DistDomain::create();
  engine::EpochEngineConfig cfg;
  cfg.ops_per_epoch = kOps;
  cfg.workers_per_locale = kWorkers;
  cfg.window_ops = 16;
  const std::uint32_t n_lanes = kLocales * kWorkers;
  IssueOrderClient client(n_lanes, kEpochs);
  engine::EpochEngine eng(domain, client, cfg);
  ASSERT_EQ(eng.run(kEpochs).size(), kEpochs);

  for (std::uint32_t lane = 0; lane < n_lanes; ++lane) {
    const std::uint32_t first = (lane / kWorkers + 1) % kLocales;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      const auto& issued = client.issued(lane, e);
      ASSERT_EQ(issued.size(), kOps / n_lanes);
      EXPECT_EQ(issued.front().owner, first)
          << "lane " << lane << " epoch " << e;
      for (std::size_t i = 1; i < issued.size(); ++i) {
        const std::uint32_t prev =
            (issued[i - 1].owner + kLocales - first) % kLocales;
        const std::uint32_t cur =
            (issued[i].owner + kLocales - first) % kLocales;
        ASSERT_LE(prev, cur) << "lane " << lane << " epoch " << e
                             << " went back to an earlier owner";
        if (prev == cur) {
          EXPECT_LT(issued[i - 1].k, issued[i].k)
              << "lane " << lane << " epoch " << e
              << " broke admit order within owner " << issued[i].owner;
        }
      }
    }
  }
  domain.destroy();
}

}  // namespace
}  // namespace pgasnb
