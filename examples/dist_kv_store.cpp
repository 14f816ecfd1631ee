// Distributed key-value store served by the epoch-phased batch engine.
//
//   ./examples/dist_kv_store [--locales=N] [--keys=K] [--epochs=E]
//                            [--ops-per-epoch=M]
//
// The first tenant of engine::EpochEngine: a RobinHoodMap store serves a
// closed-loop 90/5/5 get/put/delete mix (defaults: 16 epochs x 65536
// requests, ~1M requests total). Each epoch the engine admits the batch on
// every (locale, worker) lane, partitions it by owning locale, stages the
// writes' version nodes under an epoch guard (the previous versions become
// the epoch's garbage), and issues everything through comm::OpWindows
// drained mid-batch. Deletes re-put the key in the same aggregated batch
// (per-destination order is preserved), so the audit invariant holds at
// every epoch boundary: present => value == 2*key.
//
// The epoch is the reclamation boundary: the engine advances the domain's
// epoch at each boundary, so a version retired in epoch N is reclaimed by
// the end of epoch N+1 -- watch the reclaim column trail the retire column
// by exactly one epoch. Per-epoch throughput and p50/p95/p99 latency come
// straight out of the engine's EpochStats.
#include <cstdio>
#include <vector>

#include "pgasnb.hpp"

using namespace pgasnb;

namespace {

/// 90/5/5 get/put/delete over a RobinHoodMap, admitted per lane with
/// deterministic per-lane RNG streams.
class KvStoreClient : public engine::EpochClient {
 public:
  KvStoreClient(RobinHoodMap<std::uint64_t> store, std::uint64_t keys,
                std::uint32_t n_lanes)
      : store_(store), keys_(keys) {
    rngs_.reserve(n_lanes);
    for (std::uint32_t l = 0; l < n_lanes; ++l) {
      rngs_.emplace_back(l * 0x9E3779B9 + 1);
    }
  }

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    (void)epoch;
    (void)k;
    Xoshiro256& rng = rngs_[lane];
    engine::OpRecord op;
    op.key = rng.nextBelow(keys_);
    const double dice = rng.nextDouble();
    op.kind = dice < 0.90 ? kGet : dice < 0.95 ? kPut : kDelete;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return store_.ownerOfKey(op.key);
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    (void)epoch;
    for (engine::OpRecord& op : ops) {
      if (op.kind == kGet) continue;
      // Stage the write's version; the version it supersedes is this
      // epoch's garbage, reclaimed by the engine no later than epoch+1.
      auto* version = DistDomain::make<std::uint64_t>(op.key * 2);
      op.arg = *version;
      guard.retire(version);
      staged_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)epoch;
    (void)window;  // aggregated ops auto-enroll into the open window
    switch (op.kind) {
      case kGet:
        gets_.fetch_add(1, std::memory_order_relaxed);
        return store_.findAsyncAggregated(op.key);
      case kPut:
        puts_.fetch_add(1, std::memory_order_relaxed);
        return store_.putAsyncAggregated(op.key, op.arg);
      default:
        dels_.fetch_add(1, std::memory_order_relaxed);
        (void)store_.eraseAsyncAggregated(op.key);
        // Same destination, later in the same batch: runs after the erase,
        // so the key ends the epoch present and correct.
        return store_.putAsyncAggregated(op.key, op.arg);
    }
  }

  std::uint64_t gets() const { return gets_.load(); }
  std::uint64_t puts() const { return puts_.load(); }
  std::uint64_t dels() const { return dels_.load(); }
  std::uint64_t staged() const { return staged_.load(); }

 private:
  static constexpr std::uint32_t kGet = 0, kPut = 1, kDelete = 2;

  RobinHoodMap<std::uint64_t> store_;
  std::uint64_t keys_;
  std::vector<Xoshiro256> rngs_;
  std::atomic<std::uint64_t> gets_{0}, puts_{0}, dels_{0}, staged_{0};
};

}  // namespace

int main(int argc, char** argv) {
  Options opts(argc, argv);
  RuntimeConfig cfg;
  cfg.num_locales = static_cast<std::uint32_t>(opts.integer("locales", 4));
  cfg.comm_mode = parseCommMode(opts.str("comm", "none"));
  cfg.inject_delays = false;
  const auto keys = static_cast<std::uint64_t>(opts.integer("keys", 4096));
  const auto epochs =
      static_cast<std::uint64_t>(opts.integer("epochs", 16));
  const auto ops_per_epoch =
      static_cast<std::uint64_t>(opts.integer("ops-per-epoch", 65536));
  opts.rejectUnread();
  Runtime rt(cfg);

  DistDomain domain = DistDomain::create();
  auto store = RobinHoodMap<std::uint64_t>::create(/*capacity=*/keys * 2,
                                                   domain);

  // Load phase: populate every key with value = key * 2.
  forallHere(keys, cfg.workers_per_locale,
             [&](std::uint64_t k) { store.insert(k, k * 2); });
  std::printf("loaded %llu keys into the store over %u locales\n",
              static_cast<unsigned long long>(store.sizeApprox()),
              cfg.num_locales);

  // Serving phase: the engine drives E epochs of M requests each.
  engine::EpochEngineConfig ecfg;
  ecfg.ops_per_epoch = ops_per_epoch;
  ecfg.workers_per_locale = cfg.workers_per_locale;
  KvStoreClient client(store, keys,
                       cfg.num_locales * ecfg.workers_per_locale);
  engine::EpochEngine eng(domain, client, ecfg);

  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = eng.run(epochs);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("serving, per-epoch report:\n");
  std::uint64_t total_ops = 0, prev_deferred = 0;
  for (const auto& s : stats) {
    total_ops += s.ops;
    std::printf("  epoch %2llu: %llu ops  thr=%.2fMops  p50=%.1fus "
                "p95=%.1fus p99=%.1fus  retired=%llu reclaimed=%llu\n",
                static_cast<unsigned long long>(s.epoch),
                static_cast<unsigned long long>(s.ops),
                s.throughputOps() * 1e-6, s.p50_us, s.p95_us, s.p99_us,
                static_cast<unsigned long long>(s.reclaim.deferred),
                static_cast<unsigned long long>(s.reclaim.reclaimed));
    // The engine's guarantee, visible in the log: everything retired by
    // epoch N's boundary is reclaimed by epoch N+1's.
    PGASNB_CHECK_MSG(s.reclaim.reclaimed >= prev_deferred,
                     "reclamation fell more than one epoch behind");
    prev_deferred = s.reclaim.deferred;
  }
  std::printf("served %llu requests (%llu gets, %llu puts, %llu dels) in "
              "%.3fs wall (%.0f req/s)\n",
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(client.gets()),
              static_cast<unsigned long long>(client.puts()),
              static_cast<unsigned long long>(client.dels()), secs,
              static_cast<double>(total_ops) / secs);

  // Audit: every present key must map to exactly 2*key.
  std::atomic<std::uint64_t> present{0};
  forallHere(keys, cfg.workers_per_locale, [&](std::uint64_t k) {
    if (const auto v = store.find(k)) {
      PGASNB_CHECK_MSG(*v == k * 2, "audit: corrupt value");
      present.fetch_add(1, std::memory_order_relaxed);
    }
  });
  PGASNB_CHECK_MSG(store.validateInvariants(),
                   "audit: Robin Hood invariants violated");
  std::printf("audit: %llu/%llu keys present, all values consistent\n",
              static_cast<unsigned long long>(present.load()),
              static_cast<unsigned long long>(keys));

  const auto dstats = domain.stats();
  std::printf("reclaim domain: staged=%llu deferred=%llu reclaimed=%llu "
              "pending=%llu\n",
              static_cast<unsigned long long>(client.staged()),
              static_cast<unsigned long long>(dstats.deferred),
              static_cast<unsigned long long>(dstats.reclaimed),
              static_cast<unsigned long long>(dstats.pending()));

  store.destroy();
  domain.clear();
  domain.destroy();
  std::printf("ok\n");
  return 0;
}
