#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>

#include "runtime/sim_clock.hpp"

namespace pgasbench {

namespace {

using Clock = std::chrono::steady_clock;

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr KindInfo kKinds[kSpanKinds] = {
    {"runtime.setup", "runtime"},
    {"runtime.coforall", "runtime"},
    {"comm.window_close", "comm"},
    {"ds.rh_find", "ds"},
    {"ds.rh_put", "ds"},
    {"ds.rh_insert", "ds"},
    {"ds.msq_enqueue", "ds"},
    {"ds.msq_dequeue", "ds"},
    {"epoch.pin", "epoch"},
    {"epoch.unpin", "epoch"},
    {"epoch.retire", "epoch"},
    {"epoch.try_reclaim", "epoch"},
    {"epoch.clear", "epoch"},
    {"engine.run", "engine"},
    {"engine.admit", "engine"},
    {"engine.initialize", "engine"},
    {"engine.execute", "engine"},
};

/// Kinds whose per-span durations are kept for percentiles.
bool keepsSamples(SpanKind kind) noexcept {
  return kind == SpanKind::comm_window_close;
}

struct Event {
  std::int64_t wall_b = 0;
  std::int64_t wall_e = 0;
  std::uint64_t sim_b = 0;
  std::uint64_t sim_e = 0;
  std::uint64_t id = 0;
  std::int32_t parent = -1;  ///< index of the enclosing kept event, or -1
  SpanKind kind = SpanKind::count;
  bool failed = false;
};

struct OpenSpan {
  SpanKind kind;
  std::int64_t wall_b;
  std::uint64_t sim_b;
  std::int64_t child_ns;
  std::int32_t event;  ///< kept event index, or -1 past the cap
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<Event> events;
  TotalsTable totals{};
  std::vector<OpenSpan> open;
  std::array<std::vector<DurationSample>, kSpanKinds> samples;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;  // guarded by mu
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> enabled{false};
  Clock::time_point origin = Clock::now();
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The calling thread's buffer for the current repetition. A thread that
/// outlives a repetition (the main thread) re-registers on the next one.
ThreadBuffer& threadBuffer() {
  thread_local std::uint64_t gen = 0;
  thread_local ThreadBuffer* buf = nullptr;
  Registry& r = registry();
  const std::uint64_t current = r.generation.load(std::memory_order_acquire);
  if (buf == nullptr || gen != current) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->events.reserve(1024);
    std::lock_guard<std::mutex> hold(r.mu);
    fresh->tid = static_cast<std::uint32_t>(r.buffers.size());
    buf = fresh.get();
    r.buffers.push_back(std::move(fresh));
    gen = current;
  }
  return *buf;
}

std::int64_t wallNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - registry().origin)
      .count();
}

}  // namespace

const char* spanName(SpanKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)].name;
}

const char* spanLayer(SpanKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)].layer;
}

void Tracer::start(bool enabled) {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> hold(r.mu);
    r.buffers.clear();
    r.origin = Clock::now();
  }
  r.generation.fetch_add(1, std::memory_order_acq_rel);
  r.enabled.store(enabled, std::memory_order_release);
}

bool Tracer::enabled() noexcept {
  return registry().enabled.load(std::memory_order_relaxed);
}

TotalsTable Tracer::totals() {
  TotalsTable out{};
  Registry& r = registry();
  std::lock_guard<std::mutex> hold(r.mu);
  for (const auto& buf : r.buffers) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      out[k].count += buf->totals[k].count;
      out[k].failures += buf->totals[k].failures;
      out[k].wall_ns += buf->totals[k].wall_ns;
      out[k].self_ns += buf->totals[k].self_ns;
      out[k].model_ns += buf->totals[k].model_ns;
    }
  }
  return out;
}

std::vector<DurationSample> Tracer::samples(SpanKind kind) {
  std::vector<DurationSample> out;
  Registry& r = registry();
  std::lock_guard<std::mutex> hold(r.mu);
  for (const auto& buf : r.buffers) {
    const auto& s = buf->samples[static_cast<std::size_t>(kind)];
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> hold(r.mu);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& buf : r.buffers) {
    for (const Event& e : buf->events) {
      if (e.kind == SpanKind::count) continue;  // still open at dump time
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
          "\"tid\":%" PRIu32 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
          "\"id\":%" PRIu64 ",\"parent\":%" PRId32
          ",\"sim_us\":%.3f,\"sim_dur_us\":%.3f%s}}",
          first ? "" : ",\n", spanName(e.kind), spanLayer(e.kind), buf->tid,
          static_cast<double>(e.wall_b) * 1e-3,
          static_cast<double>(e.wall_e - e.wall_b) * 1e-3, e.id, e.parent,
          static_cast<double>(e.sim_b) * 1e-3,
          static_cast<double>(e.sim_e > e.sim_b ? e.sim_e - e.sim_b : 0) *
              1e-3,
          e.failed ? ",\"failed\":true" : "");
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(SpanKind kind, std::uint64_t id) noexcept {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadBuffer& buf = threadBuffer();
  std::int32_t event = -1;
  if (buf.events.size() < Tracer::kMaxEventsPerThread) {
    event = static_cast<std::int32_t>(buf.events.size());
    Event e;
    e.id = id;
    e.parent = buf.open.empty() ? -1 : buf.open.back().event;
    buf.events.push_back(e);
  }
  buf.open.push_back(
      OpenSpan{kind, wallNow(), pgasnb::sim::now(), 0, event});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t wall_e = wallNow();
  const std::uint64_t sim_e = pgasnb::sim::now();
  ThreadBuffer& buf = threadBuffer();
  const OpenSpan open = buf.open.back();
  buf.open.pop_back();
  const std::int64_t wall = wall_e - open.wall_b;
  // A Runtime constructed inside the span restarts the thread's clock.
  const auto model =
      static_cast<std::int64_t>(sim_e > open.sim_b ? sim_e - open.sim_b : 0);
  if (!buf.open.empty()) buf.open.back().child_ns += wall;

  SpanTotals& t = buf.totals[static_cast<std::size_t>(open.kind)];
  ++t.count;
  t.failures += failed_ ? 1 : 0;
  t.wall_ns += wall;
  t.self_ns += wall - open.child_ns;
  t.model_ns += model;
  if (keepsSamples(open.kind)) {
    buf.samples[static_cast<std::size_t>(open.kind)].push_back({wall, model});
  }
  if (open.event >= 0) {
    Event& e = buf.events[static_cast<std::size_t>(open.event)];
    e.kind = open.kind;
    e.wall_b = open.wall_b;
    e.wall_e = wall_e;
    e.sim_b = open.sim_b;
    e.sim_e = sim_e;
    e.failed = failed_;
  }
}

}  // namespace pgasbench
