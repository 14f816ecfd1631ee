// Span tracing from outside the library.
//
// The benchmark wraps every call it makes into a library module (runtime,
// comm, epoch, ds, engine) in a `Span`. A span records its name, wall and
// simulated start/end, the enclosing span on the same thread, the thread and
// an op/window id. Spans go into per-thread in-memory buffers; nothing is
// written until the repetition is over.
//
// Per thread and span kind the tracer keeps totals of every span (count,
// wall, self wall, simulated time, failures), where self time is the span's
// wall duration minus the wall time of the spans it encloses. Only the first
// kMaxEventsPerThread spans of each thread are kept as individual events for
// the Chrome trace file, so one traced repetition stays far below 100 MB.
//
// Tracing is off unless Tracer::start(true) armed it; a disabled Span costs
// one predictable branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pgasbench {

/// Every span the benchmark records, with the library layer it times.
enum class SpanKind : std::uint8_t {
  runtime_setup,    ///< Runtime ctor + DistDomain::create
  runtime_coforall, ///< coforallLocales call -> return
  comm_window_close,///< OpWindow::join
  ds_rh_find,       ///< RobinHoodMap::findAsyncAggregated issue
  ds_rh_put,        ///< RobinHoodMap::putAsyncAggregated issue
  ds_rh_insert,     ///< RobinHoodMap::insertAsyncAggregated issue
  ds_msq_enqueue,   ///< MsQueue::enqueue (blocking)
  ds_msq_dequeue,   ///< MsQueue::dequeue (blocking)
  epoch_pin,        ///< Guard::pin
  epoch_unpin,      ///< Guard::unpin
  epoch_retire,     ///< Guard::retire
  epoch_try_reclaim,///< Guard::tryReclaim
  epoch_clear,      ///< DistDomain::clear
  engine_run,       ///< EpochEngine::run
  engine_admit,     ///< EpochClient::admit hook
  engine_initialize,///< EpochClient::initialize hook
  engine_execute,   ///< EpochClient::execute hook
  count,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::count);

const char* spanName(SpanKind kind) noexcept;
/// The library layer ("runtime", "comm", "epoch", "ds", "engine").
const char* spanLayer(SpanKind kind) noexcept;

/// Totals over every span of one kind.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t failures = 0;
  std::int64_t wall_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t model_ns = 0;
};

using TotalsTable = std::array<SpanTotals, kSpanKinds>;

/// One (wall, model) duration pair, kept per span for kinds whose
/// percentiles are reported (window close).
struct DurationSample {
  std::int64_t wall_ns = 0;
  std::int64_t model_ns = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxEventsPerThread = 65536;

  /// Begin a repetition: drop every buffer and arm (or disarm) tracing.
  /// Call with no runtime active.
  static void start(bool enabled);
  static bool enabled() noexcept;

  /// Totals merged over every thread's buffer. Call once the repetition's
  /// tasks have joined.
  static TotalsTable totals();
  /// Every kept duration sample of `kind`, over all threads.
  static std::vector<DurationSample> samples(SpanKind kind);
  /// Write the kept events as Chrome trace-event JSON (viewable in Perfetto
  /// or chrome://tracing). Returns false if the file cannot be written.
  static bool writeChromeTrace(const std::string& path);
};

/// RAII span. Construct right before a library call, destroy right after.
class Span {
 public:
  explicit Span(SpanKind kind, std::uint64_t id = 0) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Mark the spanned call as failed (counted in SpanTotals::failures).
  void fail() noexcept { failed_ = true; }

 private:
  bool active_ = false;
  bool failed_ = false;
};

}  // namespace pgasbench
