// pgasnb_benchmark: runs one workload for a fixed wall-clock budget and
// prints every metric by name with its unit; the last line of stdout is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   pgasnb_benchmark --workload <name> [--seed <n>] [--seconds <s>]
//                    [--trace <0|1>] [--trace-dir <dir>] [--git-sha <sha>]
//   pgasnb_benchmark --list
//
// The inputs are generated once from --seed. One untimed warm-up
// repetition runs in this process; every timed repetition then runs in a
// child process forked from the warmed-up state, until --seconds have
// passed (at least kMinReps). A repetition builds its own Runtime,
// structures and prefill (timed as setup_s), runs the timed region, checks
// its outputs and tears down; its child's peak RSS is the repetition's
// memory footprint. End-to-end metrics are medians over the repetitions.
//
// --trace 1 alternates traced and untraced repetitions instead. The JSON
// then carries the per-layer metrics (medians over the traced repetitions)
// plus trace.overhead_pct, the traced repetitions' host-time cost against
// the untraced ones; <trace-dir>/<workload>/ receives trace.json (Chrome
// trace events of the first traced repetition) and layers.json (span
// totals per kind and layer, and every per-layer metric of the workload).
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workload.hpp"

namespace {

using namespace pgasbench;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kMinReps = 5;
/// A repetition takes about a second; one that takes this long is hung.
constexpr std::chrono::seconds kRepTimeout{60};

/// The per-layer metrics the JSON line carries under --trace 1: the ones
/// every workload defines (times of layers all workloads use, and counts,
/// which read 0 where a workload leaves a layer idle). The workload-specific
/// span timings go to the printed report and layers.json only.
const std::vector<std::string>& jsonLayerMetrics() {
  static const std::vector<std::string> names = {
      "runtime.setup_ms",          "runtime.coforall_fork_us",
      "runtime.coforall_join_us",  "comm.ams_per_op",
      "comm.ops_per_batch",        "comm.fences",
      "comm.backpressure_stalls",  "comm.deferred_peak",
      "comm.cq_stolen",            "comm.continuations_stolen",
      "comm.tuner_batch_resizes",  "atomic.nic_atomics_per_op",
      "atomic.dcas_remote_per_op", "atomic.cpu_atomics_per_op",
      "atomic.rdma_gets_per_op",   "epoch.elections_lost",
      "epoch.scans_unsafe",        "epoch.max_pending",
      "ds.rh_max_displacement",    "ds.rh_resizes",
      "ds.rh_migrate_chunks",      "ds.rh_migrated_entries",
      "ds.rh_full_rejects",        "ds.rh_load_factor",
      "trace.overhead_pct"};
  return names;
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  std::string git_sha = "unknown";
  bool list = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pgasnb_benchmark: %s\nusage: pgasnb_benchmark --workload "
               "<name> [--seed <n>] [--seconds <s>] [--trace <0|1>] "
               "[--trace-dir <dir>] [--git-sha <sha>] | --list\n",
               problem.c_str());
  std::exit(2);
}

/// Accepts `--key value` and `--key=value`.
Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key.erase(0, 2);
    if (key == "list") {
      a.list = true;
      continue;
    }
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.erase(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for --" + key);
    }
    char* end = nullptr;
    if (key == "workload") {
      a.workload = value;
    } else if (key == "seed") {
      a.seed = std::strtoull(value.c_str(), &end, 0);
    } else if (key == "seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      a.trace = value != "0";
    } else if (key == "trace-dir") {
      a.trace_dir = value;
    } else if (key == "git-sha") {
      a.git_sha = value;
    } else {
      usage("unknown option --" + key);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("bad number for --" + key + ": " + value);
    }
  }
  if (!a.list && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds >= 0.0) || a.seconds > 3600.0) usage("bad --seconds");
  return a;
}

// --- one repetition in a child process -------------------------------------

struct RepRun {
  RepResult result;
  double peak_rss_mb = 0.0;
  TotalsTable spans{};
};

/// Line-oriented text form of a RepRun (without the RSS, which the parent
/// measures), written by the child through a pipe.
std::string encode(const RepRun& run) {
  const RepResult& r = run.result;
  std::ostringstream os;
  os.precision(17);
  os << "setup_s " << r.setup_s << "\nhost_s " << r.host_s << "\nmodel_s "
     << r.model_s << "\nops " << r.ops << "\nattempted " << r.attempted
     << "\nfailed " << r.failed << "\np50_us " << r.p50_us << "\np99_us "
     << r.p99_us << "\np999_us " << r.p999_us << "\nlatency_samples "
     << r.latency_samples << "\n";
  for (const auto& [name, m] : r.layer) {
    os << "metric " << name << " " << m.unit << " " << m.value << "\n";
  }
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const SpanTotals& t = run.spans[k];
    os << "span " << k << " " << t.count << " " << t.failures << " "
       << t.wall_ns << " " << t.self_ns << " " << t.model_ns << "\n";
  }
  for (const std::string& v : r.violations) os << "violation " << v << "\n";
  return os.str();
}

RepRun decode(const std::string& text) {
  RepRun run;
  RepResult& r = run.result;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "setup_s") ls >> r.setup_s;
    else if (key == "host_s") ls >> r.host_s;
    else if (key == "model_s") ls >> r.model_s;
    else if (key == "ops") ls >> r.ops;
    else if (key == "attempted") ls >> r.attempted;
    else if (key == "failed") ls >> r.failed;
    else if (key == "p50_us") ls >> r.p50_us;
    else if (key == "p99_us") ls >> r.p99_us;
    else if (key == "p999_us") ls >> r.p999_us;
    else if (key == "latency_samples") ls >> r.latency_samples;
    else if (key == "metric") {
      std::string name;
      Metric m;
      ls >> name >> m.unit >> m.value;
      r.layer[name] = m;
    } else if (key == "span") {
      std::size_t k = kSpanKinds;
      SpanTotals t;
      ls >> k >> t.count >> t.failures >> t.wall_ns >> t.self_ns >> t.model_ns;
      if (k < kSpanKinds) run.spans[k] = t;
    } else if (key == "violation") {
      r.violations.push_back(
          line.substr(std::min(line.size(), key.size() + 1)));
    }
  }
  return run;
}

/// Runs one repetition in a child forked from this (single-threaded,
/// warmed-up) process: every repetition starts from the same state, and the
/// child's own peak RSS is the repetition's footprint. `chrome_path`, when
/// set, receives the traced repetition's Chrome trace.
RepRun runIsolated(Workload& workload, bool traced,
                   const std::string& chrome_path) {
  int fds[2];
  if (pipe(fds) != 0) {
    RepRun failed;
    failed.result.violations.push_back(std::string("pipe: ") +
                                       std::strerror(errno));
    return failed;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    RepRun run;
    try {
      Tracer::start(traced);
      run.result = workload.run();
      if (traced) {
        run.spans = Tracer::totals();
        if (!chrome_path.empty() && !Tracer::writeChromeTrace(chrome_path)) {
          run.result.violations.push_back("could not write " + chrome_path);
        }
      }
    } catch (const std::exception& e) {
      run.result.violations.push_back(std::string("repetition threw: ") +
                                      e.what());
    }
    const std::string text = encode(run);
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  bool timed_out = false;
  if (pid > 0) {
    const auto deadline = WallClock::now() + kRepTimeout;
    char buf[4096];
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - WallClock::now());
      pollfd pfd{fds[0], POLLIN, 0};
      const int ready = poll(&pfd, 1, static_cast<int>(std::max<std::int64_t>(
                                          0, left.count())));
      if (ready == 0) {  // a hung repetition must not hang the run
        kill(pid, SIGKILL);
        timed_out = true;
        break;
      }
      if (ready < 0 && errno == EINTR) continue;
      const ssize_t n = ready < 0 ? -1 : read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        text.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (pid < 0) {
    RepRun failed;
    failed.result.violations.push_back(std::string("fork: ") +
                                       std::strerror(errno));
    return failed;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  RepRun run = decode(text);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  if (timed_out) {
    run.result.violations.push_back("repetition did not finish in " +
                                    std::to_string(kRepTimeout.count()) +
                                    " s");
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    run.result.violations.push_back(
        WIFSIGNALED(status)
            ? "repetition died on signal " + std::to_string(WTERMSIG(status))
            : "repetition exited with status " +
                  std::to_string(WEXITSTATUS(status)));
  }
  return run;
}

// --- reporting -------------------------------------------------------------

double median(const std::vector<double>& v) {
  return pgasnb::percentile(v, 0.5);
}

/// Per-metric series over repetitions, in first-seen order of names.
class Series {
 public:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };

  void add(const std::string& name, double value, const std::string& unit) {
    auto [it, fresh] = index_.emplace(name, entries_.size());
    if (fresh) entries_.push_back({name, unit, {}});
    entries_[it->second].values.push_back(value);
  }
  const std::vector<Entry>& entries() const { return entries_; }
  /// Repetitions recorded (every repetition adds every end-to-end name).
  std::size_t reps() const {
    return entries_.empty() ? 0 : entries_[0].values.size();
  }
  /// Median of `name`, NaN (JSON null) when no repetition recorded it.
  Metric medianOf(const std::string& name) const {
    const auto it = index_.find(name);
    if (it == index_.end()) return {std::nan(""), ""};
    const Entry& e = entries_[it->second];
    return {median(e.values), e.unit};
  }
  void print() const {
    for (const Entry& e : entries_) {
      std::printf("%-34s %14.6g %-9s q1=%.6g q3=%.6g n=%zu\n", e.name.c_str(),
                  median(e.values), e.unit.c_str(),
                  pgasnb::percentile(e.values, 0.25),
                  pgasnb::percentile(e.values, 0.75), e.values.size());
    }
  }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<Entry> entries_;
};

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonMetrics(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + jsonNumber(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  return out + "}";
}

bool writeLayersJson(const std::string& path, const Args& a,
                     std::uint64_t digest, std::size_t traced_reps,
                     const TotalsTable& totals, const Metrics& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n\"workload\": \"%s\",\n\"seed\": %" PRIu64
               ",\n\"input_digest\": \"0x%016" PRIx64
               "\",\n\"traced_reps\": %zu,\n\"spans\": {",
               a.workload.c_str(), a.seed, digest, traced_reps);
  std::map<std::string, SpanTotals> layers;
  bool first = true;
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const SpanTotals& t = totals[k];
    if (t.count == 0) continue;
    const auto kind = static_cast<SpanKind>(k);
    SpanTotals& l = layers[spanLayer(kind)];
    l.count += t.count;
    l.failures += t.failures;
    l.wall_ns += t.wall_ns;
    l.self_ns += t.self_ns;
    l.model_ns += t.model_ns;
    std::fprintf(f,
                 "%s\n  \"%s\": {\"layer\": \"%s\", \"count\": %" PRIu64
                 ", \"wall_ms\": %s, \"self_ms\": %s, \"model_ms\": %s, "
                 "\"failures\": %" PRIu64 "}",
                 first ? "" : ",", spanName(kind), spanLayer(kind), t.count,
                 jsonNumber(static_cast<double>(t.wall_ns) * 1e-6).c_str(),
                 jsonNumber(static_cast<double>(t.self_ns) * 1e-6).c_str(),
                 jsonNumber(static_cast<double>(t.model_ns) * 1e-6).c_str(),
                 t.failures);
    first = false;
  }
  std::fputs("\n},\n\"layers\": {", f);
  first = true;
  for (const auto& [name, l] : layers) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"spans\": %" PRIu64
                 ", \"self_ms\": %s, \"model_ms\": %s, \"failures\": %" PRIu64
                 "}",
                 first ? "" : ",", name.c_str(), l.count,
                 jsonNumber(static_cast<double>(l.self_ns) * 1e-6).c_str(),
                 jsonNumber(static_cast<double>(l.model_ns) * 1e-6).c_str(),
                 l.failures);
    first = false;
  }
  std::fprintf(f, "\n},\n\"metrics\": %s\n}\n", jsonMetrics(metrics).c_str());
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.list) {
    for (const std::string& name : workloadNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const auto t_inputs = WallClock::now();
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.seed);
  if (!workload) usage("unknown workload " + args.workload);
  const double input_s = secondsSince(t_inputs);

  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < kLocales) {
    std::fprintf(stderr,
                 "pgasnb_benchmark: warning: %u cores for %u client tasks "
                 "plus %u progress threads; timings will be noisy\n",
                 cores, kLocales, kLocales);
  }
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  std::printf("# config: %s\n", workload->config().describe().c_str());
  std::printf("# host: nproc=%u git=%s\n", cores, args.git_sha.c_str());
  std::printf("# input_digest=0x%016" PRIx64 " (generated in %.3f s)\n",
              workload->inputDigest(), input_s);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;
  const auto record = [&](const RepResult& r, bool timed) {
    for (const std::string& v : r.violations) violations.push_back(v);
    failed += r.failed;
    if (timed) attempted += r.attempted;
  };

  Tracer::start(false);
  record(workload->run(), false);  // warm-up, in this process

  const std::filesystem::path trace_dir =
      std::filesystem::path(args.trace_dir) / args.workload;
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
  }
  Series plain, traced, layers;
  TotalsTable span_totals{};
  std::size_t traced_reps = 0;
  const auto t_begin = WallClock::now();
  for (int rep = 0; violations.empty() &&
                    (rep < kMinReps || secondsSince(t_begin) < args.seconds);
       ++rep) {
    const bool tr = args.trace && rep % 2 == 0;
    const RepRun run = runIsolated(
        *workload, tr,
        tr && traced_reps == 0 ? (trace_dir / "trace.json").string() : "");
    const RepResult& r = run.result;
    record(r, true);
    Series& s = tr ? traced : plain;
    s.add("model_ops_per_s", static_cast<double>(r.ops) / r.model_s, "ops/s");
    s.add("host_ops_per_s", static_cast<double>(r.ops) / r.host_s, "ops/s");
    s.add("p50_us", r.p50_us, "us");
    s.add("p99_us", r.p99_us, "us");
    s.add("peak_rss_mb", run.peak_rss_mb, "MiB");
    s.add("setup_s", r.setup_s, "s");
    s.add("latency.p999_us", r.p999_us, "us");
    s.add("latency_samples", static_cast<double>(r.latency_samples), "count");
    if (!tr) continue;
    ++traced_reps;
    for (const auto& [name, m] : r.layer) layers.add(name, m.value, m.unit);
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      span_totals[k].count += run.spans[k].count;
      span_totals[k].failures += run.spans[k].failures;
      span_totals[k].wall_ns += run.spans[k].wall_ns;
      span_totals[k].self_ns += run.spans[k].self_ns;
      span_totals[k].model_ns += run.spans[k].model_ns;
    }
  }

  Metrics json;
  if (!args.trace) {
    std::printf("# end-to-end (median over %zu repetitions after 1 warm-up)\n",
                plain.reps());
    plain.print();
    for (const char* name : {"model_ops_per_s", "host_ops_per_s", "p50_us",
                             "p99_us", "peak_rss_mb", "setup_s"}) {
      json[name] = plain.medianOf(name);
    }
  } else {
    Metrics layer;
    for (const auto& e : layers.entries()) {
      layer[e.name] = {median(e.values), e.unit};
    }
    const double fast = plain.medianOf("host_ops_per_s").value;
    const double slow = traced.medianOf("host_ops_per_s").value;
    layer["trace.overhead_pct"] = {(fast / slow - 1.0) * 100.0, "%"};
    std::printf("# per-layer (median over %zu traced repetitions, %zu "
                "untraced beside them)\n",
                traced_reps, plain.reps());
    traced.print();
    layers.print();
    std::printf("%-34s %14.6g %-9s\n", "trace.overhead_pct",
                layer["trace.overhead_pct"].value, "%");
    const std::string layers_path = (trace_dir / "layers.json").string();
    if (!writeLayersJson(layers_path, args, workload->inputDigest(),
                         traced_reps, span_totals, layer)) {
      violations.push_back("could not write " + layers_path);
    }
    std::printf("# trace files: %s/{trace.json,layers.json}\n",
                trace_dir.string().c_str());
    for (const std::string& name : jsonLayerMetrics()) {
      const auto it = layer.find(name);
      if (it == layer.end()) {
        violations.push_back("workload did not report " + name);
      } else {
        json[name] = it->second;
      }
    }
  }

  const double failed_ratio =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::printf("%-34s %14.6g %-9s attempted=%" PRIu64 " failed=%" PRIu64 "\n",
              "failed_ratio", failed_ratio, "fraction", attempted, failed);
  for (const std::string& v : violations) {
    std::printf("# VIOLATION: %s\n", v.c_str());
  }
  const bool correct = violations.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              jsonMetrics(json).c_str());
  return correct ? 0 : 1;
}
