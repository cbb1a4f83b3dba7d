// End-to-end benchmark driver. Usage (normally through run.py, which
// builds this binary first):
//
//   c2b_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--self-test]
//   c2b_perfbench --print-expected
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last stdout line is always one JSON object with the keys correct,
// attempted, failed and metrics. --self-test instead proves each output
// check fails when one bit of its reference is flipped.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "c2b/exec/pool.h"
#include "c2b/obs/registry.h"

// Which argmin path the batched kernel's runtime dispatch picked, and
// whether the vectorized kernel runs at all. Private to the simulator
// library (src/sim/system/batched_simd.h); declared here so the
// fingerprint reports what actually runs rather than re-deriving it.
namespace c2b::sim::detail {
bool simd_kernel_enabled();
bool simd_avx2_active();
}  // namespace c2b::sim::detail

namespace c2b::perfbench {

// ---------------------------------------------------------------------------
// Shared helpers (bench.h)

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

std::uint64_t digest_times(const std::vector<double>& times) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double t : times) {
    std::uint64_t bits = bits_of(t);
    for (int b = 0; b < 8; ++b, bits >>= 8) {
      h ^= bits & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), op_});
  stack_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::string SpanLog::summary() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::vector<std::string> names;
  for (const Span& s : spans_)
    if (std::find(names.begin(), names.end(), s.name) == names.end()) names.push_back(s.name);
  std::ostringstream out;
  for (const std::string& name : names) {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      ++count;
      total += spans_[i].end - spans_[i].start;
      self += spans_[i].end - spans_[i].start - child[i];
    }
    char line[160];
    std::snprintf(line, sizeof line, "span %-26s count %4zu  total %10.4f s  self %10.4f s\n",
                  name.c_str(), count, total, self);
    out << line;
  }
  return out.str();
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d, \"op\": %d}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start - origin, s.end - origin,
                 s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {

// ---------------------------------------------------------------------------
// Statistics and output

/// Set-up repeats at least kSetupMinReps times, at least once on every
/// allowed CPU, and until kSetupMinS have passed (at most kSetupMaxReps);
/// setup_s is the median repetition, so a millisecond set-up is still a
/// steady number.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 100;
constexpr double kSetupMinS = 1.0;
/// An end-to-end run makes at least this many timed ops, whatever --seconds
/// says, so its sweep_s is always a true median rather than the mean of two.
constexpr std::size_t kMinOps = 3;
/// No run measures past this, whatever kMinOps or kTracedMinRounds ask, so
/// a run always ends well inside the 180 s a run may take.
constexpr double kMeasureCeilingS = 120.0;
/// The traced run makes at least this many rounds, so each mode's median
/// comes from ops in all three rotated positions.
constexpr std::size_t kTracedMinRounds = 3;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();  // drop the NUL padding
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void print_fingerprint(std::size_t threads) {
  std::printf("fingerprint {\"nproc\": %zu, \"threads\": %zu, \"cpu\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"simd_kernel\": %s, "
              "\"argmin_path\": \"%s\"}\n",
              nproc(), threads, json_escape(cpu_model()).c_str(), C2B_PERFBENCH_COMPILER,
              C2B_PERFBENCH_BUILD_TYPE, sim::detail::simd_kernel_enabled() ? "true" : "false",
              sim::detail::simd_avx2_active() ? "avx2" : "portable");
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string body;
  for (const auto& [name, value_unit] : metrics.items()) {
    double value = value_unit.first;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), value, value_unit.second.c_str());
    body += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, body.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The run protocol

enum class OpMode { kPlain, kTraced, kTelemetryOff };

struct OpSample {
  double wall = 0.0;
  double cpu = 0.0;
  bool ok = false;
};

class Runner {
 public:
  Runner(Workload& workload, const RunOptions& options)
      : workload_(workload), options_(options) {}

  /// Repeated setup(); returns the median seconds. Set-up is mostly one
  /// thread, which would otherwise stay on one CPU for the whole run, and
  /// on a shared host one CPU can be slower than the rest for minutes; so
  /// repetition k runs pinned to the k-th allowed CPU, round robin, and
  /// the median spans them all. The pool's workers are created first, with
  /// the full CPU mask, and the caller's mask is restored at the end.
  double setup() {
    exec::ThreadPool::global();
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    const bool pin = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
    std::vector<int> cpus;
    for (int c = 0; pin && c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    std::vector<double> times;
    const double first = now_s();
    while (times.size() < std::max(kSetupMinReps, cpus.size()) ||
           (now_s() - first < kSetupMinS && times.size() < kSetupMaxReps)) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[times.size() % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
      }
      const double start = now_s();
      workload_.setup();
      times.push_back(now_s() - start);
    }
    if (pin) sched_setaffinity(0, sizeof allowed, &allowed);
    std::printf("setup_s samples %zu; median per CPU:", times.size());
    for (std::size_t k = 0; k < std::max<std::size_t>(1, cpus.size()); ++k) {
      std::vector<double> on_cpu;
      for (std::size_t i = k; i < times.size(); i += std::max<std::size_t>(1, cpus.size()))
        on_cpu.push_back(times[i]);
      std::printf(" %.4f", median(on_cpu));
    }
    std::printf("\n");
    return median(times);
  }

  OpSample op(OpMode mode) {
    OpSample sample;
    SpanLog& spans = SpanLog::global();
    const int id = static_cast<int>(attempted_++);
    std::string why;
    try {
      spans.set_enabled(mode == OpMode::kTraced);
      spans.set_op(id);
      workload_.prepare_op();
      if (mode == OpMode::kTelemetryOff) obs::set_enabled(false);
      const double cpu = process_cpu_s();
      const double start = now_s();
      {
        ScopedSpan span("op");
        workload_.timed_op();
      }
      sample.wall = now_s() - start;
      sample.cpu = process_cpu_s() - cpu;
      obs::set_enabled(true);
      spans.set_enabled(false);
      sample.ok = workload_.check_op(why);
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    obs::set_enabled(true);
    spans.set_enabled(false);
    if (!sample.ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s op %d failed: %s\n", options_.workload.c_str(), id,
                   why.c_str());
    }
    return sample;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  Workload& workload_;
  const RunOptions& options_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// End-to-end run: one warm-up op (the first op of a process pays one-time
/// costs), then timed ops until --seconds have passed and kMinOps are done.
int run_end_to_end(Workload& workload, const RunOptions& options) {
  Runner runner(workload, options);
  const double setup_s = runner.setup();
  runner.op(OpMode::kPlain);
  std::vector<double> walls;
  std::vector<double> cpus;
  const double start = now_s();
  while (walls.size() < kMinOps || now_s() - start < options.seconds) {
    if (!walls.empty() && now_s() - start > kMeasureCeilingS) break;
    const OpSample sample = runner.op(OpMode::kPlain);
    walls.push_back(sample.wall);
    cpus.push_back(sample.cpu);
  }
  const double sweep_s = median(walls);
  std::printf("sweep_s samples %zu:", walls.size());
  for (const double wall : walls) std::printf(" %.4f", wall);
  std::printf("\n");

  Metrics metrics;
  metrics.set("setup_s", setup_s, "s");
  metrics.set("sweep_s", sweep_s, "s");
  metrics.set("sweep_s_p75", quantile(walls, 0.75), "s");
  metrics.set("points_per_s", sweep_s > 0 ? workload.points_per_op() / sweep_s : 0.0, "1/s");
  metrics.set("cpu_s", median(cpus), "s");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  const auto attempted = static_cast<double>(runner.attempted());
  metrics.set("ok_frac", (attempted - static_cast<double>(runner.failed())) / attempted, "frac");
  print_result(runner.failed() == 0, runner.attempted(), runner.failed(), metrics);
  return 0;
}

/// Traced run: one warm-up op (the first op of a process pays one-time
/// costs), then at least kTracedMinRounds rounds of (untraced, traced,
/// telemetry-off) ops, rotating the order each round; the per-layer probes
/// run once, right after the first traced op, against that op's state.
int run_traced(Workload& workload, const RunOptions& options) {
  Runner runner(workload, options);
  runner.setup();
  runner.op(OpMode::kPlain);
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& steals = registry.counter("exec.pool.steals");
  obs::Counter& drains = registry.counter("exec.pool.caller_drains");

  Metrics metrics;
  bool probes_ok = false;
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<double> telemetry_off;
  double probe_s = 0.0;
  const double start = now_s();
  for (std::size_t round = 0;; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      const auto mode = static_cast<OpMode>((round + k) % 3);
      const std::uint64_t steals0 = steals.value();
      const std::uint64_t drains0 = drains.value();
      const OpSample sample = runner.op(mode);
      if (mode == OpMode::kPlain) plain.push_back(sample.wall);
      if (mode == OpMode::kTelemetryOff) telemetry_off.push_back(sample.wall);
      if (mode != OpMode::kTraced) continue;
      traced.push_back(sample.wall);
      if (traced.size() > 1) continue;
      const double threads = static_cast<double>(workload.threads());
      metrics.set("exec.pool.cpu_util", sample.cpu / (threads * sample.wall), "frac");
      metrics.set("exec.pool.steals", static_cast<double>(steals.value() - steals0), "count");
      metrics.set("exec.pool.caller_drains", static_cast<double>(drains.value() - drains0),
                  "count");
      const double probe_start = now_s();
      SpanLog::global().set_enabled(true);
      SpanLog::global().set_op(-2);
      std::string why;
      try {
        probes_ok = workload.layer_metrics(metrics, why);
      } catch (const std::exception& e) {
        why = std::string("exception: ") + e.what();
      }
      SpanLog::global().set_enabled(false);
      if (!probes_ok) std::fprintf(stderr, "perfbench: layer probe failed: %s\n", why.c_str());
      probe_s = now_s() - probe_start;
    }
    const double elapsed = now_s() - start - probe_s;
    if (elapsed > kMeasureCeilingS) break;
    if (round + 1 >= kTracedMinRounds && elapsed >= options.seconds) break;
  }
  metrics.set("obs.telemetry_frac", median(plain) / median(telemetry_off) - 1.0, "frac");
  metrics.set("bench.trace_overhead_frac", median(traced) / median(plain) - 1.0, "frac");
  std::printf("ops per mode %zu (untraced, traced, telemetry off)\n", plain.size());

  const SpanLog& spans = SpanLog::global();
  std::fputs(spans.summary().c_str(), stdout);
  const std::string path = options.work_dir + "/spans-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (spans.write_json(path)) std::printf("spans written to %s\n", path.c_str());
  print_result(probes_ok && runner.failed() == 0, runner.attempted(), runner.failed(), metrics);
  return 0;
}

/// Each check must pass on intact references and fail on every single
/// flipped bit.
int run_self_test(Workload& workload, const RunOptions& options) {
  Runner runner(workload, options);
  workload.setup();
  const OpSample sample = runner.op(OpMode::kPlain);
  bool pass = sample.ok;
  std::printf("self-test %s seed %llu: intact references -> check %s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              sample.ok ? "passes" : "FAILS");
  for (const std::string& name : workload.references()) {
    std::string why;
    workload.flip_reference(name);
    const bool flipped_ok = workload.check_op(why);
    workload.flip_reference(name);
    std::string again;
    const bool restored_ok = workload.check_op(again);
    std::printf("self-test %s: flip one bit of %-8s -> check %s (%s); restored -> %s\n",
                options.workload.c_str(), name.c_str(), flipped_ok ? "PASSES" : "fails",
                why.c_str(), restored_ok ? "passes" : "FAILS");
    pass = pass && !flipped_ok && restored_ok;
  }
  std::printf("self-test %s seed %llu: %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: c2b_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--self-test]\n       c2b_perfbench "
               "--print-expected\n",
               message);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace
}  // namespace c2b::perfbench

int main(int argc, char** argv) {
  using namespace c2b::perfbench;
  RunOptions options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t value = 0;
    if (arg == "--print-expected") return print_expected();
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], value)) {
      options.seed = value;
      ++i;
    } else if (arg == "--seconds" && has_value && parse_u64(argv[i + 1], value) && value >= 1) {
      options.seconds = static_cast<double>(value);
      ++i;
    } else if (arg == "--trace" && has_value && parse_u64(argv[i + 1], value) && value <= 1) {
      options.trace = value == 1;
      ++i;
    } else {
      return usage(("bad argument '" + arg + "'").c_str());
    }
  }
  if (options.work_dir.empty()) return usage("--work-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return usage("cannot create --work-dir");
  const std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) {
    std::string names;
    for (const std::string& name : workload_names()) names += " " + name;
    return usage(("unknown workload; one of:" + names).c_str());
  }

  c2b::exec::set_thread_count(workload->threads());
  print_fingerprint(workload->threads());
  try {
    if (self_test) return run_self_test(*workload, options);
    return options.trace ? run_traced(*workload, options) : run_end_to_end(*workload, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
}
