#pragma once

// Shared pieces of the end-to-end benchmark driver: the metric sink, the
// in-memory span recorder of the traced run, the workload interface, and
// the bitwise helpers every output check uses.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace c2b::perfbench {

/// The seed the committed expected optima were recorded at (the `c2b`
/// CLI's default DseContext::seed).
inline constexpr std::uint64_t kDefaultSeed = 99;

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds (all threads).
double process_cpu_s();

/// CPUs this process may run on.
std::size_t nproc();

inline std::uint64_t bits_of(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

inline bool bits_equal(double a, double b) { return bits_of(a) == bits_of(b); }

/// Flip the lowest mantissa bit: the smallest change a bitwise check must see.
inline double flip_low_bit(double x) {
  std::uint64_t u = bits_of(x) ^ 1u;
  double out = 0.0;
  std::memcpy(&out, &u, sizeof out);
  return out;
}

/// FNV-1a over the bit patterns of a time table.
std::uint64_t digest_times(const std::vector<double>& times);

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// In-memory span log for the traced run: name, start, end, parent and op
/// id per span, written out once at exit. When disabled, begin/end are a
/// single branch and nothing is recorded.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
  };

  static SpanLog& global();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(int op) { op_ = op; }

  int begin(const std::string& name);
  void end(int id);

  /// Per-name total and self time (duration minus the part covered by
  /// child spans), one line each.
  std::string summary() const;

  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(SpanLog::global().begin(name)) {}
  ~ScopedSpan() { SpanLog::global().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for disk tiers (inside the checkout)
};

/// One benchmark workload. Protocol: setup() runs several times (the last
/// one's state is kept), then ops run back to back; each op is
/// prepare_op() (untimed) + timed_op() (the measured region) + check_op()
/// (untimed output check).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t threads() const = 0;
  virtual void setup() = 0;
  virtual void prepare_op() {}
  virtual void timed_op() = 0;
  /// False (with a reason) when the last op's output is wrong.
  virtual bool check_op(std::string& why) = 0;
  /// Points resolved by one op.
  virtual double points_per_op() const = 0;

  /// Traced run only, called right after the traced op: measure the
  /// per-layer metrics from that op's state and by timing each layer's
  /// public calls directly. False (with a reason) when a probe's output
  /// disagrees with the op's.
  virtual bool layer_metrics(Metrics& out, std::string& why) = 0;

  /// Self-test hooks: the names of the references check_op compares
  /// against, and a toggle that flips one bit of the named reference.
  virtual std::vector<std::string> references() const = 0;
  virtual void flip_reference(const std::string& name) = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options);
std::vector<std::string> workload_names();

/// Print the expected-optimum table for the default seed (the surrogate
/// entry from an exhaustive sweep), in the form expected.h holds.
int print_expected();

}  // namespace c2b::perfbench
