#pragma once

// Process-wide telemetry registry: named counters, gauges, and fixed-bucket
// histograms. Updates are lock-free (relaxed std::atomic updates on
// cache-line-padded slots); registration takes a mutex once per call site
// (the C2B_* macros cache the returned reference in a function-local
// static). Export walks the registry under the same mutex and aggregates
// histogram moments RunningStats-style (count/sum/sum-of-squares/min/max),
// so a snapshot is cheap and never perturbs concurrent writers.
//
// Even relaxed atomics cost a contended cache line when every pool thread
// hits the same slot per event, so the simulator does not write the
// registry per access: each replay tallies into plain fields and a
// LocalHistogram and folds them in once when it ends (Counter::add,
// ConcurrentHistogram::merge). The registry sees the same counts either way.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace c2b::obs {

/// Global runtime switch. When false every C2B_* macro reduces to this one
/// branch; when the build defines C2B_OBS_DISABLED the macros vanish
/// entirely and this function is never consulted.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> value_{0.0};
};

/// Bucket of sample `x` in `bins` buckets of `width` starting at `lo`.
/// Out-of-range samples (and NaN) clamp to the edge buckets, the same
/// semantics as c2b::Histogram. The one bucketing rule of both histogram
/// kinds below, so a merged LocalHistogram lands exactly where recording
/// its samples one by one would.
inline std::size_t histogram_bin(double x, double lo, double width, std::size_t bins) noexcept {
  const double offset = (x - lo) / width;
  if (!(offset > 0.0)) return 0;
  if (offset >= static_cast<double>(bins)) return bins - 1;
  return static_cast<std::size_t>(offset);
}

/// Single-owner histogram with ConcurrentHistogram's shape, bucketing and
/// moments in plain fields. For hot loops that tally privately and fold
/// the result into a shared histogram once (ConcurrentHistogram::merge)
/// instead of paying atomic read-modify-writes on shared lines per sample.
class LocalHistogram {
 public:
  LocalHistogram(double lo, double hi, std::size_t bins);

  void record(double x) noexcept {
    ++counts_[histogram_bin(x, lo_, width_, counts_.size())];
    ++count_;
    sum_ += x;
    sum_squares_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  double width() const noexcept { return width_; }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t bin_count(std::size_t bin) const noexcept {
    return bin < counts_.size() ? counts_[bin] : 0;
  }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double sum_squares() const noexcept { return sum_squares_; }
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }  ///< 0 when empty
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }  ///< 0 when empty

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  double min_;
  double max_;
};

/// Fixed-width histogram over [lo, hi) with atomically updated buckets and
/// running moments; out-of-range samples clamp to the edge buckets (see
/// histogram_bin). record() is wait-free on every field except min/max,
/// which use a bounded CAS loop.
class ConcurrentHistogram {
 public:
  ConcurrentHistogram(double lo, double hi, std::size_t bins);

  void record(double x, std::uint64_t weight = 1) noexcept;
  /// Fold a LocalHistogram of the same shape in: bucket counts, count, sum
  /// and sum of squares add, min and max fold. Equal to recording its
  /// samples one by one, except that a non-integer sum may round
  /// differently. Throws on a shape mismatch.
  void merge(const LocalHistogram& local);

  std::size_t bins() const noexcept { return counts_.size(); }
  double bin_low(std::size_t bin) const noexcept;
  std::uint64_t bin_count(std::size_t bin) const noexcept;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Population standard deviation from the running moments.
  double stddev() const noexcept;
  double min() const noexcept;  ///< 0 when empty
  double max() const noexcept;  ///< 0 when empty

  /// Quantile estimate (q in [0, 1]) from the bucket counts: walk the
  /// cumulative distribution to the target rank and interpolate linearly
  /// inside the bucket, clamping to the observed [min, max] so edge-bucket
  /// clamping cannot push the estimate outside the recorded range. Exact
  /// when every sample in the target bucket is uniformly spread; error is
  /// bounded by one bucket width otherwise. 0 when empty.
  double percentile(double q) const noexcept;

  void reset() noexcept;

 private:
  double lo_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  alignas(64) std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> sum_squares_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// One exported metric (flattened for table/JSON writers).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  std::uint64_t count = 0;  ///< counter value or histogram sample count
  double value = 0.0;       ///< gauge value or histogram sum
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< histogram percentile estimates, 0 for other kinds
  double p90 = 0.0;
  double p99 = 0.0;
  /// Histogram buckets as (lower edge, count); empty for counters/gauges.
  std::vector<std::pair<double, std::uint64_t>> buckets;
};

class Registry {
 public:
  /// The process-wide registry used by the C2B_* macros.
  static Registry& global();

  /// Find-or-create. Returned references stay valid for the registry's
  /// lifetime (slots are heap-allocated; the map only grows).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The (lo, hi, bins) shape is fixed by the first registration of `name`;
  /// later mismatched shapes get the existing histogram (first wins).
  ConcurrentHistogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);

  /// Flattened snapshot of everything, sorted by name within each kind.
  std::vector<MetricSample> snapshot() const;

  /// Zero every metric (the names stay registered). For tests and for
  /// separating phases inside one process.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<ConcurrentHistogram>, std::less<>> histograms_;
};

}  // namespace c2b::obs
