#include "c2b/obs/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "c2b/common/assert.h"

namespace c2b::obs {
namespace {

std::atomic<bool> g_enabled{true};

/// Relaxed CAS-min/max over an atomic<double>.
void atomic_min(std::atomic<double>& slot, double x) noexcept {
  double current = slot.load(std::memory_order_relaxed);
  while (x < current &&
         !slot.compare_exchange_weak(current, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double x) noexcept {
  double current = slot.load(std::memory_order_relaxed);
  while (x > current &&
         !slot.compare_exchange_weak(current, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

LocalHistogram::LocalHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  C2B_REQUIRE(hi > lo, "histogram needs hi > lo");
  C2B_REQUIRE(bins >= 1, "histogram needs at least one bin");
}

ConcurrentHistogram::ConcurrentHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      counts_(bins),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  C2B_REQUIRE(hi > lo, "histogram needs hi > lo");
  C2B_REQUIRE(bins >= 1, "histogram needs at least one bin");
}

void ConcurrentHistogram::record(double x, std::uint64_t weight) noexcept {
  counts_[histogram_bin(x, lo_, width_, counts_.size())].fetch_add(weight,
                                                                  std::memory_order_relaxed);
  count_.fetch_add(weight, std::memory_order_relaxed);
  const double w = static_cast<double>(weight);
  sum_.fetch_add(w * x, std::memory_order_relaxed);
  sum_squares_.fetch_add(w * x * x, std::memory_order_relaxed);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

void ConcurrentHistogram::merge(const LocalHistogram& local) {
  C2B_REQUIRE(local.lo() == lo_ && local.width() == width_ && local.bins() == counts_.size(),
              "merged histogram must have the same shape");
  if (local.count() == 0) return;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    const std::uint64_t n = local.bin_count(bin);
    if (n != 0) counts_[bin].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(local.count(), std::memory_order_relaxed);
  sum_.fetch_add(local.sum(), std::memory_order_relaxed);
  sum_squares_.fetch_add(local.sum_squares(), std::memory_order_relaxed);
  atomic_min(min_, local.min());
  atomic_max(max_, local.max());
}

double ConcurrentHistogram::bin_low(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

std::uint64_t ConcurrentHistogram::bin_count(std::size_t bin) const noexcept {
  return bin < counts_.size() ? counts_[bin].load(std::memory_order_relaxed) : 0;
}

double ConcurrentHistogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double ConcurrentHistogram::stddev() const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double m = mean();
  const double variance =
      sum_squares_.load(std::memory_order_relaxed) / static_cast<double>(n) - m * m;
  return variance > 0.0 ? std::sqrt(variance) : 0.0;
}

double ConcurrentHistogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double ConcurrentHistogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double ConcurrentHistogram::percentile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    const double in_bin =
        static_cast<double>(counts_[bin].load(std::memory_order_relaxed));
    if (in_bin == 0.0) continue;
    if (cumulative + in_bin >= target) {
      const double frac = (target - cumulative) / in_bin;
      const double estimate = bin_low(bin) + frac * width_;
      // Clamp to observed range: edge buckets absorb out-of-range samples,
      // so their geometric span can exceed what was actually recorded.
      return std::min(max(), std::max(min(), estimate));
    }
    cumulative += in_bin;
  }
  return max();  // racing writers: fall back to the observed maximum
}

void ConcurrentHistogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sum_squares_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

ConcurrentHistogram& Registry::histogram(std::string_view name, double lo, double hi,
                                         std::size_t bins) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name), std::make_unique<ConcurrentHistogram>(lo, hi, bins))
             .first;
  return *it->second;
}

std::vector<MetricSample> Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.count = counter->value();
    s.value = static_cast<double>(s.count);
    out.push_back(std::move(s));
  }
  for (const auto& [name, gauge] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.value = gauge->value();
    out.push_back(std::move(s));
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.count = histogram->count();
    s.value = histogram->sum();
    s.mean = histogram->mean();
    s.stddev = histogram->stddev();
    s.min = histogram->min();
    s.max = histogram->max();
    s.p50 = histogram->percentile(0.50);
    s.p90 = histogram->percentile(0.90);
    s.p99 = histogram->percentile(0.99);
    s.buckets.reserve(histogram->bins());
    for (std::size_t b = 0; b < histogram->bins(); ++b)
      s.buckets.emplace_back(histogram->bin_low(b), histogram->bin_count(b));
    out.push_back(std::move(s));
  }
  return out;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
}

}  // namespace c2b::obs
