#include "c2b/obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "c2b/check/property.h"
#include "c2b/obs/export.h"
#include "c2b/obs/obs.h"

namespace c2b::obs {
namespace {

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  Counter& counter = Registry::global().counter("test.registry.concurrent");
  counter.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsCounter, MacroHitsTheSameSlot) {
  Counter& counter = Registry::global().counter("test.registry.macro");
  counter.reset();
  const std::uint64_t before = counter.value();
  C2B_COUNTER_INC("test.registry.macro");
  C2B_COUNTER_ADD("test.registry.macro", 4);
  EXPECT_EQ(counter.value(), before + 5);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge& gauge = Registry::global().gauge("test.registry.gauge");
  gauge.set(1.5);
  gauge.set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST(ObsHistogram, BucketsAndMoments) {
  ConcurrentHistogram h(0.0, 10.0, 10);
  h.record(0.5);   // bin 0
  h.record(3.5);   // bin 3
  h.record(9.99);  // bin 9
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.bin_low(3), 3.0);
  EXPECT_NEAR(h.mean(), (0.5 + 3.5 + 9.99) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.99);
  EXPECT_GT(h.stddev(), 0.0);
}

TEST(ObsHistogram, OutOfRangeSamplesClampToEdgeBins) {
  ConcurrentHistogram h(0.0, 8.0, 8);
  h.record(-5.0);    // below lo -> bin 0
  h.record(100.0);   // above hi -> last bin
  h.record(8.0);     // == hi -> last bin (half-open ranges)
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(7), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);  // moments keep the raw values
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCount) {
  ConcurrentHistogram h(0.0, 1.0, 4);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<double>((t + i) % 4) / 4.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) bucket_total += h.bin_count(b);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(ObsHistogram, PercentileTracksExactQuantiles) {
  // Uniform fill: interpolation inside a bucket is exact, so the histogram
  // percentile must match the true quantile of the sample set.
  ConcurrentHistogram h(0.0, 100.0, 100);
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(i) / 10.0;  // 0.0 .. 99.9
    h.record(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  const auto exact = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    return values[lo] + (pos - lo) * (values[std::min(lo + 1, values.size() - 1)] - values[lo]);
  };
  // Error bound: one bucket width (1.0).
  EXPECT_NEAR(h.percentile(0.50), exact(0.50), 1.0);
  EXPECT_NEAR(h.percentile(0.90), exact(0.90), 1.0);
  EXPECT_NEAR(h.percentile(0.99), exact(0.99), 1.0);
}

TEST(ObsHistogram, PercentileUnderBinEdgeSkew) {
  // Adversarial shape: a big spike exactly on a bin edge plus a thin tail.
  // The estimate may smear across the spike's bucket but never by more than
  // one bucket width, and tail percentiles must land in the tail.
  ConcurrentHistogram h(0.0, 10.0, 10);
  std::vector<double> values;
  for (int i = 0; i < 900; ++i) {
    h.record(3.0);  // spike on the bin 3 edge
    values.push_back(3.0);
  }
  for (int i = 0; i < 100; ++i) {
    const double v = 9.0 + static_cast<double>(i) / 100.0;
    h.record(v);
    values.push_back(v);
  }
  EXPECT_NEAR(h.percentile(0.50), 3.0, 1.0);  // within the spike's bucket
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p99, 9.0);
  EXPECT_LE(p99, 9.99);
}

TEST(ObsHistogram, PercentileClampsToObservedRange) {
  // Out-of-range samples pile into the edge bins; clamping keeps the
  // estimate inside [min, max] instead of reporting bucket boundaries.
  ConcurrentHistogram h(0.0, 10.0, 10);
  h.record(-50.0);
  h.record(200.0);
  EXPECT_GE(h.percentile(0.0), -50.0);
  EXPECT_LE(h.percentile(1.0), 200.0);
  EXPECT_GE(h.percentile(1.0), 10.0);  // last bucket alone would cap at 10

  ConcurrentHistogram empty(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  ConcurrentHistogram single(0.0, 10.0, 10);
  single.record(4.5);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 4.5);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 4.5);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 4.5);
}

TEST(ObsHistogram, ResetClears) {
  ConcurrentHistogram h(0.0, 1.0, 2);
  h.record(0.25);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

/// One histogram shape and a sample stream: the first `recorded` samples
/// go in one by one, the rest through `chunks` LocalHistograms (some
/// possibly empty) merged in order.
struct MergeCase {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 1;
  std::vector<double> samples;
  std::size_t recorded = 0;
  std::size_t chunks = 1;
};

/// Samples that exercise every bucketing branch: exact bucket edges, lo and
/// hi themselves, negatives, far out-of-range values both ways, and
/// fractions; mostly integers so the moments can be compared exactly.
MergeCase gen_merge_case(Rng& rng) {
  MergeCase c;
  c.lo = static_cast<double>(rng.uniform_int(-8, 8));
  c.bins = 1 + rng.uniform_below(16);
  c.hi = c.lo + static_cast<double>(c.bins) * static_cast<double>(1 + rng.uniform_below(4));
  const double width = (c.hi - c.lo) / static_cast<double>(c.bins);
  const std::size_t n = rng.uniform_below(80);
  for (std::size_t i = 0; i < n; ++i) {
    double x;
    switch (rng.uniform_below(6)) {
      case 0: x = c.lo + width * static_cast<double>(rng.uniform_below(c.bins + 1)); break;
      case 1: x = rng.bernoulli(0.5) ? c.lo : c.hi; break;
      case 2: x = static_cast<double>(rng.uniform_int(-1'000'000, -1)); break;
      case 3: x = static_cast<double>(rng.uniform_int(1'000, 1'000'000)); break;
      case 4: x = rng.uniform(c.lo - 2.0, c.hi + 2.0); break;
      default: x = static_cast<double>(rng.uniform_int(static_cast<std::int64_t>(c.lo) - 4,
                                                      static_cast<std::int64_t>(c.hi) + 4));
    }
    c.samples.push_back(x);
  }
  c.recorded = rng.uniform_below(n + 1);
  c.chunks = 1 + rng.uniform_below(4);
  return c;
}

std::optional<std::string> merge_matches_recording(const MergeCase& c) {
  ConcurrentHistogram one_by_one(c.lo, c.hi, c.bins);
  for (const double x : c.samples) one_by_one.record(x);

  ConcurrentHistogram merged(c.lo, c.hi, c.bins);
  for (std::size_t i = 0; i < c.recorded; ++i) merged.record(c.samples[i]);
  const std::size_t tail = c.samples.size() - c.recorded;
  std::size_t next = c.recorded;
  for (std::size_t chunk = 0; chunk < c.chunks; ++chunk) {
    LocalHistogram local(c.lo, c.hi, c.bins);
    const std::size_t end = c.recorded + tail * (chunk + 1) / c.chunks;
    for (; next < end; ++next) local.record(c.samples[next]);
    merged.merge(local);
  }

  std::ostringstream os;
  for (std::size_t b = 0; b < c.bins; ++b)
    if (merged.bin_count(b) != one_by_one.bin_count(b))
      os << "bin " << b << ": " << merged.bin_count(b) << " vs " << one_by_one.bin_count(b)
         << "; ";
  if (merged.count() != one_by_one.count()) os << "count differs; ";
  if (merged.min() != one_by_one.min()) os << "min differs; ";
  if (merged.max() != one_by_one.max()) os << "max differs; ";
  // Merging regroups the additions: integer sums stay exact, any other sum
  // may round differently in the last places.
  const bool integral = std::all_of(c.samples.begin(), c.samples.end(),
                                    [](double x) { return x == std::floor(x); });
  double magnitude = 0.0;
  for (const double x : c.samples) magnitude += std::abs(x);
  const double tolerance = integral ? 0.0 : 1e-12 * magnitude;
  if (std::abs(merged.sum() - one_by_one.sum()) > tolerance) os << "sum differs; ";
  if (std::abs(merged.stddev() - one_by_one.stddev()) > 1e-9 * (1.0 + one_by_one.stddev()))
    os << "stddev differs; ";
  if (os.str().empty()) return std::nullopt;
  return os.str();
}

TEST(ObsHistogram, MergingLocalHistogramsEqualsRecordingOneByOne) {
  check::Property<MergeCase> p;
  p.name = "local_histogram_merge";
  p.generate = gen_merge_case;
  p.holds = merge_matches_recording;
  p.shrink = [](const MergeCase& c) {
    std::vector<MergeCase> out;
    for (std::vector<double>& samples : check::shrink_vector(c.samples)) {
      MergeCase smaller = c;
      smaller.samples = std::move(samples);
      smaller.recorded = std::min(smaller.recorded, smaller.samples.size());
      out.push_back(std::move(smaller));
    }
    return out;
  };
  p.print = [](const MergeCase& c) {
    std::ostringstream os;
    os << "[" << c.lo << ", " << c.hi << ") x" << c.bins << " recorded " << c.recorded
       << " chunks " << c.chunks << " samples";
    for (const double x : c.samples) os << " " << x;
    return os.str();
  };
  check::CheckOptions options;
  options.seed = 7;
  options.cases = 400;
  const check::CheckResult result = check::check(p, check::options_from_env(options));
  EXPECT_TRUE(result.passed) << result.summary();
}

TEST(ObsHistogram, EmptyMergeChangesNothing) {
  ConcurrentHistogram h(0.0, 8.0, 8);
  const LocalHistogram empty(0.0, 8.0, 8);
  h.merge(empty);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);

  h.record(3.0);
  h.record(5.0);
  h.merge(empty);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_EQ(empty.min(), 0.0);  // empty local reports 0 like the shared kind
  EXPECT_EQ(empty.max(), 0.0);
}

TEST(ObsHistogram, MergeRejectsAnotherShape) {
  ConcurrentHistogram h(0.0, 8.0, 8);
  LocalHistogram wider(0.0, 16.0, 8);
  wider.record(1.0);
  EXPECT_THROW(h.merge(wider), std::invalid_argument);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsHistogram, MergeMacroRegistersOnlyWhatWasRecorded) {
  const LocalHistogram empty(0.0, 4.0, 4);
  C2B_HISTOGRAM_MERGE("test.registry.merge_empty", empty);
  for (const MetricSample& s : Registry::global().snapshot())
    EXPECT_NE(s.name, "test.registry.merge_empty");

  LocalHistogram local(0.0, 4.0, 4);
  local.record(1.0);
  local.record(7.0);
  set_enabled(false);
  C2B_HISTOGRAM_MERGE("test.registry.merge", local);
  set_enabled(true);
  ConcurrentHistogram& h = Registry::global().histogram("test.registry.merge", 0.0, 4.0, 4);
  EXPECT_EQ(h.count(), 0u);
  C2B_HISTOGRAM_MERGE("test.registry.merge", local);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(ObsRegistry, FirstRegistrationFixesHistogramShape) {
  ConcurrentHistogram& first = Registry::global().histogram("test.registry.shape", 0.0, 4.0, 4);
  ConcurrentHistogram& again =
      Registry::global().histogram("test.registry.shape", -100.0, 100.0, 17);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.bins(), 4u);
}

TEST(ObsRegistry, SnapshotCoversAllKinds) {
  Registry registry;  // private instance: deterministic content
  registry.counter("c").add(3);
  registry.gauge("g").set(1.25);
  registry.histogram("h", 0.0, 2.0, 2).record(1.5);

  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].name, "c");
  EXPECT_EQ(samples[0].count, 3u);
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(samples[1].value, 1.25);
  EXPECT_EQ(samples[2].kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(samples[2].buckets.size(), 2u);
  EXPECT_EQ(samples[2].buckets[1].second, 1u);
}

TEST(ObsRegistry, ResetValuesKeepsNames) {
  Registry registry;
  registry.counter("c").add(7);
  registry.histogram("h", 0.0, 1.0, 2).record(0.5);
  registry.reset_values();
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].count, 0u);
  EXPECT_EQ(samples[1].count, 0u);
}

TEST(ObsExport, JsonAndTableContainTheMetrics) {
  Registry registry;
  registry.counter("alpha").add(2);
  registry.gauge("beta").set(0.5);
  registry.histogram("gamma", 0.0, 1.0, 2).record(0.75);

  const std::string json = metrics_json(registry);
  EXPECT_NE(json.find("\"counters\":{\"alpha\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"beta\":0.5}"), std::string::npos);
  EXPECT_NE(json.find("\"gamma\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);

  const Table table = metrics_table(registry);
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(ObsExport, JsonSurfacesHistogramPercentiles) {
  Registry registry;
  ConcurrentHistogram& h = registry.histogram("delta", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i));

  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].p50, 49.5, 1.0);
  EXPECT_NEAR(samples[0].p90, 89.1, 1.0);
  EXPECT_NEAR(samples[0].p99, 98.01, 1.0);

  const std::string json = metrics_json(registry);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(ObsRuntime, DisableSkipsMacroUpdates) {
  Counter& counter = Registry::global().counter("test.registry.disable");
  counter.reset();
  set_enabled(false);
  C2B_COUNTER_INC("test.registry.disable");
  EXPECT_FALSE(C2B_OBS_ACTIVE());
  set_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  C2B_COUNTER_INC("test.registry.disable");
  EXPECT_EQ(counter.value(), 1u);
}

}  // namespace
}  // namespace c2b::obs
