#include "c2b/sim/detector/detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "c2b/common/rng.h"
#include "c2b/metrics/timeline.h"
#include "c2b/sim/detector/detector_reference.h"

namespace c2b::sim {
namespace {

TEST(Detector, MatchesFigure1Example) {
  CamatDetector detector;
  for (const TimelineAccess& a : figure1_example_timeline())
    detector.record_access(a.start_cycle, a.hit_cycles, a.miss_penalty_cycles);
  const TimelineMetrics m = detector.finalize();
  EXPECT_DOUBLE_EQ(m.camat_value, 1.6);
  EXPECT_DOUBLE_EQ(m.amat_value, 3.8);
  EXPECT_DOUBLE_EQ(m.camat_params.hit_concurrency, 2.5);
  EXPECT_DOUBLE_EQ(m.camat_params.miss_concurrency, 1.0);
  EXPECT_EQ(m.pure_misses, 1u);
}

TEST(Detector, EmptyDetectorFinalizesToZero) {
  CamatDetector detector;
  const TimelineMetrics m = detector.finalize();
  EXPECT_EQ(m.accesses, 0u);
  EXPECT_DOUBLE_EQ(m.camat_value, 0.0);
}

TEST(Detector, IncrementalAdvanceEqualsOneShot) {
  const auto accesses = figure1_example_timeline();
  CamatDetector incremental;
  for (const TimelineAccess& a : accesses) {
    incremental.record_access(a.start_cycle, a.hit_cycles, a.miss_penalty_cycles);
    incremental.advance(a.start_cycle);  // watermark: nothing future-dated
  }
  const TimelineMetrics inc = incremental.finalize();
  const TimelineMetrics ref = analyze_timeline(accesses);
  EXPECT_DOUBLE_EQ(inc.camat_value, ref.camat_value);
  EXPECT_EQ(inc.pure_misses, ref.pure_misses);
  EXPECT_EQ(inc.hit_cycle_count, ref.hit_cycle_count);
}

TEST(Detector, AdvanceBoundsLiveWindow) {
  CamatDetector detector;
  for (std::uint64_t i = 0; i < 1000; ++i) detector.record_access(i * 4, 3, 0);
  detector.advance(900 * 4);
  // The live cycle table must not retain the already-finalized prefix.
  EXPECT_LT(detector.live_cycle_window(), 400u);
}

// Property: on random access streams the online detector must produce
// exactly the offline analyzer's numbers, regardless of how advance() is
// interleaved.
class DetectorEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorEquivalence, OnlineEqualsOffline) {
  Rng rng(GetParam());
  std::vector<TimelineAccess> accesses;
  CamatDetector detector;
  std::uint64_t t = 0;
  const int count = 50 + static_cast<int>(rng.uniform_below(300));
  for (int i = 0; i < count; ++i) {
    t += rng.uniform_below(5);
    TimelineAccess a;
    a.start_cycle = t;
    a.hit_cycles = 1 + static_cast<std::uint32_t>(rng.uniform_below(3));
    a.miss_penalty_cycles =
        rng.bernoulli(0.35) ? 1 + static_cast<std::uint32_t>(rng.uniform_below(30)) : 0;
    accesses.push_back(a);
    detector.record_access(a.start_cycle, a.hit_cycles, a.miss_penalty_cycles);
    if (rng.bernoulli(0.3)) detector.advance(t);  // random interleaved folding
  }
  const TimelineMetrics online = detector.finalize();
  const TimelineMetrics offline = analyze_timeline(accesses);

  EXPECT_EQ(online.accesses, offline.accesses);
  EXPECT_EQ(online.misses, offline.misses);
  EXPECT_EQ(online.pure_misses, offline.pure_misses);
  EXPECT_EQ(online.hit_cycle_count, offline.hit_cycle_count);
  EXPECT_EQ(online.hit_access_cycles, offline.hit_access_cycles);
  EXPECT_EQ(online.pure_miss_cycle_count, offline.pure_miss_cycle_count);
  EXPECT_EQ(online.memory_active_cycles, offline.memory_active_cycles);
  EXPECT_DOUBLE_EQ(online.camat_value, offline.camat_value);
  EXPECT_DOUBLE_EQ(online.amat_value, offline.amat_value);
  EXPECT_DOUBLE_EQ(online.apc, offline.apc);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, DetectorEquivalence,
                         ::testing::Range<std::uint64_t>(100, 124));

// Property: the interval-based detector must match the retained seed
// per-cycle detector counter for counter on random streams, including
// out-of-order start cycles (bank scheduling reorders them in the real
// simulator) and an adversarial advance cadence where only one side folds
// incrementally. Finalized metrics are cadence-independent, so the two
// sides may legally advance at different watermarks.
/// Counter-for-counter equality of two finalized detectors. Equal integer
/// counters must give bit-identical doubles: assembly is the shared
/// detail::assemble_detector_metrics.
void expect_same_metrics(const TimelineMetrics& a, const TimelineMetrics& b) {
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.pure_misses, b.pure_misses);
  EXPECT_EQ(a.hit_cycle_count, b.hit_cycle_count);
  EXPECT_EQ(a.hit_access_cycles, b.hit_access_cycles);
  EXPECT_EQ(a.pure_miss_cycle_count, b.pure_miss_cycle_count);
  EXPECT_EQ(a.pure_miss_access_cycles, b.pure_miss_access_cycles);
  EXPECT_EQ(a.memory_active_cycles, b.memory_active_cycles);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.amat_value), std::bit_cast<std::uint64_t>(b.amat_value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.camat_value),
            std::bit_cast<std::uint64_t>(b.camat_value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.camat_direct),
            std::bit_cast<std::uint64_t>(b.camat_direct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.apc), std::bit_cast<std::uint64_t>(b.apc));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.concurrency_c),
            std::bit_cast<std::uint64_t>(b.concurrency_c));
}

class DetectorDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorDifferential, SweepMatchesReferencePerCycle) {
  Rng rng(GetParam());
  CamatDetector sweep;
  ReferenceCamatDetector reference;
  std::uint64_t issue = 0;
  const int count = 50 + static_cast<int>(rng.uniform_below(400));
  for (int i = 0; i < count; ++i) {
    issue += rng.uniform_below(4);
    // Starts jitter ahead of the issue cycle and are non-monotone across
    // consecutive accesses, like per-bank L1 scheduling produces. The first
    // access starts exactly at its issue cycle (banks start idle), which is
    // also what anchors the reference detector's ring at the stream minimum.
    const std::uint64_t start = i == 0 ? issue : issue + rng.uniform_below(6);
    const auto hit = 1 + static_cast<std::uint32_t>(rng.uniform_below(4));
    const auto penalty =
        rng.bernoulli(0.4) ? 1 + static_cast<std::uint32_t>(rng.uniform_below(40)) : 0;
    sweep.record_access(start, hit, penalty);
    reference.record_access(start, hit, penalty);
    // Watermark at the issue cycle is always legal (starts never precede
    // it); fold the two sides at independent random cadences.
    if (rng.bernoulli(0.3)) sweep.advance(issue);
    if (rng.bernoulli(0.3)) reference.advance(issue);
  }
  expect_same_metrics(sweep.finalize(), reference.finalize());
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, DetectorDifferential,
                         ::testing::Range<std::uint64_t>(500, 540));

// Property: the same counter-for-counter match on streams whose fold spans
// are sparse, so advance() takes its sorted-sweep path as well as the
// counting pass. Each stream is a few bursts of accesses separated by idle
// gaps of 10^5 cycles or more, with long miss penalties that straddle
// folds (some outlive the gap) and folds whose watermark is exactly a
// pending miss start. A fold after a gap still holds the tail of the
// previous burst, so its span covers the gap. The reference detector's
// ring is per cycle, so the streams keep few accesses.
class DetectorSparseSpans : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorSparseSpans, BothFoldPathsMatchReferencePerCycle) {
  Rng rng(GetParam());
  CamatDetector sweep;
  ReferenceCamatDetector reference;
  auto fold = [&](std::uint64_t watermark) {
    sweep.advance(watermark);
    reference.advance(watermark);
  };
  std::uint64_t issue = 0;
  bool first = true;
  const int bursts = 3 + static_cast<int>(rng.uniform_below(3));
  for (int b = 0; b < bursts; ++b) {
    const int count = 10 + static_cast<int>(rng.uniform_below(40));
    for (int i = 0; i < count; ++i) {
      issue += rng.uniform_below(4);
      const std::uint64_t start = first ? issue : issue + rng.uniform_below(6);
      first = false;
      const auto hit = 1 + static_cast<std::uint32_t>(rng.uniform_below(4));
      std::uint32_t penalty = 0;
      if (rng.bernoulli(0.05))
        penalty = 100'000 + static_cast<std::uint32_t>(rng.uniform_below(100'000));
      else if (rng.bernoulli(0.15))
        penalty = 200 + static_cast<std::uint32_t>(rng.uniform_below(5'000));
      else if (rng.bernoulli(0.4))
        penalty = 1 + static_cast<std::uint32_t>(rng.uniform_below(40));
      sweep.record_access(start, hit, penalty);
      reference.record_access(start, hit, penalty);
      if (penalty > 0 && rng.bernoulli(0.2)) {
        // Watermark exactly at this access's pending miss start; later
        // accesses start at or after it.
        issue = std::max(issue, start + hit);
        fold(start + hit);
      } else if (rng.bernoulli(0.25)) {
        fold(issue);
      }
    }
    issue += 100'000 + rng.uniform_below(50'000);
  }
  expect_same_metrics(sweep.finalize(), reference.finalize());
  EXPECT_GT(sweep.pass_counts().counting, 0u);
  EXPECT_GT(sweep.pass_counts().sorted, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, DetectorSparseSpans,
                         ::testing::Range<std::uint64_t>(700, 724));

// ---------------------------------------------------------------------------
// APC counter

TEST(ApcCounter, DisjointIntervals) {
  ApcCounter apc;
  apc.add_interval(0, 10);
  apc.add_interval(20, 30);
  EXPECT_EQ(apc.accesses(), 2u);
  EXPECT_EQ(apc.busy_cycles(), 20u);
  EXPECT_DOUBLE_EQ(apc.apc(), 0.1);
}

TEST(ApcCounter, OverlapNotDoubleCounted) {
  ApcCounter apc;
  apc.add_interval(0, 10);
  apc.add_interval(5, 15);
  EXPECT_EQ(apc.busy_cycles(), 15u);
  EXPECT_DOUBLE_EQ(apc.apc(), 2.0 / 15.0);
}

TEST(ApcCounter, ContainedIntervalAddsNothing) {
  ApcCounter apc;
  apc.add_interval(0, 100);
  apc.add_interval(10, 50);
  EXPECT_EQ(apc.busy_cycles(), 100u);
  EXPECT_EQ(apc.accesses(), 2u);
}

TEST(ApcCounter, EmptyIntervalThrows) {
  ApcCounter apc;
  EXPECT_THROW(apc.add_interval(5, 5), std::invalid_argument);
}

}  // namespace
}  // namespace c2b::sim
