#pragma once

// On-line C-AMAT analyzer (paper Fig. 4).
//
// The hardware the paper sketches has two halves:
//  * HCD (Hit Concurrency Detector) — counts the total hit cycles and
//    per-cycle hit concurrency, and tells the MCD whether a cycle has any
//    hit activity;
//  * MCD (Miss Concurrency Detector) — with the HCD's hit information and
//    the MSHR's miss information, counts pure-miss cycles and attributes
//    them to in-flight misses.
//
// This class is the software model of that unit: the core reports each
// access's (start, hit-duration, miss-penalty) as it issues, and the
// detector folds cycles into running counters once they pass a finalize
// watermark. Its finalized numbers match the offline analyze_timeline()
// exactly (tested property), and match the seed per-cycle implementation
// (ReferenceCamatDetector) bit for bit (tested differentially and by the
// kernel-equivalence oracle).
//
// Unlike the seed implementation, which kept a dense (hits, misses) slot
// per live cycle and paid O(hit + penalty) slot increments per access,
// this detector is interval-based: record_access() appends the hit span
// and miss span as [start, end) intervals in O(1), and advance() folds
// the live span [swept base, last live end) in one counting pass. Each
// interval adds +1/-1 to a per-cycle difference array; one walk over the
// span then yields every cycle's (hits, misses) pair, the five cycle
// counters, and a prefix count of hit-covered cycles that gives each
// finalized miss its coverage in O(1). The work is O(accesses + span).
// A span longer than 4 cycles per interval endpoint (plus 64) is sparse:
// idle gaps between accesses, or long miss penalties on a backlogged
// memory system. It is folded instead by sorting interval endpoints and
// classifying whole constant-concurrency segments, O(k log k) in the k
// live intervals, so no fold walks more than a few cycles per interval.
// Every counter either path accumulates is an exact
// integer sum over cycles, so equal counts give bit-identical finalized
// doubles.
//
// Why the fold is exact (same numbers as the per-cycle reference):
//  * A miss's own span contributes miss activity to every cycle of
//    [miss_start, miss_end), so "pure" cycles of that miss (no hit
//    activity, some miss activity) are exactly the span cycles not
//    covered by any hit interval: pure = span - hit_coverage(span).
//    All hit intervals that can overlap the span exist when the miss is
//    finalized, because finalization requires miss_end <= watermark and
//    every future access starts at or after the watermark.
//  * Per-cycle classification (hit cycle / pure-miss cycle / idle) reads
//    only the cycle's (hits, misses) pair, which the difference array
//    reproduces exactly, and which is constant between interval endpoints
//    (so summing segment_length * concurrency over sorted segments gives
//    the same totals).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "c2b/metrics/timeline.h"

namespace c2b::sim {

namespace detail {

/// The finalized integer counters every detector implementation
/// accumulates; metric assembly is shared so the production and reference
/// detectors cannot drift in the integer -> double step.
struct DetectorCounters {
  std::uint64_t accesses = 0;
  std::uint64_t total_hit_duration = 0;
  std::uint64_t total_miss_penalty = 0;
  std::uint64_t misses = 0;
  std::uint64_t pure_misses = 0;
  std::uint64_t per_access_pure_cycles = 0;
  std::uint64_t hit_cycle_count = 0;
  std::uint64_t hit_access_cycles = 0;
  std::uint64_t pure_miss_cycle_count = 0;
  std::uint64_t pure_miss_access_cycles = 0;
  std::uint64_t memory_active_cycles = 0;
};

TimelineMetrics assemble_detector_metrics(const DetectorCounters& counters);

}  // namespace detail

class CamatDetector {
 public:
  /// Report one memory access: hit/lookup activity in
  /// [start, start+hit_cycles) and, if a miss, miss activity in
  /// [start+hit_cycles, start+hit_cycles+miss_penalty_cycles).
  void record_access(std::uint64_t start_cycle, std::uint32_t hit_cycles,
                     std::uint32_t miss_penalty_cycles);

  /// Fold all cycles strictly below `watermark` into the running counters.
  /// Only call with watermarks <= the start of every future access (the
  /// core guarantees this: accesses start at or after their issue cycle).
  void advance(std::uint64_t watermark);

  /// Finalize everything and return the full metrics snapshot.
  TimelineMetrics finalize();

  /// Running counters (valid for finalized cycles; cheap to poll, which is
  /// what the phase-adaptive reconfiguration example does).
  std::uint64_t finalized_accesses() const noexcept { return counters_.accesses; }
  /// Span of cycles still carrying live (unclassified) activity.
  std::uint64_t live_cycle_window() const noexcept {
    return max_live_end_ > swept_base_ ? max_live_end_ - swept_base_ : 0;
  }

  /// advance() calls that folded by the counting pass and by the sorted
  /// sweep (calls with nothing live count in neither).
  struct PassCounts {
    std::uint64_t counting = 0;
    std::uint64_t sorted = 0;
  };
  PassCounts pass_counts() const noexcept { return pass_counts_; }

 private:
  struct Interval {
    std::uint64_t start = 0;
    std::uint64_t end = 0;  ///< exclusive
  };
  struct PendingMiss {
    std::uint64_t miss_start = 0;
    std::uint32_t miss_cycles = 0;
  };
  /// Per-thread scratch buffers of advance() (defined in detector.cpp).
  struct Scratch;
  static Scratch& scratch();

  /// Pass 1: finalize every pending miss that ends at or below `watermark`,
  /// given the hit-covered cycle count of a [start, end) query.
  template <typename Coverage>
  void finalize_misses(std::uint64_t watermark, Coverage&& hit_coverage);
  /// Both passes by one walk over the cycles [swept_base_, span_end);
  /// classifies the cycles below classify_end.
  void count_span(std::uint64_t span_end, std::uint64_t classify_end, std::uint64_t watermark);
  /// Both passes by sorting interval endpoints (sparse spans); classifies
  /// the cycles below classify_end.
  void sort_span(std::uint64_t classify_end, std::uint64_t watermark);
  /// Disjoint sorted union of the live hit intervals, with prefix sums.
  void build_hit_union(Scratch& s) const;
  /// Cycles of [start, end) covered by the union build_hit_union() left.
  static std::uint64_t hit_coverage(const Scratch& s, std::uint64_t start, std::uint64_t end);

  /// Live (unclassified) activity intervals, unordered: bank scheduling can
  /// reorder starts, and neither fold path needs them sorted. Compaction is
  /// in place, so steady state allocates nothing.
  std::vector<Interval> hit_intervals_;
  std::vector<Interval> miss_intervals_;
  /// In-flight misses awaiting pure/overlapped classification.
  std::vector<PendingMiss> pending_misses_;
  std::uint64_t swept_base_ = 0;    ///< all cycles below are classified
  std::uint64_t max_live_end_ = 0;  ///< max end over intervals ever recorded
  PassCounts pass_counts_;

  detail::DetectorCounters counters_;
};

/// Union-of-intervals busy-cycle counter for one memory level; divides into
/// the access count to give APC_i (Fig. 13). Intervals may arrive slightly
/// out of order; overlap with already-covered cycles is not double counted
/// (starts are clamped to the covered frontier, which is exact when
/// intervals arrive sorted by start — the simulator's issue order).
class ApcCounter {
 public:
  void add_interval(std::uint64_t start, std::uint64_t end);

  std::uint64_t accesses() const noexcept { return accesses_; }
  std::uint64_t busy_cycles() const noexcept { return busy_cycles_; }
  /// Accesses per memory-active cycle at this level.
  double apc() const noexcept {
    return busy_cycles_ == 0 ? 0.0
                             : static_cast<double>(accesses_) / static_cast<double>(busy_cycles_);
  }

 private:
  std::uint64_t accesses_ = 0;
  std::uint64_t busy_cycles_ = 0;
  std::uint64_t frontier_ = 0;  ///< first cycle not yet covered
};

}  // namespace c2b::sim
