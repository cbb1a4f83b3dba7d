#include "c2b/sim/detector/detector.h"

#include <algorithm>
#include <limits>

#include "c2b/common/assert.h"

namespace c2b::sim {

namespace detail {

TimelineMetrics assemble_detector_metrics(const DetectorCounters& c) {
  TimelineMetrics m;
  m.accesses = c.accesses;
  m.misses = c.misses;
  m.pure_misses = c.pure_misses;
  m.hit_cycle_count = c.hit_cycle_count;
  m.hit_access_cycles = c.hit_access_cycles;
  m.pure_miss_cycle_count = c.pure_miss_cycle_count;
  m.pure_miss_access_cycles = c.pure_miss_access_cycles;
  m.memory_active_cycles = c.memory_active_cycles;
  if (m.accesses == 0) return m;  // pure-compute window: everything zero

  const auto accesses_d = static_cast<double>(m.accesses);
  m.amat_params.hit_time = static_cast<double>(c.total_hit_duration) / accesses_d;
  m.amat_params.miss_rate = static_cast<double>(c.misses) / accesses_d;
  m.amat_params.miss_penalty =
      c.misses == 0 ? 0.0
                    : static_cast<double>(c.total_miss_penalty) / static_cast<double>(c.misses);
  m.amat_value = amat(m.amat_params);

  m.camat_params.hit_time = m.amat_params.hit_time;
  m.camat_params.hit_concurrency =
      c.hit_cycle_count == 0 ? 1.0
                             : static_cast<double>(c.hit_access_cycles) /
                                   static_cast<double>(c.hit_cycle_count);
  m.camat_params.pure_miss_rate = static_cast<double>(c.pure_misses) / accesses_d;
  m.camat_params.pure_miss_penalty =
      c.pure_misses == 0 ? 0.0
                         : static_cast<double>(c.per_access_pure_cycles) /
                               static_cast<double>(c.pure_misses);
  m.camat_params.miss_concurrency =
      c.pure_miss_cycle_count == 0 ? 1.0
                                   : static_cast<double>(c.per_access_pure_cycles) /
                                         static_cast<double>(c.pure_miss_cycle_count);
  m.camat_value = camat(m.camat_params);
  m.camat_direct = static_cast<double>(c.memory_active_cycles) / accesses_d;
  m.apc = accesses_d / static_cast<double>(c.memory_active_cycles);
  m.concurrency_c = m.camat_value > 0.0 ? m.amat_value / m.camat_value : 1.0;
  return m;
}

}  // namespace detail

void CamatDetector::record_access(std::uint64_t start_cycle, std::uint32_t hit_cycles,
                                  std::uint32_t miss_penalty_cycles) {
  C2B_REQUIRE(hit_cycles > 0, "an access needs at least one hit/lookup cycle");
  C2B_ASSERT(start_cycle >= swept_base_,
             "access touches an already-finalized cycle (advance() watermark too eager)");
  ++counters_.accesses;
  counters_.total_hit_duration += hit_cycles;
  const std::uint64_t hit_end = start_cycle + hit_cycles;
  hit_intervals_.push_back({start_cycle, hit_end});
  max_live_end_ = std::max(max_live_end_, hit_end);
  if (miss_penalty_cycles > 0) {
    ++counters_.misses;
    counters_.total_miss_penalty += miss_penalty_cycles;
    const std::uint64_t miss_end = hit_end + miss_penalty_cycles;
    miss_intervals_.push_back({hit_end, miss_end});
    pending_misses_.push_back({hit_end, miss_penalty_cycles});
    max_live_end_ = std::max(max_live_end_, miss_end);
  }
}

namespace {

/// Activity change at one cycle offset of the counting pass's span.
struct CycleDelta {
  std::int32_t hits = 0;
  std::int32_t misses = 0;
};

/// One interval endpoint of the sorted sweep.
struct Boundary {
  std::uint64_t cycle = 0;
  std::int32_t hit_delta = 0;
  std::int32_t miss_delta = 0;
};

/// The counting pass walks spans of at most this many cycles per interval
/// endpoint, plus a constant; sparser spans (idle gaps between accesses)
/// are cheaper to sort by endpoint than to walk cycle by cycle.
constexpr std::uint64_t kCountingCyclesPerBoundary = 4;
constexpr std::uint64_t kCountingSlackCycles = 64;

}  // namespace

/// Scratch buffers of advance(), one set per thread: a replay folds its
/// detectors one after another, so buffers sized to the largest span seen
/// serve every detector and steady state allocates nothing.
struct CamatDetector::Scratch {
  // Counting pass, indexed by cycle offset from the swept base. The span is
  // bounded by a small multiple of the live interval count, so the prefix
  // counts fit 32 bits.
  std::vector<CycleDelta> deltas;
  std::vector<std::uint32_t> covered;  ///< hit-covered span cycles before offset i
  // Sorted sweep.
  std::vector<Interval> hit_union;               ///< disjoint, sorted by start
  std::vector<std::uint64_t> hit_union_prefix;  ///< covered cycles before entry i
  std::vector<Boundary> boundaries;
};

CamatDetector::Scratch& CamatDetector::scratch() {
  thread_local Scratch buffers;
  return buffers;
}

template <typename Coverage>
void CamatDetector::finalize_misses(std::uint64_t watermark, Coverage&& hit_coverage) {
  // A miss's own span keeps miss activity on every one of its cycles, so its
  // pure cycles are exactly the span cycles not covered by any hit interval
  // — and all hit intervals that can overlap the span are still live (sweeps
  // never discard activity at or above a pending miss start, and future
  // accesses start at or above the watermark). Survivors compact to the
  // front in place.
  std::size_t keep = 0;
  for (std::size_t p = 0; p < pending_misses_.size(); ++p) {
    const PendingMiss pm = pending_misses_[p];
    const std::uint64_t miss_end = pm.miss_start + pm.miss_cycles;
    if (miss_end > watermark) {
      pending_misses_[keep++] = pm;
      continue;
    }
    const std::uint64_t pure_cycles = pm.miss_cycles - hit_coverage(pm.miss_start, miss_end);
    if (pure_cycles > 0) {
      ++counters_.pure_misses;
      counters_.per_access_pure_cycles += pure_cycles;
    }
  }
  pending_misses_.resize(keep);
}

void CamatDetector::count_span(std::uint64_t span_end, std::uint64_t classify_end,
                               std::uint64_t watermark) {
  Scratch& s = scratch();
  const std::uint64_t base = swept_base_;
  const auto span = static_cast<std::size_t>(span_end - base);
  s.deltas.assign(span + 1, CycleDelta{});
  for (const Interval& iv : hit_intervals_) {
    const std::uint64_t end = std::min(iv.end, span_end);
    if (iv.start < end) {
      ++s.deltas[iv.start - base].hits;
      --s.deltas[end - base].hits;
    }
  }
  for (const Interval& iv : miss_intervals_) {
    const std::uint64_t end = std::min(iv.end, span_end);
    if (iv.start < end) {
      ++s.deltas[iv.start - base].misses;
      --s.deltas[end - base].misses;
    }
  }

  // One walk over the span keeps the running (hits, misses) of each cycle.
  // Cycles below classify_end get the reference detector's slot-by-slot
  // classification; every cycle feeds the prefix count of hit-covered
  // cycles that answers pass-1 coverage queries in O(1).
  s.covered.resize(span + 1);
  const auto classified = static_cast<std::size_t>(std::min(classify_end, span_end) - base);
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::uint32_t hit_covered = 0;
  std::uint64_t pure_cycles = 0;
  std::uint64_t hit_access_cycles = 0;
  std::uint64_t pure_access_cycles = 0;
  for (std::size_t i = 0; i < classified; ++i) {
    hits += s.deltas[i].hits;
    misses += s.deltas[i].misses;
    s.covered[i] = hit_covered;
    const bool hit_cycle = hits > 0;
    hit_covered += hit_cycle ? 1u : 0u;
    hit_access_cycles += static_cast<std::uint64_t>(hits);
    pure_cycles += !hit_cycle && misses > 0 ? 1u : 0u;
    pure_access_cycles += hit_cycle ? 0u : static_cast<std::uint64_t>(misses);
  }
  const std::uint64_t hit_cycles = hit_covered;
  for (std::size_t i = classified; i < span; ++i) {
    hits += s.deltas[i].hits;
    s.covered[i] = hit_covered;
    hit_covered += hits > 0 ? 1u : 0u;
  }
  s.covered[span] = hit_covered;
  counters_.hit_cycle_count += hit_cycles;
  counters_.hit_access_cycles += hit_access_cycles;
  counters_.pure_miss_cycle_count += pure_cycles;
  counters_.pure_miss_access_cycles += pure_access_cycles;
  counters_.memory_active_cycles += hit_cycles + pure_cycles;

  finalize_misses(watermark, [&](std::uint64_t start, std::uint64_t end) {
    return std::uint64_t{s.covered[end - base] - s.covered[start - base]};
  });
}

void CamatDetector::sort_span(std::uint64_t classify_end, std::uint64_t watermark) {
  Scratch& s = scratch();
  bool union_built = false;
  finalize_misses(watermark, [&](std::uint64_t start, std::uint64_t end) {
    if (!union_built) {
      build_hit_union(s);
      union_built = true;
    }
    return hit_coverage(s, start, end);
  });

  s.boundaries.clear();
  for (const Interval& iv : hit_intervals_) {
    const std::uint64_t end = std::min(iv.end, classify_end);
    if (iv.start < end) {
      s.boundaries.push_back({iv.start, +1, 0});
      s.boundaries.push_back({end, -1, 0});
    }
  }
  for (const Interval& iv : miss_intervals_) {
    const std::uint64_t end = std::min(iv.end, classify_end);
    if (iv.start < end) {
      s.boundaries.push_back({iv.start, 0, +1});
      s.boundaries.push_back({end, 0, -1});
    }
  }
  if (s.boundaries.empty()) return;
  std::sort(s.boundaries.begin(), s.boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.cycle < b.cycle; });
  // Between consecutive boundary cycles the per-cycle (hits, misses) pair
  // is constant, so each segment folds in one shot: the same per-cycle
  // classification the reference detector applies slot by slot.
  std::int64_t cur_hits = 0;
  std::int64_t cur_misses = 0;
  std::uint64_t segment_start = s.boundaries.front().cycle;
  std::size_t i = 0;
  while (i < s.boundaries.size()) {
    const std::uint64_t cycle = s.boundaries[i].cycle;
    const std::uint64_t length = cycle - segment_start;
    if (length > 0 && (cur_hits > 0 || cur_misses > 0)) {
      counters_.memory_active_cycles += length;
      if (cur_hits > 0) {
        counters_.hit_cycle_count += length;
        counters_.hit_access_cycles += static_cast<std::uint64_t>(cur_hits) * length;
      } else {
        counters_.pure_miss_cycle_count += length;
        counters_.pure_miss_access_cycles += static_cast<std::uint64_t>(cur_misses) * length;
      }
    }
    while (i < s.boundaries.size() && s.boundaries[i].cycle == cycle) {
      cur_hits += s.boundaries[i].hit_delta;
      cur_misses += s.boundaries[i].miss_delta;
      ++i;
    }
    segment_start = cycle;
  }
  C2B_ASSERT(cur_hits == 0 && cur_misses == 0, "detector sweep left unbalanced activity");
}

void CamatDetector::build_hit_union(Scratch& s) const {
  s.hit_union.assign(hit_intervals_.begin(), hit_intervals_.end());
  std::sort(s.hit_union.begin(), s.hit_union.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::size_t out = 0;
  for (const Interval& iv : s.hit_union) {
    if (out > 0 && iv.start <= s.hit_union[out - 1].end)
      s.hit_union[out - 1].end = std::max(s.hit_union[out - 1].end, iv.end);
    else
      s.hit_union[out++] = iv;
  }
  s.hit_union.resize(out);
  s.hit_union_prefix.resize(out + 1);
  s.hit_union_prefix[0] = 0;
  for (std::size_t i = 0; i < out; ++i)
    s.hit_union_prefix[i + 1] =
        s.hit_union_prefix[i] + (s.hit_union[i].end - s.hit_union[i].start);
}

std::uint64_t CamatDetector::hit_coverage(const Scratch& s, std::uint64_t start,
                                          std::uint64_t end) {
  const std::vector<Interval>& hit_union = s.hit_union;
  if (start >= end || hit_union.empty()) return 0;
  // The union is disjoint and sorted, so starts AND ends are both sorted.
  const auto lo = std::partition_point(hit_union.begin(), hit_union.end(),
                                       [&](const Interval& iv) { return iv.end <= start; });
  const auto hi = std::partition_point(lo, hit_union.end(),
                                       [&](const Interval& iv) { return iv.start < end; });
  if (lo == hi) return 0;
  const std::size_t lo_i = static_cast<std::size_t>(lo - hit_union.begin());
  const std::size_t hi_i = static_cast<std::size_t>(hi - hit_union.begin());
  std::uint64_t covered = s.hit_union_prefix[hi_i] - s.hit_union_prefix[lo_i];
  // Every entry in [lo, hi) overlaps [start, end); only the first and last
  // can stick out past the query, so trim exactly that overhang.
  if (lo->start < start) covered -= start - lo->start;
  const Interval& last = hit_union[hi_i - 1];
  if (last.end > end) covered -= last.end - end;
  return covered;
}

void CamatDetector::advance(std::uint64_t watermark) {
  // Below the swept base nothing is live, and every pending miss starts at
  // or above it, so a stale watermark has no work to do.
  if (watermark <= swept_base_) return;

  // Pass 1 (MCD) finalizes the in-flight misses whose whole penalty
  // interval is below the watermark. Pass 2 (HCD + cycle classification)
  // folds the cycles below classify_end: below the watermark, but only
  // those no surviving pending miss still needs to inspect. Between them
  // they read the cycles [swept_base_, span_end).
  std::uint64_t classify_end = watermark;
  std::uint64_t span_end = swept_base_;
  for (const PendingMiss& pm : pending_misses_) {
    const std::uint64_t miss_end = pm.miss_start + pm.miss_cycles;
    if (miss_end > watermark)
      classify_end = std::min(classify_end, pm.miss_start);
    else
      span_end = std::max(span_end, miss_end);
  }
  span_end = std::max(span_end, std::min(classify_end, max_live_end_));
  if (span_end > swept_base_) {
    const std::uint64_t boundaries = 2 * (hit_intervals_.size() + miss_intervals_.size());
    if (span_end - swept_base_ <= kCountingCyclesPerBoundary * boundaries + kCountingSlackCycles) {
      ++pass_counts_.counting;
      count_span(span_end, classify_end, watermark);
    } else {
      ++pass_counts_.sorted;
      sort_span(classify_end, watermark);
    }
  }

  // Drop intervals wholly below the new base and trim straddlers in place:
  // the trimmed-off part is already classified, and it lies below every
  // pending miss start (classify_end never exceeds one), so later pass-1
  // coverage queries never miss it.
  const auto compact = [classify_end](std::vector<Interval>& pool) {
    std::size_t keep = 0;
    for (Interval iv : pool) {
      if (iv.end <= classify_end) continue;
      if (iv.start < classify_end) iv.start = classify_end;
      pool[keep++] = iv;
    }
    pool.resize(keep);
  };
  compact(hit_intervals_);
  compact(miss_intervals_);
  swept_base_ = classify_end;
}

TimelineMetrics CamatDetector::finalize() {
  advance(std::numeric_limits<std::uint64_t>::max());
  C2B_ASSERT(pending_misses_.empty() && hit_intervals_.empty() && miss_intervals_.empty(),
             "detector finalize left live state");
  return detail::assemble_detector_metrics(counters_);
}

void ApcCounter::add_interval(std::uint64_t start, std::uint64_t end) {
  C2B_REQUIRE(end > start, "interval must be non-empty");
  ++accesses_;
  const std::uint64_t effective_start = std::max(start, frontier_);
  if (end > effective_start) {
    busy_cycles_ += end - effective_start;
    frontier_ = end;
  }
}

}  // namespace c2b::sim
