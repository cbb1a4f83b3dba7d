#pragma once

// Struct-of-arrays batch state for the replay kernels (private header).
//
// The event-driven kernel's per-config hot state — RLE ROB ring heads and
// groups, last-memory-completion cycles, retirement counters, C-AMAT
// detector handles, next-event cycles — lives here as flat parallel arrays
// (CoreLanes spans the cores of one member; the vectorized batch kernel in
// batched_simd.cpp lays K members' lanes side by side and scans their
// next-event cycles with batch primitives). The per-event step itself is
// `step_core`, a function template over the concrete cursor type: the
// scalar SystemReplay instantiates it with the abstract TraceCursor, the
// batch kernel with ChunkCursor (a final class, so peek/advance/compute_run
// devirtualize). Both kernels therefore execute the *same* step code —
// bit-identity between them needs no argument beyond event ordering, which
// each caller owns (a (cycle, core) min-heap vs a flat next-cycle array
// with an argmin scan; see batched_simd.cpp for why those orders agree).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "c2b/obs/registry.h"
#include "c2b/sim/system/system.h"

namespace c2b::sim::detail {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
/// Detector fold cadence, matching the seed kernel's `(cycle & 0xFFF)`.
constexpr std::uint64_t kDetectorStride = 0x1000;

/// One ROB ring entry: `count` program-order-adjacent instructions that all
/// complete at `completion`. Run-length encoding the ROB is unobservable —
/// only the FIFO sequence of completion cycles matters — and it makes whole
/// issue groups (and the pipelined fast path's batch rewrites) O(1) per
/// cycle instead of O(width).
struct RobGroup {
  std::uint64_t completion = 0;
  std::uint32_t count = 0;
};

/// Flat structure-of-arrays core state: per-core scalars in parallel
/// vectors and all ROBs in one fixed-capacity ring buffer of RLE groups,
/// replacing the per-core std::deque of the seed kernel. Capacity is
/// rob_size groups: instructions per core never exceed rob_size, and every
/// group holds at least one, so the ring cannot overflow.
struct CoreLanes {
  std::uint32_t rob_capacity = 0;
  std::vector<RobGroup> rob;             ///< group ring per core
  std::vector<std::uint32_t> rob_head;   ///< front group slot
  std::vector<std::uint32_t> rob_groups;  ///< live groups
  std::vector<std::uint32_t> rob_count;   ///< live instructions
  std::vector<std::uint64_t> last_mem_completion;
  std::vector<std::uint64_t> retired;
  std::vector<std::uint64_t> memory_accesses;
  std::vector<std::uint64_t> last_retire_cycle;
  std::vector<std::uint64_t> last_detector_fold;
  /// Running max completion ever pushed per core; never decreased on pop,
  /// so `rob_max_completion[c] <= cycle` conservatively proves every live
  /// entry is retireable (staleness only delays the pipelined fast path).
  std::vector<std::uint64_t> rob_max_completion;
  std::vector<CamatDetector> detectors;

  CoreLanes(std::size_t cores, std::uint32_t rob_size)
      : rob_capacity(rob_size),
        rob(cores * static_cast<std::size_t>(rob_size)),
        rob_head(cores, 0),
        rob_groups(cores, 0),
        rob_count(cores, 0),
        last_mem_completion(cores, 0),
        retired(cores, 0),
        memory_accesses(cores, 0),
        last_retire_cycle(cores, 0),
        last_detector_fold(cores, 0),
        rob_max_completion(cores, 0),
        detectors(cores) {}

  RobGroup& front_group(std::size_t c) { return rob[c * rob_capacity + rob_head[c]]; }
  void pop_group(std::size_t c) {
    std::uint32_t head = rob_head[c] + 1;
    if (head == rob_capacity) head = 0;
    rob_head[c] = head;
    --rob_groups[c];
  }
  /// FIFO completion of the oldest instruction (precondition: non-empty).
  std::uint64_t rob_front(std::size_t c) { return front_group(c).completion; }
  /// Append `count` instructions completing at `completion`, merging into
  /// the tail group when the completion matches (same-cycle issue group).
  void rob_push(std::size_t c, std::uint64_t completion, std::uint32_t count = 1) {
    std::uint32_t tail = rob_head[c] + rob_groups[c];
    if (tail >= rob_capacity) tail -= rob_capacity;
    if (rob_groups[c] != 0) {
      std::uint32_t last = tail == 0 ? rob_capacity - 1 : tail - 1;
      RobGroup& back = rob[c * rob_capacity + last];
      if (back.completion == completion) {
        back.count += count;
        rob_count[c] += count;
        return;
      }
    }
    rob[c * rob_capacity + tail] = {completion, count};
    ++rob_groups[c];
    rob_count[c] += count;
    rob_max_completion[c] = std::max(rob_max_completion[c], completion);
  }
};

/// All kernel loop state of one batch member (one SystemConfig run):
/// the former SystemReplay locals minus the cursors and the event order,
/// which each kernel supplies. step_core() processes exactly one event and
/// is the seed kernel's loop body unchanged.
struct MemberState {
  MemoryHierarchy hierarchy;
  std::uint32_t width;
  std::uint32_t rob_size;
  std::uint32_t fus;
  std::size_t n;
  CoreLanes lanes;

  // Cycle-skip accounting for bench_sim_kernel: cycles no event landed on
  // were provably unobservable (no core could act), so the kernel never
  // touched them.
  std::uint64_t visited_cycles = 0;
  std::uint64_t skipped_cycles = 0;
  std::uint64_t last_visited = 0;
  bool any_visited = false;

  std::uint64_t consumed = 0;  ///< trace records consumed across cursors

  /// ROB occupancy sampled at each detector fold (sim.core.rob_occupancy).
  obs::LocalHistogram rob_occupancy{0.0, 256.0, 64};
  bool telemetry_flushed = false;

  // Vectorization accounting (read by the batch kernel's telemetry): every
  // consumed record is either advanced by a closed-form compute jump
  // (fast_records) or issued through the scalar per-record path
  // (peel_records), so fast_records + peel_records == consumed.
  std::uint64_t steps = 0;         ///< events processed
  std::uint64_t fast_records = 0;  ///< records advanced by compute fast paths
  std::uint64_t peel_records = 0;  ///< records through the scalar issue path

  MemberState(const SystemConfig& config, std::size_t cores)
      : hierarchy(config.hierarchy),
        width(config.core.issue_width),
        rob_size(config.core.rob_size),
        fus(config.core.functional_units),
        n(cores),
        lanes(cores, config.core.rob_size) {}

  /// A member flushes its tallies exactly once, so it is never copied or
  /// moved (a copy would flush them twice).
  MemberState(const MemberState&) = delete;
  MemberState& operator=(const MemberState&) = delete;
  /// Flushes a replay that never finished, so its work is still counted.
  ~MemberState() { flush_telemetry(); }

  /// Add this run's telemetry to the process registry: the kernel cycle
  /// counters, the ROB histogram and the hierarchy's tallies. Both kernels
  /// call it when the run finishes; later calls are no-ops.
  void flush_telemetry();

  /// Final per-member SystemResult; folds the detectors (one-shot).
  SystemResult build_result();
};

/// One event-kernel step for core `c` of member `s` at `cycle`: retire,
/// compute fast paths, issue, detector fold. Returns the next cycle this
/// core can act (kNever when it is done). The caller owns event ordering
/// and must deliver events in ascending (cycle, core-index) order — the
/// seed kernel's per-cycle core scan order.
template <typename Cursor>
inline std::uint64_t step_core(MemberState& s, Cursor& cursor, const std::uint64_t cycle,
                               const std::size_t c) {
  CoreLanes& lanes = s.lanes;
  const std::uint32_t width = s.width;
  const std::uint32_t fus = s.fus;
  const std::uint32_t rob_size = s.rob_size;
  ++s.steps;
  if (!s.any_visited || cycle > s.last_visited) {
    if (s.any_visited) s.skipped_cycles += cycle - s.last_visited - 1;
    s.last_visited = cycle;
    s.any_visited = true;
    ++s.visited_cycles;
  }

  // ---- Retire: in-order, up to `width` completed entries ----
  std::uint32_t retired_now = 0;
  while (lanes.rob_count[c] != 0 && retired_now < width) {
    RobGroup& group = lanes.front_group(c);
    if (group.completion > cycle) break;
    const std::uint32_t take = std::min(group.count, width - retired_now);
    group.count -= take;
    retired_now += take;
    lanes.rob_count[c] -= take;
    lanes.retired[c] += take;
    lanes.last_retire_cycle[c] = cycle;
    if (group.count == 0) lanes.pop_group(c);
  }

  // ---- Compute fast path: jump over whole compute batches ----
  if (lanes.rob_count[c] == 0 && fus >= width) {
    const std::size_t run = cursor.compute_run(std::numeric_limits<std::size_t>::max());
    const std::uint64_t batches = run / width;
    if (batches > 0) {
      cursor.skip(static_cast<std::size_t>(batches) * width);
      s.consumed += batches * width;
      s.fast_records += batches * width;
      lanes.retired[c] += batches * width;
      const std::uint64_t resume = cycle + batches;
      lanes.last_retire_cycle[c] = resume;
      if (cycle - lanes.last_detector_fold[c] >= kDetectorStride) {
        lanes.last_detector_fold[c] = cycle;
        lanes.detectors[c].advance(cycle);
        s.rob_occupancy.record(0.0);
      }
      // Resume later instead of continuing in place: cores with earlier
      // pending events must reach the hierarchy first.
      return resume;
    }
  }

  // ---- Pipelined compute fast path: steady-state retire/issue batches ----
  //
  // After a memory stall the ROB refills with computes and then never
  // drains (retire width == issue width keeps the occupancy constant), so
  // the empty-ROB jump above can't re-engage. But that regime is just as
  // predictable: when every live entry is already retireable and the next
  // records are all compute, each of the next `batches` cycles retires
  // exactly `width` FIFO-oldest entries and issues one full compute group
  // completing the following cycle. The net effect on the ROB is a pure
  // FIFO shift, so the surviving entries can be written in closed form:
  // any old entries the (batches-1)*width retirements did not reach,
  // followed by the newest pushes (group g, pushed at cycle+g, completes
  // cycle+g+1). No shared state is touched, so cross-core ordering is
  // preserved exactly as in the empty-ROB jump.
  if (lanes.rob_count[c] != 0 && fus >= width &&
      lanes.rob_max_completion[c] <= cycle && lanes.rob_count[c] + width <= rob_size) {
    const std::size_t run = cursor.compute_run(std::numeric_limits<std::size_t>::max());
    const std::uint64_t batches = run / width;
    if (batches > 0) {
      const std::uint32_t live = lanes.rob_count[c];
      cursor.skip(static_cast<std::size_t>(batches) * width);
      s.consumed += batches * width;
      s.fast_records += batches * width;
      const std::uint64_t pops = (batches - 1) * static_cast<std::uint64_t>(width);
      if (pops > 0) {
        lanes.retired[c] += pops;
        lanes.last_retire_cycle[c] = cycle + batches - 1;
      }
      const std::uint32_t keep_old =
          pops >= live ? 0u : live - static_cast<std::uint32_t>(pops);
      // Drop the retired old instructions group-wise from the front.
      std::uint32_t drop = live - keep_old;
      while (drop > 0) {
        RobGroup& group = lanes.front_group(c);
        const std::uint32_t take = std::min(group.count, drop);
        group.count -= take;
        drop -= take;
        lanes.rob_count[c] -= take;
        if (group.count == 0) lanes.pop_group(c);
      }
      // Append the surviving pushes: group g (issued at cycle+g) completes
      // cycle+g+1; the earliest surviving group may be partially retired.
      const std::uint64_t total_pushes = batches * width;
      const std::uint64_t first_push = total_pushes - (live + width - keep_old);
      const std::uint64_t first_group = first_push / width;
      lanes.rob_push(c, cycle + first_group + 1,
                     static_cast<std::uint32_t>((first_group + 1) * width - first_push));
      for (std::uint64_t g = first_group + 1; g < batches; ++g)
        lanes.rob_push(c, cycle + g + 1, width);
      if (cycle - lanes.last_detector_fold[c] >= kDetectorStride) {
        lanes.last_detector_fold[c] = cycle;
        lanes.detectors[c].advance(cycle);
        s.rob_occupancy.record(static_cast<double>(lanes.rob_count[c]));
      }
      return cycle + batches;
    }
  }

  // ---- Issue: in-order, up to `width`, bounded by ROB space ----
  std::uint32_t issued_now = 0;
  std::uint32_t compute_issued_now = 0;
  bool dep_stall = false;
  std::uint64_t dep_ready = 0;
  const TraceRecord* rec = nullptr;
  while (issued_now < width && lanes.rob_count[c] < rob_size &&
         (rec = cursor.peek()) != nullptr) {
    std::uint64_t completion;
    if (rec->kind == InstrKind::kCompute) {
      if (compute_issued_now >= fus) break;
      ++compute_issued_now;
      completion = cycle + 1;
    } else {
      if (rec->depends_on_prev_mem && lanes.last_mem_completion[c] > cycle) {
        // Address operand not ready: stall issue until it is.
        dep_stall = true;
        dep_ready = lanes.last_mem_completion[c];
        break;
      }
      const AccessOutcome outcome = s.hierarchy.access(
          static_cast<std::uint32_t>(c), rec->address, rec->kind == InstrKind::kStore, cycle);
      completion = outcome.completion_cycle;
      lanes.last_mem_completion[c] = completion;
      ++lanes.memory_accesses[c];
      lanes.detectors[c].record_access(outcome.start_cycle, outcome.hit_cycles,
                                       outcome.miss_penalty_cycles);
    }
    lanes.rob_push(c, completion);
    cursor.advance();
    ++s.consumed;
    ++s.peel_records;
    ++issued_now;
  }

  // Periodically fold finished cycles into the detector's counters so its
  // live window stays bounded. Any watermark <= `cycle` is safe (every
  // future access starts at or after `cycle`), and the fold cadence does
  // not affect the finalized metrics (see system.cpp's header comment).
  if (cycle - lanes.last_detector_fold[c] >= kDetectorStride) {
    lanes.last_detector_fold[c] = cycle;
    lanes.detectors[c].advance(cycle);
    s.rob_occupancy.record(static_cast<double>(lanes.rob_count[c]));
  }

  // ---- Next wake: the earliest cycle this core can act again ----
  std::uint64_t wake = kNever;
  if (lanes.rob_count[c] != 0) {
    const std::uint64_t head = lanes.rob_front(c);
    // Head already complete means retirement was width-limited this
    // cycle; it resumes next cycle.
    wake = head <= cycle ? cycle + 1 : head;
  }
  if (cursor.peek() != nullptr) {
    std::uint64_t issue_wake;
    if (dep_stall) {
      issue_wake = dep_ready;
    } else if (lanes.rob_count[c] >= rob_size) {
      issue_wake = wake;  // a slot frees at the next retirement
    } else {
      issue_wake = cycle + 1;  // width/FU budgets reset next cycle
    }
    wake = std::min(wake, issue_wake);
  }
  return wake;
}

}  // namespace c2b::sim::detail
