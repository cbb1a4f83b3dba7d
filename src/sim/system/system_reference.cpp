#include <algorithm>
#include <deque>
#include <limits>
#include <vector>

#include "c2b/common/assert.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/detector/detector_reference.h"
#include "c2b/sim/system/system.h"

// The seed cycle-by-cycle kernel, kept verbatim as the differential
// baseline for the event-driven kernel in system.cpp. Every observable —
// SystemResult fields, per-core C-AMAT/APC metrics, hierarchy stats — must
// match the production kernel bitwise; the `kernel` oracle family and the
// perf-labeled equivalence tests enforce that. Keep this file boring: any
// "improvement" here weakens the oracle.

namespace c2b::sim {

namespace {

struct ReferenceCoreState {
  const Trace* trace = nullptr;
  std::size_t ip = 0;                     ///< next instruction to issue
  std::deque<std::uint64_t> rob;          ///< completion cycles, program order
  std::uint64_t last_mem_completion = 0;  ///< for dependent loads
  std::uint64_t retired = 0;
  std::uint64_t memory_accesses = 0;
  std::uint64_t last_retire_cycle = 0;
  ReferenceCamatDetector detector;

  bool fetch_done() const { return trace == nullptr || ip >= trace->records.size(); }
  bool done() const { return fetch_done() && rob.empty(); }
};

}  // namespace

SystemResult simulate_system_reference(const SystemConfig& config,
                                       const std::vector<Trace>& per_core_traces) {
  config.validate();
  C2B_SPAN("sim/simulate_system_reference");
  C2B_COUNTER_INC("sim.system.reference_runs");
  C2B_REQUIRE(!per_core_traces.empty(), "need at least one trace");
  C2B_REQUIRE(per_core_traces.size() <= config.hierarchy.cores,
              "more traces than cores in the hierarchy");

  MemoryHierarchy hierarchy(config.hierarchy);
  std::vector<ReferenceCoreState> cores(per_core_traces.size());
  for (std::size_t c = 0; c < per_core_traces.size(); ++c) {
    cores[c].trace = &per_core_traces[c];
    C2B_REQUIRE(!per_core_traces[c].records.empty(), "core trace must be non-empty");
  }

  const std::uint32_t width = config.core.issue_width;
  const std::uint32_t rob_size = config.core.rob_size;

  obs::LocalHistogram rob_occupancy(0.0, 256.0, 64);

  std::uint64_t cycle = 0;
  for (;;) {
    bool all_done = true;
    bool any_progress = false;
    // The earliest future cycle at which some blocked core can make
    // progress; used to skip idle stretches.
    std::uint64_t next_event = std::numeric_limits<std::uint64_t>::max();

    for (std::size_t c = 0; c < cores.size(); ++c) {
      ReferenceCoreState& core = cores[c];
      if (core.done()) continue;
      all_done = false;

      // ---- Retire: in-order, up to `width` completed entries ----
      std::uint32_t retired_now = 0;
      while (!core.rob.empty() && retired_now < width && core.rob.front() <= cycle) {
        core.rob.pop_front();
        ++core.retired;
        ++retired_now;
        core.last_retire_cycle = cycle;
        any_progress = true;
      }
      if (!core.rob.empty() && core.rob.front() > cycle)
        next_event = std::min(next_event, core.rob.front());

      // ---- Issue: in-order, up to `width`, bounded by ROB space ----
      std::uint32_t issued_now = 0;
      std::uint32_t compute_issued_now = 0;
      while (issued_now < width && core.rob.size() < rob_size && !core.fetch_done()) {
        const TraceRecord& rec = core.trace->records[core.ip];
        std::uint64_t completion;
        if (rec.kind == InstrKind::kCompute) {
          if (compute_issued_now >= config.core.functional_units) break;
          ++compute_issued_now;
          completion = cycle + 1;
        } else {
          if (rec.depends_on_prev_mem && core.last_mem_completion > cycle) {
            // Address operand not ready: stall issue until it is.
            next_event = std::min(next_event, core.last_mem_completion);
            break;
          }
          const AccessOutcome outcome = hierarchy.access(
              static_cast<std::uint32_t>(c), rec.address, rec.kind == InstrKind::kStore, cycle);
          completion = outcome.completion_cycle;
          core.last_mem_completion = completion;
          ++core.memory_accesses;
          core.detector.record_access(outcome.start_cycle, outcome.hit_cycles,
                                      outcome.miss_penalty_cycles);
        }
        core.rob.push_back(completion);
        ++core.ip;
        ++issued_now;
        any_progress = true;
      }
      if (!core.rob.empty()) next_event = std::min(next_event, core.rob.front());

      // Periodically fold finished cycles into the detector's counters so
      // its live window stays bounded (every future access starts at or
      // after `cycle`, so `cycle` is always a safe watermark).
      if ((cycle & 0xFFF) == 0) {
        core.detector.advance(cycle);
        rob_occupancy.record(static_cast<double>(core.rob.size()));
      }
    }

    if (all_done) break;
    if (any_progress || next_event == std::numeric_limits<std::uint64_t>::max()) {
      ++cycle;
    } else {
      // Every live core is blocked: jump straight to the next completion.
      cycle = std::max(cycle + 1, next_event);
    }
  }

  hierarchy.flush_telemetry();
  C2B_HISTOGRAM_MERGE("sim.core.rob_occupancy", rob_occupancy);

  SystemResult result;
  result.cores.reserve(cores.size());
  for (ReferenceCoreState& core : cores) {
    CoreResult r;
    r.instructions = core.retired;
    r.memory_accesses = core.memory_accesses;
    r.cycles = core.last_retire_cycle;
    r.cpi = core.retired == 0
                ? 0.0
                : static_cast<double>(r.cycles) / static_cast<double>(core.retired);
    r.f_mem = core.retired == 0 ? 0.0
                                : static_cast<double>(core.memory_accesses) /
                                      static_cast<double>(core.retired);
    r.camat = core.detector.finalize();
    result.cycles = std::max(result.cycles, r.cycles);
    result.cores.push_back(std::move(r));
  }
  result.hierarchy = hierarchy.stats();
  return result;
}

}  // namespace c2b::sim
