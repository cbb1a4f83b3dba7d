#include "batch_state.h"

#include "c2b/obs/obs.h"

namespace c2b::sim::detail {

void MemberState::flush_telemetry() {
  if (telemetry_flushed) return;
  telemetry_flushed = true;
  C2B_COUNTER_ADD("sim.kernel.visited_cycles", visited_cycles);
  C2B_COUNTER_ADD("sim.kernel.skipped_cycles", skipped_cycles);
  C2B_HISTOGRAM_MERGE("sim.core.rob_occupancy", rob_occupancy);
  hierarchy.flush_telemetry();
}

SystemResult MemberState::build_result() {
  SystemResult result;
  result.cores.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    CoreResult r;
    r.instructions = lanes.retired[c];
    r.memory_accesses = lanes.memory_accesses[c];
    r.cycles = lanes.last_retire_cycle[c];
    r.cpi = lanes.retired[c] == 0
                ? 0.0
                : static_cast<double>(r.cycles) / static_cast<double>(lanes.retired[c]);
    r.f_mem = lanes.retired[c] == 0 ? 0.0
                                    : static_cast<double>(lanes.memory_accesses[c]) /
                                          static_cast<double>(lanes.retired[c]);
    r.camat = lanes.detectors[c].finalize();
    result.cycles = std::max(result.cycles, r.cycles);
    result.cores.push_back(std::move(r));
  }
  result.hierarchy = hierarchy.stats();
  return result;
}

}  // namespace c2b::sim::detail
