#include "c2b/sim/system/system.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "batch_state.h"
#include "c2b/common/assert.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/batched.h"

// Event-driven cycle-skipping kernel.
//
// The seed kernel (system_reference.cpp) walks every cycle and visits every
// core. This kernel instead keeps one pending event per live core — the
// next cycle at which that core can change state — in a min-heap ordered by
// (cycle, core index), and advances time by popping events.
//
// Why this is bit-identical to the per-cycle loop:
//
//  * All shared state (bank schedulers, MSHRs, L2, NoC, DRAM, directory,
//    APC counters) is touched exclusively through hierarchy.access(), and
//    the seed kernel performs those calls in lexicographic
//    (cycle, core index, issue slot) order. A core's *ability* to act at a
//    cycle depends only on core-local state: its ROB head completion, its
//    last memory completion (dependent loads), and the per-cycle width/FU
//    budgets, which reset every cycle. So each core's next actionable
//    cycle can be computed locally, and popping a (cycle, core)-ordered
//    heap reproduces the exact same access interleaving.
//  * Visits where a core can do nothing are pure in the seed kernel (no
//    state changes), so skipping them is unobservable. Conversely every
//    visit where the seed kernel's core acts is enqueued here: retirement
//    resumes exactly at the ROB head's completion cycle, issue resumes at
//    the dependent load's completion, at the next retirement (ROB full),
//    or next cycle (width/FU budget exhausted).
//  * CamatDetector::advance() folds each cycle exactly once with the same
//    classification for any valid watermark schedule (watermarks never
//    exceed the core's current cycle, and accesses never start before it),
//    so the detector's finalized metrics do not depend on the fold cadence.
//
// The compute fast path additionally jumps over whole batches of
// consecutive kCompute records: with an empty ROB and FUs >= width the seed
// kernel issues exactly `width` computes per cycle (the issue loop exits on
// the width budget, so no memory record co-issues) and retires them one
// cycle later, touching no shared state. The jump only updates core-local
// counters and re-enqueues the core, so cross-core ordering is preserved.
//
// The loop body itself (retire / fast paths / issue / detector fold) lives
// in detail::step_core (batch_state.h), shared verbatim with the vectorized
// batch kernel (batched_simd.cpp); this file owns only the event heap.

namespace c2b::sim {

void CoreConfig::validate() const {
  C2B_REQUIRE(issue_width >= 1, "issue width must be >= 1");
  C2B_REQUIRE(rob_size >= issue_width, "ROB must hold at least one issue group");
  C2B_REQUIRE(functional_units >= 1, "need at least one functional unit");
}

void SystemConfig::validate() const {
  core.validate();
  hierarchy.validate();
}

double SystemResult::total_instructions() const noexcept {
  double sum = 0.0;
  for (const CoreResult& c : cores) sum += static_cast<double>(c.instructions);
  return sum;
}

double SystemResult::aggregate_ipc() const noexcept {
  return cycles == 0 ? 0.0 : total_instructions() / static_cast<double>(cycles);
}

double SystemResult::mean_cpi() const noexcept {
  double weighted = 0.0;
  double instructions = 0.0;
  for (const CoreResult& c : cores) {
    weighted += c.cpi * static_cast<double>(c.instructions);
    instructions += static_cast<double>(c.instructions);
  }
  return instructions == 0.0 ? 0.0 : weighted / instructions;
}

namespace {

struct Event {
  std::uint64_t cycle = 0;
  std::uint32_t core = 0;
};

/// Min-heap order: earliest cycle first, then lowest core index — the seed
/// kernel's per-cycle core scan order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.cycle != b.cycle ? a.cycle > b.cycle : a.core > b.core;
  }
};

}  // namespace

/// Kernel loop state: the shared member state plus this kernel's event
/// order (the min-heap). All state is members so the run can pause between
/// events (see batched.h); step() processes exactly one popped event.
struct SystemReplay::Impl {
  detail::MemberState state;
  std::vector<TraceCursor*> cursors;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events;

  Impl(const SystemConfig& config, std::vector<TraceCursor*> cs)
      : state(config, cs.size()), cursors(std::move(cs)) {
    for (std::size_t c = 0; c < state.n; ++c)
      events.push({0, static_cast<std::uint32_t>(c)});
  }

  void step() {
    const Event ev = events.top();
    events.pop();
    const std::uint64_t wake =
        detail::step_core(state, *cursors[ev.core], ev.cycle, ev.core);
    if (wake != detail::kNever) events.push({wake, ev.core});
  }
};

SystemReplay::SystemReplay(const SystemConfig& config, std::vector<TraceCursor*> cursors) {
  config.validate();
  C2B_COUNTER_INC("sim.system.runs");
  C2B_REQUIRE(!cursors.empty(), "need at least one trace");
  C2B_REQUIRE(cursors.size() <= config.hierarchy.cores,
              "more traces than cores in the hierarchy");
  for (TraceCursor* cursor : cursors)
    C2B_REQUIRE(cursor != nullptr && cursor->peek() != nullptr, "core trace must be non-empty");
  impl_ = std::make_unique<Impl>(config, std::move(cursors));
}

SystemReplay::~SystemReplay() = default;
SystemReplay::SystemReplay(SystemReplay&&) noexcept = default;
SystemReplay& SystemReplay::operator=(SystemReplay&&) noexcept = default;

bool SystemReplay::advance_until(std::uint64_t record_target) {
  Impl& s = *impl_;
  while (!s.events.empty() && s.state.consumed < record_target) s.step();
  if (s.events.empty()) s.state.flush_telemetry();
  return s.events.empty();
}

bool SystemReplay::finished() const noexcept { return impl_->events.empty(); }

std::uint64_t SystemReplay::consumed_records() const noexcept { return impl_->state.consumed; }

SystemResult SystemReplay::result() {
  Impl& s = *impl_;
  C2B_REQUIRE(s.events.empty(), "result() before the replay finished");
  return s.state.build_result();
}

SystemResult simulate_system_streaming(const SystemConfig& config,
                                       const std::vector<TraceCursor*>& cursors) {
  C2B_SPAN("sim/simulate_system");
  SystemReplay replay(config, cursors);
  replay.advance_until(std::numeric_limits<std::uint64_t>::max());
  return replay.result();
}

SystemResult simulate_system(const SystemConfig& config,
                             const std::vector<Trace>& per_core_traces) {
  C2B_REQUIRE(!per_core_traces.empty(), "need at least one trace");
  std::vector<VectorTraceCursor> storage;
  storage.reserve(per_core_traces.size());
  for (const Trace& trace : per_core_traces) storage.emplace_back(trace);
  std::vector<TraceCursor*> cursors;
  cursors.reserve(storage.size());
  for (VectorTraceCursor& cursor : storage) cursors.push_back(&cursor);
  return simulate_system_streaming(config, cursors);
}

SystemResult simulate_single_core(const SystemConfig& config, const Trace& trace) {
  return simulate_system(config, {trace});
}

}  // namespace c2b::sim
