#include "layers.h"

#include <algorithm>
#include <map>
#include <memory>

#include "c2b/common/math_util.h"
#include "c2b/common/rng.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/cursor.h"

namespace c2b::perfbench {
namespace {

/// Batched units are at most this wide, as in simulate_design_times_batched.
constexpr std::size_t kUnitMembers = 16;

/// The phase windows simulate_design_time derives from (context, N). This
/// mirrors the library's private per-phase plan; probe_trace_and_kernel
/// proves the mirror exact by reproducing the op's times bit for bit.
struct Phases {
  double g_n = 1.0;
  double serial_ic = 0.0;
  double parallel_ic_per_core = 0.0;
  double serial_scale = 1.0;
  double per_core_scale = 1.0;
  std::uint64_t serial_window = 0;
  std::uint64_t parallel_window = 0;
};

Phases phases_for(const DseContext& context, std::uint32_t cores) {
  Phases p;
  const double n = static_cast<double>(cores);
  const ScalingFunction& g = context.workload.g;
  p.g_n = g(n);
  const double ic_total = p.g_n * static_cast<double>(context.instructions0);
  p.serial_ic = context.workload.f_seq * ic_total;
  p.parallel_ic_per_core = (1.0 - context.workload.f_seq) * ic_total / n;
  p.serial_scale = std::max(1.0, g.memory_scale(n));
  p.per_core_scale = std::max(1.0, g.memory_scale(n) / n);
  const double cap = static_cast<double>(context.per_core_cap);
  if (p.serial_ic >= 1.0)
    p.serial_window = static_cast<std::uint64_t>(clamp(p.serial_ic, 1000.0, cap));
  if (p.parallel_ic_per_core >= 1.0)
    p.parallel_window = static_cast<std::uint64_t>(clamp(p.parallel_ic_per_core, 1000.0, cap));
  return p;
}

std::uint32_t cores_of(const std::vector<double>& point) {
  return static_cast<std::uint32_t>(std::lround(point[kAxisN]));
}

void add_hierarchy(KernelProbe& probe, const sim::SystemResult& result) {
  for (const sim::CoreResult& core : result.cores) probe.accesses += core.memory_accesses;
  probe.l1_accesses += result.hierarchy.l1_accesses;
  probe.l2_accesses += result.hierarchy.l2_accesses;
  probe.dram_accesses += result.hierarchy.dram_accesses;
  probe.l1_mshr_full_stalls += result.hierarchy.l1_mshr_full_stalls;
}

}  // namespace

void plan_sweep(Sweep& sweep) {
  sweep.flats.clear();
  sweep.points.clear();
  sweep.space.for_each([&](std::size_t flat, const std::vector<double>& point) {
    if (!design_feasible(sweep.context, point)) return;
    sweep.flats.push_back(flat);
    sweep.points.push_back(point);
  });
}

double probe_plan(const std::vector<const Sweep*>& sweeps, bool& ok) {
  std::size_t feasible = 0;
  const double start = now_s();
  {
    ScopedSpan span("aps.plan");
    for (const Sweep* sweep : sweeps)
      sweep->space.for_each([&](std::size_t, const std::vector<double>& point) {
        if (!design_feasible(sweep->context, point)) return;
        // Counted through the config, so the call cannot be dropped as dead.
        const sim::SystemConfig config = config_for_design(sweep->context, point);
        feasible += config.hierarchy.cores > 0 ? 1 : 0;
      });
  }
  const double seconds = now_s() - start;
  std::size_t expected = 0;
  for (const Sweep* sweep : sweeps) expected += sweep->flats.size();
  ok = feasible == expected;
  return seconds;
}

PeelProbe probe_peel(const DseContext& context, const std::vector<std::vector<double>>& points,
                     const std::vector<double>& expected) {
  PeelProbe probe;
  BatchReplayStats stats;
  const double start = now_s();
  std::vector<BatchSimOutcome> outcomes;
  {
    ScopedSpan span("aps.peel");
    outcomes = simulate_design_times_batched(context, points, &stats);
  }
  probe.seconds = now_s() - start;
  probe.ok = stats.cache_hits == points.size() && stats.cache_hits_disk == 0 &&
             stats.members == 0;
  for (const BatchSimOutcome& outcome : outcomes) probe.times.push_back(outcome.time);
  if (!expected.empty())
    for (std::size_t i = 0; probe.ok && i < outcomes.size(); ++i)
      probe.ok = i < expected.size() && bits_equal(outcomes[i].time, expected[i]);
  return probe;
}

void KernelProbe::merge(const KernelProbe& other) {
  gen_s += other.gen_s;
  records += other.records;
  kernel_s += other.kernel_s;
  simulations += other.simulations;
  accesses += other.accesses;
  simd_steps += other.simd_steps;
  simd_peels += other.simd_peels;
  simd_lanes_active += other.simd_lanes_active;
  l1_accesses += other.l1_accesses;
  l2_accesses += other.l2_accesses;
  dram_accesses += other.dram_accesses;
  l1_mshr_full_stalls += other.l1_mshr_full_stalls;
  times_match = times_match && other.times_match;
}

KernelProbe probe_trace_and_kernel(const DseContext& context,
                                   const std::vector<std::vector<double>>& points,
                                   const std::vector<double>& expected) {
  KernelProbe probe;
  // Within one context the trace class varies only with N (see
  // trace_class_key); the unit is the first <=16 members in point order.
  std::map<std::uint32_t, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<std::size_t>& members = classes[cores_of(points[i])];
    if (members.size() < kUnitMembers) members.push_back(i);
  }

  sim::BatchKernelStats kernel_stats;
  sim::BatchedReplayOptions options;
  options.lockstep_records = context.lockstep_records;
  options.use_simd = context.use_simd;
  options.kernel_stats = &kernel_stats;

  for (const auto& [cores, members] : classes) {
    const Phases phases = phases_for(context, cores);
    const std::size_t k = members.size();

    // ---- trace generation: every stream of the class, into memory ----
    Trace serial;
    std::vector<Trace> parallel;
    double start = now_s();
    {
      ScopedSpan span("trace.generate");
      if (phases.serial_window != 0)
        serial = context.workload.make_generator(phases.serial_scale, context.seed)
                     ->generate(phases.serial_window);
      if (phases.parallel_window != 0)
        for (std::uint32_t c = 0; c < cores; ++c)
          parallel.push_back(
              context.workload
                  .make_generator(phases.per_core_scale, Rng::derive_stream_seed(context.seed, c))
                  ->generate(phases.parallel_window));
    }
    probe.gen_s += now_s() - start;
    probe.records += serial.records.size();
    for (const Trace& trace : parallel) probe.records += trace.records.size();

    std::vector<sim::SystemConfig> configs;
    configs.reserve(k);
    for (const std::size_t index : members)
      configs.push_back(config_for_design(context, points[index]));

    // ---- the batched kernel over the pre-generated streams ----
    std::vector<double> total_cycles(k, 0.0);
    std::vector<sim::SystemResult> serial_results;
    std::vector<sim::SystemResult> parallel_results;
    std::vector<std::unique_ptr<VectorTraceCursor>> cursors;
    std::vector<std::vector<TraceCursor*>> serial_cursors(k);
    std::vector<std::vector<TraceCursor*>> parallel_cursors(k);
    for (std::size_t m = 0; m < k; ++m) {
      if (phases.serial_window != 0) {
        cursors.push_back(std::make_unique<VectorTraceCursor>(serial));
        serial_cursors[m].push_back(cursors.back().get());
      }
      for (const Trace& trace : parallel) {
        cursors.push_back(std::make_unique<VectorTraceCursor>(trace));
        parallel_cursors[m].push_back(cursors.back().get());
      }
    }
    start = now_s();
    {
      ScopedSpan span("sim.kernel");
      if (phases.serial_window != 0)
        serial_results = sim::simulate_system_batched(configs, serial_cursors, options);
      if (phases.parallel_window != 0)
        parallel_results = sim::simulate_system_batched(configs, parallel_cursors, options);
    }
    probe.kernel_s += now_s() - start;
    probe.simulations += k;

    // Same arithmetic, in the same order, as simulate_design_time.
    for (std::size_t m = 0; m < k; ++m) {
      if (!serial_results.empty()) {
        total_cycles[m] += serial_results[m].cores[0].cpi * phases.serial_ic;
        add_hierarchy(probe, serial_results[m]);
      }
      if (!parallel_results.empty()) {
        const double scale =
            phases.parallel_ic_per_core / static_cast<double>(phases.parallel_window);
        total_cycles[m] += static_cast<double>(parallel_results[m].cycles) * scale;
        add_hierarchy(probe, parallel_results[m]);
      }
      const double time = total_cycles[m] / phases.g_n;
      if (!bits_equal(time, expected[members[m]])) probe.times_match = false;
    }
  }
  probe.simd_steps = kernel_stats.simd_steps;
  probe.simd_peels = kernel_stats.simd_peels;
  probe.simd_lanes_active = kernel_stats.simd_lanes_active;
  return probe;
}

}  // namespace c2b::perfbench
