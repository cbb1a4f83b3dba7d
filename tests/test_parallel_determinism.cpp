// Tier-1 determinism contract for the parallel execution layer: running the
// APS pipeline and the full-factorial DSE sweep at any thread count must
// produce bit-identical results to the serial run. See DESIGN.md
// ("Parallel execution") for why this holds by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/check/generators.h"
#include "c2b/core/optimizer.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/journal.h"

namespace c2b {
namespace {

sim::SystemConfig baseline_system() {
  sim::SystemConfig config;
  config.core.issue_width = 4;
  config.core.rob_size = 128;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

DseAxes tiny_axes() {
  DseAxes axes;
  axes.a0 = {1.0, 4.0};
  axes.a1 = {0.5, 1.0};
  axes.a2 = {1.0, 2.0};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

DseContext tiny_context() {
  DseContext context;
  context.base = baseline_system();
  context.workload = make_stencil_workload(96);
  context.instructions0 = 20000;
  context.per_core_cap = 10000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  return context;
}

/// Restores the global thread count and re-enables/clears the global sim
/// cache when a test exits, so ordering between tests never matters.
class ExecEnvGuard {
 public:
  ExecEnvGuard() = default;
  ~ExecEnvGuard() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(true);
    exec::SimCache::global().clear();
  }
};

const std::vector<std::size_t> kThreadCounts{1, 2, 8};

TEST(ParallelDeterminism, FullDseIsBitIdenticalAcrossThreadCounts) {
  ExecEnvGuard guard;
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());

  // Memoization off: every run must recompute everything from scratch so
  // the comparison exercises the parallel sweep itself, not the cache.
  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();

  std::vector<FullDseResult> results;
  for (const std::size_t threads : kThreadCounts) {
    exec::set_thread_count(threads);
    results.push_back(run_full_dse(context, space));
  }
  const FullDseResult& serial = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[i]));
    EXPECT_EQ(results[i].best_index, serial.best_index);
    EXPECT_EQ(results[i].best_time, serial.best_time);  // bit-identical
    EXPECT_EQ(results[i].simulations, serial.simulations);
    EXPECT_EQ(results[i].feasible_count, serial.feasible_count);
    ASSERT_EQ(results[i].times.size(), serial.times.size());
    for (std::size_t j = 0; j < serial.times.size(); ++j)
      EXPECT_EQ(results[i].times[j], serial.times[j]) << "flat index " << j;
  }
}

TEST(ParallelDeterminism, ApsIsBitIdenticalAcrossThreadCounts) {
  ExecEnvGuard guard;
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());
  ApsOptions options;
  options.characterize.instructions = 60000;

  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();

  std::vector<ApsResult> results;
  for (const std::size_t threads : kThreadCounts) {
    exec::set_thread_count(threads);
    results.push_back(run_aps(context, space, options));
  }
  const ApsResult& serial = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[i]));
    EXPECT_EQ(results[i].best_index, serial.best_index);
    EXPECT_EQ(results[i].best_time, serial.best_time);  // bit-identical
    EXPECT_EQ(results[i].simulations, serial.simulations);
    EXPECT_EQ(results[i].memory_accesses, serial.memory_accesses);
    EXPECT_EQ(results[i].snapped_index, serial.snapped_index);
    EXPECT_EQ(results[i].simulated_indices, serial.simulated_indices);
  }
}

TEST(ParallelDeterminism, SimCacheHitsKeepApsResultsIdentical) {
  ExecEnvGuard guard;
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());
  ApsOptions options;
  options.characterize.instructions = 60000;

  exec::set_thread_count(2);
  exec::SimCache::global().set_enabled(true);
  exec::SimCache::global().clear();

  const ApsResult cold = run_aps(context, space, options);
  const exec::SimCacheStats after_cold = exec::SimCache::global().stats();
  EXPECT_GT(after_cold.entries, 0u);

  // Revisiting the same neighborhood must be served from the cache and
  // return the bit-identical outcome the cold run produced.
  const ApsResult warm = run_aps(context, space, options);
  const exec::SimCacheStats after_warm = exec::SimCache::global().stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(warm.best_index, cold.best_index);
  EXPECT_EQ(warm.best_time, cold.best_time);
  EXPECT_EQ(warm.simulations, cold.simulations);
  EXPECT_EQ(warm.memory_accesses, cold.memory_accesses);
  EXPECT_EQ(warm.simulated_indices, cold.simulated_indices);
}

TEST(ParallelDeterminism, CachedTimesMatchUncachedOnes) {
  ExecEnvGuard guard;
  const DseContext context = tiny_context();
  const GridSpace space = make_design_space(tiny_axes());

  exec::set_thread_count(4);
  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();
  const FullDseResult uncached = run_full_dse(context, space);

  exec::SimCache::global().set_enabled(true);
  exec::SimCache::global().clear();
  const FullDseResult cold = run_full_dse(context, space);
  const FullDseResult warm = run_full_dse(context, space);
  EXPECT_GT(exec::SimCache::global().stats().hits, 0u);

  ASSERT_EQ(cold.times.size(), uncached.times.size());
  for (std::size_t j = 0; j < uncached.times.size(); ++j) {
    EXPECT_EQ(cold.times[j], uncached.times[j]) << "flat index " << j;
    EXPECT_EQ(warm.times[j], uncached.times[j]) << "flat index " << j;
  }
  EXPECT_EQ(warm.best_index, uncached.best_index);
  EXPECT_EQ(warm.best_time, uncached.best_time);
}

/// tiny_context with a power ceiling that bisects the tiny grid: demands on
/// the default PowerModel range from ~2.0 (n=1, minimal areas) to ~6.65
/// (n=2, maximal areas), so 4.0 keeps some designs and rejects others.
DseContext constrained_context() {
  DseContext context = tiny_context();
  context.power_budget = 4.0;
  return context;
}

void expect_same_frontier(const ParetoDseResult& got, const ParetoDseResult& want) {
  EXPECT_EQ(got.feasible_count, want.feasible_count);
  EXPECT_EQ(got.grid_points, want.grid_points);
  ASSERT_EQ(got.frontier.size(), want.frontier.size());
  for (std::size_t p = 0; p < want.frontier.size(); ++p) {
    EXPECT_EQ(got.frontier[p].flat_index, want.frontier[p].flat_index) << "frontier " << p;
    EXPECT_EQ(got.frontier[p].time, want.frontier[p].time) << "frontier " << p;
    EXPECT_EQ(got.frontier[p].power, want.frontier[p].power) << "frontier " << p;
    EXPECT_EQ(got.frontier[p].area, want.frontier[p].area) << "frontier " << p;
  }
  ASSERT_EQ(got.usage.size(), want.usage.size());
  for (std::size_t c = 0; c < want.usage.size(); ++c) {
    EXPECT_EQ(got.usage[c].name, want.usage[c].name);
    EXPECT_EQ(got.usage[c].infeasible, want.usage[c].infeasible);
    EXPECT_EQ(got.usage[c].binding, want.usage[c].binding);
  }
}

TEST(ParallelDeterminism, ParetoFrontierBitIdenticalAcrossThreadCounts) {
  ExecEnvGuard guard;
  const DseContext context = constrained_context();
  const GridSpace space = make_design_space(tiny_axes());

  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();

  std::vector<ParetoDseResult> results;
  for (const std::size_t threads : kThreadCounts) {
    exec::set_thread_count(threads);
    results.push_back(run_pareto_dse(context, space));
  }
  const ParetoDseResult& serial = results.front();
  // The power ceiling must actually bisect the grid, or the test proves
  // nothing about constrained sweeps.
  const DseContext unconstrained = tiny_context();
  std::size_t area_only_feasible = 0;
  space.for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(unconstrained, point)) ++area_only_feasible;
  });
  EXPECT_GT(serial.feasible_count, 0u);
  EXPECT_LT(serial.feasible_count, area_only_feasible);
  EXPECT_FALSE(serial.frontier.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[i]));
    expect_same_frontier(results[i], serial);
  }
}

TEST(ParallelDeterminism, ParetoFrontierWarmCacheMatchesCold) {
  ExecEnvGuard guard;
  const DseContext context = constrained_context();
  const GridSpace space = make_design_space(tiny_axes());

  exec::set_thread_count(4);
  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();
  const ParetoDseResult uncached = run_pareto_dse(context, space);

  exec::SimCache::global().set_enabled(true);
  exec::SimCache::global().clear();
  const ParetoDseResult cold = run_pareto_dse(context, space);
  const ParetoDseResult warm = run_pareto_dse(context, space);
  expect_same_frontier(cold, uncached);
  expect_same_frontier(warm, uncached);
  EXPECT_EQ(warm.batch.cache_hits, warm.feasible_count);
}

// ---------------------------------------------------------------------------
// Batched sweep with more than one unit per class: the pool claims units
// heaviest-first (cores, then members, descending), which is a real
// permutation of unit order only when several classes each split into
// several units. Two 32-point core-count classes of distinct configs give
// four 16-member units.

DseAxes two_unit_axes() {
  DseAxes axes;
  axes.a0 = {0.5, 1.0};   // 1 or 2 functional units
  axes.a1 = {0.25, 0.5};  // two L1 capacities
  axes.a2 = {0.5, 1.0};   // two L2 capacities
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

DseContext two_unit_context() {
  DseContext context = tiny_context();
  context.instructions0 = 4000;
  context.per_core_cap = 2000;
  context.chip.total_area = 16.0;  // every point of two_unit_axes fits
  return context;
}

std::vector<std::vector<double>> feasible_points(const DseContext& context, const DseAxes& axes) {
  std::vector<std::vector<double>> points;
  make_design_space(axes).for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(context, point)) points.push_back(point);
  });
  return points;
}

void expect_same_batch_stats(const BatchReplayStats& got, const BatchReplayStats& want) {
  EXPECT_EQ(got.classes, want.classes);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.replayed_configs, want.replayed_configs);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_hits_disk, want.cache_hits_disk);
  EXPECT_EQ(got.chunks_shared, want.chunks_shared);
  EXPECT_EQ(got.regen_avoided_accesses, want.regen_avoided_accesses);
  EXPECT_EQ(got.simd_steps, want.simd_steps);
  EXPECT_EQ(got.simd_peels, want.simd_peels);
  EXPECT_EQ(got.simd_lanes_active, want.simd_lanes_active);
}

void expect_same_outcomes(const std::vector<BatchSimOutcome>& got,
                          const std::vector<BatchSimOutcome>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "point " << i;  // bitwise
    EXPECT_EQ(got[i].memory_accesses, want[i].memory_accesses) << "point " << i;
  }
}

/// One journaled sweep's unit events: class_scheduled in emission order,
/// and the (unit, cores, members, config) of each class_completed in
/// emission order.
struct UnitEvents {
  std::vector<std::string> scheduled;
  std::vector<std::string> completed;
  std::vector<std::size_t> completed_units;
};

UnitEvents read_unit_events(const std::string& path) {
  UnitEvents events;
  for (const obs::JournalRecord& record : obs::read_journal(path)) {
    const std::string unit = std::to_string(static_cast<std::size_t>(record.num("unit")));
    const std::string shape = unit + "|" + std::to_string(static_cast<int>(record.num("cores"))) +
                              "|" + std::to_string(static_cast<int>(record.num("members")));
    if (record.type == "class_scheduled") events.scheduled.push_back(shape);
    if (record.type == "class_completed") {
      events.completed.push_back(shape + "|" + record.str("config"));
      events.completed_units.push_back(static_cast<std::size_t>(record.num("unit")));
    }
  }
  return events;
}

TEST(ParallelDeterminism, HeaviestFirstUnitClaimingIsBitIdenticalAcrossThreadCounts) {
  ExecEnvGuard guard;
  const DseContext context = two_unit_context();
  const std::vector<std::vector<double>> points = feasible_points(context, two_unit_axes());
  ASSERT_EQ(points.size(), 64u);

  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();

  std::vector<std::vector<BatchSimOutcome>> outcomes;
  std::vector<BatchReplayStats> stats;
  std::vector<UnitEvents> events;
  for (const std::size_t threads : kThreadCounts) {
    exec::set_thread_count(threads);
    const std::string path = ::testing::TempDir() + "c2b_heaviest_first_t" +
                             std::to_string(threads) + ".jsonl";
    BatchReplayStats run_stats;
    {
      auto journal = obs::RunJournal::open(path);
      ASSERT_NE(journal, nullptr);
      obs::set_active_journal(journal.get());
      outcomes.push_back(simulate_design_times_batched(context, points, &run_stats));
      obs::set_active_journal(nullptr);
    }
    stats.push_back(run_stats);
    events.push_back(read_unit_events(path));
  }

  // Two classes of 32 distinct configs, so four 16-member units.
  const UnitEvents& serial = events.front();
  EXPECT_EQ(stats.front().classes, 2u);
  EXPECT_EQ(stats.front().replayed_configs, 64u);
  EXPECT_EQ(serial.scheduled,
            (std::vector<std::string>{"0|1|16", "1|1|16", "2|2|16", "3|2|16"}));
  // One thread runs the claims inline in claim order: the N=2 units first.
  // Completion order is the execution order, so the sweep really ran in a
  // permutation of unit order.
  EXPECT_EQ(serial.completed_units, (std::vector<std::size_t>{2, 3, 0, 1}));

  std::vector<std::string> serial_completed = serial.completed;
  std::sort(serial_completed.begin(), serial_completed.end());
  for (std::size_t i = 1; i < kThreadCounts.size(); ++i) {
    SCOPED_TRACE("threads=" + std::to_string(kThreadCounts[i]));
    expect_same_outcomes(outcomes[i], outcomes.front());
    expect_same_batch_stats(stats[i], stats.front());
    EXPECT_EQ(events[i].scheduled, serial.scheduled);
    std::vector<std::string> completed = events[i].completed;
    std::sort(completed.begin(), completed.end());
    EXPECT_EQ(completed, serial_completed);
  }
}

TEST(ParallelDeterminism, SweepStartedInsideAPoolTaskRunsInlineBitIdentically) {
  // A sweep started from a pool task (a nested fork) runs its unit claims
  // inline on that task's thread; two such sweeps in flight at once must
  // each equal the top-level serial sweep.
  ExecEnvGuard guard;
  const DseContext context = two_unit_context();
  const std::vector<std::vector<double>> points = feasible_points(context, two_unit_axes());

  exec::SimCache::global().set_enabled(false);
  exec::SimCache::global().clear();

  exec::set_thread_count(1);
  BatchReplayStats serial_stats;
  const std::vector<BatchSimOutcome> serial =
      simulate_design_times_batched(context, points, &serial_stats);

  exec::set_thread_count(8);
  std::vector<BatchReplayStats> nested_stats(2);
  const std::vector<std::vector<BatchSimOutcome>> nested =
      exec::ThreadPool::global().parallel_map<std::vector<BatchSimOutcome>>(
          2, [&](std::size_t i) {
            return simulate_design_times_batched(context, points, &nested_stats[i]);
          });
  for (std::size_t i = 0; i < nested.size(); ++i) {
    SCOPED_TRACE("nested sweep " + std::to_string(i));
    expect_same_outcomes(nested[i], serial);
    expect_same_batch_stats(nested_stats[i], serial_stats);
  }
}

TEST(ParallelDeterminism, NelderMeadRestartsBitIdenticalAcrossThreadCounts) {
  // The optimizer's multi-start Nelder-Mead runs its restarts on the
  // thread pool with a serial strict-< reduction in restart order; the
  // winning design must not depend on the thread count — on random models,
  // not just the hand-picked ones.
  ExecEnvGuard guard;
  for (std::uint64_t c = 0; c < 10; ++c) {
    Rng rng(Rng::derive_stream_seed(77, c));
    const AppProfile app = check::gen_app_profile(rng);
    const MachineProfile machine = check::gen_machine_profile(rng);
    OptimizerOptions options;
    options.n_max = 6;
    options.nelder_mead_restarts = 5;
    const C2BoundOptimizer optimizer(C2BoundModel(app, machine), options);

    std::vector<OptimalDesign> results;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      exec::set_thread_count(threads);
      results.push_back(optimizer.optimize());
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].best.execution_time, results[0].best.execution_time)
          << "model " << c;
      EXPECT_EQ(results[i].best.design.a0, results[0].best.design.a0) << "model " << c;
      EXPECT_EQ(results[i].best.design.a1, results[0].best.design.a1) << "model " << c;
      EXPECT_EQ(results[i].best.design.a2, results[0].best.design.a2) << "model " << c;
      EXPECT_EQ(results[i].best.design.n_cores, results[0].best.design.n_cores)
          << "model " << c;
      EXPECT_EQ(results[i].lambda, results[0].lambda) << "model " << c;
    }
  }
}

}  // namespace
}  // namespace c2b
