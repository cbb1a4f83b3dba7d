// Batch-equivalence stress tests (ctest label: perf, excluded from the
// quick suite). The batched replay engine — shared chunk store, lockstep
// SystemReplay driver, DSE-level equivalence-class scheduling — must be
// bitwise indistinguishable from per-point simulation at every thread
// count, with the chunk store's resident window staying O(chunk) even on
// wide batches over long streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "c2b/aps/aps.h"
#include "c2b/aps/dse.h"
#include "c2b/check/generators.h"
#include "c2b/check/oracles.h"
#include "c2b/common/rng.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/obs/registry.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

/// Restores process-global execution state (thread count, sim cache) that
/// the DSE-level sweeps below mutate.
struct ExecDefaults {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~ExecDefaults() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
    exec::SimCache::global().clear();
  }
};

// The oracle harness's batch family at a different seed and a larger set
// count than the `c2b check` default, so the perf suite explores fresh
// design-point sets.
TEST(BatchEquivalence, OracleStressOnRandomDesignSets) {
  check::OracleOptions options;
  options.seed = 20'260'805;
  options.batch_sets = 12;
  const check::OracleReport report = check::run_batch_equivalence_oracle(options);
  for (const std::string& failure : report.failures) ADD_FAILURE() << failure;
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.checks, 0u);
}

// A wide batch (more members than kMaxBatchMembers, forcing the unit split)
// over one random scenario: batched results must match per-point
// simulate_design_time bitwise at thread counts 1 and 8, and repeating the
// sweep must reproduce it bitwise.
TEST(BatchEquivalence, WideBatchMatchesPerPointAtEveryThreadCount) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  Rng rng(314159);
  const check::DseScenario scenario = check::gen_dse_scenario(rng);
  const GridSpace space = make_design_space(scenario.axes);

  std::vector<std::vector<double>> points;
  std::vector<double> reference_times;
  std::vector<std::uint64_t> reference_accesses;
  space.for_each([&](std::size_t, const std::vector<double>& point) {
    if (!design_feasible(scenario.context, point)) return;
    points.push_back(point);
  });
  ASSERT_FALSE(points.empty());

  exec::set_thread_count(1);
  for (const std::vector<double>& point : points) {
    std::uint64_t accesses = 0;
    reference_times.push_back(simulate_design_time(scenario.context, point, &accesses));
    reference_accesses.push_back(accesses);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exec::set_thread_count(threads);
    for (int repeat = 0; repeat < 2; ++repeat) {
      BatchReplayStats stats;
      const std::vector<BatchSimOutcome> outcomes =
          simulate_design_times_batched(scenario.context, points, &stats);
      ASSERT_EQ(outcomes.size(), points.size());
      EXPECT_EQ(stats.members, points.size());
      EXPECT_EQ(stats.cache_hits, 0u);
      for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
                  std::bit_cast<std::uint64_t>(reference_times[i]))
            << "threads " << threads << " repeat " << repeat << " point " << i;
        ASSERT_EQ(outcomes[i].memory_accesses, reference_accesses[i]);
      }
    }
  }
}

// --- In-sweep merge of points that share one simulator configuration ---

DseContext merge_context() {
  DseContext context;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.workload = make_stencil_workload(96);
  context.instructions0 = 20'000;
  context.per_core_cap = 5'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  return context;
}

/// Neighbouring A0/A1/A2 values that quantize to the same functional-unit
/// count and power-of-two capacities, so distinct grid points share one
/// SystemConfig.
DseAxes merge_axes() {
  DseAxes axes;
  axes.a0 = {1.0, 1.1, 4.0};
  axes.a1 = {0.5, 0.55};
  axes.a2 = {1.0, 1.1};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  return axes;
}

std::vector<std::vector<double>> feasible_points(const DseContext& context,
                                                 const GridSpace& space) {
  std::vector<std::vector<double>> points;
  space.for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(context, point)) points.push_back(point);
  });
  return points;
}

/// Distinct simulator configs among `points`: within one context these are
/// exactly the fields config_for_design derives from a point, so the count
/// equals the number of distinct simulation-cache keys.
std::size_t distinct_configs(const DseContext& context,
                             const std::vector<std::vector<double>>& points) {
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint64_t, std::uint64_t>>
      configs;
  for (const std::vector<double>& point : points) {
    const sim::SystemConfig c = config_for_design(context, point);
    configs.emplace(c.hierarchy.cores, c.core.issue_width, c.core.rob_size,
                    c.core.functional_units, c.hierarchy.l1_geometry.size_bytes,
                    c.hierarchy.l2_geometry.size_bytes);
  }
  return configs.size();
}

struct Reference {
  std::vector<double> times;
  std::vector<std::uint64_t> accesses;
};

/// Per-point simulate_design_time with the cache off: the ground truth a
/// merged sweep must reproduce bit for bit.
Reference per_point_reference(const DseContext& context,
                              const std::vector<std::vector<double>>& points) {
  exec::SimCache::global().set_enabled(false);
  Reference ref;
  for (const std::vector<double>& point : points) {
    std::uint64_t accesses = 0;
    ref.times.push_back(simulate_design_time(context, point, &accesses));
    ref.accesses.push_back(accesses);
  }
  return ref;
}

void expect_matches_reference(const std::vector<BatchSimOutcome>& outcomes,
                              const Reference& ref) {
  ASSERT_EQ(outcomes.size(), ref.times.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(outcomes[i].time),
              std::bit_cast<std::uint64_t>(ref.times[i]))
        << "point " << i;
    ASSERT_EQ(outcomes[i].memory_accesses, ref.accesses[i]) << "point " << i;
  }
}

/// sim.l1.hit + sim.l1.miss + exec.simcache.replayed_accesses must equal the
/// reported accesses since the last registry reset.
void expect_ledger_balanced(const std::vector<BatchSimOutcome>& outcomes) {
  if (!C2B_OBS_ACTIVE()) return;
  std::uint64_t reported = 0;
  for (const BatchSimOutcome& o : outcomes) reported += o.memory_accesses;
  obs::Registry& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter("sim.l1.hit").value() + registry.counter("sim.l1.miss").value() +
                registry.counter("exec.simcache.replayed_accesses").value(),
            reported);
}

// Literal repeats plus distinct grid points that quantize to one config:
// each distinct config is replayed once, every point still gets the
// bit-identical per-point outcome, with the cache on or off and at any
// thread count, and the telemetry ledger stays balanced.
TEST(BatchEquivalence, SameConfigPointsReplayOnceAndMatchPerPoint) {
  ExecDefaults restore;
  exec::SimCache& cache = exec::SimCache::global();
  cache.detach_disk_tier();  // cold runs must really be cold
  const DseContext context = merge_context();
  std::vector<std::vector<double>> points =
      feasible_points(context, make_design_space(merge_axes()));
  ASSERT_FALSE(points.empty());
  const std::size_t grid_configs = distinct_configs(context, points);
  ASSERT_LT(grid_configs, points.size()) << "no two grid points share a config";
  for (const std::size_t i : {std::size_t{0}, points.size() / 2, std::size_t{0}})
    points.push_back(points[i]);
  const std::size_t distinct = distinct_configs(context, points);
  ASSERT_EQ(distinct, grid_configs);

  exec::set_thread_count(1);
  const Reference ref = per_point_reference(context, points);

  for (const bool cache_on : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "cache " << cache_on << " threads " << threads);
      exec::set_thread_count(threads);
      cache.set_enabled(cache_on);
      cache.clear();
      if (C2B_OBS_ACTIVE()) obs::Registry::global().reset_values();
      BatchReplayStats stats;
      const std::vector<BatchSimOutcome> outcomes =
          simulate_design_times_batched(context, points, &stats);
      expect_matches_reference(outcomes, ref);
      expect_ledger_balanced(outcomes);
      EXPECT_EQ(stats.members, points.size());
      EXPECT_EQ(stats.cache_hits, 0u);
      EXPECT_EQ(stats.replayed_configs, distinct);
      if (!cache_on) continue;

      // Each key went in once; the warm rerun peels every point, duplicates
      // included, and replays nothing.
      EXPECT_EQ(cache.stats().entries, distinct);
      if (C2B_OBS_ACTIVE()) obs::Registry::global().reset_values();
      BatchReplayStats warm_stats;
      const std::vector<BatchSimOutcome> warm =
          simulate_design_times_batched(context, points, &warm_stats);
      expect_matches_reference(warm, ref);
      expect_ledger_balanced(warm);
      EXPECT_EQ(warm_stats.cache_hits, points.size());
      EXPECT_EQ(warm_stats.members, 0u);
      EXPECT_EQ(warm_stats.replayed_configs, 0u);
    }
  }
}

// A workload without a uid has no cache key, so nothing proves two of its
// points equal: every point replays on its own, literal repeats included.
TEST(BatchEquivalence, UidLessWorkloadIsNeverMerged) {
  ExecDefaults restore;
  DseContext context = merge_context();
  context.workload.uid.clear();
  std::vector<std::vector<double>> points =
      feasible_points(context, make_design_space(merge_axes()));
  ASSERT_FALSE(points.empty());
  points.push_back(points.front());

  exec::set_thread_count(1);
  const Reference ref = per_point_reference(context, points);
  exec::SimCache::global().set_enabled(true);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    exec::set_thread_count(threads);
    if (C2B_OBS_ACTIVE()) obs::Registry::global().reset_values();
    BatchReplayStats stats;
    const std::vector<BatchSimOutcome> outcomes =
        simulate_design_times_batched(context, points, &stats);
    expect_matches_reference(outcomes, ref);
    expect_ledger_balanced(outcomes);
    EXPECT_EQ(stats.members, points.size());
    EXPECT_EQ(stats.replayed_configs, points.size());
  }
}

// The APS neighborhood goes through the same merge: it replays fewer
// configs than it resolves points, and its optimum is still the strict-<
// argmin of the per-point times over the simulated region.
TEST(BatchEquivalence, ApsNeighborhoodMergesSameConfigPoints) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  exec::set_thread_count(2);
  const DseContext context = merge_context();
  const GridSpace space = make_design_space(merge_axes());
  ApsOptions options;
  options.characterize.instructions = 60'000;
  const ApsResult aps = run_aps(context, space, options);
  EXPECT_EQ(aps.batch.members, aps.simulated_indices.size());
  EXPECT_LT(aps.batch.replayed_configs, aps.batch.members);

  std::size_t best_index = 0;
  double best_time = std::numeric_limits<double>::infinity();
  for (const std::size_t flat : aps.simulated_indices) {
    const double time = simulate_design_time(context, space.point(flat));
    if (time < best_time) {
      best_time = time;
      best_index = flat;
    }
  }
  EXPECT_EQ(aps.best_index, best_index);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(aps.best_time), std::bit_cast<std::uint64_t>(best_time));
}

// The Pareto sweep merges too, and its frontier equals the non-dominated
// set rebuilt from per-point times.
TEST(BatchEquivalence, ParetoFrontierUnchangedBySameConfigMerge) {
  ExecDefaults restore;
  exec::SimCache::global().set_enabled(false);
  exec::set_thread_count(2);
  const DseContext context = merge_context();
  const GridSpace space = make_design_space(merge_axes());
  const ParetoDseResult pareto = run_pareto_dse(context, space);
  EXPECT_EQ(pareto.batch.members, pareto.feasible_count);
  EXPECT_LT(pareto.batch.replayed_configs, pareto.batch.members);

  std::vector<FrontierPoint> all;
  space.for_each([&](std::size_t flat, const std::vector<double>& point) {
    if (!design_feasible(context, point)) return;
    const DesignPoint d = design_point_of(point);
    all.push_back(FrontierPoint{flat, point, simulate_design_time(context, point),
                                context.cost.power.total(d, context.chip.shared_area),
                                d.n_cores * (d.a0 + d.a1 + d.a2) + context.chip.shared_area});
  });
  const auto dominates = [](const FrontierPoint& a, const FrontierPoint& b) {
    return a.time <= b.time && a.power <= b.power && a.area <= b.area &&
           (a.time < b.time || a.power < b.power || a.area < b.area);
  };
  std::vector<FrontierPoint> expected;
  for (const FrontierPoint& candidate : all)
    if (std::none_of(all.begin(), all.end(),
                     [&](const FrontierPoint& other) { return dominates(other, candidate); }))
      expected.push_back(candidate);
  std::sort(expected.begin(), expected.end(), [](const FrontierPoint& a, const FrontierPoint& b) {
    return std::tie(a.time, a.power, a.area, a.flat_index) <
           std::tie(b.time, b.power, b.area, b.flat_index);
  });

  ASSERT_EQ(pareto.frontier.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(pareto.frontier[i].flat_index, expected[i].flat_index) << "frontier " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pareto.frontier[i].time),
              std::bit_cast<std::uint64_t>(expected[i].time))
        << "frontier " << i;
  }
}

// Long-stream lockstep batch: 16 members sharing one 200k-record stream.
// Residency must stay within a handful of chunks (not O(stream)), and every
// member must match its solo replay bitwise.
TEST(BatchEquivalence, LongStreamResidencyStaysBounded) {
  ZipfStreamGenerator::Params p;
  p.working_set_lines = 1 << 12;
  p.zipf_exponent = 0.8;
  p.f_mem = 0.3;
  p.write_ratio = 0.25;
  p.seed = 77;
  const std::uint64_t kRecords = 200'000;
  const std::size_t kMembers = 16;

  std::vector<sim::SystemConfig> configs(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    configs[m].core.issue_width = 1u + static_cast<std::uint32_t>(m % 4) * 2u;
    if (configs[m].core.issue_width == 7) configs[m].core.issue_width = 8;
    configs[m].core.rob_size = 32u << (m % 3);
    configs[m].core.functional_units = 2u + static_cast<std::uint32_t>(m % 3);
  }

  TraceChunkStore store;
  const std::size_t id = store.add_stream(std::make_unique<ZipfStreamGenerator>(p), kRecords);
  store.set_readers(static_cast<std::uint32_t>(kMembers));
  std::vector<ChunkCursor> cursors;
  cursors.reserve(kMembers);
  std::vector<std::vector<TraceCursor*>> member_cursors(kMembers);
  for (std::size_t m = 0; m < kMembers; ++m) {
    cursors.emplace_back(store, id);
    member_cursors[m] = {&cursors.back()};
  }
  const std::vector<sim::SystemResult> batched =
      sim::simulate_system_batched(configs, member_cursors);

  // One lockstep quantum of spread across members -> at most a few chunks
  // resident; the stream itself is ~49 chunks.
  EXPECT_LE(store.stats().max_resident_records, 4u * store.chunk_capacity());
  EXPECT_EQ(store.stats().records_generated, kRecords);
  EXPECT_EQ(store.stats().regen_avoided_records, (kMembers - 1) * kRecords);

  for (std::size_t m = 0; m < kMembers; ++m) {
    GeneratorTraceCursor solo(std::make_unique<ZipfStreamGenerator>(p), kRecords);
    std::vector<TraceCursor*> solo_cursors{&solo};
    const sim::SystemResult reference =
        sim::simulate_system_streaming(configs[m], solo_cursors);
    EXPECT_EQ(batched[m].cycles, reference.cycles) << "member " << m;
    EXPECT_EQ(batched[m].cores[0].instructions, reference.cores[0].instructions);
    EXPECT_EQ(batched[m].cores[0].memory_accesses, reference.cores[0].memory_accesses);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[m].cores[0].cpi),
              std::bit_cast<std::uint64_t>(reference.cores[0].cpi));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[m].cores[0].camat.camat_value),
              std::bit_cast<std::uint64_t>(reference.cores[0].camat.camat_value));
  }
}

}  // namespace
}  // namespace c2b
