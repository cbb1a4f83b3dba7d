// Pinned simulator telemetry. Each replay tallies its sim.* telemetry in
// plain fields and flushes it into the registry once, when the replay ends.
// These tests pin the full sim.* snapshot of a small batched sweep, of one
// event-kernel run and of one reference-kernel run, with values captured
// when every access still wrote the registry directly. The replay engine,
// the thread count and the flush schedule must not change any of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/batched.h"
#include "c2b/sim/system/system.h"
#include "c2b/trace/cursor.h"
#include "c2b/trace/generators.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

struct PinnedHistogram {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;  ///< non-empty ones
};

/// The non-zero sim.* counters and non-empty sim.* histograms, by name.
struct PinnedSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<PinnedHistogram> histograms;
};

/// One line per metric with every double at round-trip precision, so two
/// snapshots are equal exactly when their renderings are, and a mismatch
/// prints as a readable diff.
std::string render(const PinnedSnapshot& snapshot) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : snapshot.counters) os << name << ' ' << value << '\n';
  for (const PinnedHistogram& h : snapshot.histograms) {
    os << h.name << " count " << h.count << " sum " << h.sum << " min " << h.min << " max "
       << h.max << " |";
    for (const auto& [bin, count] : h.buckets) os << ' ' << bin << ':' << count;
    os << '\n';
  }
  return os.str();
}

PinnedSnapshot sim_snapshot() {
  PinnedSnapshot snapshot;
  for (const obs::MetricSample& s : obs::Registry::global().snapshot()) {
    if (s.name.rfind("sim.", 0) != 0 || s.count == 0) continue;
    if (s.kind == obs::MetricSample::Kind::kCounter) {
      snapshot.counters.emplace_back(s.name, s.count);
    } else if (s.kind == obs::MetricSample::Kind::kHistogram) {
      PinnedHistogram h{s.name, s.count, s.value, s.min, s.max, {}};
      for (std::size_t b = 0; b < s.buckets.size(); ++b)
        if (s.buckets[b].second != 0) h.buckets.emplace_back(b, s.buckets[b].second);
      snapshot.histograms.push_back(std::move(h));
    }
  }
  return snapshot;
}

// Every sample below is an integer, or a multiple of 1/4 for the DRAM queue
// depth (backlog cycles / t_bus = 4), so each sum is exact in any order of
// addition and is pinned like the counts.

// The 80 feasible points of sweep_points(): 48 distinct configs replayed.
const PinnedSnapshot kSweep = {
    {{"sim.kernel.skipped_cycles", 73954},
     {"sim.kernel.visited_cycles", 66848},
     {"sim.l1.evictions", 192},
     {"sim.l1.hit", 95592},
     {"sim.l1.miss", 5696},
     {"sim.l2.hit", 1120},
     {"sim.l2.miss", 4576},
     {"sim.system.runs", 48}},
    {{"sim.core.rob_occupancy", 20, 896, 32, 64, {{8, 12}, {16, 8}}},
     {"sim.dram.queue_depth", 4576, 41968.5, 5.5, 29.75,
      {{5, 2440}, {6, 8},   {7, 290},  {8, 6},   {9, 264}, {10, 152}, {11, 142}, {12, 24},
       {13, 78},  {14, 148}, {15, 410}, {16, 394}, {17, 42}, {18, 48},  {19, 10},  {20, 6},
       {21, 32},  {22, 62},  {24, 4},   {25, 4},   {27, 4},  {28, 2},   {29, 6}}},
     {"sim.l1.mshr_occupancy", 5696, 11320, 1, 4, {{1, 2136}, {2, 2184}, {3, 688}, {4, 688}}},
     {"sim.noc.round_trip_cycles", 5696, 76032, 2, 26,
      {{0, 400}, {1, 848}, {2, 1128}, {3, 1400}, {4, 1024}, {5, 616}, {6, 280}}}}};

// kernel_config() over kernel_traces(): the counters and hierarchy
// histograms both kernels share.
const std::vector<std::pair<std::string, std::uint64_t>> kKernelHierarchyCounters = {
    {"sim.l1.evictions", 22584}, {"sim.l1.hit", 1544},      {"sim.l1.miss", 22656},
    {"sim.l2.evictions", 17837}, {"sim.l2.hit", 4656},      {"sim.l2.miss", 17995}};

const std::vector<PinnedHistogram> kKernelHierarchyHistograms = {
    {"sim.dram.queue_depth", 60396, 2896430.25, 5.5, 691.5,
     {{5, 16965}, {6, 52},   {7, 9},     {8, 77},   {9, 2},    {10, 8},   {11, 12911},
      {12, 58},   {13, 437}, {14, 1341}, {15, 1092}, {16, 6480}, {17, 74}, {18, 56},
      {19, 23},   {20, 19},  {21, 38},   {22, 335}, {23, 28},  {24, 1258}, {25, 52},
      {26, 50},   {27, 693}, {28, 119},  {29, 201}, {30, 242}, {31, 34},  {32, 228},
      {33, 196},  {34, 65},  {35, 227},  {36, 58},  {37, 64},  {38, 94},  {39, 230},
      {40, 153},  {41, 51},  {42, 64},   {43, 358}, {44, 116}, {45, 220}, {46, 64},
      {47, 93},   {48, 176}, {49, 110},  {50, 79},  {51, 49},  {52, 58},  {53, 73},
      {54, 82},   {55, 82},  {56, 137},  {57, 49},  {58, 107}, {59, 196}, {60, 120},
      {61, 155},  {62, 81},  {63, 13907}}},
    {"sim.l1.mshr_occupancy", 22656, 181128, 1, 8,
     {{1, 2}, {2, 2}, {3, 2}, {4, 2}, {5, 2}, {6, 2}, {7, 66}, {8, 22578}}},
    {"sim.noc.round_trip_cycles", 22651, 296188, 2, 26,
     {{0, 1471}, {1, 3450}, {2, 4957}, {3, 5665}, {4, 4115}, {5, 2055}, {6, 938}}}};

/// One kernel run's snapshot: the shared hierarchy part plus the
/// kernel-specific counters and ROB histogram, in name order.
PinnedSnapshot kernel_snapshot(std::vector<std::pair<std::string, std::uint64_t>> kernel_counters,
                               PinnedHistogram rob) {
  PinnedSnapshot s;
  s.counters = std::move(kernel_counters);
  s.counters.insert(s.counters.end(), kKernelHierarchyCounters.begin(),
                    kKernelHierarchyCounters.end());
  std::sort(s.counters.begin(), s.counters.end());
  s.histograms.push_back(std::move(rob));
  s.histograms.insert(s.histograms.end(), kKernelHierarchyHistograms.begin(),
                      kKernelHierarchyHistograms.end());
  return s;
}

const PinnedSnapshot kEventKernel = kernel_snapshot(
    {{"sim.kernel.skipped_cycles", 1524703},
     {"sim.kernel.visited_cycles", 24143},
     {"sim.system.runs", 1}},
    {"sim.core.rob_occupancy", 710, 90713, 34, 128, {{8, 1}, {18, 1}, {27, 1}, {32, 707}}});

const PinnedSnapshot kReferenceKernel =
    kernel_snapshot({{"sim.system.reference_runs", 1}},
                    {"sim.core.rob_occupancy", 34, 4104, 4, 128, {{1, 2}, {32, 32}}});

DseContext sweep_context() {
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

/// Neighbouring A0/A1/A2 values share configs, so the sweep also merges
/// same-config points (its ledger needs the replayed-access term).
std::vector<std::vector<double>> sweep_points(const DseContext& context) {
  DseAxes axes;
  axes.a0 = {1.0, 1.1, 4.0};
  axes.a1 = {0.5, 0.55};
  axes.a2 = {1.0, 1.1};
  axes.n = {1, 2};
  axes.issue = {2, 4};
  axes.rob = {32, 64};
  std::vector<std::vector<double>> points;
  make_design_space(axes).for_each([&](std::size_t, const std::vector<double>& point) {
    if (design_feasible(context, point)) points.push_back(point);
  });
  return points;
}

/// Two cores with tiny caches, coherence and next-line prefetch over one
/// shared Zipf working set: every telemetry site fires, including L2
/// evictions, merged misses, ownership transfers and clamped DRAM queues.
sim::SystemConfig kernel_config() {
  sim::SystemConfig config;
  config.hierarchy.cores = 2;
  config.hierarchy.l1_geometry = {.size_bytes = 4 * 1024, .line_bytes = 64, .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  config.hierarchy.coherence = true;
  config.hierarchy.l1_prefetch.kind = sim::PrefetchKind::kNextLine;
  return config;
}

std::vector<Trace> kernel_traces() {
  std::vector<Trace> traces;
  for (std::uint64_t c = 0; c < 2; ++c) {
    ZipfStreamGenerator::Params p;
    p.working_set_lines = 4096;
    p.f_mem = 0.4;
    p.seed = c + 1;
    traces.push_back(ZipfStreamGenerator(p).generate(30'000));
  }
  return traces;
}

/// Restores the process-global state the tests below change.
struct GlobalDefaults {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~GlobalDefaults() {
    obs::set_enabled(true);
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
  }
};

std::uint64_t counter(const char* name) { return obs::Registry::global().counter(name).value(); }

TEST(SimTelemetry, SweepMatchesPinnedSnapshotOnEveryEngineAndThreadCount) {
  if (!C2B_OBS_ACTIVE()) GTEST_SKIP() << "telemetry is off";
  GlobalDefaults restore;
  exec::SimCache::global().set_enabled(false);
  const DseContext base = sweep_context();
  const std::vector<std::vector<double>> points = sweep_points(base);
  ASSERT_EQ(points.size(), 80u);
  for (const bool use_simd : {true, false}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message() << (use_simd ? "vectorized" : "SystemReplay")
                                      << " threads " << threads);
      DseContext context = base;
      context.use_simd = use_simd;
      exec::set_thread_count(threads);
      obs::Registry::global().reset_values();
      const std::vector<BatchSimOutcome> outcomes =
          simulate_design_times_batched(context, points);
      EXPECT_EQ(render(sim_snapshot()), render(kSweep));
      if (!use_simd) {
        EXPECT_EQ(counter("exec.batch.simd.steps"), 0u);
      }
      std::uint64_t reported = 0;
      for (const BatchSimOutcome& o : outcomes) reported += o.memory_accesses;
      EXPECT_EQ(counter("sim.l1.hit") + counter("sim.l1.miss") +
                    counter("exec.simcache.replayed_accesses"),
                reported);
    }
  }
}

TEST(SimTelemetry, EventKernelMatchesPinnedSnapshot) {
  if (!C2B_OBS_ACTIVE()) GTEST_SKIP() << "telemetry is off";
  obs::Registry::global().reset_values();
  const sim::SystemResult result = sim::simulate_system(kernel_config(), kernel_traces());
  EXPECT_EQ(render(sim_snapshot()), render(kEventKernel));
  std::uint64_t accesses = 0;
  for (const sim::CoreResult& core : result.cores) accesses += core.memory_accesses;
  EXPECT_EQ(counter("sim.l1.hit") + counter("sim.l1.miss"), accesses);
}

TEST(SimTelemetry, ReferenceKernelMatchesPinnedSnapshot) {
  if (!C2B_OBS_ACTIVE()) GTEST_SKIP() << "telemetry is off";
  obs::Registry::global().reset_values();
  sim::simulate_system_reference(kernel_config(), kernel_traces());
  EXPECT_EQ(render(sim_snapshot()), render(kReferenceKernel));
}

TEST(SimTelemetry, RuntimeDisabledRunFlushesNothing) {
  if (!C2B_OBS_ACTIVE()) GTEST_SKIP() << "telemetry is off";
  GlobalDefaults restore;
  obs::Registry::global().reset_values();
  obs::set_enabled(false);
  sim::simulate_system(kernel_config(), kernel_traces());
  sim::simulate_system_reference(kernel_config(), kernel_traces());
  obs::set_enabled(true);
  EXPECT_EQ(render(sim_snapshot()), "");
}

// A replay destroyed before it finishes still flushes what it simulated,
// exactly once: nothing reaches the registry mid-run, and moving the
// replay neither loses nor repeats the flush.
TEST(SimTelemetry, UnfinishedReplayFlushesOnceWhenDestroyed) {
  if (!C2B_OBS_ACTIVE()) GTEST_SKIP() << "telemetry is off";
  const std::vector<Trace> traces = kernel_traces();
  const Trace& trace = traces.front();
  sim::SystemConfig config = kernel_config();
  config.hierarchy.cores = 1;  // one cursor: records are consumed in trace order
  obs::Registry::global().reset_values();

  std::uint64_t consumed = 0;
  {
    VectorTraceCursor cursor(trace);
    sim::SystemReplay replay(config, {&cursor});
    ASSERT_FALSE(replay.advance_until(trace.records.size() / 3));
    consumed = replay.consumed_records();
    ASSERT_LT(consumed, trace.records.size());
    EXPECT_EQ(counter("sim.l1.hit") + counter("sim.l1.miss"), 0u) << "flushed mid-run";
    sim::SystemReplay moved(std::move(replay));
    EXPECT_EQ(counter("sim.l1.hit") + counter("sim.l1.miss"), 0u) << "flushed by a move";
  }
  std::uint64_t accesses = 0;
  for (std::uint64_t i = 0; i < consumed; ++i)
    if (trace.records[i].kind != InstrKind::kCompute) ++accesses;
  ASSERT_GT(accesses, 0u);
  EXPECT_EQ(counter("sim.l1.hit") + counter("sim.l1.miss"), accesses);
  EXPECT_EQ(counter("sim.system.runs"), 1u);
  EXPECT_GT(counter("sim.kernel.visited_cycles"), 0u);
  EXPECT_EQ(obs::Registry::global().histogram("sim.l1.mshr_occupancy", 0.0, 64.0, 64).count(),
            counter("sim.l1.miss"));
}

}  // namespace
}  // namespace c2b
