// Simulation-cache key coverage: behavioral aliasing tests. Two contexts
// that could produce different simulation results must never share a cache
// entry — in particular spec pairs differing only in `uid`, and pairs with
// identical uid/description whose g(N) samples differ (the numeric
// backstop in the key).

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "c2b/aps/dse.h"
#include "c2b/check/property.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"

namespace c2b {
namespace {

DseContext tiny_context() {
  DseContext context;
  context.base.core.issue_width = 4;
  context.base.core.rob_size = 128;
  context.base.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                        .associativity = 4};
  context.base.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                        .associativity = 8};
  context.workload = make_stencil_workload(64);
  context.instructions0 = 4000;
  context.per_core_cap = 2000;
  context.seed = 11;
  return context;
}

const std::vector<double> kPoint{1.0, 0.5, 1.0, 1.0, 4.0, 128.0};

class SimCacheKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::SimCache::global().set_enabled(true);
    // Key-coverage tests reason about exact hit/miss counts on a cold
    // cache; a $C2B_SIM_CACHE_DIR disk tier warmed by an earlier run
    // would serve the probes (clear() keeps it by design), so drop it.
    exec::SimCache::global().detach_disk_tier();
    exec::SimCache::global().clear();
  }
  void TearDown() override { exec::SimCache::global().clear(); }

  static std::uint64_t hits() { return exec::SimCache::global().stats().hits; }
  static std::uint64_t misses() { return exec::SimCache::global().stats().misses; }
};

TEST_F(SimCacheKeyTest, IdenticalContextReplays) {
  const DseContext context = tiny_context();
  const double first = simulate_design_time(context, kPoint);
  EXPECT_EQ(hits(), 0u);
  const double second = simulate_design_time(context, kPoint);
  EXPECT_EQ(hits(), 1u) << "identical context must hit the cache";
  EXPECT_EQ(first, second);
}

TEST_F(SimCacheKeyTest, UidOnlyChangeNeverAliases) {
  DseContext context = tiny_context();
  (void)simulate_design_time(context, kPoint);
  const std::uint64_t misses_before = misses();

  // Same generator, same everything — only the declared identity differs.
  // A uid is a promise of behavioral identity; a different uid must be a
  // different key even when the rest of the spec looks the same.
  context.workload.uid += "#mutant";
  (void)simulate_design_time(context, kPoint);
  EXPECT_EQ(hits(), 0u) << "uid-only change aliased into the cached entry";
  EXPECT_GT(misses(), misses_before);
}

TEST_F(SimCacheKeyTest, SampledGValuesBackstopPreventsAliasing) {
  // Adversarial pair: identical uid AND identical description, but g
  // differs numerically. The description alone cannot distinguish them —
  // only the sampled-values backstop in the key can.
  DseContext context = tiny_context();
  context.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", true);
  (void)simulate_design_time(context, kPoint);

  DseContext other = tiny_context();
  other.workload.g =
      ScalingFunction::custom([](double n) { return 2.0 * n - 1.0; }, "custom-g", true);
  (void)simulate_design_time(other, kPoint);
  EXPECT_EQ(hits(), 0u) << "numerically different g aliased under a shared description";
}

TEST_F(SimCacheKeyTest, MemoryScaleDifferenceNeverAliases) {
  // Same g values, same description — but capacity-driven vs fixed memory
  // scaling changes the simulated working set.
  DseContext context = tiny_context();
  context.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", true);
  (void)simulate_design_time(context, kPoint);

  DseContext other = tiny_context();
  other.workload.g =
      ScalingFunction::custom([](double n) { return n; }, "custom-g", false);
  (void)simulate_design_time(other, kPoint);
  EXPECT_EQ(hits(), 0u) << "memory_scale difference aliased";
}

TEST_F(SimCacheKeyTest, SeedAndWindowChangesNeverAlias) {
  DseContext context = tiny_context();
  (void)simulate_design_time(context, kPoint);

  DseContext reseeded = tiny_context();
  reseeded.seed += 1;
  (void)simulate_design_time(reseeded, kPoint);
  EXPECT_EQ(hits(), 0u);

  DseContext longer = tiny_context();
  longer.instructions0 += 1;
  (void)simulate_design_time(longer, kPoint);
  EXPECT_EQ(hits(), 0u);

  DseContext capped = tiny_context();
  capped.per_core_cap -= 1;
  (void)simulate_design_time(capped, kPoint);
  EXPECT_EQ(hits(), 0u);
}

TEST_F(SimCacheKeyTest, EmptyUidDisablesCaching) {
  DseContext context = tiny_context();
  context.workload.uid.clear();
  (void)simulate_design_time(context, kPoint);
  (void)simulate_design_time(context, kPoint);
  EXPECT_EQ(hits(), 0u) << "hand-rolled specs without a uid must not be cached";
}

// The batched sweep keys its designs through SimulationKeyBuilder, which
// builds each trace_class_key once per core count. Every key it builds must
// equal the per-design key byte for byte, or disk tiers written by earlier
// builds stop hitting.
TEST(SimulationKeyBuilder, MatchesPerDesignKeyOnEveryLargeAxesPoint) {
  const DseContext context = tiny_context();
  SimulationKeyBuilder key_of(context);
  std::size_t points = 0;
  make_design_space(make_large_axes()).for_each([&](std::size_t, const std::vector<double>& point) {
    const sim::SystemConfig config = config_for_design(context, point);
    ASSERT_EQ(key_of(config), simulation_cache_key(context, config)) << "point " << points;
    ++points;
  });
  EXPECT_EQ(points, 122'880u);
}

TEST(SimulationKeyBuilder, EmptyUidGivesEmptyKey) {
  DseContext context = tiny_context();
  context.workload.uid.clear();
  EXPECT_EQ(SimulationKeyBuilder(context)(config_for_design(context, kPoint)), "");
}

// The key bytes of one design, as every earlier build wrote them to disk.
TEST(SimulationKeyBuilder, KeyLayoutIsPinned) {
  const DseContext context = tiny_context();
  const std::string key = simulation_cache_key(context, config_for_design(context, kPoint));
  EXPECT_EQ(key,
            "stencil/64|0.029999999999999999|g(N) = N (memory-linear, Gustafson)|"
            "1|1|2|2|7|7|64|64|1|1|11|4000|2000|1|"
            "4|128|2|1|8192|64|4|65536|64|8|3|4|2|8|12|16|1|32|16|2|1|0.25|8|128|22|22|22|4|"
            "0|0|2|8|2|0|");
}

// ---------------------------------------------------------------------------
// Key field rendering: key_append must write the bytes printf wrote
// for every earlier build ("%" PRIu64 "|" and "%.17g|"), or disk tiers
// those builds left behind stop hitting. The printf formats live on here
// only as the oracle.

std::string printf_field(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64 "|", value);
  return buf;
}

std::string printf_field(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g|", value);
  return buf;
}

template <typename T>
std::string key_field(T value) {
  std::string key;
  key_append(key, value);
  return key;
}

template <typename T>
std::optional<std::string> field_matches_printf(T value) {
  const std::string got = key_field(value);
  const std::string want = printf_field(value);
  if (got == want) return std::nullopt;
  return "key_append wrote '" + got + "', printf wrote '" + want + "'";
}

check::CheckOptions field_options() {
  check::CheckOptions options;
  options.cases = 20'000;
  return check::options_from_env(options);
}

TEST(KeyFieldFormat, IntegersMatchPrintfOverTheFullRange) {
  check::Property<std::uint64_t> p;
  p.name = "key_field_uint64_matches_printf";
  // A random shift spreads the draws over every digit count, 0 to 20.
  p.generate = [](Rng& rng) { return rng.next() >> rng.uniform_below(64); };
  p.holds = [](const std::uint64_t& value) { return field_matches_printf(value); };
  p.shrink = check::shrink_integer;
  p.print = [](const std::uint64_t& value) { return std::to_string(value); };
  const check::CheckResult result = check::check(p, field_options());
  EXPECT_TRUE(result.passed) << result.summary();
  for (const std::uint64_t edge : {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{10},
                                   std::numeric_limits<std::uint64_t>::max()})
    EXPECT_EQ(field_matches_printf(edge), std::nullopt) << edge;
}

/// Doubles from every region printf's %.17g treats differently: raw bit
/// patterns (any sign, exponent, NaN payload), subnormals, values around
/// the fixed/exponent switch at 1e-5 and 1e17, and short decimals.
double gen_key_double(Rng& rng) {
  const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
  switch (rng.uniform_below(5)) {
    case 0: return std::bit_cast<double>(rng.next());
    case 1: return sign * std::bit_cast<double>(rng.next() & ((std::uint64_t{1} << 52) - 1));
    case 2: return sign * std::pow(10.0, rng.uniform(-6.0, 18.0));
    case 3: return sign * static_cast<double>(rng.uniform_below(1'000'000)) / 1000.0;
    default: return sign * std::ldexp(rng.uniform(0.5, 1.0), static_cast<int>(rng.uniform_below(2098)) - 1074);
  }
}

TEST(KeyFieldFormat, DoublesMatchPrintfIncludingSpecialValues) {
  check::Property<double> p;
  p.name = "key_field_double_matches_printf";
  p.generate = gen_key_double;
  p.holds = [](const double& value) { return field_matches_printf(value); };
  p.print = [](const double& value) { return printf_field(value); };
  const check::CheckResult result = check::check(p, field_options());
  EXPECT_TRUE(result.passed) << result.summary();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double edge : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(), DBL_MIN * (1.0 - DBL_EPSILON),
                            DBL_MIN, DBL_MAX, -DBL_MAX, kInf, -kInf, kNaN, -kNaN, 1e-5, 1e17,
                            1e16, 0.1, 1.0 / 3.0, 0.03})
    EXPECT_EQ(field_matches_printf(edge), std::nullopt) << printf_field(edge);
}

/// simulation_cache_key as every earlier build spelled it: the same field
/// layout, each field through printf.
std::string printf_simulation_key(const DseContext& context, const sim::SystemConfig& config) {
  const WorkloadSpec& w = context.workload;
  const sim::HierarchyConfig& h = config.hierarchy;
  std::string key = w.uid + "|" + printf_field(w.f_seq) + w.g.description() + "|";
  for (const double n : {1.0, 2.0, 7.0, 64.0, static_cast<double>(h.cores)})
    key += printf_field(w.g(n)) + printf_field(w.g.memory_scale(n));
  for (const std::uint64_t v : {context.seed, context.instructions0, context.per_core_cap,
                                std::uint64_t{h.cores}, std::uint64_t{config.core.issue_width},
                                std::uint64_t{config.core.rob_size},
                                std::uint64_t{config.core.functional_units}, std::uint64_t{h.cores}})
    key += printf_field(v);
  for (const sim::CacheGeometry& geometry : {h.l1_geometry, h.l2_geometry})
    for (const std::uint64_t v : {geometry.size_bytes, std::uint64_t{geometry.line_bytes},
                                  std::uint64_t{geometry.associativity}})
      key += printf_field(v);
  for (const std::uint64_t v :
       {std::uint64_t{h.l1_hit_latency}, std::uint64_t{h.l1_banks},
        std::uint64_t{h.l1_ports_per_bank}, std::uint64_t{h.l1_mshr_entries},
        std::uint64_t{h.l2_hit_latency}, std::uint64_t{h.l2_banks},
        std::uint64_t{h.l2_ports_per_bank}, std::uint64_t{h.l2_mshr_entries},
        std::uint64_t{h.noc.nodes}, std::uint64_t{h.noc.hop_latency},
        std::uint64_t{h.noc.injection_latency}})
    key += printf_field(v);
  key += printf_field(h.noc.congestion_per_load);
  for (const std::uint64_t v :
       {std::uint64_t{h.dram.banks}, std::uint64_t{h.dram.lines_per_row},
        std::uint64_t{h.dram.t_cas}, std::uint64_t{h.dram.t_rcd}, std::uint64_t{h.dram.t_rp},
        std::uint64_t{h.dram.t_bus}, std::uint64_t{h.perfect_memory ? 1u : 0u},
        static_cast<std::uint64_t>(h.l1_prefetch.kind), std::uint64_t{h.l1_prefetch.degree},
        std::uint64_t{h.l1_prefetch.stream_table}, std::uint64_t{h.l1_prefetch.confidence},
        std::uint64_t{h.coherence ? 1u : 0u}})
    key += printf_field(v);
  return key;
}

TEST(KeyFieldFormat, EveryLargeAxesKeyMatchesThePrintfLayout) {
  const DseContext context = tiny_context();
  ASSERT_EQ(simulation_cache_key(context, config_for_design(context, kPoint)),
            printf_simulation_key(context, config_for_design(context, kPoint)));
  std::size_t points = 0;
  make_design_space(make_large_axes()).for_each([&](std::size_t, const std::vector<double>& point) {
    const sim::SystemConfig config = config_for_design(context, point);
    ASSERT_EQ(simulation_cache_key(context, config), printf_simulation_key(context, config))
        << "point " << points;
    ++points;
  });
  EXPECT_EQ(points, 122'880u);
}

}  // namespace
}  // namespace c2b
