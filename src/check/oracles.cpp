#include "c2b/check/oracles.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <mutex>
#include <sstream>
#include <tuple>
#include <utility>

#include "c2b/common/assert.h"

#include "c2b/aps/aps.h"
#include "c2b/aps/characterize.h"
#include "c2b/check/generators.h"
#include "c2b/core/optimizer.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/obs.h"
#include "c2b/sim/system/batched.h"
#include "c2b/trace/chunk_store.h"

namespace c2b::check {
namespace {

/// Bitwise double equality — the determinism contract is bit-identity, not
/// epsilon closeness (and NaN == NaN under this comparison).
bool bit_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// Saves the process-global execution knobs the oracles twiddle (pool
/// size, sim-cache switch) and restores defaults on scope exit.
struct ExecStateGuard {
  bool cache_was_enabled = exec::SimCache::global().enabled();
  ~ExecStateGuard() {
    exec::set_thread_count(0);
    exec::SimCache::global().set_enabled(cache_was_enabled);
    exec::SimCache::global().clear();
  }
};

/// The baseline machine the analytic-vs-sim oracle characterizes on (same
/// shape the APS tests and the CLI default use).
sim::SystemConfig oracle_baseline() {
  sim::SystemConfig config;
  config.core.issue_width = 4;
  config.core.rob_size = 128;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64,
                                  .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 256 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  const auto index = static_cast<std::size_t>(rng.uniform_below(values.size()));
  return *(values.begin() + static_cast<std::ptrdiff_t>(index));
}

}  // namespace

OracleReport run_analytic_vs_sim_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "analytic_vs_sim";

  // Asserted agreement bands. The calibrated model anchors the measured
  // CPI at the baseline configuration, so nearby designs track closely;
  // across the whole sampled space the miss power laws only approximate
  // the simulator's set-associative behavior, hence the generous max.
  // (The paper's 5.96% figure is at APS's *chosen* design, not at random
  // points.) Bands are asserted per workload and exported for trending;
  // the bounds are ~2x the worst errors observed across seeds, so a pass
  // means "no regression", not "model is exact". gups is the extreme:
  // zero locality makes its true miss curve flat, the power law's worst
  // fit, so it earns a wider calibrated band.
  const double kMeanTolerance = 0.60;
  const double kMaxTolerance = 1.50;
  // fluidanimate's phase changes make the characterization window
  // seed-sensitive, so its calibration anchor (and thus the whole band)
  // moves more than the steady-state workloads'.
  auto band_tolerances = [&](const std::string& name) {
    if (name == "gups") return std::pair<double, double>{0.90, 3.00};
    if (name == "fluidanimate_like") return std::pair<double, double>{1.00, 2.00};
    return std::pair<double, double>{kMeanTolerance, kMaxTolerance};
  };

  std::size_t workload_index = 0;
  for (const WorkloadSpec& spec : workload_catalog()) {
    DseContext context;
    context.base = oracle_baseline();
    context.workload = spec;
    context.instructions0 = 24'000;
    context.per_core_cap = 12'000;
    context.seed = Rng::derive_stream_seed(options.seed, 7'000 + workload_index);

    CharacterizeOptions copt;
    copt.instructions = 60'000;
    copt.seed = context.seed;
    const Characterization c = characterize(spec, context.base, copt);
    const C2BoundModel model = build_calibrated_model(context, c);

    ToleranceBand band;
    band.workload = spec.name;
    std::tie(band.mean_tolerance, band.max_tolerance) = band_tolerances(spec.name);

    // Sample designs at the characterized core microarchitecture
    // (issue 4 / ROB 128): the analytic model deliberately does not see
    // the issue/ROB axes, so varying them would measure scope, not error.
    Rng rng(Rng::derive_stream_seed(options.seed, workload_index));
    double error_sum = 0.0;
    for (std::size_t s = 0; s < options.designs_per_workload; ++s) {
      const double a0 = pick(rng, {1.0, 2.0, 4.0});
      const double a1 = pick(rng, {0.5, 1.0, 2.0});
      const double a2 = pick(rng, {1.0, 2.0, 4.0});
      const double n = pick(rng, {1.0, 2.0, 4.0});
      const std::vector<double> point{a0, a1, a2, n, 4.0, 128.0};
      if (!design_feasible(context, point)) continue;

      const double sim_time = simulate_design_time(context, point);
      const Evaluation eval =
          model.evaluate({.n_cores = n, .a0 = a0, .a1 = a1, .a2 = a2});
      // simulate_design_time reports time per unit work (J_D / g(N));
      // normalize the analytic J_D the same way before comparing.
      const double analytic_time = eval.execution_time / model.app().g(n);

      ++report.checks;
      ++band.samples;
      const double err =
          std::abs(analytic_time - sim_time) / std::max(1e-12, sim_time);
      error_sum += err;
      band.max_abs_rel_error = std::max(band.max_abs_rel_error, err);
    }
    if (band.samples > 0)
      band.mean_abs_rel_error = error_sum / static_cast<double>(band.samples);
    band.passed = band.samples > 0 &&
                  band.mean_abs_rel_error <= band.mean_tolerance &&
                  band.max_abs_rel_error <= band.max_tolerance;
    if (!band.passed) {
      std::ostringstream os;
      os << "analytic-vs-sim band violated for workload '" << spec.name
         << "': mean " << fmt(band.mean_abs_rel_error) << " (tol "
         << fmt(band.mean_tolerance) << "), max " << fmt(band.max_abs_rel_error)
         << " (tol " << fmt(band.max_tolerance) << ") over " << band.samples
         << " designs; repro: " << repro_line(options.seed, workload_index);
      report.failures.push_back(os.str());
    }
    report.bands.push_back(band);
    ++workload_index;
  }
  return report;
}

namespace {

/// One thread-count's view of a full-DSE sweep, flattened for comparison.
struct SweepFingerprint {
  std::vector<double> times;
  std::size_t best_index = 0;
  double best_time = 0.0;
  std::size_t simulations = 0;
};

SweepFingerprint fingerprint(const FullDseResult& r) {
  return {r.times, r.best_index, r.best_time, r.simulations};
}

std::optional<std::string> compare_fingerprints(const SweepFingerprint& ref,
                                                std::size_t ref_threads,
                                                const SweepFingerprint& got,
                                                std::size_t got_threads) {
  std::ostringstream os;
  if (got.times.size() != ref.times.size() || got.simulations != ref.simulations ||
      got.best_index != ref.best_index || !bit_equal(got.best_time, ref.best_time)) {
    os << "threads=" << got_threads << " vs threads=" << ref_threads
       << ": summary diverged (best_index " << got.best_index << " vs "
       << ref.best_index << ", best_time " << fmt(got.best_time) << " vs "
       << fmt(ref.best_time) << ", simulations " << got.simulations << " vs "
       << ref.simulations << ")";
    return os.str();
  }
  for (std::size_t i = 0; i < ref.times.size(); ++i) {
    if (!bit_equal(got.times[i], ref.times[i])) {
      os << "threads=" << got_threads << " vs threads=" << ref_threads
         << ": times[" << i << "] " << fmt(got.times[i]) << " != "
         << fmt(ref.times[i]);
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace

OracleReport run_determinism_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "determinism";
  C2B_REQUIRE(!options.thread_counts.empty(), "determinism oracle needs thread counts");
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();

  for (std::size_t i = 0; i < options.dse_configs; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 10'000 + i));
    const DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);
    const std::string repro = repro_line(options.seed, 10'000 + i);

    // Thread-count sweep with the cache off, so every run recomputes and
    // the comparison exercises the parallel execution paths for real.
    cache.set_enabled(false);
    std::optional<SweepFingerprint> reference;
    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      const SweepFingerprint fp = fingerprint(run_full_dse(scenario.context, space));
      ++report.checks;
      if (!reference) {
        reference = fp;
        continue;
      }
      if (auto diff = compare_fingerprints(*reference, options.thread_counts.front(),
                                           fp, threads)) {
        report.failures.push_back("DSE config #" + std::to_string(i) + " (" +
                                  print_dse_scenario(scenario) + "): " + *diff +
                                  "; repro: " + repro);
        break;
      }
    }

    // Warm sim-cache identity: a cold populating run followed by a fully
    // replayed run must reproduce the cold result bit for bit.
    cache.set_enabled(true);
    cache.clear();
    exec::set_thread_count(options.thread_counts.back());
    const SweepFingerprint cold = fingerprint(run_full_dse(scenario.context, space));
    const SweepFingerprint warm = fingerprint(run_full_dse(scenario.context, space));
    ++report.checks;
    if (auto diff = compare_fingerprints(cold, options.thread_counts.back(), warm,
                                         options.thread_counts.back())) {
      report.failures.push_back("DSE config #" + std::to_string(i) +
                                " warm-cache replay diverged: " + *diff +
                                "; repro: " + repro);
    } else {
      const exec::SimCacheStats stats = cache.stats();
      if (stats.hits < cold.simulations) {
        report.failures.push_back(
            "DSE config #" + std::to_string(i) + " warm run hit the cache only " +
            std::to_string(stats.hits) + " times for " +
            std::to_string(cold.simulations) + " simulations; repro: " + repro);
      }
    }
    if (reference && bit_equal(reference->best_time, 0.0) && reference->simulations == 0)
      report.failures.push_back("DSE config #" + std::to_string(i) +
                                " simulated nothing (generator bug); repro: " + repro);
  }

  // APS end to end (characterize + analytic solve + neighborhood) across
  // thread counts: the expensive half of the PR 2 contract, so fewer
  // configurations.
  for (std::size_t i = 0; i < options.aps_configs; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 20'000 + i));
    const DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);
    const std::string repro = repro_line(options.seed, 20'000 + i);
    ApsOptions aps_options;
    aps_options.characterize.instructions = 30'000;
    aps_options.characterize.seed = scenario.context.seed;

    cache.set_enabled(false);
    std::optional<ApsResult> reference;
    std::size_t reference_threads = 0;
    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      const ApsResult run = run_aps(scenario.context, space, aps_options);
      ++report.checks;
      if (!reference) {
        reference = run;
        reference_threads = threads;
        continue;
      }
      std::ostringstream os;
      if (run.best_index != reference->best_index ||
          !bit_equal(run.best_time, reference->best_time) ||
          run.memory_accesses != reference->memory_accesses ||
          run.simulated_indices != reference->simulated_indices ||
          !bit_equal(run.analytic.best.execution_time,
                     reference->analytic.best.execution_time)) {
        os << "APS config #" << i << " (" << print_dse_scenario(scenario)
           << "): threads=" << threads << " vs threads=" << reference_threads
           << " diverged (best_index " << run.best_index << " vs "
           << reference->best_index << ", best_time " << fmt(run.best_time)
           << " vs " << fmt(reference->best_time) << ", accesses "
           << run.memory_accesses << " vs " << reference->memory_accesses
           << ", analytic " << fmt(run.analytic.best.execution_time) << " vs "
           << fmt(reference->analytic.best.execution_time)
           << "); repro: " << repro;
        report.failures.push_back(os.str());
        break;
      }
    }
  }
  return report;
}

namespace {

/// Random model-evaluation case for the structural-bound properties.
struct ModelCase {
  AppProfile app;
  MachineProfile machine;
  DesignPoint design;
};

ModelCase gen_model_case(Rng& rng) {
  ModelCase mc;
  mc.app = gen_app_profile(rng);
  mc.machine = gen_machine_profile(rng);
  const ChipConstraints& chip = mc.machine.chip;
  const long long n_max = std::min<long long>(8, chip.max_cores());
  const double n = static_cast<double>(rng.uniform_int(1, std::max<long long>(1, n_max)));
  const AreaSplit split = gen_area_split(rng, chip, chip.per_core_budget(n));
  mc.design = DesignPoint{.n_cores = n, .a0 = split.a0, .a1 = split.a1, .a2 = split.a2};
  return mc;
}

std::string print_model_case(const ModelCase& mc) {
  std::ostringstream os;
  os << print_app_profile(mc.app) << " design{n=" << mc.design.n_cores
     << ", a0=" << mc.design.a0 << ", a1=" << mc.design.a1 << ", a2=" << mc.design.a2
     << "} chip{A=" << mc.machine.chip.total_area << ", Ac=" << mc.machine.chip.shared_area
     << "}";
  return os.str();
}

void run_engine_property(const Property<ModelCase>& property, const OracleOptions& options,
                         OracleReport& report) {
  CheckOptions check_options;
  check_options.seed = options.seed;
  check_options.cases = options.invariant_cases;
  check_options.corpus_dir = options.corpus_dir;
  const CheckResult result = check(property, check_options);
  report.checks += result.cases_run;
  if (!result.passed) report.failures.push_back(result.summary());
}

}  // namespace

OracleReport run_invariant_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "invariants";

  // --- model structural bounds, via the property engine -------------------
  // Validity domain: the generators keep pAMP <= AMP and pMR <= MR, the
  // regime where C-AMAT <= AMAT and C >= 1 are theorems of Eq. (2).
  Property<ModelCase> bounds;
  bounds.name = "model_structural_bounds";
  bounds.generate = gen_model_case;
  bounds.print = print_model_case;
  bounds.holds = [](const ModelCase& mc) -> std::optional<std::string> {
    const C2BoundModel model(mc.app, mc.machine);
    const Evaluation eval = model.evaluate(mc.design);
    const MachineProfile& m = mc.machine;
    auto fail = [&](const std::string& what) {
      return std::optional<std::string>(what + " at n=" + std::to_string(mc.design.n_cores));
    };
    if (!(std::isfinite(eval.execution_time) && eval.execution_time > 0.0))
      return fail("execution_time not finite positive: " + fmt(eval.execution_time));
    if (eval.camat > eval.amat * (1.0 + 1e-9))
      return fail("C-AMAT " + fmt(eval.camat) + " > AMAT " + fmt(eval.amat));
    if (eval.concurrency_c < 1.0 - 1e-9)
      return fail("concurrency C " + fmt(eval.concurrency_c) + " < 1");
    if (eval.l1_miss_rate < m.l1_miss.mr_floor - 1e-12 ||
        eval.l1_miss_rate > m.l1_miss.mr_cap + 1e-12)
      return fail("L1 miss rate " + fmt(eval.l1_miss_rate) + " outside [floor, cap]");
    if (eval.l2_local_miss_rate < m.l2_miss.mr_floor - 1e-12 ||
        eval.l2_local_miss_rate > m.l2_miss.mr_cap + 1e-12)
      return fail("L2 miss rate " + fmt(eval.l2_local_miss_rate) + " outside [floor, cap]");
    const double throughput = eval.problem_size / eval.execution_time;
    if (std::abs(eval.throughput - throughput) > 1e-9 * std::max(1.0, throughput))
      return fail("throughput " + fmt(eval.throughput) + " != W/T " + fmt(throughput));
    return std::nullopt;
  };
  run_engine_property(bounds, options, report);

  // Pollack + area monotonicity: growing the core (CPI_exe) or the whole
  // per-core split (execution time at fixed N) can never hurt.
  Property<ModelCase> monotone;
  monotone.name = "model_area_monotonicity";
  monotone.generate = gen_model_case;
  monotone.print = print_model_case;
  monotone.holds = [](const ModelCase& mc) -> std::optional<std::string> {
    const C2BoundModel model(mc.app, mc.machine);
    const Evaluation base = model.evaluate(mc.design);
    for (const double factor : {1.3, 2.0}) {
      DesignPoint bigger = mc.design;
      bigger.a0 *= factor;
      bigger.a1 *= factor;
      bigger.a2 *= factor;
      const Evaluation grown = model.evaluate(bigger);
      const double slack = 1e-9 * std::max(1.0, base.execution_time);
      if (grown.cpi_exe > base.cpi_exe + 1e-12)
        return "CPI_exe rose from " + fmt(base.cpi_exe) + " to " + fmt(grown.cpi_exe) +
               " when a0 grew x" + fmt(factor) + " (Pollack must be monotone)";
      if (grown.execution_time > base.execution_time + slack)
        return "execution time rose from " + fmt(base.execution_time) + " to " +
               fmt(grown.execution_time) + " when every area grew x" + fmt(factor);
    }
    return std::nullopt;
  };
  run_engine_property(monotone, options, report);

  // --- area conservation at every optimizer iterate (Eq. 12) --------------
  for (std::size_t i = 0; i < 6; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 30'000 + i));
    const AppProfile app = gen_app_profile(rng);
    const MachineProfile machine = gen_machine_profile(rng);
    const ChipConstraints chip = machine.chip;

    std::mutex mu;
    double worst_residual = -std::numeric_limits<double>::infinity();
    double worst_min_area = std::numeric_limits<double>::infinity();
    std::size_t observed = 0;

    OptimizerOptions opt;
    opt.n_max = std::min<long long>(6, chip.max_cores());
    opt.nelder_mead_restarts = 2;
    opt.iterate_observer = [&](const DesignPoint& d) {
      const double residual = chip.area_residual(d);
      const double min_area = std::min({d.a0, d.a1, d.a2});
      std::lock_guard<std::mutex> lock(mu);
      worst_residual = std::max(worst_residual, residual);
      worst_min_area = std::min(worst_min_area, min_area);
      ++observed;
    };
    const C2BoundOptimizer optimizer(C2BoundModel(app, machine), opt);
    optimizer.optimize();

    ++report.checks;
    const std::string repro = repro_line(options.seed, 30'000 + i);
    if (observed == 0) {
      report.failures.push_back("area oracle #" + std::to_string(i) +
                                ": optimizer never invoked the iterate observer; repro: " +
                                repro);
      continue;
    }
    // NM candidates satisfy Eq. (12) with equality by construction; the
    // Lagrange polish is accepted only within chip.feasible(1e-4). Allow
    // that acceptance slack, scaled to the chip.
    const double tolerance = 1e-3 * chip.total_area + 1e-6;
    if (worst_residual > tolerance)
      report.failures.push_back("area oracle #" + std::to_string(i) + ": iterate violated Eq. 12 by " +
                                fmt(worst_residual) + " (tolerance " + fmt(tolerance) +
                                ", A=" + fmt(chip.total_area) + "); repro: " + repro);
    if (!(worst_min_area > 0.0))
      report.failures.push_back("area oracle #" + std::to_string(i) +
                                ": iterate had a non-positive area (min " +
                                fmt(worst_min_area) + "); repro: " + repro);
  }

  // --- telemetry ledger ----------------------------------------------------
  // sim.l1.hit + sim.l1.miss + exec.simcache.replayed_accesses must equal
  // the demand accesses the run reports, with replays covering the cached
  // second run. Needs live telemetry; skipped silently under
  // C2B_OBS_DISABLED builds or obs::set_enabled(false).
  if (C2B_OBS_ACTIVE()) {
    ExecStateGuard guard;
    exec::SimCache& cache = exec::SimCache::global();
    for (std::size_t i = 0; i < options.ledger_configs; ++i) {
      Rng rng(Rng::derive_stream_seed(options.seed, 40'000 + i));
      const DseScenario scenario = gen_dse_scenario(rng);
      const GridSpace space = make_design_space(scenario.axes);
      ApsOptions aps_options;
      aps_options.characterize.instructions = 30'000;
      aps_options.characterize.seed = scenario.context.seed;

      exec::set_thread_count(2);
      cache.set_enabled(true);
      cache.clear();
      obs::Registry::global().reset_values();

      const ApsResult first = run_aps(scenario.context, space, aps_options);
      const ApsResult second = run_aps(scenario.context, space, aps_options);
      const std::uint64_t reported = first.memory_accesses + second.memory_accesses;
      obs::Registry& registry = obs::Registry::global();
      const std::uint64_t hits = registry.counter("sim.l1.hit").value();
      const std::uint64_t misses = registry.counter("sim.l1.miss").value();
      const std::uint64_t replayed =
          registry.counter("exec.simcache.replayed_accesses").value();
      ++report.checks;
      if (hits + misses + replayed != reported) {
        std::ostringstream os;
        os << "ledger #" << i << " (" << print_dse_scenario(scenario)
           << "): sim.l1.hit " << hits << " + sim.l1.miss " << misses
           << " + replayed " << replayed << " = " << (hits + misses + replayed)
           << " != reported accesses " << reported
           << "; repro: " << repro_line(options.seed, 40'000 + i);
        report.failures.push_back(os.str());
      }
    }
  }
  return report;
}

namespace {

/// First field-level difference between two SystemResults, or nullopt when
/// they are bitwise identical. Integers compare exactly; doubles compare by
/// bit pattern (the kernel contract is bit-identity, not closeness). Every
/// field of CoreResult, TimelineMetrics, and HierarchyStats is listed —
/// adding a field to those structs without extending this comparator is
/// what the field-count asserts in test_sim_kernel_equiv guard against.
std::optional<std::string> diff_system_results(const sim::SystemResult& a,
                                               const sim::SystemResult& b) {
  std::ostringstream os;
  auto u64 = [&](const std::string& label, std::uint64_t x, std::uint64_t y) {
    if (x == y) return false;
    os << label << " " << x << " != " << y;
    return true;
  };
  auto dbl = [&](const std::string& label, double x, double y) {
    if (bit_equal(x, y)) return false;
    os << label << " " << fmt(x) << " != " << fmt(y);
    return true;
  };

  if (a.cores.size() != b.cores.size())
    return "core count " + std::to_string(a.cores.size()) + " != " +
           std::to_string(b.cores.size());
  if (u64("cycles", a.cycles, b.cycles)) return os.str();

  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    const sim::CoreResult& x = a.cores[c];
    const sim::CoreResult& y = b.cores[c];
    const std::string p = "cores[" + std::to_string(c) + "].";
    if (u64(p + "instructions", x.instructions, y.instructions) ||
        u64(p + "memory_accesses", x.memory_accesses, y.memory_accesses) ||
        u64(p + "cycles", x.cycles, y.cycles) || dbl(p + "cpi", x.cpi, y.cpi) ||
        dbl(p + "f_mem", x.f_mem, y.f_mem))
      return os.str();
    const TimelineMetrics& m = x.camat;
    const TimelineMetrics& n = y.camat;
    const std::string q = p + "camat.";
    if (u64(q + "accesses", m.accesses, n.accesses) ||
        u64(q + "misses", m.misses, n.misses) ||
        u64(q + "pure_misses", m.pure_misses, n.pure_misses) ||
        u64(q + "hit_cycle_count", m.hit_cycle_count, n.hit_cycle_count) ||
        u64(q + "hit_access_cycles", m.hit_access_cycles, n.hit_access_cycles) ||
        u64(q + "pure_miss_cycle_count", m.pure_miss_cycle_count, n.pure_miss_cycle_count) ||
        u64(q + "pure_miss_access_cycles", m.pure_miss_access_cycles,
            n.pure_miss_access_cycles) ||
        u64(q + "memory_active_cycles", m.memory_active_cycles, n.memory_active_cycles) ||
        dbl(q + "amat_params.hit_time", m.amat_params.hit_time, n.amat_params.hit_time) ||
        dbl(q + "amat_params.miss_rate", m.amat_params.miss_rate, n.amat_params.miss_rate) ||
        dbl(q + "amat_params.miss_penalty", m.amat_params.miss_penalty,
            n.amat_params.miss_penalty) ||
        dbl(q + "camat_params.hit_time", m.camat_params.hit_time, n.camat_params.hit_time) ||
        dbl(q + "camat_params.hit_concurrency", m.camat_params.hit_concurrency,
            n.camat_params.hit_concurrency) ||
        dbl(q + "camat_params.pure_miss_rate", m.camat_params.pure_miss_rate,
            n.camat_params.pure_miss_rate) ||
        dbl(q + "camat_params.pure_miss_penalty", m.camat_params.pure_miss_penalty,
            n.camat_params.pure_miss_penalty) ||
        dbl(q + "camat_params.miss_concurrency", m.camat_params.miss_concurrency,
            n.camat_params.miss_concurrency) ||
        dbl(q + "amat_value", m.amat_value, n.amat_value) ||
        dbl(q + "camat_value", m.camat_value, n.camat_value) ||
        dbl(q + "camat_direct", m.camat_direct, n.camat_direct) ||
        dbl(q + "apc", m.apc, n.apc) ||
        dbl(q + "concurrency_c", m.concurrency_c, n.concurrency_c))
      return os.str();
  }

  const sim::HierarchyStats& h = a.hierarchy;
  const sim::HierarchyStats& k = b.hierarchy;
  if (dbl("hierarchy.l1_miss_ratio", h.l1_miss_ratio, k.l1_miss_ratio) ||
      dbl("hierarchy.l2_miss_ratio", h.l2_miss_ratio, k.l2_miss_ratio) ||
      dbl("hierarchy.apc_l1", h.apc_l1, k.apc_l1) ||
      dbl("hierarchy.apc_l2", h.apc_l2, k.apc_l2) ||
      dbl("hierarchy.apc_mem", h.apc_mem, k.apc_mem) ||
      u64("hierarchy.l1_accesses", h.l1_accesses, k.l1_accesses) ||
      u64("hierarchy.l2_accesses", h.l2_accesses, k.l2_accesses) ||
      u64("hierarchy.dram_accesses", h.dram_accesses, k.dram_accesses) ||
      dbl("hierarchy.dram_row_hit_ratio", h.dram_row_hit_ratio, k.dram_row_hit_ratio) ||
      dbl("hierarchy.dram_average_latency", h.dram_average_latency, k.dram_average_latency) ||
      u64("hierarchy.l1_mshr_merges", h.l1_mshr_merges, k.l1_mshr_merges) ||
      u64("hierarchy.l1_mshr_full_stalls", h.l1_mshr_full_stalls, k.l1_mshr_full_stalls) ||
      dbl("hierarchy.noc_average_hops", h.noc_average_hops, k.noc_average_hops) ||
      u64("hierarchy.l1_writebacks", h.l1_writebacks, k.l1_writebacks) ||
      u64("hierarchy.l2_writebacks", h.l2_writebacks, k.l2_writebacks) ||
      u64("hierarchy.prefetches_issued", h.prefetches_issued, k.prefetches_issued) ||
      u64("hierarchy.prefetch_useful_hits", h.prefetch_useful_hits, k.prefetch_useful_hits) ||
      dbl("hierarchy.prefetch_accuracy", h.prefetch_accuracy, k.prefetch_accuracy) ||
      u64("hierarchy.coherence_invalidations", h.coherence_invalidations,
          k.coherence_invalidations) ||
      u64("hierarchy.coherence_owner_transfers", h.coherence_owner_transfers,
          k.coherence_owner_transfers) ||
      u64("hierarchy.coherence_upgrades", h.coherence_upgrades, k.coherence_upgrades))
    return os.str();
  return std::nullopt;
}

/// gen_trace may produce an empty trace; the simulator requires at least
/// one record per core, so pad with a single compute instruction.
Trace gen_nonempty_trace(Rng& rng, std::size_t max_records) {
  Trace trace = gen_trace(rng, max_records);
  if (trace.records.empty()) trace.records.push_back({InstrKind::kCompute, false, 0});
  return trace;
}

}  // namespace

OracleReport run_kernel_equivalence_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "kernel";

  // --- event kernel vs per-cycle reference, bitwise -----------------------
  // Random configurations with coherence and prefetching forced on for a
  // share of the cases (the stock generator leaves both off), random
  // per-core traces, and — when telemetry is live — the demand-access
  // ledger sim.l1.hit + sim.l1.miss == reported accesses for each run.
  for (std::size_t i = 0; i < options.kernel_configs; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 50'000 + i));
    const std::string repro = repro_line(options.seed, 50'000 + i);
    sim::SystemConfig config = gen_system_config(rng);
    if (config.hierarchy.cores > 1 && rng.bernoulli(0.4)) config.hierarchy.coherence = true;
    config.hierarchy.l1_prefetch.kind =
        pick(rng, {sim::PrefetchKind::kNone, sim::PrefetchKind::kNone,
                   sim::PrefetchKind::kNextLine, sim::PrefetchKind::kStride});

    const std::size_t trace_count =
        1 + static_cast<std::size_t>(rng.uniform_below(config.hierarchy.cores));
    std::vector<Trace> traces;
    traces.reserve(trace_count);
    for (std::size_t t = 0; t < trace_count; ++t)
      traces.push_back(gen_nonempty_trace(rng, 512));

    if (C2B_OBS_ACTIVE()) obs::Registry::global().reset_values();
    const sim::SystemResult event_run = sim::simulate_system(config, traces);
    if (C2B_OBS_ACTIVE()) {
      std::uint64_t reported = 0;
      for (const sim::CoreResult& core : event_run.cores) reported += core.memory_accesses;
      obs::Registry& registry = obs::Registry::global();
      const std::uint64_t hits = registry.counter("sim.l1.hit").value();
      const std::uint64_t misses = registry.counter("sim.l1.miss").value();
      ++report.checks;
      if (hits + misses != reported) {
        std::ostringstream os;
        os << "kernel case #" << i << " ledger: sim.l1.hit " << hits << " + sim.l1.miss "
           << misses << " != reported accesses " << reported << "; repro: " << repro;
        report.failures.push_back(os.str());
      }
    }
    const sim::SystemResult reference_run = sim::simulate_system_reference(config, traces);

    ++report.checks;
    if (auto diff = diff_system_results(event_run, reference_run)) {
      report.failures.push_back("kernel case #" + std::to_string(i) + " (" +
                                print_system_config(config) + "): event vs reference " +
                                *diff + "; repro: " + repro);
    }
  }

  // --- streaming cursor vs materialized trace, bitwise --------------------
  // Catalog-workload generator streams replayed two ways: materialized via
  // TraceGenerator::generate and chunk-at-a-time via GeneratorTraceCursor
  // with a deliberately small chunk (many refills). Also asserts the
  // cursor's O(chunk) residency contract.
  const std::size_t streaming_cases = std::max<std::size_t>(2, options.kernel_configs / 4);
  for (std::size_t i = 0; i < streaming_cases; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 51'000 + i));
    const std::string repro = repro_line(options.seed, 51'000 + i);
    const sim::SystemConfig config = gen_system_config(rng);
    const WorkloadSpec spec = gen_workload_spec(rng);
    const double scale = pick(rng, {1.0, 2.0, 4.0});
    const std::uint64_t window = 2'000 + rng.uniform_below(6'000);
    const std::size_t chunk = pick<std::size_t>(rng, {64, 257, 1024});
    const std::uint64_t stream_seed = rng.next();

    const std::size_t n = config.hierarchy.cores;
    std::vector<Trace> traces;
    traces.reserve(n);
    std::vector<GeneratorTraceCursor> cursors;
    cursors.reserve(n);
    std::vector<TraceCursor*> cursor_ptrs;
    cursor_ptrs.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      const std::uint64_t core_seed =
          Rng::derive_stream_seed(stream_seed, static_cast<std::uint64_t>(c));
      traces.push_back(spec.make_generator(scale, core_seed)->generate(window));
      cursors.emplace_back(spec.make_generator(scale, core_seed), window, chunk);
      cursor_ptrs.push_back(&cursors.back());
    }

    const sim::SystemResult materialized = sim::simulate_system(config, traces);
    const sim::SystemResult streamed = sim::simulate_system_streaming(config, cursor_ptrs);
    ++report.checks;
    if (auto diff = diff_system_results(streamed, materialized)) {
      report.failures.push_back("streaming case #" + std::to_string(i) + " (workload " +
                                spec.name + ", chunk " + std::to_string(chunk) +
                                "): streamed vs materialized " + *diff + "; repro: " + repro);
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (cursors[c].max_resident_records() > chunk) {
        report.failures.push_back(
            "streaming case #" + std::to_string(i) + " core " + std::to_string(c) +
            " kept " + std::to_string(cursors[c].max_resident_records()) +
            " records resident (chunk " + std::to_string(chunk) + "); repro: " + repro);
      }
    }
  }
  return report;
}

OracleReport run_batch_equivalence_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "batch";
  C2B_REQUIRE(!options.thread_counts.empty(), "batch oracle needs thread counts");
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();

  for (std::size_t i = 0; i < options.batch_sets; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 60'000 + i));
    const DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);
    const std::string repro = repro_line(options.seed, 60'000 + i);

    // Random feasible design-point subset (~70% of the grid, at least one
    // point — gen_dse_scenario guarantees a feasible minimum exists).
    std::vector<std::vector<double>> points;
    space.for_each([&](std::size_t, const std::vector<double>& point) {
      if (!design_feasible(scenario.context, point)) return;
      if (rng.bernoulli(0.7)) points.push_back(point);
    });
    if (points.empty()) {
      space.for_each([&](std::size_t, const std::vector<double>& point) {
        if (points.empty() && design_feasible(scenario.context, point)) points.push_back(point);
      });
    }
    if (points.empty()) {
      report.failures.push_back("batch set #" + std::to_string(i) +
                                " found no feasible point (generator bug); repro: " + repro);
      continue;
    }

    // Per-point reference with the cache off: every design really
    // simulates, one at a time, through the unbatched path.
    cache.set_enabled(false);
    exec::set_thread_count(1);
    std::vector<double> ref_times(points.size(), 0.0);
    std::vector<std::uint64_t> ref_accesses(points.size(), 0);
    for (std::size_t j = 0; j < points.size(); ++j)
      ref_times[j] = simulate_design_time(scenario.context, points[j], &ref_accesses[j]);

    const auto diff_outcomes = [&](const std::vector<BatchSimOutcome>& outcomes)
        -> std::optional<std::string> {
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (!bit_equal(outcomes[j].time, ref_times[j]))
          return "point " + std::to_string(j) + " time " + fmt(outcomes[j].time) +
                 " != per-point " + fmt(ref_times[j]);
        if (outcomes[j].memory_accesses != ref_accesses[j])
          return "point " + std::to_string(j) + " accesses " +
                 std::to_string(outcomes[j].memory_accesses) + " != per-point " +
                 std::to_string(ref_accesses[j]);
      }
      return std::nullopt;
    };

    // Batched replay at every thread count must reproduce the per-point
    // reference bitwise, account for every point exactly once, and keep
    // the telemetry ledger balanced.
    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      if (C2B_OBS_ACTIVE()) obs::Registry::global().reset_values();
      BatchReplayStats stats;
      const std::vector<BatchSimOutcome> outcomes =
          simulate_design_times_batched(scenario.context, points, &stats);
      ++report.checks;
      if (auto diff = diff_outcomes(outcomes)) {
        report.failures.push_back("batch set #" + std::to_string(i) + " (" +
                                  print_dse_scenario(scenario) + ", " +
                                  std::to_string(points.size()) + " points) threads=" +
                                  std::to_string(threads) + ": " + *diff +
                                  "; repro: " + repro);
        break;
      }
      if (stats.members + stats.cache_hits != points.size() || stats.cache_hits != 0) {
        report.failures.push_back(
            "batch set #" + std::to_string(i) + " threads=" + std::to_string(threads) +
            ": accounting off (members " + std::to_string(stats.members) + " + hits " +
            std::to_string(stats.cache_hits) + " != " + std::to_string(points.size()) +
            " points with the cache disabled); repro: " + repro);
      }
      if (C2B_OBS_ACTIVE()) {
        std::uint64_t reported = 0;
        for (const BatchSimOutcome& o : outcomes) reported += o.memory_accesses;
        obs::Registry& registry = obs::Registry::global();
        const std::uint64_t hits = registry.counter("sim.l1.hit").value();
        const std::uint64_t misses = registry.counter("sim.l1.miss").value();
        const std::uint64_t replayed =
            registry.counter("exec.simcache.replayed_accesses").value();
        ++report.checks;
        if (hits + misses + replayed != reported) {
          std::ostringstream os;
          os << "batch set #" << i << " threads=" << threads << " ledger: sim.l1.hit "
             << hits << " + sim.l1.miss " << misses << " + replayed " << replayed
             << " != reported accesses " << reported << "; repro: " << repro;
          report.failures.push_back(os.str());
        }
      }
    }

    // Warm path: a batched run bulk-inserts its results; a second batched
    // run and per-point runs must replay those exact values.
    cache.set_enabled(true);
    cache.clear();
    exec::set_thread_count(options.thread_counts.back());
    BatchReplayStats cold_stats;
    const std::vector<BatchSimOutcome> cold =
        simulate_design_times_batched(scenario.context, points, &cold_stats);
    BatchReplayStats warm_stats;
    const std::vector<BatchSimOutcome> warm =
        simulate_design_times_batched(scenario.context, points, &warm_stats);
    ++report.checks;
    if (auto diff = diff_outcomes(cold)) {
      report.failures.push_back("batch set #" + std::to_string(i) +
                                " cold cached run diverged: " + *diff + "; repro: " + repro);
    } else if (auto warm_diff = diff_outcomes(warm)) {
      report.failures.push_back("batch set #" + std::to_string(i) +
                                " warm replay diverged: " + *warm_diff + "; repro: " + repro);
    } else if (warm_stats.cache_hits != points.size()) {
      report.failures.push_back(
          "batch set #" + std::to_string(i) + " warm run peeled only " +
          std::to_string(warm_stats.cache_hits) + " of " + std::to_string(points.size()) +
          " points from the cache; repro: " + repro);
    } else {
      std::uint64_t warm_per_point_accesses = 0;
      for (std::size_t j = 0; j < points.size(); ++j) {
        const double warm_time =
            simulate_design_time(scenario.context, points[j], &warm_per_point_accesses);
        if (!bit_equal(warm_time, ref_times[j])) {
          report.failures.push_back("batch set #" + std::to_string(i) + " point " +
                                    std::to_string(j) +
                                    ": per-point replay of the bulk-inserted value " +
                                    fmt(warm_time) + " != " + fmt(ref_times[j]) +
                                    "; repro: " + repro);
          break;
        }
      }
    }
  }
  return report;
}

OracleReport run_simd_equivalence_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "simd";
  C2B_REQUIRE(!options.thread_counts.empty(), "simd oracle needs thread counts");

  // Whether the vectorized kernel will actually run (same policy as the
  // dispatcher): used only to decide if simd telemetry must be non-zero —
  // the bit-identity checks below hold either way, which is exactly what
  // the forced-scalar CI job relies on.
  const bool simd_on = [] {
#if defined(C2B_DISABLE_SIMD)
    return false;
#else
    const char* env = std::getenv("C2B_NO_SIMD");
    return env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0;
#endif
  }();

  const std::size_t widths[] = {2, 4, 8, 16};
  const std::uint64_t granularities[] = {1, 7, 4096};

  // --- vectorized vs scalar-lockstep vs per-cycle reference, bitwise ------
  // One random workload + core count per set; per width, a heterogeneous
  // member list (issue/ROB/FU/cache geometry all vary, trace streams
  // shared); the per-cycle reference runs once per (set, width) and every
  // (vectorized, scalar) x granularity combination must reproduce it
  // bitwise, member by member.
  for (std::size_t i = 0; i < options.simd_sets; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 70'000 + i));
    const std::string repro = repro_line(options.seed, 70'000 + i);
    const sim::SystemConfig proto = gen_system_config(rng);
    const std::uint32_t n = proto.hierarchy.cores;
    const WorkloadSpec spec = gen_workload_spec(rng);
    const double scale = pick(rng, {1.0, 2.0});
    const std::uint64_t window = 2'000 + rng.uniform_below(4'000);
    const std::uint64_t stream_seed = rng.next();

    // The exact streams every replay consumes, materialized once for the
    // reference kernel.
    std::vector<Trace> traces;
    traces.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c)
      traces.push_back(
          spec.make_generator(scale, Rng::derive_stream_seed(stream_seed, c))->generate(window));

    const auto make_store = [&](TraceChunkStore& store, std::size_t readers) {
      for (std::uint32_t c = 0; c < n; ++c)
        store.add_stream(spec.make_generator(scale, Rng::derive_stream_seed(stream_seed, c)),
                         window);
      store.set_readers(static_cast<std::uint32_t>(readers));
    };

    for (const std::size_t width : widths) {
      // Heterogeneous member configs sharing the trace shape (core count).
      std::vector<sim::SystemConfig> configs;
      configs.reserve(width);
      for (std::size_t m = 0; m < width; ++m) {
        sim::SystemConfig config = proto;
        config.core.issue_width = pick<std::uint32_t>(rng, {1, 2, 4});
        config.core.rob_size =
            std::max(config.core.issue_width, pick<std::uint32_t>(rng, {16, 32, 64, 128}));
        config.core.functional_units = pick<std::uint32_t>(rng, {1, 2, 4, 8});
        const sim::CacheGeometry& l1 = proto.hierarchy.l1_geometry;
        config.hierarchy.l1_geometry.size_bytes = static_cast<std::uint64_t>(l1.line_bytes) *
                                                  l1.associativity *
                                                  pick<std::uint32_t>(rng, {4, 16, 64});
        const sim::CacheGeometry& l2 = proto.hierarchy.l2_geometry;
        config.hierarchy.l2_geometry.size_bytes = static_cast<std::uint64_t>(l2.line_bytes) *
                                                  l2.associativity *
                                                  pick<std::uint32_t>(rng, {64, 256, 1024});
        config.validate();
        configs.push_back(config);
      }

      std::vector<sim::SystemResult> reference;
      reference.reserve(width);
      for (std::size_t m = 0; m < width; ++m)
        reference.push_back(sim::simulate_system_reference(configs[m], traces));

      for (const std::uint64_t granularity : granularities) {
        for (const bool use_simd : {true, false}) {
          TraceChunkStore store;
          make_store(store, width);
          std::vector<ChunkCursor> cursors;
          cursors.reserve(width * n);
          std::vector<std::vector<TraceCursor*>> member_cursors(width);
          for (std::size_t m = 0; m < width; ++m) {
            member_cursors[m].reserve(n);
            for (std::uint32_t c = 0; c < n; ++c) {
              cursors.emplace_back(store, c);
              member_cursors[m].push_back(&cursors.back());
            }
          }
          sim::BatchedReplayOptions batch_options;
          batch_options.lockstep_records = granularity;
          batch_options.use_simd = use_simd;
          sim::BatchKernelStats kernel;
          batch_options.kernel_stats = &kernel;
          const std::vector<sim::SystemResult> results =
              sim::simulate_system_batched(configs, member_cursors, batch_options);

          const std::string what = std::string(use_simd ? "vectorized" : "scalar") +
                                   " width=" + std::to_string(width) +
                                   " lockstep=" + std::to_string(granularity);
          for (std::size_t m = 0; m < width; ++m) {
            ++report.checks;
            if (auto diff = diff_system_results(results[m], reference[m])) {
              report.failures.push_back("simd set #" + std::to_string(i) + " " + what +
                                        " member " + std::to_string(m) + " vs reference " +
                                        *diff + "; repro: " + repro);
              break;
            }
          }
          ++report.checks;
          if (use_simd && simd_on && kernel.simd_steps == 0) {
            report.failures.push_back("simd set #" + std::to_string(i) + " " + what +
                                      ": vectorized kernel reported zero steps; repro: " +
                                      repro);
          } else if (!use_simd && kernel.simd_steps != 0) {
            report.failures.push_back("simd set #" + std::to_string(i) + " " + what +
                                      ": scalar run reported simd steps; repro: " + repro);
          }
        }
      }
    }
  }

  // --- DSE driver: vectorized on vs off, bit-identical at every thread
  // count (also exercises prototype-generator cloning under the pool) -----
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options.simd_sets / 2); ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 71'000 + i));
    const std::string repro = repro_line(options.seed, 71'000 + i);
    const DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);
    std::vector<std::vector<double>> points;
    space.for_each([&](std::size_t, const std::vector<double>& point) {
      if (design_feasible(scenario.context, point)) points.push_back(point);
    });
    if (points.empty()) continue;

    cache.set_enabled(false);
    exec::set_thread_count(1);
    DseContext scalar_context = scenario.context;
    scalar_context.use_simd = false;
    const std::vector<BatchSimOutcome> scalar_ref =
        simulate_design_times_batched(scalar_context, points, nullptr);

    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      BatchReplayStats stats;
      const std::vector<BatchSimOutcome> vectorized =
          simulate_design_times_batched(scenario.context, points, &stats);
      ++report.checks;
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (!bit_equal(vectorized[j].time, scalar_ref[j].time) ||
            vectorized[j].memory_accesses != scalar_ref[j].memory_accesses) {
          report.failures.push_back(
              "simd dse set #" + std::to_string(i) + " threads=" + std::to_string(threads) +
              " point " + std::to_string(j) + ": vectorized " + fmt(vectorized[j].time) +
              " != scalar " + fmt(scalar_ref[j].time) + "; repro: " + repro);
          break;
        }
      }
    }
  }
  return report;
}

OracleReport run_constraint_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "constraint";
  C2B_REQUIRE(!options.thread_counts.empty(), "constraint oracle needs thread counts");
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();

  for (std::size_t i = 0; i < options.constraint_sets; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 80'000 + i));
    const std::string repro = repro_line(options.seed, 80'000 + i);
    DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);

    // Anchor the budgets on the first area-feasible grid point: each budget
    // is that point's demand scaled by [1, 1.5), so the anchor stays
    // feasible (the space is never emptied) while tighter draws bisect the
    // rest of the grid and make the new constraints actually bite.
    std::vector<double> anchor;
    space.for_each([&](std::size_t, const std::vector<double>& point) {
      if (anchor.empty() && design_feasible(scenario.context, point)) anchor = point;
    });
    if (anchor.empty()) {
      report.failures.push_back("constraint set #" + std::to_string(i) +
                                " found no feasible point (generator bug); repro: " + repro);
      continue;
    }
    DseContext& context = scenario.context;
    const DesignPoint anchor_d = design_point_of(anchor);
    context.power_budget =
        context.cost.power.total(anchor_d, context.chip.shared_area) * rng.uniform(1.0, 1.5);
    context.bw_budget = context.cost.bandwidth.demand(anchor_d) * rng.uniform(1.0, 1.5);
    context.noc_budget = context.cost.noc.per_link_load(anchor_d) * rng.uniform(1.0, 1.5);

    // Ground truth, the dumb way: enumerate the full factorial grid
    // serially with the cache off, filter by the constraint set, simulate
    // every survivor one at a time, take the first-wins argmin, and keep
    // the non-dominated set by pairwise comparison.
    cache.set_enabled(false);
    exec::set_thread_count(1);
    const ConstraintSet set = design_constraints(context);
    struct TruthPoint {
      std::size_t flat = 0;
      double time = 0.0;
      double power = 0.0;
      double area = 0.0;
    };
    std::vector<double> truth_times(space.size(), std::numeric_limits<double>::infinity());
    std::vector<TruthPoint> truth_feasible;
    space.for_each([&](std::size_t flat, const std::vector<double>& point) {
      if (point[kAxisRob] < point[kAxisIssue]) return;
      const DesignPoint d = design_point_of(point);
      if (!set.feasible(d)) return;
      TruthPoint tp;
      tp.flat = flat;
      tp.time = simulate_design_time(context, point);
      tp.power = context.cost.power.total(d, context.chip.shared_area);
      tp.area = d.n_cores * (d.a0 + d.a1 + d.a2) + context.chip.shared_area;
      truth_times[flat] = tp.time;
      truth_feasible.push_back(tp);
    });
    if (truth_feasible.empty()) {
      report.failures.push_back("constraint set #" + std::to_string(i) +
                                " emptied the space despite the anchor; repro: " + repro);
      continue;
    }
    const std::size_t truth_best = static_cast<std::size_t>(
        std::min_element(truth_times.begin(), truth_times.end()) - truth_times.begin());

    auto truth_dominates = [](const TruthPoint& a, const TruthPoint& b) {
      if (a.time > b.time || a.power > b.power || a.area > b.area) return false;
      return a.time < b.time || a.power < b.power || a.area < b.area;
    };
    std::vector<TruthPoint> truth_frontier;
    for (std::size_t a = 0; a < truth_feasible.size(); ++a) {
      bool dominated = false;
      for (std::size_t b = 0; b < truth_feasible.size(); ++b)
        if (b != a && truth_dominates(truth_feasible[b], truth_feasible[a])) {
          dominated = true;
          break;
        }
      if (!dominated) truth_frontier.push_back(truth_feasible[a]);
    }
    std::sort(truth_frontier.begin(), truth_frontier.end(),
              [](const TruthPoint& a, const TruthPoint& b) {
                return std::tie(a.time, a.power, a.area, a.flat) <
                       std::tie(b.time, b.power, b.area, b.flat);
              });

    const auto diff_pareto = [&](const ParetoDseResult& pareto) -> std::optional<std::string> {
      if (pareto.feasible_count != truth_feasible.size())
        return "feasible_count " + std::to_string(pareto.feasible_count) + " != enumerated " +
               std::to_string(truth_feasible.size());
      if (pareto.frontier.size() != truth_frontier.size())
        return "frontier size " + std::to_string(pareto.frontier.size()) + " != enumerated " +
               std::to_string(truth_frontier.size());
      for (std::size_t p = 0; p < truth_frontier.size(); ++p) {
        const FrontierPoint& got = pareto.frontier[p];
        const TruthPoint& want = truth_frontier[p];
        if (got.flat_index != want.flat)
          return "frontier[" + std::to_string(p) + "] flat " +
                 std::to_string(got.flat_index) + " != " + std::to_string(want.flat);
        if (!bit_equal(got.time, want.time) || !bit_equal(got.power, want.power) ||
            !bit_equal(got.area, want.area))
          return "frontier[" + std::to_string(p) + "] (t,p,a) = (" + fmt(got.time) + ", " +
                 fmt(got.power) + ", " + fmt(got.area) + ") != (" + fmt(want.time) + ", " +
                 fmt(want.power) + ", " + fmt(want.area) + ")";
      }
      return std::nullopt;
    };

    // The constrained optimizer and the Pareto mode must reproduce the
    // enumeration bitwise at every thread count.
    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      const FullDseResult full = run_full_dse(context, space);
      ++report.checks;
      if (full.best_index != truth_best ||
          !bit_equal(full.best_time, truth_times[truth_best])) {
        report.failures.push_back(
            "constraint set #" + std::to_string(i) + " (" + print_dse_scenario(scenario) +
            ") threads=" + std::to_string(threads) + ": constrained optimum " +
            std::to_string(full.best_index) + " (" + fmt(full.best_time) +
            ") != enumerated " + std::to_string(truth_best) + " (" +
            fmt(truth_times[truth_best]) + "); repro: " + repro);
        break;
      }
      const ParetoDseResult pareto = run_pareto_dse(context, space);
      ++report.checks;
      if (auto diff = diff_pareto(pareto)) {
        report.failures.push_back("constraint set #" + std::to_string(i) + " (" +
                                  print_dse_scenario(scenario) + ") threads=" +
                                  std::to_string(threads) + ": " + *diff +
                                  "; repro: " + repro);
        break;
      }
    }

    // Warm path: with the cache on, a second Pareto run replays every
    // simulation from the cache and must still match the enumeration.
    cache.set_enabled(true);
    cache.clear();
    exec::set_thread_count(options.thread_counts.back());
    const ParetoDseResult cold = run_pareto_dse(context, space);
    const ParetoDseResult warm = run_pareto_dse(context, space);
    ++report.checks;
    if (auto diff = diff_pareto(cold)) {
      report.failures.push_back("constraint set #" + std::to_string(i) +
                                " cold cached run diverged: " + *diff + "; repro: " + repro);
    } else if (auto warm_diff = diff_pareto(warm)) {
      report.failures.push_back("constraint set #" + std::to_string(i) +
                                " warm replay diverged: " + *warm_diff + "; repro: " + repro);
    } else if (warm.batch.cache_hits != warm.feasible_count) {
      report.failures.push_back(
          "constraint set #" + std::to_string(i) + " warm run peeled only " +
          std::to_string(warm.batch.cache_hits) + " of " +
          std::to_string(warm.feasible_count) + " points from the cache; repro: " + repro);
    }
  }
  return report;
}

OracleReport run_surrogate_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "surrogate";
  C2B_REQUIRE(!options.thread_counts.empty(), "surrogate oracle needs thread counts");
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();

  // Scenario set: one fixed multi-class space engineered so the pruner must
  // actually skip classes (several N values, area headroom that strands the
  // slow end of the N axis outside the band), plus random tiny scenarios.
  // The fixed case asserts classes_pruned >= 1 — without it, a pruner that
  // degenerates into "admit everything" would pass the identity checks
  // vacuously.
  struct SurrogateCase {
    DseScenario scenario;
    bool require_pruning = false;
    std::string label;
    std::string repro;
  };
  std::vector<SurrogateCase> cases;
  {
    SurrogateCase fixed;
    fixed.scenario.context.base = oracle_baseline();
    fixed.scenario.context.base.hierarchy.coherence = false;
    fixed.scenario.context.base.hierarchy.l2_geometry = {
        .size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 8};
    fixed.scenario.context.workload = make_stencil_workload(96);
    fixed.scenario.context.instructions0 = 4'000;
    fixed.scenario.context.per_core_cap = 2'000;
    fixed.scenario.context.seed = 1'234;  // fixed: the space, not the draw, is the test
    fixed.scenario.context.chip.shared_area = 2.0;
    fixed.scenario.context.chip.total_area = 10.0;
    fixed.scenario.axes.a0 = {0.25, 0.5, 1.0, 2.0};
    fixed.scenario.axes.a1 = {0.125, 0.25, 0.5};
    fixed.scenario.axes.a2 = {0.25, 0.5, 1.0};
    fixed.scenario.axes.n = {1, 2, 3, 4, 6, 8, 12};
    fixed.scenario.axes.issue = {2, 4};
    fixed.scenario.axes.rob = {32, 64};
    fixed.require_pruning = true;
    fixed.label = "fixed";
    fixed.repro = repro_line(options.seed, 90'000);
    cases.push_back(std::move(fixed));
  }
  for (std::size_t i = 0; i < options.surrogate_sets; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 90'001 + i));
    SurrogateCase random;
    random.scenario = gen_dse_scenario(rng);
    random.label = "random #" + std::to_string(i);
    random.repro = repro_line(options.seed, 90'001 + i);
    cases.push_back(std::move(random));
  }

  for (const SurrogateCase& sc : cases) {
    const GridSpace space = make_design_space(sc.scenario.axes);
    DseContext exhaustive_context = sc.scenario.context;
    exhaustive_context.surrogate_enabled = false;
    DseContext surrogate_context = sc.scenario.context;
    surrogate_context.surrogate_enabled = true;

    // Ground truth: the exhaustive sweep, serial, cache off.
    cache.set_enabled(false);
    exec::set_thread_count(1);
    const FullDseResult truth_full = run_full_dse(exhaustive_context, space);
    const ParetoDseResult truth_pareto = run_pareto_dse(exhaustive_context, space);

    const auto diff_full = [&](const FullDseResult& got) -> std::optional<std::string> {
      if (got.best_index != truth_full.best_index ||
          !bit_equal(got.best_time, truth_full.best_time))
        return "optimum " + std::to_string(got.best_index) + " (" + fmt(got.best_time) +
               ") != exhaustive " + std::to_string(truth_full.best_index) + " (" +
               fmt(truth_full.best_time) + ")";
      if (got.feasible_count != truth_full.feasible_count)
        return "feasible_count " + std::to_string(got.feasible_count) + " != exhaustive " +
               std::to_string(truth_full.feasible_count);
      // Everything the surrogate did simulate must be bitwise what the
      // exhaustive sweep measured (pruned entries stay +infinity).
      for (std::size_t flat = 0; flat < got.times.size(); ++flat)
        if (std::isfinite(got.times[flat]) &&
            !bit_equal(got.times[flat], truth_full.times[flat]))
          return "times[" + std::to_string(flat) + "] " + fmt(got.times[flat]) +
                 " != exhaustive " + fmt(truth_full.times[flat]);
      return std::nullopt;
    };
    const auto diff_pareto = [&](const ParetoDseResult& got) -> std::optional<std::string> {
      if (got.feasible_count != truth_pareto.feasible_count)
        return "pareto feasible_count " + std::to_string(got.feasible_count) +
               " != exhaustive " + std::to_string(truth_pareto.feasible_count);
      if (got.frontier.size() != truth_pareto.frontier.size())
        return "frontier size " + std::to_string(got.frontier.size()) + " != exhaustive " +
               std::to_string(truth_pareto.frontier.size());
      for (std::size_t p = 0; p < truth_pareto.frontier.size(); ++p) {
        const FrontierPoint& got_p = got.frontier[p];
        const FrontierPoint& want = truth_pareto.frontier[p];
        if (got_p.flat_index != want.flat_index)
          return "frontier[" + std::to_string(p) + "] flat " +
                 std::to_string(got_p.flat_index) + " != " + std::to_string(want.flat_index);
        if (!bit_equal(got_p.time, want.time) || !bit_equal(got_p.power, want.power) ||
            !bit_equal(got_p.area, want.area))
          return "frontier[" + std::to_string(p) + "] (t,p,a) = (" + fmt(got_p.time) + ", " +
                 fmt(got_p.power) + ", " + fmt(got_p.area) + ") != (" + fmt(want.time) +
                 ", " + fmt(want.power) + ", " + fmt(want.area) + ")";
      }
      return std::nullopt;
    };
    // require_pruning applies to the plain sweep only: the 3-objective
    // Pareto frontier usually touches most trace classes (small-N points
    // hold the power/area corner), so Pareto mode legitimately admits far
    // more — identity is the contract there, class skipping is best-effort.
    const auto diff_stats = [&](const SurrogateStats& stats,
                                bool check_pruning) -> std::optional<std::string> {
      if (stats.classes_simulated + stats.classes_pruned != stats.classes_total)
        return "class accounting " + std::to_string(stats.classes_simulated) + " + " +
               std::to_string(stats.classes_pruned) +
               " != " + std::to_string(stats.classes_total);
      if (stats.points_simulated > stats.points_total)
        return "points_simulated " + std::to_string(stats.points_simulated) +
               " > points_total " + std::to_string(stats.points_total);
      if (check_pruning && sc.require_pruning && stats.classes_pruned == 0)
        return "expected at least one pruned class, every class was simulated";
      return std::nullopt;
    };
    const auto fail = [&](std::size_t threads, const std::string& what) {
      report.failures.push_back("surrogate " + sc.label + " (" +
                                print_dse_scenario(sc.scenario) + ") threads=" +
                                std::to_string(threads) + ": " + what +
                                "; repro: " + sc.repro);
    };

    // Cold cache: the pruned sweep must land on the exhaustive optimum and
    // frontier bitwise at every thread count.
    bool diverged = false;
    for (const std::size_t threads : options.thread_counts) {
      exec::set_thread_count(threads);
      const FullDseResult full = run_full_dse(surrogate_context, space);
      ++report.checks;
      if (auto diff = diff_full(full)) {
        fail(threads, *diff);
        diverged = true;
        break;
      }
      if (auto diff = diff_stats(full.surrogate, /*check_pruning=*/true)) {
        fail(threads, *diff);
        diverged = true;
        break;
      }
      const ParetoDseResult pareto = run_pareto_dse(surrogate_context, space);
      ++report.checks;
      if (auto diff = diff_pareto(pareto)) {
        fail(threads, *diff);
        diverged = true;
        break;
      }
      if (auto diff = diff_stats(pareto.surrogate, /*check_pruning=*/false)) {
        fail(threads, *diff);
        diverged = true;
        break;
      }
    }
    if (diverged) continue;

    // Warm path: cache on, a cold run then a replay — the surrogate's
    // scheduling decisions are pure functions of (bitwise-identical) sim
    // results, so both must still match the exhaustive ground truth.
    cache.set_enabled(true);
    cache.clear();
    exec::set_thread_count(options.thread_counts.back());
    const FullDseResult cold_full = run_full_dse(surrogate_context, space);
    const ParetoDseResult cold = run_pareto_dse(surrogate_context, space);
    const ParetoDseResult warm = run_pareto_dse(surrogate_context, space);
    ++report.checks;
    if (auto diff = diff_full(cold_full)) {
      fail(options.thread_counts.back(), "cold cached run diverged: " + *diff);
    } else if (auto diff = diff_pareto(cold)) {
      fail(options.thread_counts.back(), "cold cached pareto diverged: " + *diff);
    } else if (auto warm_diff = diff_pareto(warm)) {
      fail(options.thread_counts.back(), "warm replay diverged: " + *warm_diff);
    } else if (warm.surrogate.points_simulated != cold.surrogate.points_simulated ||
               warm.surrogate.classes_pruned != cold.surrogate.classes_pruned) {
      fail(options.thread_counts.back(),
           "warm replay took a different path: " +
               std::to_string(warm.surrogate.points_simulated) + " sims / " +
               std::to_string(warm.surrogate.classes_pruned) + " pruned vs cold " +
               std::to_string(cold.surrogate.points_simulated) + " / " +
               std::to_string(cold.surrogate.classes_pruned));
    }
  }
  return report;
}

OracleReport run_persistent_cache_oracle(const OracleOptions& options) {
  OracleReport report;
  report.family = "persistent_cache";
  C2B_REQUIRE(!options.thread_counts.empty(), "cache oracle needs thread counts");
  namespace fs = std::filesystem;
  ExecStateGuard guard;
  exec::SimCache& cache = exec::SimCache::global();
  // This family re-points the global cache's disk tier at scratch
  // directories; put back whatever the environment configured afterwards
  // (the only supported standing attachment).
  struct DiskTierRestore {
    ~DiskTierRestore() {
      exec::SimCache::global().detach_disk_tier();
      const char* dir = std::getenv("C2B_SIM_CACHE_DIR");
      if (dir != nullptr && dir[0] != '\0')
        exec::SimCache::global().attach_disk_tier(dir);
    }
  } restore;
  (void)restore;

  for (std::size_t i = 0; i < options.cache_sets; ++i) {
    Rng rng(Rng::derive_stream_seed(options.seed, 90'000 + i));
    const DseScenario scenario = gen_dse_scenario(rng);
    const GridSpace space = make_design_space(scenario.axes);
    const std::string repro = repro_line(options.seed, 90'000 + i);
    const auto fail = [&](const std::string& what) {
      report.failures.push_back("persistent-cache (" + print_dse_scenario(scenario) +
                                "): " + what + "; repro: " + repro);
    };

    // Reference: no cache anywhere — the ground truth every cached variant
    // must reproduce bitwise.
    cache.detach_disk_tier();
    cache.set_enabled(false);
    const std::size_t ref_threads = options.thread_counts.back();
    exec::set_thread_count(ref_threads);
    const SweepFingerprint ref = fingerprint(run_full_dse(scenario.context, space));
    cache.set_enabled(true);

    std::error_code ec;
    const fs::path dir =
        fs::temp_directory_path(ec) /
        ("c2b-cache-oracle-" + std::to_string(static_cast<unsigned long>(::getpid())) +
         "-" + std::to_string(options.seed) + "-" + std::to_string(i));
    fs::remove_all(dir, ec);

    // Cold fill (first pass over the empty directory), then warm restarts:
    // drop the memory tier and re-attach the same directory — the
    // process-restart emulation — once per thread count.
    bool diverged = false;
    for (const std::size_t threads : options.thread_counts) {
      cache.detach_disk_tier();
      cache.clear();
      if (!cache.attach_disk_tier(dir.string())) {
        fail("attach_disk_tier('" + dir.string() + "') failed");
        diverged = true;
        break;
      }
      exec::set_thread_count(threads);
      const bool cold = cache.stats().disk_entries == 0;
      const SweepFingerprint fp = fingerprint(run_full_dse(scenario.context, space));
      ++report.checks;
      if (auto diff = compare_fingerprints(ref, ref_threads, fp, threads)) {
        fail(std::string(cold ? "cold" : "warm-restart") + " disk-backed run diverged: " +
             *diff);
        diverged = true;
        break;
      }
      cache.flush_disk();
      if (!cold && cache.stats().disk_hits == 0) {
        fail("warm restart at threads=" + std::to_string(threads) +
             " never hit the disk tier");
        diverged = true;
        break;
      }
    }

    // Warm in-memory replay on top of the populated tiers.
    if (!diverged) {
      const SweepFingerprint warm = fingerprint(run_full_dse(scenario.context, space));
      ++report.checks;
      if (auto diff = compare_fingerprints(ref, ref_threads, warm, ref_threads))
        fail("warm in-memory replay diverged: " + *diff);
    }

    // Corruption: flip a byte in the middle of every non-empty segment and
    // shear one tail mid-record. Re-attaching must count the damage as
    // drops and the next sweep must degrade to a (partially) cold run with
    // bitwise-identical results — never an error.
    if (!diverged) {
      cache.detach_disk_tier();
      bool mutated = false;
      for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        const std::uintmax_t size = entry.file_size(ec);
        if (size == 0) continue;
        std::FILE* file = std::fopen(entry.path().c_str(), "r+b");
        if (file == nullptr) continue;
        const long pos = static_cast<long>(size / 2);
        std::fseek(file, pos, SEEK_SET);
        const int byte = std::fgetc(file);
        std::fseek(file, pos, SEEK_SET);
        std::fputc(byte == EOF ? 0xff : (byte ^ 0x5a), file);
        std::fclose(file);
        if (!mutated && size > 4) fs::resize_file(entry.path(), size - 3, ec);
        mutated = true;
      }
      cache.clear();
      if (!cache.attach_disk_tier(dir.string())) {
        fail("re-attach of corrupted directory failed (must degrade, not error)");
      } else {
        ++report.checks;
        if (mutated && cache.stats().disk_drops == 0)
          fail("corrupted records were not counted as drops");
        const SweepFingerprint fp = fingerprint(run_full_dse(scenario.context, space));
        ++report.checks;
        if (auto diff = compare_fingerprints(ref, ref_threads, fp, ref_threads))
          fail("corrupted cache directory changed results: " + *diff);
      }
    }

    cache.detach_disk_tier();
    cache.clear();
    fs::remove_all(dir, ec);
  }
  return report;
}

std::span<const OracleFamily> oracle_families() {
  static constexpr OracleFamily kFamilies[] = {
      {"analytic", run_analytic_vs_sim_oracle},   {"determinism", run_determinism_oracle},
      {"invariants", run_invariant_oracle},       {"kernel", run_kernel_equivalence_oracle},
      {"batch", run_batch_equivalence_oracle},    {"simd", run_simd_equivalence_oracle},
      {"constraint", run_constraint_oracle},      {"surrogate", run_surrogate_oracle},
      {"cache", run_persistent_cache_oracle}};
  return kFamilies;
}

const OracleFamily* find_oracle_family(std::string_view name) {
  for (const OracleFamily& family : oracle_families())
    if (name == family.name) return &family;
  return nullptr;
}

std::vector<OracleReport> run_all_oracles(const OracleOptions& options) {
  std::vector<OracleReport> reports;
  for (const OracleFamily& family : oracle_families()) reports.push_back(family.run(options));
  return reports;
}

bool write_tolerance_bands_json(const std::string& path,
                                const std::vector<ToleranceBand>& bands) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const ToleranceBand& b = bands[i];
    out << "  {\"workload\": \"" << b.workload << "\", \"samples\": " << b.samples
        << ", \"mean_abs_rel_error\": " << std::setprecision(17) << b.mean_abs_rel_error
        << ", \"max_abs_rel_error\": " << b.max_abs_rel_error
        << ", \"mean_tolerance\": " << b.mean_tolerance
        << ", \"max_tolerance\": " << b.max_tolerance
        << ", \"passed\": " << (b.passed ? "true" : "false") << "}"
        << (i + 1 < bands.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace c2b::check
