// The two benchmark workloads and the APS layer probe. Each op goes
// through the library's public entry points only (run_full_dse,
// surrogate_sweep, run_aps, SimCache); every output check compares against
// per-point simulate_design_time runs with the SimCache disabled, or
// committed expected optima, bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <stdexcept>

#include "bench.h"
#include "c2b/aps/aps.h"
#include "c2b/aps/surrogate.h"
#include "c2b/common/rng.h"
#include "c2b/core/optimizer.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/trace/workloads.h"
#include "expected.h"
#include "layers.h"

namespace c2b::perfbench {
namespace {

namespace fs = std::filesystem;

/// Sampled points per trace class of a DSE sweep whose times are checked
/// against per-point references. Sampling per class keeps the reference
/// cost, which set-up pays, the same for every seed.
constexpr std::size_t kDseSamplePerClass = 2;
/// Stream salt for the seeded sample.
constexpr std::uint64_t kDseSampleSalt = 0x5eed'0001;

std::size_t sweep_threads() { return std::min<std::size_t>(4, nproc()); }

/// The `c2b` CLI's default machine template.
sim::SystemConfig cli_default_system() {
  sim::SystemConfig config;
  config.hierarchy.l1_geometry = {.size_bytes = 16 * 1024, .line_bytes = 64, .associativity = 4};
  config.hierarchy.l2_geometry = {.size_bytes = 512 * 1024, .line_bytes = 64,
                                  .associativity = 8};
  return config;
}

/// The `c2b dse` / `c2b aps` CLI defaults for one workload.
DseContext cli_default_context(const WorkloadSpec& spec, std::uint64_t seed) {
  DseContext context;
  context.base = cli_default_system();
  context.workload = spec;
  context.instructions0 = 20'000;
  context.per_core_cap = 10'000;
  context.chip.total_area = 9.0;
  context.chip.shared_area = 1.0;
  context.seed = seed;
  return context;
}

/// The scaled Fig.-12 stencil study of bench_persistent_cache.
DseContext stencil_study_context(std::uint64_t seed) {
  DseContext context;
  context.base = cli_default_system();
  context.workload = make_stencil_workload(96);
  context.instructions0 = 4'000;
  context.per_core_cap = 2'000;
  context.chip.total_area = 10.0;
  context.chip.shared_area = 2.0;
  context.seed = seed;
  return context;
}

/// Disables the SimCache for one scope, so simulate_design_time really
/// simulates.
class CacheOff {
 public:
  CacheOff() : was_(exec::SimCache::global().enabled()) {
    exec::SimCache::global().set_enabled(false);
  }
  ~CacheOff() { exec::SimCache::global().set_enabled(was_); }
  CacheOff(const CacheOff&) = delete;
  CacheOff& operator=(const CacheOff&) = delete;

 private:
  bool was_;
};

double reference_time(const DseContext& context, const std::vector<double>& point) {
  const CacheOff off;
  return simulate_design_time(context, point);
}

/// `count` distinct positions in [0, population), ascending, from the seed.
std::vector<std::size_t> seeded_sample(std::size_t population, std::size_t count,
                                       std::uint64_t seed, std::uint64_t salt) {
  Rng rng(Rng::derive_stream_seed(seed, salt));
  std::vector<std::size_t> order(population);
  std::iota(order.begin(), order.end(), std::size_t{0});
  count = std::min(count, population);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(order[i], order[i + rng.uniform_below(population - i)]);
  order.resize(count);
  std::sort(order.begin(), order.end());
  return order;
}

const ExpectedOptimum* find_expected(const std::string& workload, const std::string& entry) {
  for (const ExpectedOptimum& e : kExpectedOptima)
    if (workload == e.workload && entry == e.entry) return &e;
  return nullptr;
}

bool fail(std::string& why, const std::string& message) {
  why = message;
  return false;
}

std::string at(std::size_t flat) { return " at flat index " + std::to_string(flat); }

void attach_or_throw(const std::string& dir) {
  if (!exec::SimCache::global().attach_disk_tier(dir))
    throw std::runtime_error("cannot attach disk tier at " + dir);
}

/// Every per-layer metric the workloads share, zero where neither the op
/// nor a probe of the traced run exercises the layer.
struct LayerValues {
  double plan_s = 0.0;
  double peel_s = 0.0;
  double peel_points = 0.0;
  double warm_sweep_s = 0.0;
  double feasible_points = 0.0;
  double classes = 0.0;
  double sim_useful_ratio = 0.0;
  double surrogate_driver_s = 0.0;
  double surrogate_points_frac = 0.0;
  double surrogate_classes = 0.0;
  double surrogate_rounds = 0.0;
  double characterize_s = 0.0;
  double neighborhood_s = 0.0;
  double analytic_s = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_entries = 0.0;
  double disk_attach_s = 0.0;
  double disk_flush_s = 0.0;
  double disk_entries = 0.0;
  double disk_drops = 0.0;
  double shared_accesses = 0.0;
  KernelProbe kernel;

  void set_cache(const exec::SimCacheStats& stats) {
    const double probes = static_cast<double>(stats.hits + stats.disk_hits + stats.misses);
    cache_hit_ratio = probes > 0 ? static_cast<double>(stats.hits + stats.disk_hits) / probes : 0;
    cache_entries = static_cast<double>(stats.entries);
    disk_entries = static_cast<double>(stats.disk_entries);
    disk_drops = static_cast<double>(stats.disk_drops);
  }

  void emit(Metrics& out) const {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.set("aps.plan_s", plan_s, "s");
    out.set("aps.peel_s", peel_s, "s");
    out.set("aps.peel_us_per_point", ratio(peel_s * 1e6, peel_points), "us");
    out.set("aps.warm_sweep_s", warm_sweep_s, "s");
    out.set("aps.feasible_points", feasible_points, "count");
    out.set("aps.classes", classes, "count");
    out.set("aps.sim_useful_ratio", sim_useful_ratio, "frac");
    out.set("aps.surrogate.driver_s", surrogate_driver_s, "s");
    out.set("aps.surrogate.points_simulated_frac", surrogate_points_frac, "frac");
    out.set("aps.surrogate.classes_simulated", surrogate_classes, "count");
    out.set("aps.surrogate.rounds", surrogate_rounds, "count");
    out.set("aps.characterize_s", characterize_s, "s");
    out.set("aps.neighborhood_s", neighborhood_s, "s");
    out.set("core.analytic_s", analytic_s, "s");
    out.set("exec.cache.hit_ratio", cache_hit_ratio, "frac");
    out.set("exec.cache.entries", cache_entries, "count");
    out.set("exec.disk.attach_s", disk_attach_s, "s");
    out.set("exec.disk.flush_s", disk_flush_s, "s");
    out.set("exec.disk.entries", disk_entries, "count");
    out.set("exec.disk.drops", disk_drops, "count");
    out.set("trace.gen_s", kernel.gen_s, "s");
    out.set("trace.records", static_cast<double>(kernel.records), "count");
    out.set("trace.records_per_s", ratio(static_cast<double>(kernel.records), kernel.gen_s),
            "1/s");
    out.set("trace.shared_accesses", shared_accesses, "count");
    out.set("sim.kernel_s", kernel.kernel_s, "s");
    out.set("sim.accesses_per_s", ratio(static_cast<double>(kernel.accesses), kernel.kernel_s),
            "1/s");
    out.set("sim.simulations", static_cast<double>(kernel.simulations), "count");
    out.set("sim.accesses", static_cast<double>(kernel.accesses), "count");
    out.set("sim.simd.steps", static_cast<double>(kernel.simd_steps), "count");
    out.set("sim.simd.peels", static_cast<double>(kernel.simd_peels), "count");
    out.set("sim.simd.lanes_active", static_cast<double>(kernel.simd_lanes_active), "count");
    out.set("sim.l1.accesses", static_cast<double>(kernel.l1_accesses), "count");
    out.set("sim.l2.accesses", static_cast<double>(kernel.l2_accesses), "count");
    out.set("sim.dram.accesses", static_cast<double>(kernel.dram_accesses), "count");
    out.set("sim.l1.mshr_full_stalls", static_cast<double>(kernel.l1_mshr_full_stalls), "count");
  }
};

/// The APS layers (characterize, the analytic solver and the neighborhood
/// batch), probed at one thread over every workload_catalog() entry on the
/// default DseAxes grid with the CLI-default contexts at the default seed.
/// Each entry runs run_aps once from a cold memory tier, its optimum
/// checked against the committed one; then its three steps are timed one
/// by one, each checked bit for bit against that run.
bool probe_aps_catalog(LayerValues& v, std::string& why) {
  exec::SimCache& cache = exec::SimCache::global();
  const ApsOptions options{};
  const GridSpace space = make_design_space(DseAxes{});
  exec::set_thread_count(1);
  struct RestoreThreads {
    ~RestoreThreads() { exec::set_thread_count(sweep_threads()); }
  } restore;
  for (const WorkloadSpec& spec : workload_catalog()) {
    const DseContext context = cli_default_context(spec, kDefaultSeed);
    const std::string name = spec.name + ": ";
    cache.clear();
    ApsResult r;
    {
      ScopedSpan span("aps.run_aps");
      r = run_aps(context, space, options);
    }
    const ExpectedOptimum* expected = find_expected("aps_catalog", spec.name);
    if (expected == nullptr)
      return fail(why, name + "no expected optimum recorded");
    if (r.best_index != expected->best_index || !bits_equal(r.best_time, expected->best_time))
      return fail(why, name + "run_aps optimum differs from the committed expected optimum");

    // run_aps reports no per-point times; its value for a point is the one
    // it left in the memory tier.
    std::vector<std::vector<double>> neighborhood;
    for (const std::size_t flat : r.simulated_indices) neighborhood.push_back(space.point(flat));
    const PeelProbe recorded = probe_peel(context, neighborhood, {});
    if (!recorded.ok) return fail(why, name + "neighborhood is not in the memory tier");

    double start = now_s();
    Characterization c;
    {
      ScopedSpan span("aps.characterize");
      c = characterize(context.workload, context.base, options.characterize);
    }
    v.characterize_s += now_s() - start;
    if (!bits_equal(c.measured_cpi, r.characterization.measured_cpi))
      return fail(why, name + "characterize differs from run_aps's");

    start = now_s();
    OptimalDesign analytic;
    {
      ScopedSpan span("core.analytic");
      OptimizerOptions opt;
      const auto& n_axis = space.axis(kAxisN).values;
      opt.n_max = static_cast<long long>(*std::max_element(n_axis.begin(), n_axis.end()));
      analytic = C2BoundOptimizer(build_calibrated_model(context, c), opt).optimize();
    }
    v.analytic_s += now_s() - start;
    const DesignPoint& a = analytic.best.design;
    const DesignPoint& b = r.analytic.best.design;
    if (!bits_equal(a.n_cores, b.n_cores) || !bits_equal(a.a0, b.a0) ||
        !bits_equal(a.a1, b.a1) || !bits_equal(a.a2, b.a2))
      return fail(why, name + "analytic optimum differs from run_aps's");

    cache.clear();
    start = now_s();
    std::vector<BatchSimOutcome> outcomes;
    {
      ScopedSpan span("aps.neighborhood");
      outcomes = simulate_design_times_batched(context, neighborhood);
    }
    v.neighborhood_s += now_s() - start;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
      if (!bits_equal(outcomes[i].time, recorded.times[i]))
        return fail(why, name + "neighborhood batch differs from run_aps's");
  }
  cache.clear();
  return true;
}

// ---------------------------------------------------------------------------
// dse_cold, dse_surrogate: one run_full_dse over make_large_axes().

enum class DseMode { kCold, kSurrogate };

class DseWorkload final : public Workload {
 public:
  DseWorkload(DseMode mode, const RunOptions& options)
      : mode_(mode), options_(options), cache_dir_(options.work_dir + "/" + options.workload) {}

  ~DseWorkload() override {
    exec::SimCache::global().detach_disk_tier();
    std::error_code ignored;
    fs::remove_all(cache_dir_, ignored);
  }

  std::size_t threads() const override { return sweep_threads(); }
  double points_per_op() const override { return static_cast<double>(sweep_.flats.size()); }

  void setup() override {
    sweep_ = Sweep{};
    switch (mode_) {
      case DseMode::kCold:
        sweep_.context = stencil_study_context(options_.seed);
        break;
      case DseMode::kSurrogate:
        // Pinned seed: it only seeds the surrogate's MLP here (the stencil
        // generator ignores it), and which classes the MLP prunes sets how
        // much an op simulates; --seed still draws the check sample.
        for (const WorkloadSpec& spec : workload_catalog())
          if (spec.name == "stencil") sweep_.context = cli_default_context(spec, kDefaultSeed);
        sweep_.context.surrogate_enabled = true;
        break;
    }
    sweep_.space = make_design_space(make_large_axes());
    plan_sweep(sweep_);

    exec::SimCache& cache = exec::SimCache::global();
    cache.set_enabled(true);
    cache.detach_disk_tier();
    cache.clear();
    fs::remove_all(cache_dir_);

    std::map<double, std::vector<std::size_t>> classes;  // N -> positions in flats
    for (std::size_t i = 0; i < sweep_.points.size(); ++i)
      classes[sweep_.points[i][kAxisN]].push_back(i);
    sample_.clear();
    for (const auto& [n, members] : classes)
      for (const std::size_t j : seeded_sample(members.size(), kDseSamplePerClass, options_.seed,
                                               kDseSampleSalt + static_cast<std::uint64_t>(n)))
        sample_.push_back(members[j]);
    sample_ref_.clear();
    for (const std::size_t i : sample_)
      sample_ref_.push_back(reference_time(sweep_.context, sweep_.points[i]));
    optimum_ref_.clear();
    expected_ = nullptr;
    if (sweep_.context.seed == kDefaultSeed) {
      expected_ = find_expected(options_.workload, "");
      if (expected_ == nullptr)
        throw std::runtime_error("no expected optimum recorded for " + options_.workload);
      expected_time_ = expected_->best_time;
    }
  }

  void prepare_op() override {
    exec::SimCache& cache = exec::SimCache::global();
    if (mode_ == DseMode::kCold) {
      // Empty memory tier, empty disk tier.
      cache.detach_disk_tier();
      cache.clear();
      fs::remove_all(cache_dir_);
      attach_or_throw(cache_dir_);
    } else if (mode_ == DseMode::kSurrogate) {
      cache.clear();
    }
  }

  void timed_op() override {
    {
      ScopedSpan span("aps.run_full_dse");
      result_ = run_full_dse(sweep_.context, sweep_.space);
    }
    if (mode_ == DseMode::kCold) {
      const double start = now_s();
      {
        ScopedSpan span("exec.flush_disk");
        exec::SimCache::global().flush_disk();
      }
      flush_s_ = now_s() - start;
    }
  }

  bool check_op(std::string& why) override {
    // The op's cache counters, before the checks below probe anything.
    op_stats_ = exec::SimCache::global().stats();
    const FullDseResult& r = result_;
    const std::size_t feasible = sweep_.flats.size();
    if (r.feasible_count != feasible || r.times.size() != sweep_.space.size())
      return fail(why, "feasible count " + std::to_string(r.feasible_count) + " != plan's " +
                           std::to_string(feasible));
    if (r.best_index >= r.times.size() || !std::isfinite(r.best_time) ||
        !bits_equal(r.times[r.best_index], r.best_time))
      return fail(why, "optimum is not a simulated entry of the time table");

    auto it = optimum_ref_.find(r.best_index);
    if (it == optimum_ref_.end())
      it = optimum_ref_
               .emplace(r.best_index,
                        reference_time(sweep_.context, sweep_.space.point(r.best_index)))
               .first;
    if (!bits_equal(it->second, r.best_time))
      return fail(why, "optimum time differs from the per-point reference" + at(r.best_index));

    for (std::size_t s = 0; s < sample_.size(); ++s) {
      const std::size_t flat = sweep_.flats[sample_[s]];
      const double time = r.times[flat];
      if (std::isfinite(time)) {
        if (!bits_equal(time, sample_ref_[s]))
          return fail(why, "sampled time differs from the per-point reference" + at(flat));
      } else if (mode_ != DseMode::kSurrogate) {
        return fail(why, "feasible point left unsimulated" + at(flat));
      } else if (sample_ref_[s] < r.best_time) {
        return fail(why, "pruned point beats the reported optimum" + at(flat));
      }
    }

    if (expected_ != nullptr &&
        (r.best_index != expected_->best_index || !bits_equal(r.best_time, expected_time_)))
      return fail(why, "optimum differs from the committed expected optimum");

    const exec::SimCacheStats& stats = op_stats_;
    switch (mode_) {
      case DseMode::kCold:
        if (r.simulations != feasible || r.batch.members != feasible)
          return fail(why, "cold sweep did not simulate every feasible point");
        if (stats.disk_entries != stats.entries || stats.disk_drops != 0)
          return fail(why, "flushed disk tier does not hold the memory tier's entries");
        break;
      case DseMode::kSurrogate:
        if (r.surrogate.points_total != feasible || r.simulations == 0 ||
            r.surrogate.points_simulated != r.simulations)
          return fail(why, "surrogate accounting does not add up");
        break;
    }
    return true;
  }

  bool layer_metrics(Metrics& out, std::string& why) override {
    LayerValues v;
    exec::SimCache& cache = exec::SimCache::global();
    v.set_cache(op_stats_);
    if (mode_ == DseMode::kCold) v.disk_flush_s = flush_s_;
    v.feasible_points = static_cast<double>(result_.feasible_count);
    v.classes = static_cast<double>(result_.batch.classes);
    v.sim_useful_ratio = result_.batch.members > 0
                             ? static_cast<double>(op_stats_.entries) /
                                   static_cast<double>(result_.batch.members)
                             : 0.0;
    v.shared_accesses = static_cast<double>(result_.batch.regen_avoided_accesses);
    const SurrogateStats& s = result_.surrogate;
    v.surrogate_points_frac =
        s.points_total > 0
            ? static_cast<double>(s.points_simulated) / static_cast<double>(s.points_total)
            : 0.0;
    v.surrogate_classes = static_cast<double>(s.classes_simulated);
    v.surrogate_rounds = static_cast<double>(s.rounds);

    bool plan_ok = false;
    v.plan_s = probe_plan({&sweep_}, plan_ok);
    if (!plan_ok) return fail(why, "plan probe disagrees with the sweep's feasible set");

    // The points the op resolved are all resident in the memory tier now.
    std::vector<std::vector<double>> points;
    std::vector<double> times;
    for (std::size_t i = 0; i < sweep_.flats.size(); ++i) {
      const double time = result_.times[sweep_.flats[i]];
      if (!std::isfinite(time)) continue;
      points.push_back(sweep_.points[i]);
      times.push_back(time);
    }
    const PeelProbe peel = probe_peel(sweep_.context, points, times);
    if (!peel.ok) return fail(why, "peel probe missed the memory tier or changed a time");
    v.peel_s = peel.seconds;
    v.peel_points = static_cast<double>(points.size());

    v.kernel = probe_trace_and_kernel(sweep_.context, points, times);
    if (!v.kernel.times_match) return fail(why, "kernel probe times differ from the op's");

    if (mode_ == DseMode::kCold) {
      // The warm path: an emulated restart (the memory tier is gone, the
      // attach recovers the flushed tier) and a sweep served wholly from it.
      cache.detach_disk_tier();
      cache.clear();
      double start = now_s();
      {
        ScopedSpan span("exec.attach_disk_tier");
        attach_or_throw(cache_dir_);
      }
      v.disk_attach_s = now_s() - start;
      start = now_s();
      FullDseResult warm;
      {
        ScopedSpan span("aps.warm_sweep");
        warm = run_full_dse(sweep_.context, sweep_.space);
      }
      v.warm_sweep_s = now_s() - start;
      const exec::SimCacheStats stats = cache.stats();
      if (warm.batch.members != 0 || stats.misses != 0 || stats.disk_drops != 0 ||
          warm.batch.cache_hits_disk != sweep_.flats.size())
        return fail(why, "warm restart was not served wholly from disk: " +
                             std::to_string(warm.batch.members) + " simulations, " +
                             std::to_string(stats.misses) + " misses, " +
                             std::to_string(stats.disk_drops) + " drops");
      if (digest_times(warm.times) != digest_times(result_.times))
        return fail(why, "warm restart changed the time table");
    }

    if (mode_ == DseMode::kSurrogate) {
      // Driver overhead: the surrogate sweep minus a batched-only sweep of
      // exactly the points it simulated, both from a cold memory tier.
      cache.clear();
      double start = now_s();
      SurrogateSweepResult sweep;
      {
        ScopedSpan span("aps.surrogate_sweep");
        sweep = surrogate_sweep(sweep_.context, sweep_.points);
      }
      const double surrogate_s = now_s() - start;
      std::vector<std::vector<double>> simulated;
      for (std::size_t i = 0; i < sweep_.points.size(); ++i) {
        const double op_time = result_.times[sweep_.flats[i]];
        if ((sweep.simulated[i] != 0) != std::isfinite(op_time) ||
            (sweep.simulated[i] != 0 && !bits_equal(sweep.outcomes[i].time, op_time)))
          return fail(why, "surrogate_sweep differs from the op" + at(sweep_.flats[i]));
        if (sweep.simulated[i] != 0) simulated.push_back(sweep_.points[i]);
      }
      cache.clear();
      start = now_s();
      {
        ScopedSpan span("aps.batched_sweep");
        simulate_design_times_batched(sweep_.context, simulated);
      }
      v.surrogate_driver_s = surrogate_s - (now_s() - start);
      if (!probe_aps_catalog(v, why)) return false;
    }
    v.emit(out);
    return true;
  }

  std::vector<std::string> references() const override {
    std::vector<std::string> names{"sample", "optimum"};
    if (expected_ != nullptr) names.push_back("expected");
    return names;
  }

  void flip_reference(const std::string& name) override {
    if (name == "sample") {
      // The first sampled point the op simulated: its time is compared bit
      // for bit (a pruned one is only bounded by the optimum).
      std::size_t s = 0;
      while (s + 1 < sample_.size() && !std::isfinite(result_.times[sweep_.flats[sample_[s]]]))
        ++s;
      sample_ref_[s] = flip_low_bit(sample_ref_[s]);
    }
    if (name == "optimum")
      for (auto& [flat, time] : optimum_ref_) time = flip_low_bit(time);
    if (name == "expected") expected_time_ = flip_low_bit(expected_time_);
  }

 private:
  DseMode mode_;
  RunOptions options_;
  std::string cache_dir_;
  Sweep sweep_;
  FullDseResult result_;
  exec::SimCacheStats op_stats_;
  double flush_s_ = 0.0;
  std::vector<std::size_t> sample_;  ///< positions in sweep_.flats
  std::vector<double> sample_ref_;
  std::map<std::size_t, double> optimum_ref_;  ///< flat index -> reference time
  const ExpectedOptimum* expected_ = nullptr;
  double expected_time_ = 0.0;
};

void print_entry(const char* workload, const std::string& entry, std::size_t index,
                 double time) {
  std::printf("    {\"%s\", \"%s\", %zu, %a},  // %.17g\n", workload, entry.c_str(), index, time,
              time);
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"dse_cold", "dse_surrogate"};
}

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "dse_cold")
    return std::make_unique<DseWorkload>(DseMode::kCold, options);
  if (options.workload == "dse_surrogate")
    return std::make_unique<DseWorkload>(DseMode::kSurrogate, options);
  return nullptr;
}

int print_expected() {
  std::printf("inline constexpr ExpectedOptimum kExpectedOptima[] = {\n");
  exec::set_thread_count(sweep_threads());
  const GridSpace large = make_design_space(make_large_axes());
  exec::SimCache::global().clear();
  const FullDseResult cold = run_full_dse(stencil_study_context(kDefaultSeed), large);
  print_entry("dse_cold", "", cold.best_index, cold.best_time);
  // dse_surrogate must land on the exhaustive optimum of its context.
  for (const WorkloadSpec& spec : workload_catalog()) {
    if (spec.name != "stencil") continue;
    exec::SimCache::global().clear();
    const FullDseResult r = run_full_dse(cli_default_context(spec, kDefaultSeed), large);
    print_entry("dse_surrogate", "", r.best_index, r.best_time);
  }
  exec::set_thread_count(1);
  for (const WorkloadSpec& spec : workload_catalog()) {
    exec::SimCache::global().clear();
    const ApsResult r = run_aps(cli_default_context(spec, kDefaultSeed),
                                make_design_space(DseAxes{}), ApsOptions{});
    print_entry("aps_catalog", spec.name, r.best_index, r.best_time);
  }
  std::printf("};\n");
  return 0;
}

}  // namespace c2b::perfbench
