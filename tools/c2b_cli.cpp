// c2b — the C²-Bound command-line tool.
//
//   c2b workloads
//       List the built-in synthetic workloads.
//   c2b characterize --workload <name> [--instructions N] [--simpoints]
//       Trace + simulate the workload and print its measured AppProfile.
//   c2b optimize [--f-mem F] [--f-seq F] [--ch C] [--cm C] [--overlap R]
//                [--working-set LINES] [--g fixed|linear|power:<b>|fft:<M>]
//                [--area A] [--shared-area A] [--contention Q] [--n-max N]
//                [--asymmetric] [--objective time|energy|edp|ed2p]
//       Solve the C²-Bound chip-design problem for the given profile and
//       print the optimum, the per-N frontier, and the elasticity profile.
//   c2b simulate --workload <name> [--cores N] [--l1-kib K] [--l2-kib K]
//                [--issue W] [--rob R] [--prefetch none|nextline|stride]
//                [--coherence] [--instructions N]
//       Run the cycle-level simulator and print CPI, C-AMAT, APC per layer.
//   c2b trace --workload <name> --out <file> [--instructions N] [--scale S]
//       Generate a trace and save it in the binary trace format.
//   c2b aps [flags]       (see `c2b aps --help`)
//       Run APS (characterize, analytic solve, neighborhood simulation) on
//       a small grid and print the chosen design and simulation totals.
//   c2b dse [flags]       (see `c2b dse --help`)
//       Run the full-factorial (or surrogate-pruned, or Pareto) DSE and
//       print the ground-truth best design and the batch/cache summary.
//   c2b report --journal <file> [--top K] [--heatmap-out <csv>]
//       Replay a run journal (see --journal-out) into a post-mortem: phase
//       time breakdown, cache/batch effectiveness, top-K slowest trace
//       classes, per-class sim-time percentiles, and (with --heatmap-out)
//       an objective-vs-(N, cache split) CSV heatmap.
//   c2b check [--family all|analytic|determinism|invariants|kernel|batch|simd|constraint|surrogate|cache]
//             [--seed S] [--configs N] [--aps-configs N] [--cases N]
//             [--designs N] [--kernel-configs N] [--batch-sets N]
//             [--simd-sets N] [--constraint-sets N] [--surrogate-sets N]
//             [--cache-sets N] [--bands-out <file>] [--corpus <dir>]
//       Run the differential oracle families (analytic model vs simulator
//       tolerance bands, serial-vs-parallel determinism on random configs,
//       invariant registry). Deterministic for a fixed --seed; failures
//       print a one-line C2B_CHECK_SEED/C2B_CHECK_CASE repro and exit
//       nonzero. --bands-out exports the per-workload tolerance bands as
//       JSON; --corpus persists shrunk property counterexamples.
//   c2b serve [--port P] [--host H] [--port-file <file>] [--spool <dir>]
//             [--max-active N] [--max-queue N] [--cache-dir <dir>]
//       Run the DSE service: a loopback HTTP daemon accepting concurrent
//       dse/aps/check jobs (POST /jobs with a flat JSON body) on the shared
//       thread pool, with bounded admission (--max-queue unfinished jobs,
//       --max-active running at once), per-job journal streaming
//       (GET /jobs/<id>/events, needs --spool), process-wide telemetry at
//       GET /metrics, and graceful drain on POST /shutdown. --port 0 picks
//       an ephemeral port, written to --port-file for scripts. --cache-dir
//       attaches the persistent sim-cache tier (same as C2B_SIM_CACHE_DIR),
//       so every job warm-starts from all previous runs.
//   c2b submit --port P [--type dse|aps|check] [keys of that job type]
//              [--job-threads N] [--body <json>] [--wait] [--poll-ms N]
//       Submit one job to a running `c2b serve` and print the job id. The
//       job keys are the `c2b dse`/`c2b aps --help` flags (or --family,
//       --seed for check); --body sends raw JSON instead. --wait polls
//       until the job finishes and prints the result.
//   c2b fetch --port P [--path /metrics] [--post]
//       One-shot HTTP helper against a running daemon: GET (or POST) the
//       path and print the response body (e.g. /metrics, /stats,
//       /jobs/0/events?from=0, /shutdown with --post).
//
// Flags accepted by every command:
//   --threads N            parallel execution width for the DSE/APS sweeps
//                          (default: C2B_THREADS env, else hardware
//                          concurrency; 1 = serial)
//   --metrics-out <path>   dump the counter/gauge/histogram registry after
//                          the command (JSON, or CSV when path ends .csv)
//   --trace-out <path>     dump recorded spans as Chrome trace-event JSON
//                          (load in chrome://tracing or Perfetto)
//   --span-sample-period N record only every Nth span per thread
//   --journal-out <path>   record the run into an append-only JSONL journal
//                          (the flight recorder `c2b report` replays)
//   --progress[=N]         live progress/ETA line on stderr, redrawn at
//                          most every N ms (default 500), plus a per-phase
//                          wall-clock attribution summary at end of run
//
// Every command prints plain text to stdout; exit code 0 on success.
// A malformed or unknown flag is a usage error: exit 2, naming the flag.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "c2b/aps/aps.h"
#include "c2b/aps/request.h"
#include "c2b/aps/characterize.h"
#include "c2b/check/oracles.h"
#include "c2b/core/asymmetric.h"
#include "c2b/core/energy.h"
#include "c2b/core/optimizer.h"
#include "c2b/core/sensitivity.h"
#include "c2b/exec/pool.h"
#include "c2b/exec/sim_cache.h"
#include "c2b/obs/export.h"
#include "c2b/obs/journal.h"
#include "c2b/obs/obs.h"
#include "c2b/obs/progress.h"
#include "c2b/obs/report.h"
#include "c2b/serve/http.h"
#include "c2b/serve/server.h"
#include "c2b/sim/system/system.h"
#include "c2b/trace/trace_io.h"
#include "c2b/trace/workloads.h"
#include "cli_args.h"

namespace c2b::cli {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: c2b <command> [flags]\n"
               "commands: workloads | characterize | optimize | simulate | trace | aps | dse | report | check | serve | submit | fetch\n"
               "`c2b dse --help` and `c2b aps --help` list the sweep flags; see\n"
               "README.md for the other commands.\n");
  return 2;
}

/// The catalog workload named by --workload.
WorkloadSpec workload_flag(const Args& args, const char* fallback) {
  const std::string name = args.get("workload", std::string(fallback));
  if (auto spec = find_workload(name)) return *std::move(spec);
  throw UsageError("--workload: unknown workload '" + name + "' (see `c2b workloads`)");
}

ScalingFunction parse_g(const std::string& text) {
  const auto tail = [&](std::size_t prefix) { return parse_number(text.substr(prefix)); };
  if (text == "fixed") return ScalingFunction::fixed();
  if (text == "linear") return ScalingFunction::linear();
  if (text.rfind("power:", 0) == 0 && tail(6)) return ScalingFunction::power(*tail(6));
  if (text.rfind("fft:", 0) == 0 && tail(4)) return ScalingFunction::fft_like(*tail(4));
  throw UsageError("--g '" + text + "' is unknown (want fixed|linear|power:<b>|fft:<M>)");
}

// ---------------------------------------------------------------------------

int cmd_workloads(const Args& args) {
  args.finish();
  std::printf("%-20s %-8s %-10s %s\n", "name", "f_seq", "g(N)", "emulates");
  for (const WorkloadSpec& spec : workload_catalog()) {
    std::printf("%-20s %-8.2f %-10s %s\n", spec.name.c_str(), spec.f_seq,
                spec.g.description().substr(0, 10).c_str(), spec.emulates.c_str());
  }
  return 0;
}

int cmd_characterize(const Args& args) {
  const WorkloadSpec spec = workload_flag(args, "fluidanimate_like");
  CharacterizeOptions options;
  options.instructions =
      static_cast<std::uint64_t>(args.get("instructions", 200'000LL));
  options.use_simpoints = args.has("simpoints");
  args.mark_used("simpoints");
  args.finish();

  const Characterization c = characterize(spec, baseline_system(), options);
  std::printf("workload: %s (%s)\n", spec.name.c_str(), spec.emulates.c_str());
  std::printf("simulated %zu instructions in %zu runs\n\n", c.simulated_instructions,
              c.simulation_runs);
  std::printf("f_mem                 %8.3f\n", c.app.f_mem);
  std::printf("CPI (measured)        %8.3f\n", c.measured_cpi);
  std::printf("CPI_exe (perfect mem) %8.3f\n", c.cpi_exe);
  std::printf("AMAT                  %8.3f cycles\n", c.camat.amat_value);
  std::printf("C-AMAT                %8.3f cycles\n", c.camat.camat_value);
  std::printf("concurrency C         %8.3f\n", c.camat.concurrency_c);
  std::printf("C_H / C_M             %8.3f / %.3f\n", c.app.hit_concurrency,
              c.app.miss_concurrency);
  std::printf("pMR/MR, pAMP/AMP      %8.3f / %.3f\n", c.app.pure_miss_fraction,
              c.app.pure_penalty_fraction);
  std::printf("overlap ratio         %8.3f\n", c.app.overlap_ratio);
  std::printf("working set           %8.0f lines\n", c.app.working_set_lines0);
  std::printf("L1 miss power law     MR(S) ~ %.4g * S^-%.3f\n", c.l1_power_law.alpha,
              c.l1_power_law.beta);
  std::printf("APC per layer         L1 %.3f | L2 %.4f | DRAM %.4f\n", c.hierarchy.apc_l1,
              c.hierarchy.apc_l2, c.hierarchy.apc_mem);
  return 0;
}

AppProfile profile_from_flags(const Args& args) {
  AppProfile app;
  app.ic0 = args.get("ic0", 1e6);
  app.f_mem = args.get("f-mem", 0.35);
  app.f_seq = args.get("f-seq", 0.05);
  app.overlap_ratio = args.get("overlap", 0.3);
  app.working_set_lines0 = args.get("working-set", 32768.0);
  app.g = parse_g(args.get("g", std::string("power:1.5")));
  app.hit_concurrency = args.get("ch", 2.0);
  app.miss_concurrency = args.get("cm", 3.0);
  app.pure_miss_fraction = args.get("pure-miss-fraction", 0.6);
  app.pure_penalty_fraction = args.get("pure-penalty-fraction", 0.8);
  return app;
}

MachineProfile machine_from_flags(const Args& args) {
  MachineProfile machine;
  machine.chip.total_area = args.get("area", 256.0);
  machine.chip.shared_area = args.get("shared-area", 16.0);
  machine.memory_contention = args.get("contention", 0.05);
  machine.memory_latency = args.get("memory-latency", machine.memory_latency);
  return machine;
}

int cmd_optimize(const Args& args) {
  const AppProfile app = profile_from_flags(args);
  const MachineProfile machine = machine_from_flags(args);
  OptimizerOptions options;
  options.n_max = args.get("n-max", 0LL);
  const std::string objective = args.get("objective", std::string("time"));
  const bool asymmetric = args.has("asymmetric");
  args.mark_used("asymmetric");
  args.finish();

  if (asymmetric) {
    const AsymmetricOptimizer optimizer(AsymmetricC2BoundModel(app, machine), options);
    const AsymmetricOptimum result = optimizer.optimize();
    std::printf("asymmetric optimum (%s):\n",
                result.opt_case == OptimizationCase::kMaximizeThroughput ? "max W/T"
                                                                         : "min T");
    std::printf("  small cores n      = %lld\n", result.best.design.n_small);
    std::printf("  big core ratio r   = %.2f small-core equivalents\n",
                result.best.design.big_core_ratio);
    std::printf("  area fractions     = core %.2f | L1 %.2f | L2 %.2f\n",
                result.best.design.core_fraction(), result.best.design.l1_fraction,
                result.best.design.l2_fraction);
    std::printf("  serial / parallel  = %.3g / %.3g cycles\n", result.best.serial_time,
                result.best.parallel_time);
    std::printf("  time, throughput   = %.4g cycles, %.4g work/cycle\n",
                result.best.execution_time, result.best.throughput);
    return 0;
  }

  if (objective != "time") {
    DesignObjective parsed = DesignObjective::kEdp;
    if (objective == "energy") parsed = DesignObjective::kEnergy;
    else if (objective == "edp") parsed = DesignObjective::kEdp;
    else if (objective == "ed2p") parsed = DesignObjective::kEd2p;
    else throw UsageError("--objective '" + objective + "' is unknown");
    const EnergyAwareOptimizer optimizer(
        EnergyAwareModel(C2BoundModel(app, machine), EnergyModel{}), options);
    const EnergyOptimum result = optimizer.optimize(parsed);
    const DesignPoint& d = result.best.performance.design;
    std::printf("%s-optimal design:\n", objective.c_str());
    std::printf("  N = %.0f, A0 = %.3f, A1 = %.3f, A2 = %.3f\n", d.n_cores, d.a0, d.a1,
                d.a2);
    std::printf("  time %.4g cycles | energy %.4g | EDP %.4g | power %.4g\n",
                result.best.performance.execution_time, result.best.total_energy,
                result.best.edp, result.best.average_power);
    return 0;
  }

  const C2BoundOptimizer optimizer(C2BoundModel(app, machine), options);
  const OptimalDesign result = optimizer.optimize();
  std::printf("C²-Bound optimum (%s):\n",
              result.opt_case == OptimizationCase::kMaximizeThroughput
                  ? "case I: maximize W/T"
                  : "case II: minimize T");
  const DesignPoint& d = result.best.design;
  std::printf("  N = %.0f cores, A0 = %.3f, A1 = %.3f, A2 = %.3f (area units)\n", d.n_cores,
              d.a0, d.a1, d.a2);
  std::printf("  C-AMAT %.3f cycles (C = %.2f), L1 MR %.4f, L2 local MR %.4f\n",
              result.best.camat, result.best.concurrency_c, result.best.l1_miss_rate,
              result.best.l2_local_miss_rate);
  std::printf("  time %.4g cycles | throughput %.4g | Sun-Ni speedup %.2f\n",
              result.best.execution_time, result.best.throughput,
              result.best.speedup_vs_serial);
  std::printf("  area price lambda = %.4g\n\n", result.lambda);

  const C2BoundModel model(app, machine);
  const auto elasticities = time_elasticities(model, d);
  std::printf("elasticities at the optimum (d log T / d log x):\n");
  for (const Elasticity& e : elasticities)
    std::printf("  %-24s %+8.4f  (at %.4g)\n", e.parameter.c_str(), e.elasticity, e.value);
  std::printf("binding bound: %s\n", to_string(classify_binding_bound(elasticities)));
  return 0;
}

int cmd_simulate(const Args& args) {
  const WorkloadSpec spec = workload_flag(args, "stencil");

  sim::SystemConfig config = baseline_system();
  const auto cores = static_cast<std::uint32_t>(args.get("cores", 1LL));
  config.hierarchy.cores = cores;
  config.hierarchy.l1_geometry.size_bytes =
      static_cast<std::uint64_t>(args.get("l1-kib", 16LL)) * 1024;
  config.hierarchy.l2_geometry.size_bytes =
      static_cast<std::uint64_t>(args.get("l2-kib", 512LL)) * 1024;
  config.core.issue_width = static_cast<std::uint32_t>(args.get("issue", 4LL));
  config.core.rob_size = static_cast<std::uint32_t>(args.get("rob", 128LL));
  config.hierarchy.coherence = args.has("coherence");
  args.mark_used("coherence");
  const std::string prefetch = args.get("prefetch", std::string("none"));
  if (prefetch == "nextline") config.hierarchy.l1_prefetch.kind = sim::PrefetchKind::kNextLine;
  else if (prefetch == "stride") config.hierarchy.l1_prefetch.kind = sim::PrefetchKind::kStride;
  else if (prefetch != "none") throw UsageError("--prefetch '" + prefetch + "' is unknown");
  const auto instructions =
      static_cast<std::uint64_t>(args.get("instructions", 100'000LL));
  args.finish();

  std::vector<Trace> traces;
  for (std::uint32_t c = 0; c < cores; ++c)
    traces.push_back(spec.make_generator(1.0, 7 + c)->generate(instructions));
  const sim::SystemResult result = sim::simulate_system(config, traces);

  std::printf("workload %s on %u core(s), %llu instructions each\n", spec.name.c_str(),
              cores, static_cast<unsigned long long>(instructions));
  std::printf("makespan          %llu cycles (aggregate IPC %.3f)\n",
              static_cast<unsigned long long>(result.cycles), result.aggregate_ipc());
  std::uint64_t memory_accesses = 0;
  for (const sim::CoreResult& core : result.cores) memory_accesses += core.memory_accesses;
  std::printf("memory accesses   %llu (all cores)\n",
              static_cast<unsigned long long>(memory_accesses));
  const sim::CoreResult& core0 = result.cores[0];
  std::printf("core 0: CPI %.3f | f_mem %.3f | AMAT %.2f | C-AMAT %.2f | C %.2f\n",
              core0.cpi, core0.f_mem, core0.camat.amat_value, core0.camat.camat_value,
              core0.camat.concurrency_c);
  const sim::HierarchyStats& h = result.hierarchy;
  std::printf("L1 MR %.4f | L2 local MR %.4f | DRAM accesses %llu (row hit %.2f)\n",
              h.l1_miss_ratio, h.l2_miss_ratio,
              static_cast<unsigned long long>(h.dram_accesses), h.dram_row_hit_ratio);
  std::printf("APC: L1 %.3f | L2 %.4f | DRAM %.4f\n", h.apc_l1, h.apc_l2, h.apc_mem);
  std::printf("writebacks: L1->L2 %llu | L2->DRAM %llu\n",
              static_cast<unsigned long long>(h.l1_writebacks),
              static_cast<unsigned long long>(h.l2_writebacks));
  if (config.hierarchy.l1_prefetch.kind != sim::PrefetchKind::kNone)
    std::printf("prefetch: issued %llu, useful %llu (accuracy %.2f)\n",
                static_cast<unsigned long long>(h.prefetches_issued),
                static_cast<unsigned long long>(h.prefetch_useful_hits),
                h.prefetch_accuracy);
  if (config.hierarchy.coherence)
    std::printf("coherence: invalidations %llu, owner transfers %llu, upgrades %llu\n",
                static_cast<unsigned long long>(h.coherence_invalidations),
                static_cast<unsigned long long>(h.coherence_owner_transfers),
                static_cast<unsigned long long>(h.coherence_upgrades));
  return 0;
}

// One-line batch/cache effectiveness summary shared by `c2b dse` and
// `c2b aps`: sim-cache traffic for the whole process, plus how the batched
// replay engine covered this command's sweeps.
void print_batch_summary(const BatchReplayStats& batch) {
  const exec::SimCacheStats cache = exec::SimCache::global().stats();
  std::printf("cache hits %llu (%llu mem + %llu disk) / misses %llu | "
              "batch classes %zu (%zu members, %zu configs replayed) | "
              "regen avoided %llu accesses\n",
              static_cast<unsigned long long>(cache.hits + cache.disk_hits),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.disk_hits),
              static_cast<unsigned long long>(cache.misses), batch.classes, batch.members,
              batch.replayed_configs,
              static_cast<unsigned long long>(batch.regen_avoided_accesses));
  if (exec::SimCache::global().has_disk_tier())
    std::printf("disk tier: %llu hits / %llu misses | %zu entries | "
                "%llu flushes | %llu drops\n",
                static_cast<unsigned long long>(cache.disk_hits),
                static_cast<unsigned long long>(cache.disk_misses), cache.disk_entries,
                static_cast<unsigned long long>(cache.disk_flushes),
                static_cast<unsigned long long>(cache.disk_drops));
  if (batch.simd_steps > 0)
    std::printf("simd kernel: %llu steps | %llu peeled records | %llu lane-rounds\n",
                static_cast<unsigned long long>(batch.simd_steps),
                static_cast<unsigned long long>(batch.simd_peels),
                static_cast<unsigned long long>(batch.simd_lanes_active));
}

/// `c2b dse --help` / `c2b aps --help`: the request table plus the
/// CLI-only flags.
int print_sweep_help(SweepCommand command) {
  std::printf("%sCLI-only flags, results unchanged: --lockstep-records <n> (>= 1), --no-simd,\n"
              "--threads <n>%s\n",
              request_help(command).c_str(),
              command == SweepCommand::kAps ? ", --repeat <n> (repeats must match)" : "");
  return 0;
}

/// Reads the sweep commands' CLI-only tuning flags, then builds the request
/// from every other flag through the shared schema (c2b/aps/request.h).
SweepRequest sweep_request(const Args& args, SweepCommand command) {
  const bool has_lockstep = args.has("lockstep-records");
  const long long lockstep = args.get("lockstep-records", 1LL);
  if (lockstep < 1) throw UsageError("--lockstep-records must be >= 1");
  const bool use_simd = args.get("no-simd", std::string("false")) != "true";
  SweepRequest request = build_sweep_request(command, args.rest());
  if (has_lockstep) request.context.lockstep_records = static_cast<std::uint64_t>(lockstep);
  request.context.use_simd = use_simd;
  return request;
}

void print_surrogate_summary(const SurrogateStats& stats) {
  if (stats.classes_total == 0) return;
  const double class_pct =
      100.0 * static_cast<double>(stats.classes_simulated) /
      static_cast<double>(stats.classes_total);
  const double point_pct = stats.points_total > 0
                               ? 100.0 * static_cast<double>(stats.points_simulated) /
                                     static_cast<double>(stats.points_total)
                               : 0.0;
  std::printf("surrogate         %zu/%zu classes simulated (%.1f%%), %zu pruned\n",
              stats.classes_simulated, stats.classes_total, class_pct,
              stats.classes_pruned);
  std::printf("  points          %zu/%zu simulated (%.1f%%), warmup %zu, fallback %zu\n",
              stats.points_simulated, stats.points_total, point_pct, stats.warmup_sims,
              stats.fallback_sims);
  std::printf("  model           %zu round(s), %zu trained samples, final MRE %.2f%%\n",
              stats.rounds, stats.trained_samples, 100.0 * stats.mre);
}

int cmd_aps(const Args& args) {
  if (args.has("help")) return print_sweep_help(SweepCommand::kAps);
  const long long repeat = args.get("repeat", 1LL);
  if (repeat < 1) throw UsageError("--repeat must be >= 1");
  const SweepRequest request = sweep_request(args, SweepCommand::kAps);
  const DseContext& context = request.context;
  const ApsOptions& options = request.aps;
  const WorkloadSpec& spec = context.workload;

  const GridSpace space = make_design_space(request.axes);
  journal_sweep_config(request, space.size());
  ApsResult aps = run_aps(context, space, options);
  // Re-running the same neighborhood hits the memoized simulation cache;
  // every repeat must reproduce the first result bit for bit (the
  // exec.simcache.* counters in --metrics-out show the hit traffic).
  for (long long r = 1; r < repeat; ++r) {
    const ApsResult again = run_aps(context, space, options);
    if (again.best_index != aps.best_index || again.best_time != aps.best_time ||
        again.memory_accesses != aps.memory_accesses) {
      std::fprintf(stderr, "aps: repeat %lld diverged from the first run\n", r);
      return 1;
    }
  }

  std::printf("APS on workload %s (%s), %zu-point grid\n", spec.name.c_str(),
              spec.emulates.c_str(), space.size());
  std::printf("characterize: CPI %.3f (CPI_exe %.3f), f_mem %.3f, C-AMAT %.3f\n",
              aps.characterization.measured_cpi, aps.characterization.cpi_exe,
              aps.characterization.app.f_mem, aps.characterization.camat.camat_value);
  const DesignPoint& d = aps.analytic.best.design;
  std::printf("analytic optimum: N = %.0f, A0 = %.3f, A1 = %.3f, A2 = %.3f\n", d.n_cores,
              d.a0, d.a1, d.a2);
  const std::vector<double> chosen = space.point(aps.best_index);
  std::printf("chosen design: a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f\n",
              chosen[kAxisA0], chosen[kAxisA1], chosen[kAxisA2], chosen[kAxisN],
              chosen[kAxisIssue], chosen[kAxisRob]);
  std::printf("best time/work    %.6g cycles\n", aps.best_time);
  std::printf("simulations       %zu (narrowing factor %.1fx)\n", aps.simulations,
              aps.narrowing_factor);
  std::printf("memory accesses   %llu\n",
              static_cast<unsigned long long>(aps.memory_accesses));
  print_batch_summary(aps.batch);
  journal_batch_stats(aps.batch);
  return 0;
}

int cmd_dse(const Args& args) {
  if (args.has("help")) return print_sweep_help(SweepCommand::kDse);
  const SweepRequest request = sweep_request(args, SweepCommand::kDse);
  const DseContext& context = request.context;
  const WorkloadSpec& spec = context.workload;

  const GridSpace space = make_design_space(request.axes);
  journal_sweep_config(request, space.size());

  if (request.pareto) {
    const ParetoDseResult result = run_pareto_dse(context, space);
    std::printf("Pareto DSE on workload %s (%s), %zu-point grid\n", spec.name.c_str(),
                spec.emulates.c_str(), space.size());
    std::printf("feasible          %zu of %zu points\n", result.feasible_count,
                result.grid_points);
    std::printf("frontier          %zu non-dominated design(s) (time, power, area)\n",
                result.frontier.size());
    for (const FrontierPoint& fp : result.frontier)
      std::printf("  a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f"
                  "  -> time %.6g | power %.4g | area %.4g\n",
                  fp.point[kAxisA0], fp.point[kAxisA1], fp.point[kAxisA2],
                  fp.point[kAxisN], fp.point[kAxisIssue], fp.point[kAxisRob], fp.time,
                  fp.power, fp.area);
    std::printf("constraints:\n");
    for (const ConstraintUsage& usage : result.usage)
      std::printf("  %-10s budget %-10.4g rejected %-6zu binding %zu/%zu frontier\n",
                  usage.name.c_str(), usage.budget, usage.infeasible, usage.binding,
                  result.frontier.size());
    print_surrogate_summary(result.surrogate);
    print_batch_summary(result.batch);
    journal_batch_stats(result.batch);
    return 0;
  }

  const FullDseResult full = run_full_dse(context, space);

  std::printf("full-factorial DSE on workload %s (%s), %zu-point grid\n",
              spec.name.c_str(), spec.emulates.c_str(), space.size());
  const std::vector<double> best = space.point(full.best_index);
  std::printf("best design: a0 %.2f | a1 %.2f | a2 %.2f | N %.0f | issue %.0f | rob %.0f\n",
              best[kAxisA0], best[kAxisA1], best[kAxisA2], best[kAxisN],
              best[kAxisIssue], best[kAxisRob]);
  std::printf("best time/work    %.6g cycles\n", full.best_time);
  std::printf("simulations       %zu (%zu feasible of %zu points)\n", full.simulations,
              full.feasible_count, space.size());
  print_surrogate_summary(full.surrogate);
  print_batch_summary(full.batch);
  journal_batch_stats(full.batch);
  return 0;
}

int cmd_report(const Args& args) {
  const std::string journal_path = args.get("journal", std::string(""));
  const auto top_k = args.get("top", 10LL);
  const std::string heatmap_out = args.get("heatmap-out", std::string(""));
  args.finish();
  if (journal_path.empty()) throw UsageError("--journal <file> is required");
  if (top_k < 1) throw UsageError("--top must be >= 1");

  obs::JournalReadStats stats;
  const std::vector<obs::JournalRecord> records = obs::read_journal(journal_path, &stats);
  if (stats.lines == 0) {
    std::fprintf(stderr, "report: journal '%s' is empty or missing\n",
                 journal_path.c_str());
    return 1;
  }
  const obs::RunReport report = obs::build_report(records, stats);
  std::fputs(obs::render_report(report, static_cast<std::size_t>(top_k)).c_str(), stdout);

  if (!heatmap_out.empty()) {
    const std::string csv = obs::heatmap_csv(report);
    if (csv.empty()) {
      std::fprintf(stderr, "report: journal has no point events, heatmap not written\n");
      return 1;
    }
    std::ofstream out(heatmap_out);
    out << csv;
    if (!out) {
      std::fprintf(stderr, "report: cannot write heatmap to %s\n", heatmap_out.c_str());
      return 1;
    }
    std::printf("\nheatmap written to %s\n", heatmap_out.c_str());
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const WorkloadSpec spec = workload_flag(args, "stencil");
  const std::string out = args.get("out", std::string(""));
  if (out.empty()) throw UsageError("--out <file> is required");
  const auto instructions =
      static_cast<std::uint64_t>(args.get("instructions", 100'000LL));
  const double scale = args.get("scale", 1.0);
  const auto seed = static_cast<std::uint64_t>(args.get("seed", 1LL));
  args.finish();

  Trace trace = spec.make_generator(scale, seed)->generate(instructions);
  trace.name = spec.name;
  save_trace(out, trace);
  std::printf("wrote %llu records (%llu distinct lines, f_mem %.3f) to %s\n",
              static_cast<unsigned long long>(trace.records.size()),
              static_cast<unsigned long long>(trace.distinct_lines()), trace.f_mem(),
              out.c_str());
  return 0;
}

int cmd_check(const Args& args) {
  check::OracleOptions options;
  options.seed = static_cast<std::uint64_t>(args.get("seed", 42LL));
  options.dse_configs = static_cast<std::size_t>(args.get("configs", 100LL));
  options.aps_configs = static_cast<std::size_t>(args.get("aps-configs", 4LL));
  options.invariant_cases = static_cast<std::size_t>(args.get("cases", 60LL));
  options.designs_per_workload = static_cast<std::size_t>(args.get("designs", 5LL));
  options.kernel_configs = static_cast<std::size_t>(args.get("kernel-configs", 40LL));
  options.batch_sets = static_cast<std::size_t>(args.get("batch-sets", 50LL));
  options.simd_sets = static_cast<std::size_t>(args.get("simd-sets", 3LL));
  options.constraint_sets = static_cast<std::size_t>(args.get("constraint-sets", 6LL));
  options.surrogate_sets = static_cast<std::size_t>(args.get("surrogate-sets", 3LL));
  options.cache_sets = static_cast<std::size_t>(args.get("cache-sets", 3LL));
  options.corpus_dir = args.get("corpus", std::string(""));
  const std::string bands_out = args.get("bands-out", std::string(""));
  const std::string family = args.get("family", std::string("all"));
  args.finish();

  std::vector<check::OracleReport> reports;
  if (family == "all") {
    reports = check::run_all_oracles(options);
  } else if (const check::OracleFamily* one = check::find_oracle_family(family)) {
    reports.push_back(one->run(options));
  } else {
    std::string names = "all";
    for (const check::OracleFamily& known : check::oracle_families())
      names += std::string("|") + known.name;
    throw UsageError("--family '" + family + "' is unknown (want " + names + ")");
  }

  bool all_passed = true;
  for (const check::OracleReport& report : reports) {
    std::printf("%s %-16s %zu checks, %zu failure(s)\n",
                report.passed() ? "PASS" : "FAIL", report.family.c_str(), report.checks,
                report.failures.size());
    for (const check::ToleranceBand& band : report.bands)
      std::printf("  band %-20s mean %6.2f%% (tol %5.1f%%)  max %6.2f%% (tol %5.1f%%)  %s\n",
                  band.workload.c_str(), 100.0 * band.mean_abs_rel_error,
                  100.0 * band.mean_tolerance, 100.0 * band.max_abs_rel_error,
                  100.0 * band.max_tolerance, band.passed ? "ok" : "VIOLATED");
    for (const std::string& failure : report.failures)
      std::printf("  FAIL %s\n", failure.c_str());
    if (!bands_out.empty() && report.family == "analytic_vs_sim") {
      if (check::write_tolerance_bands_json(bands_out, report.bands))
        std::printf("tolerance bands written to %s\n", bands_out.c_str());
      else
        all_passed = false;
    }
    all_passed = all_passed && report.passed();
  }
  return all_passed ? 0 : 1;
}

int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  options.host = args.get("host", std::string("127.0.0.1"));
  options.port = static_cast<int>(args.get("port", 0LL));
  options.max_active = static_cast<std::size_t>(args.get("max-active", 2LL));
  options.max_queue = static_cast<std::size_t>(args.get("max-queue", 64LL));
  options.spool_dir = args.get("spool", std::string(""));
  const std::string port_file = args.get("port-file", std::string(""));
  const std::string cache_dir = args.get("cache-dir", std::string(""));
  args.finish();

  if (!cache_dir.empty() && !exec::SimCache::global().attach_disk_tier(cache_dir)) {
    std::fprintf(stderr, "serve: cannot attach cache dir '%s'\n", cache_dir.c_str());
    return 1;
  }
  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "serve: cannot write port file '%s'\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("serving on %s:%d (max-active %zu, max-queue %zu)\n", options.host.c_str(),
              server.port(), options.max_active, options.max_queue);
  std::fflush(stdout);
  server.run();
  exec::SimCache::global().flush_disk();
  std::printf("serve: drained, exiting\n");
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string host = args.get("host", std::string("127.0.0.1"));
  const int port = static_cast<int>(args.get("port", 0LL));
  const bool wait = args.get("wait", std::string("false")) == "true";
  const long long poll_ms = args.get("poll-ms", 200LL);
  std::string body = args.get("body", std::string(""));
  if (body.empty()) {
    // Every other flag is a job key, sent as the text the flag carried
    // (the server parses a JSON string exactly like flag text). dse/aps
    // keys are checked here first, by the schema the server applies.
    const std::string type = args.get("type", std::string("dse"));
    const bool has_threads = args.has("job-threads");
    const long long threads = args.get("job-threads", 1LL);
    const RequestFields fields = args.rest();
    if (const auto command = parse_sweep_command(type)) build_sweep_request(*command, fields);
    body = "{\"type\":\"" + type + "\"";
    for (const auto& [key, value] : fields)
      body += ",\"" + key + "\":\"" + std::get<std::string>(value) + "\"";
    if (has_threads) body += ",\"threads\":" + std::to_string(threads);
    body += "}";
  }
  args.finish();
  if (port <= 0) throw UsageError("--port is required (see `c2b serve --port-file`)");

  std::string error;
  const auto response = serve::http_request(host, port, "POST", "/jobs", body, &error);
  if (!response.has_value()) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", response->body.c_str());
  if (response->status >= 300) {
    std::fprintf(stderr, "submit: HTTP %d\n", response->status);
    return 1;
  }
  if (!wait) return 0;

  const std::size_t id_pos = response->body.find("\"id\":");
  if (id_pos == std::string::npos) return 1;
  const unsigned long long id = std::strtoull(response->body.c_str() + id_pos + 5, nullptr, 10);
  const std::string path = "/jobs/" + std::to_string(id);
  for (;;) {
    const auto status = serve::http_request(host, port, "GET", path, {}, &error);
    if (!status.has_value()) {
      std::fprintf(stderr, "submit: %s\n", error.c_str());
      return 1;
    }
    const bool done = status->body.find("\"status\":\"done\"") != std::string::npos;
    const bool failed = status->body.find("\"status\":\"failed\"") != std::string::npos;
    if (done || failed) {
      std::printf("%s\n", status->body.c_str());
      return done ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms > 0 ? poll_ms : 200));
  }
}

int cmd_fetch(const Args& args) {
  const std::string host = args.get("host", std::string("127.0.0.1"));
  const int port = static_cast<int>(args.get("port", 0LL));
  const std::string target = args.get("path", std::string("/metrics"));
  const bool post = args.get("post", std::string("false")) == "true";
  args.finish();
  if (port <= 0) throw UsageError("--port is required");
  std::string error;
  const auto response =
      serve::http_request(host, port, post ? "POST" : "GET", target, {}, &error);
  if (!response.has_value()) {
    std::fprintf(stderr, "fetch: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", response->body.c_str());
  return response->status < 400 ? 0 : 1;
}

/// Owns the run's recorder state and guarantees the process-global active
/// pointers never outlive it, whichever way run() exits.
struct RecorderSession {
  std::unique_ptr<obs::RunJournal> journal;
  std::unique_ptr<obs::ProgressMeter> progress;
  ~RecorderSession() {
    obs::set_active_journal(nullptr);
    obs::set_active_progress(nullptr);
  }
};

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::set<std::string> boolean_flags{"simpoints", "asymmetric", "coherence", "progress",
                                      "no-simd",   "wait",       "post",      "help"};
  for (const RequestParam& param : request_params())
    if (param.type == ParamType::kFlag) boolean_flags.insert(param.name);
  const Args args(argc, argv, 2, boolean_flags);

  // Cross-command flags; read before dispatch so the per-command finish()
  // does not reject them as unknown.
  const auto threads = args.get("threads", 0LL);
  if (threads < 0) throw UsageError("--threads must be >= 1");
  if (threads > 0) exec::set_thread_count(static_cast<std::size_t>(threads));
  const std::string metrics_out = args.get("metrics-out", std::string(""));
  const std::string trace_out = args.get("trace-out", std::string(""));
  const auto sample_period = args.get("span-sample-period", 1LL);
  if (sample_period > 1)
    obs::set_span_sample_period(static_cast<std::uint32_t>(sample_period));

  RecorderSession recorder;
  const std::string journal_out = args.get("journal-out", std::string(""));
  if (!journal_out.empty()) {
    recorder.journal = obs::RunJournal::open(journal_out);
    if (recorder.journal == nullptr) {
      std::fprintf(stderr, "c2b: cannot open journal %s\n", journal_out.c_str());
      return 1;
    }
    obs::set_active_journal(recorder.journal.get());
  }
  // `--progress` renders at the default interval; `--progress=N` overrides
  // it (milliseconds; 0 redraws on every update).
  if (const auto interval_ms = args.get_opt("progress", 500)) {
    obs::ProgressMeter::Options options;
    options.interval_ms = *interval_ms > 0 ? static_cast<std::uint64_t>(*interval_ms) : 0;
    recorder.progress = std::make_unique<obs::ProgressMeter>(options);
    obs::set_active_progress(recorder.progress.get());
  }

  if (recorder.journal != nullptr) {
    std::string argv_line;
    for (int i = 2; i < argc; ++i) {
      if (!argv_line.empty()) argv_line += ' ';
      argv_line += argv[i];
    }
    recorder.journal->emit_run_begin(command, exec::thread_count(), argv_line);
  }

  int rc;
  if (command == "workloads") rc = cmd_workloads(args);
  else if (command == "characterize") rc = cmd_characterize(args);
  else if (command == "optimize") rc = cmd_optimize(args);
  else if (command == "simulate") rc = cmd_simulate(args);
  else if (command == "trace") rc = cmd_trace(args);
  else if (command == "aps") rc = cmd_aps(args);
  else if (command == "dse") rc = cmd_dse(args);
  else if (command == "report") rc = cmd_report(args);
  else if (command == "check") rc = cmd_check(args);
  else if (command == "serve") rc = cmd_serve(args);
  else if (command == "submit") rc = cmd_submit(args);
  else if (command == "fetch") rc = cmd_fetch(args);
  else return usage();

  if (recorder.progress != nullptr) {
    recorder.progress->finish();
    obs::set_active_progress(nullptr);
    std::fputs(recorder.progress->summary().c_str(), stdout);
  }
  if (recorder.journal != nullptr) {
    recorder.journal->snapshot_metrics(/*force=*/true);
    recorder.journal->emit_run_end(rc);
    recorder.journal->flush();
    obs::set_active_journal(nullptr);
    std::printf("journal written to %s (%llu events)\n", journal_out.c_str(),
                static_cast<unsigned long long>(recorder.journal->written_events()));
  }
  // Uniform end-of-run drop accounting: any nonzero counter means the
  // observability record is incomplete, which deserves a loud note even
  // when the run itself succeeded.
  for (const obs::DropCounter& counter : obs::drop_counters(recorder.journal.get()))
    if (counter.dropped > 0)
      std::fprintf(stderr, "c2b: warning: %s dropped %llu event(s)\n",
                   counter.name.c_str(),
                   static_cast<unsigned long long>(counter.dropped));

  if (!metrics_out.empty()) {
    const bool csv = metrics_out.size() >= 4 &&
                     metrics_out.compare(metrics_out.size() - 4, 4, ".csv") == 0;
    const bool ok = csv ? obs::write_metrics_csv(metrics_out)
                        : obs::write_metrics_json(metrics_out);
    if (ok) std::printf("metrics written to %s\n", metrics_out.c_str());
    else if (rc == 0) rc = 1;
  }
  if (!trace_out.empty()) {
    if (obs::write_chrome_trace(trace_out))
      std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                  obs::collect_trace_events().size());
    else if (rc == 0) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace c2b::cli

int main(int argc, char** argv) {
  try {
    return c2b::cli::run(argc, argv);
  } catch (const c2b::RequestError& error) {
    std::fprintf(stderr, "c2b %s: --%s\n", argv[1], error.what());
    return 2;
  } catch (const c2b::cli::UsageError& error) {
    std::fprintf(stderr, "c2b %s: %s\n", argv[1], error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "c2b: %s\n", error.what());
    return 1;
  }
}
