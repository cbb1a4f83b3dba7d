#pragma once

// Differential oracle harness: three independent oracle families that
// cross-check the analytic model, the cycle-level simulator, and the
// parallel execution layer against each other on *randomly sampled*
// configurations (seed-driven, so every failure replays from the seed):
//
//   1. analytic-vs-simulator — the calibrated C²-Bound model's predicted
//      time-per-work vs simulate_design_time across sampled designs, with
//      a per-workload tolerance band asserted and exportable as JSON;
//   2. serial-vs-parallel — the PR 2 determinism contract (thread counts
//      1/2/8 bit-identical, warm sim-cache replay identity) on random
//      DSE/APS scenarios instead of hand-picked ones;
//   3. invariant registry — the telemetry ledger (sim.l1.hit + sim.l1.miss
//      + exec.simcache.replayed_accesses == reported memory accesses),
//      area conservation at every optimizer iterate (Eq. 12), and the
//      model's structural bounds (C-AMAT <= AMAT, C >= 1, Pollack CPI
//      monotone in area, time monotone in area at fixed N);
//   4. kernel equivalence — the event-driven cycle-skipping kernel vs the
//      retained per-cycle reference kernel, every SystemResult field
//      compared bitwise on random configurations (coherence and prefetch
//      included) and random traces, plus streaming-cursor vs materialized
//      replay identity and the per-run demand-access ledger;
//   5. batch equivalence — simulate_design_times_batched (shared chunk
//      store + lockstep multi-config replay) vs per-point
//      simulate_design_time on random design-point sets: times and access
//      counts bitwise at every thread count, the telemetry ledger balanced,
//      and the warm path (batched run populating the sim cache, per-point
//      runs replaying it) reproducing the cold results exactly;
//   6. simd equivalence — the vectorized lockstep batch kernel vs the
//      scalar-lockstep driver vs simulate_system_reference, every
//      SystemResult field compared bitwise across batch widths {2,4,8,16}
//      and lockstep granularities {1,7,4096}, plus DSE sweeps with the
//      vectorized kernel on vs off bit-identical at threads {1,2,8};
//   7. constraint ground truth — on random small spaces with finite
//      power/bandwidth/NoC budgets, a serial full-factorial enumeration
//      filtered Eq.-(12)-style by the constraint set is the oracle: the
//      constrained DSE optimum and the Pareto mode's frontier (membership
//      and every time/power/area coordinate, bitwise) must match it at
//      every thread count, and warm sim-cache replays must reproduce the
//      cold frontier exactly;
//   8. surrogate pruning — the MLP-guided sweep pruner vs the exhaustive
//      sweep: on a fixed multi-class space that provably prunes at least
//      one class and on random scenarios, the surrogate run's optimum
//      (index and time, bitwise) and Pareto frontier (membership and every
//      coordinate, bitwise) must equal the exhaustive ground truth at
//      every thread count, cold and warm sim-cache, and every simulated
//      point's time must be bitwise equal to its exhaustive counterpart;
//   9. persistent cache — the two-tier SimCache's cross-run contract: on
//      random scenarios, a no-cache reference sweep, a cold disk-backed
//      sweep, a warm in-memory replay, and warm *restarts* (memory tier
//      dropped, disk tier re-attached — the process-restart emulation)
//      must all be bitwise identical at every thread count; a corrupted
//      cache directory (bit flips, truncated tails, stale schema) must
//      degrade to a cold run with the damage counted as drops, never
//      change a result and never error.
//
// The oracles mutate process-global execution state (thread count, the
// global sim cache, telemetry counters) and restore defaults on exit; do
// not run them concurrently with other work in the same process.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "c2b/check/property.h"

namespace c2b::check {

struct OracleOptions {
  std::uint64_t seed = 42;
  /// analytic-vs-sim: random designs sampled per catalog workload.
  std::size_t designs_per_workload = 5;
  /// determinism: random full-DSE scenarios swept at every thread count.
  std::size_t dse_configs = 100;
  /// determinism: random APS scenarios (characterize + neighborhood).
  std::size_t aps_configs = 4;
  /// invariant registry: cases per property.
  std::size_t invariant_cases = 60;
  /// ledger invariant: random DSE scenarios traced end to end.
  std::size_t ledger_configs = 2;
  /// kernel equivalence: random (config, trace) cases compared bitwise
  /// against the per-cycle reference kernel.
  std::size_t kernel_configs = 40;
  /// batch equivalence: random design-point sets replayed batched vs
  /// per-point at every thread count.
  std::size_t batch_sets = 50;
  /// simd equivalence: random scenarios compared across every batch width
  /// {2,4,8,16} x lockstep granularity {1,7,4096} combination each.
  std::size_t simd_sets = 3;
  /// constraint ground truth: random budgeted spaces enumerated serially
  /// and compared against the constrained optimizer + Pareto frontier.
  std::size_t constraint_sets = 6;
  /// surrogate pruning: random scenarios swept surrogate-on vs exhaustive
  /// (on top of one fixed scenario that must prune at least one class).
  std::size_t surrogate_sets = 3;
  /// persistent cache: random scenarios run no-cache / cold / warm /
  /// warm-restart / corrupted-dir against a fresh disk tier each.
  std::size_t cache_sets = 3;
  std::vector<std::size_t> thread_counts{1, 2, 8};
  /// Corpus directory for shrunk property counterexamples ("" = none).
  std::string corpus_dir;
};

/// Observed vs asserted model-simulator agreement for one workload.
struct ToleranceBand {
  std::string workload;
  std::size_t samples = 0;
  double mean_abs_rel_error = 0.0;  ///< mean |analytic - sim| / sim
  double max_abs_rel_error = 0.0;
  double mean_tolerance = 0.0;  ///< asserted bound on the mean
  double max_tolerance = 0.0;   ///< asserted bound on the max
  bool passed = false;
};

struct OracleReport {
  std::string family;
  std::size_t checks = 0;  ///< individual comparisons performed
  std::vector<std::string> failures;
  std::vector<ToleranceBand> bands;  ///< analytic-vs-sim only
  bool passed() const noexcept { return failures.empty(); }
};

OracleReport run_analytic_vs_sim_oracle(const OracleOptions& options = {});
OracleReport run_determinism_oracle(const OracleOptions& options = {});
OracleReport run_invariant_oracle(const OracleOptions& options = {});
OracleReport run_kernel_equivalence_oracle(const OracleOptions& options = {});
OracleReport run_batch_equivalence_oracle(const OracleOptions& options = {});
OracleReport run_simd_equivalence_oracle(const OracleOptions& options = {});
OracleReport run_constraint_oracle(const OracleOptions& options = {});
OracleReport run_surrogate_oracle(const OracleOptions& options = {});
OracleReport run_persistent_cache_oracle(const OracleOptions& options = {});

/// A family by the name `c2b check --family` and `c2b serve` check jobs
/// use ("analytic", "determinism", ..., "cache").
struct OracleFamily {
  const char* name;
  OracleReport (*run)(const OracleOptions& options);
};
std::span<const OracleFamily> oracle_families();
const OracleFamily* find_oracle_family(std::string_view name);

/// All nine families in order; never throws on oracle failure (inspect
/// the reports).
std::vector<OracleReport> run_all_oracles(const OracleOptions& options = {});

/// Export tolerance bands as a JSON array. Returns false on I/O failure.
bool write_tolerance_bands_json(const std::string& path,
                                const std::vector<ToleranceBand>& bands);

}  // namespace c2b::check
