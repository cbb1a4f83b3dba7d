#pragma once

// Named workload catalog: ties together a trace generator, the application's
// sequential fraction, its g(N) scaling law, and a size knob. These are the
// reproduction's stand-ins for the paper's SPLASH-2/PARSEC benchmarks; each
// factory documents which paper workload it emulates and why the knobs
// preserve the relevant behavior.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "c2b/laws/scaling.h"
#include "c2b/trace/generators.h"

namespace c2b {

struct WorkloadSpec {
  std::string name;
  std::string emulates;  ///< which paper workload/role this stands in for
  /// Canonical identity for memoization: name plus the factory's size
  /// parameters. Two specs with equal uid must be behaviorally identical —
  /// same generators AND same f_seq / g — or cached simulation results
  /// would replay across genuinely different workloads. (The DSE cache key
  /// additionally folds in f_seq and numeric samples of g as a backstop,
  /// but mutating a catalog spec in place should also clear or change its
  /// uid.) Factories fill it; empty disables result caching for hand-rolled
  /// specs.
  std::string uid;
  double f_seq = 0.05;                          ///< non-parallelizable work fraction
  ScalingFunction g = ScalingFunction::fixed();  ///< capacity scaling law
  std::uint64_t base_instructions = 1'000'000;  ///< IC_0 at N = 1

  /// Build a fresh generator at problem scale `scale` >= 1 (the working set
  /// grows with scale according to the workload's memory complexity).
  std::function<std::unique_ptr<TraceGenerator>(double scale, std::uint64_t seed)>
      make_generator;
};

/// Table I row 1: tiled dense matrix multiply, g(N) = N^{3/2}.
WorkloadSpec make_tmm_workload(std::size_t base_matrix_dim = 64, std::size_t tile_dim = 8);

/// Table I row 3: 5-point stencil, g(N) = N.
WorkloadSpec make_stencil_workload(std::size_t base_grid_dim = 256);

/// Table I row 4: radix-2 FFT, g(N) = 2N at M = N.
WorkloadSpec make_fft_workload(unsigned base_log2_n = 14);

/// Table I row 2: band sparse SpMV, g(N) = N.
WorkloadSpec make_band_sparse_workload(std::size_t base_rows = 1 << 15, std::size_t band = 8);

/// Fig. 7 "application 1": large f_seq, dependent accesses (C ~ 1).
WorkloadSpec make_pointer_chase_workload(std::size_t base_lines = 1 << 15);

/// Fluidanimate-like: large, Zipf-skewed working set with phase changes
/// between irregular particle access and regular grid sweeps — the paper's
/// Fig. 12 case study subject. High MLP, small f_seq, near-linear g.
WorkloadSpec make_fluidanimate_like_workload(std::size_t base_lines = 1 << 17);

/// GUPS-like random update over a huge table: zero locality, full MLP;
/// the big-data extreme of Section V's memory-bound case.
WorkloadSpec make_gups_workload(std::size_t base_table_lines = 1 << 17);

/// Streaming reduction: sequential, prefetch-friendly, g(N) = N.
WorkloadSpec make_reduction_workload(std::size_t base_elements = 1 << 18);

/// Blocked matrix transpose: one strided side, one streaming side.
WorkloadSpec make_transpose_workload(std::size_t base_matrix_dim = 512,
                                     std::size_t block_dim = 16);

/// BFS-like frontier expansion: alternating sequential and random bursts.
WorkloadSpec make_frontier_workload(std::size_t base_vertices = 1 << 15);

/// The full catalog (used by the APC figure and by tests that sweep
/// behaviors).
std::vector<WorkloadSpec> workload_catalog();

/// The catalog workload called `name`, or nullopt.
std::optional<WorkloadSpec> find_workload(std::string_view name);

}  // namespace c2b
