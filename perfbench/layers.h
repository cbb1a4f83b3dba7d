#pragma once

// Layer probes of the traced run: each times one layer's public functions
// directly, on a workload's own inputs, under a named span.

#include <cstdint>
#include <vector>

#include "bench.h"
#include "c2b/aps/dse.h"
#include "c2b/solver/grid.h"

namespace c2b::perfbench {

/// One design sweep's inputs: a context, its grid and its feasible points.
struct Sweep {
  DseContext context;
  GridSpace space;
  std::vector<std::size_t> flats;  ///< feasible flat indices, ascending
  std::vector<std::vector<double>> points;  ///< parallel to flats
};

/// Filter the grid by design_feasible (the plan phase of run_full_dse).
void plan_sweep(Sweep& sweep);

/// The plan layer over every grid point of every sweep: design_feasible,
/// plus config_for_design on the feasible ones. Returns seconds; `ok` is
/// false when the feasible count differs from the sweeps' plans.
double probe_plan(const std::vector<const Sweep*>& sweeps, bool& ok);

struct PeelProbe {
  double seconds = 0.0;
  std::vector<double> times;  ///< the resident values, parallel to the points
  bool ok = true;  ///< every point a memory hit (and equal to `expected`)
};

/// simulate_design_times_batched over points that are all resident in the
/// memory tier: key construction, bulk probe and scatter, no simulation.
/// `expected`, when not empty, holds the op's times for the same points.
PeelProbe probe_peel(const DseContext& context, const std::vector<std::vector<double>>& points,
                     const std::vector<double>& expected);

struct KernelProbe {
  double gen_s = 0.0;
  std::uint64_t records = 0;
  double kernel_s = 0.0;
  std::uint64_t simulations = 0;
  std::uint64_t accesses = 0;
  std::uint64_t simd_steps = 0;
  std::uint64_t simd_peels = 0;
  std::uint64_t simd_lanes_active = 0;
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t l1_mshr_full_stalls = 0;
  bool times_match = true;  ///< probe times bitwise equal to the op's

  void merge(const KernelProbe& other);
};

/// Trace generation and the batched kernel, separated: group `points` into
/// trace classes (one per core count), generate each class's streams into
/// memory through WorkloadSpec::make_generator, then run one <=16-member
/// unit per class through sim::simulate_system_batched over
/// VectorTraceCursors. The resulting times must equal `expected` (the op's
/// times for the same points) bit for bit.
KernelProbe probe_trace_and_kernel(const DseContext& context,
                                   const std::vector<std::vector<double>>& points,
                                   const std::vector<double>& expected);

}  // namespace c2b::perfbench
