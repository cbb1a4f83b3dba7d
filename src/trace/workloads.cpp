#include "c2b/trace/workloads.h"

#include <cmath>

#include "c2b/common/assert.h"

namespace c2b {
namespace {

/// Scale a linear dimension so the *footprint* (dim^2 elements) grows by
/// `scale`: dim' = dim * sqrt(scale).
std::size_t scale_dim_quadratic(std::size_t base, double scale) {
  return std::max<std::size_t>(base, static_cast<std::size_t>(
                                         std::lround(static_cast<double>(base) * std::sqrt(scale))));
}

std::size_t scale_linear(std::size_t base, double scale) {
  return std::max<std::size_t>(base, static_cast<std::size_t>(
                                         std::lround(static_cast<double>(base) * scale)));
}

}  // namespace

WorkloadSpec make_tmm_workload(std::size_t base_matrix_dim, std::size_t tile_dim) {
  WorkloadSpec spec;
  spec.name = "tmm";
  spec.uid = "tmm/" + std::to_string(base_matrix_dim) + "/" + std::to_string(tile_dim);
  spec.emulates = "Table I TMM; dense-LA phases of SPLASH-2 (lu, cholesky)";
  spec.f_seq = 0.02;
  spec.g = ScalingFunction::from_complexity(3.0, 2.0);
  spec.base_instructions = 2'000'000;
  spec.make_generator = [base_matrix_dim, tile_dim](double scale, std::uint64_t) {
    const std::size_t dim = scale_dim_quadratic(base_matrix_dim, scale);
    return std::make_unique<TiledMatMulGenerator>(dim, std::min(tile_dim, dim));
  };
  return spec;
}

WorkloadSpec make_stencil_workload(std::size_t base_grid_dim) {
  WorkloadSpec spec;
  spec.name = "stencil";
  spec.uid = "stencil/" + std::to_string(base_grid_dim);
  spec.emulates = "Table I stencil; ocean/barnes-style grid sweeps";
  spec.f_seq = 0.03;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 2'000'000;
  spec.make_generator = [base_grid_dim](double scale, std::uint64_t) {
    return std::make_unique<StencilGenerator>(scale_dim_quadratic(base_grid_dim, scale));
  };
  return spec;
}

WorkloadSpec make_fft_workload(unsigned base_log2_n) {
  WorkloadSpec spec;
  spec.name = "fft";
  spec.uid = "fft/" + std::to_string(base_log2_n);
  spec.emulates = "Table I FFT; SPLASH-2 fft";
  spec.f_seq = 0.05;
  // Table I evaluates the FFT g at M = N: g(N) = 2N (pinned to g(1) = 1).
  spec.g = ScalingFunction::custom([](double n) { return n <= 1.0 ? 1.0 : 2.0 * n; },
                                   "g(N) = 2N (FFT at M = N)");
  spec.base_instructions = 2'000'000;
  spec.make_generator = [base_log2_n](double scale, std::uint64_t) {
    const unsigned extra = scale <= 1.0 ? 0u : static_cast<unsigned>(std::lround(std::log2(scale)));
    return std::make_unique<FftGenerator>(std::min(base_log2_n + extra, 26u));
  };
  return spec;
}

WorkloadSpec make_band_sparse_workload(std::size_t base_rows, std::size_t band) {
  WorkloadSpec spec;
  spec.name = "band_sparse";
  spec.uid = "band_sparse/" + std::to_string(base_rows) + "/" + std::to_string(band);
  spec.emulates = "Table I band sparse matrix multiplication";
  spec.f_seq = 0.04;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 2'000'000;
  spec.make_generator = [base_rows, band](double scale, std::uint64_t) {
    return std::make_unique<BandSparseGenerator>(scale_linear(base_rows, scale), band);
  };
  return spec;
}

WorkloadSpec make_pointer_chase_workload(std::size_t base_lines) {
  WorkloadSpec spec;
  spec.name = "pointer_chase";
  spec.uid = "pointer_chase/" + std::to_string(base_lines);
  spec.emulates = "Fig. 7 app 1: large f_seq, C ~ 1 (dependent accesses)";
  spec.f_seq = 0.4;
  spec.g = ScalingFunction::fixed();
  spec.base_instructions = 1'000'000;
  spec.make_generator = [base_lines](double scale, std::uint64_t seed) {
    return std::make_unique<PointerChaseGenerator>(scale_linear(base_lines, scale), 3u, seed);
  };
  return spec;
}

WorkloadSpec make_fluidanimate_like_workload(std::size_t base_lines) {
  WorkloadSpec spec;
  spec.name = "fluidanimate_like";
  spec.uid = "fluidanimate_like/" + std::to_string(base_lines);
  spec.emulates = "PARSEC fluidanimate (Fig. 12 case study): large working "
                  "set, phased irregular/regular access, high MLP";
  spec.f_seq = 0.02;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 4'000'000;
  spec.make_generator = [base_lines](double scale, std::uint64_t seed) {
    const std::size_t lines = scale_linear(base_lines, scale);
    // Phase A: Zipf-skewed neighbor-list updates over the particle arrays.
    ZipfStreamGenerator::Params zipf;
    zipf.working_set_lines = lines;
    zipf.zipf_exponent = 0.7;
    zipf.f_mem = 0.45;
    zipf.write_ratio = 0.35;
    zipf.seed = seed;
    // Phase B: regular grid sweep (density/force accumulation).
    const auto grid_dim = static_cast<std::size_t>(
        std::max(64.0, std::floor(std::sqrt(static_cast<double>(lines) * 8.0))));
    std::vector<PhasedGenerator::Phase> phases;
    phases.push_back({std::make_shared<ZipfStreamGenerator>(zipf), 200'000});
    phases.push_back({std::make_shared<StencilGenerator>(grid_dim), 150'000});
    return std::make_unique<PhasedGenerator>(std::move(phases));
  };
  return spec;
}

WorkloadSpec make_gups_workload(std::size_t base_table_lines) {
  WorkloadSpec spec;
  spec.name = "gups";
  spec.uid = "gups/" + std::to_string(base_table_lines);
  spec.emulates = "HPCC RandomAccess; Section V big-data memory-bound extreme";
  spec.f_seq = 0.01;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 1'500'000;
  spec.make_generator = [base_table_lines](double scale, std::uint64_t seed) {
    return std::make_unique<GupsGenerator>(scale_linear(base_table_lines, scale), seed);
  };
  return spec;
}

WorkloadSpec make_reduction_workload(std::size_t base_elements) {
  WorkloadSpec spec;
  spec.name = "reduction";
  spec.uid = "reduction/" + std::to_string(base_elements);
  spec.emulates = "streaming reduction/dot-product phases";
  spec.f_seq = 0.02;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 1'500'000;
  spec.make_generator = [base_elements](double scale, std::uint64_t) {
    return std::make_unique<ReductionGenerator>(scale_linear(base_elements, scale));
  };
  return spec;
}

WorkloadSpec make_transpose_workload(std::size_t base_matrix_dim, std::size_t block_dim) {
  WorkloadSpec spec;
  spec.name = "transpose";
  spec.uid = "transpose/" + std::to_string(base_matrix_dim) + "/" + std::to_string(block_dim);
  spec.emulates = "blocked transpose; conflict-miss-heavy strided access";
  spec.f_seq = 0.02;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 1'500'000;
  spec.make_generator = [base_matrix_dim, block_dim](double scale, std::uint64_t) {
    const std::size_t dim = scale_dim_quadratic(base_matrix_dim, scale);
    return std::make_unique<TransposeGenerator>(dim, std::min(block_dim, dim));
  };
  return spec;
}

WorkloadSpec make_frontier_workload(std::size_t base_vertices) {
  WorkloadSpec spec;
  spec.name = "frontier";
  spec.uid = "frontier/" + std::to_string(base_vertices);
  spec.emulates = "graph BFS frontier expansion; mixed regular/irregular";
  spec.f_seq = 0.08;
  spec.g = ScalingFunction::linear();
  spec.base_instructions = 1'500'000;
  spec.make_generator = [base_vertices](double scale, std::uint64_t seed) {
    FrontierGenerator::Params params;
    params.vertices = scale_linear(base_vertices, scale);
    params.seed = seed;
    return std::make_unique<FrontierGenerator>(params);
  };
  return spec;
}

std::vector<WorkloadSpec> workload_catalog() {
  return {make_tmm_workload(),           make_stencil_workload(),
          make_fft_workload(),           make_band_sparse_workload(),
          make_pointer_chase_workload(), make_fluidanimate_like_workload(),
          make_gups_workload(),          make_reduction_workload(),
          make_transpose_workload(),     make_frontier_workload()};
}

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (WorkloadSpec& spec : workload_catalog())
    if (spec.name == name) return std::move(spec);
  return std::nullopt;
}

}  // namespace c2b
