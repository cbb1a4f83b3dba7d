#pragma once

// Expected optima at the default seed (kDefaultSeed), checked bit for bit
// by every op run at that seed; the aps_catalog rows by the APS layer probe
// of dse_surrogate's traced run, which always runs at that seed.
// dse_surrogate must find the exhaustive sweep's optimum, so its entry
// comes from an exhaustive run over the same context. Regenerate with
// `python3 perfbench/run.py --print-expected` only when a change is meant
// to alter simulated times.

#include <cstddef>

namespace c2b::perfbench {

struct ExpectedOptimum {
  const char* workload;
  const char* entry;  ///< catalog workload name (the APS probe), else ""
  std::size_t best_index;
  double best_time;
};

inline constexpr ExpectedOptimum kExpectedOptima[] = {
    {"dse_cold", "", 167, 0x1.2d762fc962fc9p+8},  // 301.46166666666664
    {"dse_surrogate", "", 161, 0x1.7cdba06d3a06dp+11},  // 3046.8633333333332
    {"aps_catalog", "tmm", 746, 0x1.c593851eb851fp+10},  // 1814.3050000000001
    {"aps_catalog", "stencil", 170, 0x1.d9f651eb851ebp+12},  // 7583.3949999999995
    {"aps_catalog", "fft", 601, 0x1.6d82p+12},  // 5848.125
    {"aps_catalog", "band_sparse", 26, 0x1.2afp+12},  // 4783
    {"aps_catalog", "pointer_chase", 57, 0x1.0fb28p+18},  // 278218
    {"aps_catalog", "fluidanimate_like", 198, 0x1.dd9adc28f5c29p+17},  // 244533.72
    {"aps_catalog", "gups", 201, 0x1.761850a3d70a4p+18},  // 383073.26000000001
    {"aps_catalog", "reduction", 598, 0x1.97111eb851eb8p+12},  // 6513.0699999999997
    {"aps_catalog", "transpose", 55, 0x1.1d080f5c28f5cp+15},  // 36484.029999999999
    {"aps_catalog", "frontier", 206, 0x1.4099fd70a3d71p+17},  // 164147.98000000001
};

}  // namespace c2b::perfbench
