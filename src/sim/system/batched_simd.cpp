#include "batched_simd.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

#if defined(__x86_64__) && !defined(C2B_DISABLE_SIMD)
#include <immintrin.h>
#define C2B_SIMD_AVX2_DISPATCH 1
#endif

#include "batch_state.h"
#include "c2b/common/assert.h"
#include "c2b/obs/obs.h"
#include "c2b/trace/chunk_store.h"

namespace c2b::sim::detail {

namespace {

/// Two-pass argmin: a blocked min reduction (lane accumulators in a
/// std::array so -O2 can vectorize the inner loop), then a scan for the
/// first occurrence of the min. The scan makes ties resolve to the lowest
/// index, matching the event heap's (cycle, core) order.
std::size_t argmin_u64_portable(const std::uint64_t* values, std::size_t count) {
  constexpr std::size_t kBlock = 8;
  std::uint64_t best = values[0];
  std::size_t i = 1;
  if (count >= 2 * kBlock) {
    std::array<std::uint64_t, kBlock> acc;
    std::memcpy(acc.data(), values, kBlock * sizeof(std::uint64_t));
    for (i = kBlock; i + kBlock <= count; i += kBlock)
      for (std::size_t j = 0; j < kBlock; ++j) acc[j] = std::min(acc[j], values[i + j]);
    best = acc[0];
    for (std::size_t j = 1; j < kBlock; ++j) best = std::min(best, acc[j]);
  }
  for (; i < count; ++i) best = std::min(best, values[i]);
  for (std::size_t j = 0;; ++j)
    if (values[j] == best) return j;
}

#if defined(C2B_SIMD_AVX2_DISPATCH)
/// AVX2 min reduction. AVX2 has no unsigned 64-bit min, so compare through
/// a sign bias: x <u y  <=>  (x ^ 2^63) <s (y ^ 2^63).
__attribute__((target("avx2"))) std::size_t argmin_u64_avx2(const std::uint64_t* values,
                                                            std::size_t count) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  __m256i vmin = _mm256_set1_epi64x(-1);  // all-ones == u64 max in every lane
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i gt =
        _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, bias), _mm256_xor_si256(x, bias));
    vmin = _mm256_blendv_epi8(vmin, x, gt);
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  std::uint64_t best = std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  for (; i < count; ++i) best = std::min(best, values[i]);
  for (std::size_t j = 0;; ++j)
    if (values[j] == best) return j;
}
#endif

using ArgminFn = std::size_t (*)(const std::uint64_t*, std::size_t);

struct Dispatch {
  ArgminFn argmin = argmin_u64_portable;
  bool avx2 = false;
};

Dispatch pick_dispatch() {
  Dispatch d;
#if defined(C2B_SIMD_AVX2_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    d.argmin = argmin_u64_avx2;
    d.avx2 = true;
  }
#endif
  return d;
}

const Dispatch g_dispatch = pick_dispatch();

/// The kernel loop, templated over the concrete cursor type so step_core's
/// peek/advance/compute_run/skip calls devirtualize for ChunkCursor.
template <typename Cursor>
std::vector<SystemResult> run_vectorized(const std::vector<SystemConfig>& configs,
                                         const std::vector<std::vector<Cursor*>>& cursors,
                                         const BatchedReplayOptions& options) {
  const std::size_t k = configs.size();
  std::deque<MemberState> members;  // MemberState is pinned: it flushes once
  std::vector<std::size_t> offset(k + 1, 0);
  for (std::size_t m = 0; m < k; ++m) {
    members.emplace_back(configs[m], cursors[m].size());
    offset[m + 1] = offset[m] + cursors[m].size();
  }
  // Flat next-event cycles; member m's cores occupy [offset[m], offset[m+1]).
  // All cores start pending at cycle 0, like the heap's initial events.
  std::vector<std::uint64_t> next(offset[k], 0);

  // Active members, compacted as members finish so late lockstep rounds
  // only touch live lanes.
  std::vector<std::size_t> active(k);
  for (std::size_t m = 0; m < k; ++m) active[m] = m;

  std::uint64_t lanes_active_sum = 0;
  std::uint64_t target = 0;
  while (!active.empty()) {
    if (target >= std::numeric_limits<std::uint64_t>::max() - options.lockstep_records)
      target = std::numeric_limits<std::uint64_t>::max();
    else
      target += options.lockstep_records;
    lanes_active_sum += active.size();
    std::size_t live = 0;
    for (const std::size_t m : active) {
      MemberState& s = members[m];
      std::uint64_t* const lane = next.data() + offset[m];
      bool finished = false;
      for (;;) {
        const std::size_t c = argmin_u64(lane, s.n);
        const std::uint64_t cycle = lane[c];
        if (cycle == kNever) {
          finished = true;
          break;
        }
        if (s.consumed >= target) break;
        lane[c] = step_core(s, *cursors[m][c], cycle, c);
      }
      if (finished) {
        s.flush_telemetry();
      } else {
        active[live++] = m;
      }
    }
    active.resize(live);
  }

  std::uint64_t steps = 0;
  std::uint64_t peels = 0;
  for (const MemberState& s : members) {
    steps += s.steps;
    peels += s.peel_records;
  }
  C2B_COUNTER_ADD("exec.batch.simd.steps", steps);
  C2B_COUNTER_ADD("exec.batch.simd.peels", peels);
  C2B_COUNTER_ADD("exec.batch.simd.lanes_active", lanes_active_sum);
  if (options.kernel_stats != nullptr) {
    options.kernel_stats->simd_steps += steps;
    options.kernel_stats->simd_peels += peels;
    options.kernel_stats->simd_lanes_active += lanes_active_sum;
  }

  std::vector<SystemResult> results;
  results.reserve(k);
  for (MemberState& s : members) results.push_back(s.build_result());
  return results;
}

}  // namespace

bool simd_kernel_enabled() {
#if defined(C2B_DISABLE_SIMD)
  return false;
#else
  static const bool enabled = [] {
    const char* env = std::getenv("C2B_NO_SIMD");
    return env == nullptr || env[0] == '\0' || std::strcmp(env, "0") == 0;
  }();
  return enabled;
#endif
}

bool simd_avx2_active() { return g_dispatch.avx2; }

std::size_t argmin_u64(const std::uint64_t* values, std::size_t count) {
  return g_dispatch.argmin(values, count);
}

std::vector<SystemResult> simulate_batch_vectorized(
    const std::vector<SystemConfig>& configs,
    const std::vector<std::vector<TraceCursor*>>& cursors, const BatchedReplayOptions& options) {
  // Same per-member validation as the SystemReplay constructor, so both
  // drivers reject the same inputs and bump the same run counter.
  for (std::size_t m = 0; m < configs.size(); ++m) {
    configs[m].validate();
    C2B_COUNTER_INC("sim.system.runs");
    C2B_REQUIRE(!cursors[m].empty(), "need at least one trace");
    C2B_REQUIRE(cursors[m].size() <= configs[m].hierarchy.cores,
                "more traces than cores in the hierarchy");
    for (TraceCursor* cursor : cursors[m])
      C2B_REQUIRE(cursor != nullptr && cursor->peek() != nullptr, "core trace must be non-empty");
  }

  // Devirtualize the hot path: the batched driver hands out ChunkCursors,
  // so recover the concrete type when every cursor is one.
  bool all_chunk = true;
  std::vector<std::vector<ChunkCursor*>> chunk_cursors(cursors.size());
  for (std::size_t m = 0; m < cursors.size() && all_chunk; ++m) {
    chunk_cursors[m].reserve(cursors[m].size());
    for (TraceCursor* cursor : cursors[m]) {
      auto* chunk = dynamic_cast<ChunkCursor*>(cursor);
      if (chunk == nullptr) {
        all_chunk = false;
        break;
      }
      chunk_cursors[m].push_back(chunk);
    }
  }
  if (all_chunk) return run_vectorized<ChunkCursor>(configs, chunk_cursors, options);
  return run_vectorized<TraceCursor>(configs, cursors, options);
}

}  // namespace c2b::sim::detail
