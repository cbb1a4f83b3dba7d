#pragma once

// Fixed-size worker pool for the embarrassingly parallel sweeps (full DSE,
// APS neighborhood simulation, per-core trace generation, Nelder-Mead
// restarts). Fork-join shape, minimal overheads: one pool for the process,
// per-thread work queues fed round-robin, and idle workers steal from the
// back of their siblings' queues.
//
// Determinism contract: the chunk layout of [begin, end) is a pure
// function of (count, grain, thread count) — it is stable across runs at
// one configuration but MAY differ between thread counts. Bit-identical
// results therefore do not rest on chunk boundaries: they follow from each
// index being visited exactly once and writing only its own output slot,
// with any reduction over those slots performed serially in index order
// (as parallel_map's callers do). Do not rely on which indices share a
// chunk, or, under parallel_claim, on which executor claims an index. At
// threads=1 the same code path executes the chunks inline, in ascending
// order, on the calling thread — the exact serial fallback.
// Nested parallel_for calls (a task that itself forks) run inline serially
// on the executing thread, which both preserves determinism and makes
// nesting deadlock-free.
//
// Sizing: set_thread_count(n) wins, else the C2B_THREADS environment
// variable, else std::thread::hardware_concurrency(). A pool of n threads
// runs n-1 workers; the caller of parallel_for is the n-th executor.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace c2b::exec {

/// Body of one parallel_for chunk: fn(chunk_begin, chunk_end).
using ChunkBody = std::function<void(std::size_t, std::size_t)>;

class ThreadPool {
 public:
  /// threads >= 1 is the total executor count (workers + calling thread).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return thread_count_; }

  /// Run body over [begin, end) in contiguous chunks (roughly 4 per
  /// executor, never smaller than `grain` indices). Blocks until every
  /// chunk finished; rethrows the first task exception. The calling thread
  /// participates in execution.
  void parallel_for(std::size_t begin, std::size_t end, const ChunkBody& body,
                    std::size_t grain = 1);

  /// Ordered map: out[i] = fn(i) for i in [0, count). Results land in input
  /// order regardless of execution order, so reductions over the returned
  /// vector are deterministic at any thread count. T must be
  /// default-constructible and movable.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    parallel_for(0, count, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i] = fn(i);
    });
    return out;
  }

  /// Claimed map: fn(i) for every i in [0, count), each executor claiming
  /// the next unclaimed index from one shared cursor. Indices start in
  /// ascending order and no executor idles while one is unclaimed, so a
  /// caller that orders its work heaviest-first ends the batch on its
  /// lightest items instead of on one chunk of heavy ones. Same contract
  /// as parallel_for: fn(i) writes only its own slot, and a nested call or
  /// a one-thread pool runs every index inline in ascending order.
  void parallel_claim(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The process-wide pool, created on first use with the configured
  /// thread count (see set_thread_count / C2B_THREADS).
  static ThreadPool& global();

  /// Total chunks a *worker* took from a sibling's queue (monotonic, for
  /// tests; the same number feeds the exec.pool.steals telemetry counter).
  /// The caller thread draining leftover chunks is not a steal — it is
  /// counted separately as exec.pool.caller_drains.
  std::uint64_t steal_count() const noexcept;

 private:
  struct Impl;
  Impl* impl_;
  std::size_t thread_count_;
};

/// Configure the global pool size; 0 restores the default (C2B_THREADS env
/// or hardware_concurrency). Takes effect immediately: the existing global
/// pool, if any, is torn down and rebuilt. Must not be called while
/// parallel work is in flight.
void set_thread_count(std::size_t threads);

/// The thread count the global pool has (or would be created with).
std::size_t thread_count();

}  // namespace c2b::exec
