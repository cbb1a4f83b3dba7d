#include "c2b/exec/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace c2b::exec {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> visits(kCount);
  pool.parallel_for(0, kCount, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST(ThreadPool, RespectsBeginOffsetAndEmptyRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, 200, [&](std::size_t lo, std::size_t hi) {
    std::size_t local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  // sum of 100..199
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);

  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsChunksInAscendingOrderInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(ThreadPool, ParallelMapKeepsInputOrder) {
  ThreadPool pool(8);
  const std::vector<int> out =
      pool.parallel_map<int>(1000, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ThreadPool, MapMatchesSerialBitForBit) {
  // The determinism contract: same chunks, same per-index work, ordered
  // results — a multi-threaded map equals the single-threaded one exactly,
  // including floating point.
  auto work = [](std::size_t i) {
    double x = 1.0 + static_cast<double>(i);
    for (int k = 0; k < 50; ++k) x = x * 1.0000001 + 1.0 / x;
    return x;
  };
  ThreadPool serial(1);
  ThreadPool wide(8);
  const std::vector<double> a = serial.parallel_map<double>(500, work);
  const std::vector<double> b = wide.parallel_map<double>(500, work);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(ThreadPool, NestedForkRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Nested fork from inside a chunk: must run serially on this thread
      // (and not deadlock), visiting its whole range.
      std::size_t inner = 0;
      pool.parallel_for(0, 10, [&](std::size_t ilo, std::size_t ihi) {
        inner += ihi - ilo;
      });
      total.fetch_add(inner, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(total.load(), 16u * 10u);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, GrainLowerBoundsChunkSize) {
  ThreadPool pool(4);
  std::atomic<std::size_t> chunks{0};
  pool.parallel_for(
      0, 100,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_TRUE(hi - lo >= 50 || hi == 100) << lo << ".." << hi;
        chunks.fetch_add(1, std::memory_order_relaxed);
      },
      /*grain=*/50);
  EXPECT_EQ(chunks.load(), 2u);
}

TEST(ThreadPool, ClaimVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    // Fewer, equal and more indices than executors.
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, threads, std::size_t{1000}}) {
      std::vector<std::atomic<int>> visits(count);
      pool.parallel_claim(count, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "threads " << threads << " count " << count << " i " << i;
    }
  }
}

TEST(ThreadPool, SingleThreadClaimRunsInAscendingOrderInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_claim(200, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 200u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, NestedClaimRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<std::vector<std::size_t>> inner_orders(8);
  pool.parallel_claim(8, [&](std::size_t outer) {
    pool.parallel_claim(5, [&](std::size_t i) { inner_orders[outer].push_back(i); });
  });
  for (const std::vector<std::size_t>& order : inner_orders)
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ClaimPropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_claim(100,
                                   [](std::size_t i) {
                                     if (i == 7) throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<std::size_t> count{0};
  pool.parallel_claim(100, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolGlobal, SetThreadCountResizesGlobalPool) {
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2u);
  EXPECT_EQ(ThreadPool::global().thread_count(), 2u);
  set_thread_count(1);
  EXPECT_EQ(ThreadPool::global().thread_count(), 1u);
  set_thread_count(0);  // restore default for other tests in this binary
  EXPECT_GE(thread_count(), 1u);
}

}  // namespace
}  // namespace c2b::exec
