#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cordial {
namespace {

/// Forces a real worker pool for the duration of one test (the container
/// running the suite may report a single hardware thread, which would make
/// every ParallelFor take the serial fallback) and restores auto sizing.
class ForcedThreads {
 public:
  explicit ForcedThreads(std::size_t n) { SetThreadCount(n); }
  ~ForcedThreads() { SetThreadCount(0); }
};

TEST(Parallel, EmptyRangeIsNoOp) {
  const ForcedThreads guard(4);
  bool touched = false;
  ParallelFor(0, 1, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  const ForcedThreads guard(4);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t chunk : {0u, 1u, 3u, 1024u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(n, chunk, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " chunk=" << chunk
                                     << " i=" << i;
      }
    }
  }
}

TEST(Parallel, MapPreservesIndexOrder) {
  const ForcedThreads guard(4);
  const std::vector<int> out =
      ParallelMap<int>(257, [](std::size_t i) { return static_cast<int>(i * 3); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * 3));
  }
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  const ForcedThreads guard(4);
  EXPECT_THROW(
      ParallelFor(100, 1,
                  [&](std::size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> sum{0};
  ParallelFor(10, 1, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(Parallel, ExceptionPropagatesOnSerialFallback) {
  const ForcedThreads guard(1);
  EXPECT_THROW(
      ParallelFor(5, 1, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(Parallel, ExceptionAbortsRemainingChunks) {
  const ForcedThreads guard(4);
  std::atomic<int> executed{0};
  try {
    ParallelFor(100000, 1, [&](std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("boom");
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // First failure marks the job failed; later chunk claims bail out early.
  EXPECT_LT(executed.load(), 100000);
}

TEST(Parallel, RunConcurrentlyRunsEveryIndexAtOnceWithoutThePool) {
  // One thread in the pool: only RunConcurrently's own threads can let all
  // indices be in flight together, which each index waits to see.
  const ForcedThreads guard(1);
  constexpr std::size_t kIndices = 4;
  std::atomic<std::size_t> in_flight{0};
  std::vector<int> hits(kIndices, 0);
  RunConcurrently(kIndices, [&](std::size_t i) {
    ++hits[i];
    in_flight.fetch_add(1);
    while (in_flight.load() < kIndices) std::this_thread::yield();
  });
  EXPECT_EQ(hits, std::vector<int>(kIndices, 1));
}

TEST(Parallel, RunConcurrentlyRethrowsTheFirstFailureAfterAllFinish) {
  std::atomic<int> finished{0};
  try {
    RunConcurrently(5, [&](std::size_t i) {
      finished.fetch_add(1);
      if (i == 1 || i == 3) throw std::runtime_error("index " +
                                                     std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1");
  }
  EXPECT_EQ(finished.load(), 5);
}

TEST(Parallel, NestedParallelForRunsInlineAndCoversAll) {
  const ForcedThreads guard(4);
  EXPECT_FALSE(InParallelRegion());
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<bool> inner_saw_region{true};
  ParallelFor(kOuter, 1, [&](std::size_t outer) {
    if (!InParallelRegion()) inner_saw_region.store(false);
    ParallelFor(kInner, 1, [&](std::size_t inner) {
      hits[outer * kInner + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_TRUE(inner_saw_region.load());
  EXPECT_FALSE(InParallelRegion());
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, SetThreadCountResizesAndAutoRestores) {
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3u);
  std::atomic<int> sum{0};
  ParallelFor(100, 1, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
  SetThreadCount(7);
  EXPECT_EQ(ThreadCount(), 7u);
  sum.store(0);
  ParallelFor(100, 1, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
  SetThreadCount(0);
  EXPECT_GE(ThreadCount(), 1u);
}

TEST(Parallel, ParseThreadCountAcceptsPositiveIntegers) {
  std::string error;
  EXPECT_EQ(ParseThreadCount("1", error), 1u);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(ParseThreadCount("8", error), 8u);
  EXPECT_EQ(ParseThreadCount("512", error), 512u);
}

TEST(Parallel, ParseThreadCountRejectsGarbage) {
  std::string error;
  EXPECT_EQ(ParseThreadCount(nullptr, error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ParseThreadCount("", error), 0u);
  EXPECT_FALSE(error.empty());
  // Trailing garbage must not silently parse as its numeric prefix.
  EXPECT_EQ(ParseThreadCount("8x", error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ParseThreadCount("4 ", error), 0u);
  EXPECT_EQ(ParseThreadCount("2.5", error), 0u);
  EXPECT_EQ(ParseThreadCount("threads", error), 0u);
}

TEST(Parallel, ParseThreadCountRejectsNonPositiveAndOverflow) {
  std::string error;
  EXPECT_EQ(ParseThreadCount("0", error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ParseThreadCount("-4", error), 0u);
  EXPECT_FALSE(error.empty());
  // Beyond long: strtol saturates with ERANGE. Beyond int: also rejected,
  // the pool stores thread counts as int-sized values.
  EXPECT_EQ(ParseThreadCount("99999999999999999999", error), 0u);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(ParseThreadCount("3000000000", error), 0u);
  EXPECT_FALSE(error.empty());
}

TEST(Parallel, ResultIsThreadCountInvariant) {
  // A pure, index-keyed computation must come out identical at any width.
  auto run = [] {
    return ParallelMap<double>(
        500, [](std::size_t i) { return static_cast<double>(i) * 1.5 + 2.0; });
  };
  SetThreadCount(1);
  const std::vector<double> serial = run();
  SetThreadCount(8);
  const std::vector<double> wide = run();
  SetThreadCount(0);
  EXPECT_EQ(serial, wide);
}

}  // namespace
}  // namespace cordial
