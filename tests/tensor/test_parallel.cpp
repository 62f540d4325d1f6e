#include "nodetr/tensor/parallel.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace nt = nodetr::tensor;

TEST(ThreadPool, SerialPoolRunsAllChunks) {
  nt::ThreadPool pool(1);
  std::vector<int> hits(10, 0);
  pool.run_chunks(10, [&](std::size_t c) { hits[c]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, MultiThreadedPoolCoversAllChunksExactlyOnce) {
  nt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.run_chunks(100, [&](std::size_t c) { hits[c]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  nt::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.run_chunks(7, [&](std::size_t) { total++; });
  }
  EXPECT_EQ(total.load(), 35);
}

TEST(ThreadPool, DefaultSizeFollowsAffinityMask) {
  // Confine only this thread to one CPU it may already run on; a pool sized
  // by default must then be serial, whatever the host's core count.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t size = nt::ThreadPool(0).size();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(size, 1u);
}

TEST(ThreadPool, ZeroChunksIsNoop) {
  nt::ThreadPool pool(2);
  bool ran = false;
  pool.run_chunks(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ConcurrentSubmittersEachCoverTheirChunksOnce) {
  // Serving workers submit fork-join batches to the shared pool from several
  // threads at once; batches must serialize, not interleave or race.
  nt::ThreadPool pool(4);
  constexpr int kSubmitters = 6, kRounds = 25, kChunks = 16;
  std::vector<std::atomic<int>> hits(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int r = 0; r < kRounds; ++r) {
        pool.run_chunks(kChunks, [&](std::size_t) { hits[static_cast<std::size_t>(s)]++; });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), kRounds * kChunks);
}

TEST(ThreadPool, NestedSubmissionFallsBackToSerial) {
  // A chunk that re-enters the same pool must not deadlock on the
  // submission lock; the nested batch runs serially on the calling thread.
  nt::ThreadPool pool(3);
  std::atomic<int> inner{0};
  pool.run_chunks(3, [&](std::size_t) {
    pool.run_chunks(4, [&](std::size_t) { inner++; });
  });
  EXPECT_EQ(inner.load(), 12);
}

TEST(ParallelFor, ConcurrentCallersComputeCorrectSums) {
  // parallel_for rides on the global pool; hammer it from several threads.
  constexpr int kCallers = 5;
  std::vector<long long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<long long> sum{0};
        nt::parallel_for(0, 4096, [&](nt::index_t lo, nt::index_t hi) {
          long long local = 0;
          for (nt::index_t i = lo; i < hi; ++i) local += i;
          sum += local;
        }, /*grain=*/64);
        sums[static_cast<std::size_t>(t)] = sum.load();
      }
    });
  }
  for (auto& c : callers) c.join();
  for (long long s : sums) EXPECT_EQ(s, 4096LL * 4095 / 2);
}

TEST(ParallelFor, CoversFullRange) {
  std::vector<std::atomic<int>> hits(1000);
  nt::parallel_for(0, 1000, [&](nt::index_t lo, nt::index_t hi) {
    for (nt::index_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  }, /*grain=*/10);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  nt::parallel_for(5, 5, [&](nt::index_t, nt::index_t) { ran = true; });
  EXPECT_FALSE(ran);
  nt::parallel_for(5, 3, [&](nt::index_t, nt::index_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, RespectsOffsetBegin) {
  std::atomic<long> sum{0};
  nt::parallel_for(10, 20, [&](nt::index_t lo, nt::index_t hi) {
    long local = 0;
    for (nt::index_t i = lo; i < hi; ++i) local += i;
    sum += local;
  }, /*grain=*/2);
  EXPECT_EQ(sum.load(), 145);  // 10+...+19
}

TEST(ParallelFor, ParallelSumMatchesSerial) {
  std::vector<double> v(4096);
  std::iota(v.begin(), v.end(), 0.0);
  std::atomic<long long> psum{0};
  nt::parallel_for(0, static_cast<nt::index_t>(v.size()), [&](nt::index_t lo, nt::index_t hi) {
    long long local = 0;
    for (nt::index_t i = lo; i < hi; ++i) local += static_cast<long long>(v[static_cast<std::size_t>(i)]);
    psum += local;
  }, /*grain=*/64);
  EXPECT_EQ(psum.load(), 4096LL * 4095 / 2);
}
