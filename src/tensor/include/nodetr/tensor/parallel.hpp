// Minimal work-sharing primitives: a persistent thread pool and parallel_for.
//
// Kernels in this library are written against parallel_for so they scale on
// multi-core hosts; on a single-core host the pool degrades to serial
// execution with no thread overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "nodetr/tensor/shape.hpp"

namespace nodetr::tensor {

/// Persistent pool of worker threads executing blocking fork-join tasks.
class ThreadPool {
 public:
  /// `num_threads == 0` selects the CPU count of the calling thread's
  /// affinity mask; 1 means serial.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers including the calling thread's share.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(chunk_index) for chunk_index in [0, num_chunks) across the pool,
  /// blocking until all chunks finish. Exceptions propagate from chunk 0 only;
  /// other chunks' exceptions terminate (kernels must not throw).
  ///
  /// Safe to call from multiple threads at once: concurrent batches are
  /// serialized on a submission mutex. A call made from inside a chunk that is
  /// already running on this pool executes serially on the calling thread
  /// (nested fork-join would deadlock against the submission lock).
  void run_chunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn);

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  ///< serializes whole batches from concurrent callers
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::uint64_t posted_ns_ = 0;  ///< when the current batch was posted (0 = not sampling)
  std::size_t next_chunk_ = 0;
  std::size_t total_chunks_ = 0;
  std::size_t active_ = 0;
  std::size_t epoch_ = 0;
  bool stop_ = false;
};

/// Split [begin, end) into roughly equal ranges and run body(lo, hi) on the
/// global pool. Grain is the target per-task range: the loop is split into
/// ceil(n / grain) chunks (capped at a small multiple of the pool size), so a
/// loop spanning more than one grain always splits. Loops of at most one
/// grain run serially to avoid overhead.
void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t, index_t)>& body,
                  index_t grain = 1024);

}  // namespace nodetr::tensor
