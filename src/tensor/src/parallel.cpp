#include "nodetr/tensor/parallel.hpp"

#include <sched.h>

#include <algorithm>

#include "nodetr/obs/obs.hpp"

namespace nodetr::tensor {

namespace obs = nodetr::obs;

namespace {
/// Innermost pool whose chunk the current thread is executing (or nullptr).
/// Lets a nested run_chunks on the same pool fall back to serial execution
/// instead of deadlocking on the submission lock.
thread_local const ThreadPool* t_active_pool = nullptr;

constexpr index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// CPUs the calling thread may run on: its affinity mask, which
/// hardware_concurrency() ignores (a process confined with `taskset -c 0`
/// would otherwise fork one worker per host CPU onto a single core).
std::size_t available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = available_cpus();
  // The calling thread participates, so spawn n-1 workers.
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::Registry::instance().gauge("tensor.pool.threads").set(static_cast<double>(size()));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  t_active_pool = this;  // worker threads belong to this pool for life
  std::size_t seen_epoch = 0;
  for (;;) {
    std::unique_lock lk(mu_);
    cv_work_.wait(lk, [&] { return stop_ || (fn_ != nullptr && epoch_ != seen_epoch); });
    if (stop_) return;
    seen_epoch = epoch_;
    if (posted_ns_ != 0) {
      // Queue wait: time from work being posted to this worker picking it up.
      // Only sampled while tracing is enabled (posted_ns_ stays 0 otherwise).
      static auto& wait_us = obs::Registry::instance().histogram("tensor.pool.queue_wait_us");
      wait_us.observe(static_cast<double>(obs::Tracer::instance().now_ns() - posted_ns_) / 1e3);
    }
    const auto* fn = fn_;
    ++active_;
    while (next_chunk_ < total_chunks_) {
      const std::size_t c = next_chunk_++;
      lk.unlock();
      (*fn)(c);
      lk.lock();
    }
    if (--active_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
  if (num_chunks == 0) return;
  static auto& runs = obs::Registry::instance().counter("tensor.pool.runs");
  static auto& chunks = obs::Registry::instance().counter("tensor.pool.chunks");
  static auto& serial_runs = obs::Registry::instance().counter("tensor.pool.serial_runs");
  chunks.add(static_cast<std::int64_t>(num_chunks));
  if (workers_.empty() || num_chunks == 1 || t_active_pool == this) {
    serial_runs.add();
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }
  runs.add();
  // One batch in flight at a time; concurrent submitters queue up here.
  std::lock_guard submit_lk(submit_mu_);
  std::unique_lock lk(mu_);
  fn_ = &fn;
  posted_ns_ = obs::tracing_enabled() ? obs::Tracer::instance().now_ns() : 0;
  next_chunk_ = 0;
  total_chunks_ = num_chunks;
  ++epoch_;
  cv_work_.notify_all();
  // Caller participates too.
  const ThreadPool* enclosing = t_active_pool;
  t_active_pool = this;
  while (next_chunk_ < total_chunks_) {
    const std::size_t c = next_chunk_++;
    lk.unlock();
    fn(c);
    lk.lock();
  }
  t_active_pool = enclosing;
  cv_done_.wait(lk, [&] { return active_ == 0; });
  fn_ = nullptr;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(index_t begin, index_t end, const std::function<void(index_t, index_t)>& body,
                  index_t grain) {
  const index_t n = end - begin;
  if (n <= 0) return;
  auto& pool = ThreadPool::global();
  // One chunk per grain-sized unit of work (rounding up), with the pool-derived
  // cap purely as an upper bound on scheduling overhead. The previous floor
  // division (n / grain) meant any loop shorter than two grains ran serially,
  // which silently serialized call sites that picked a large grain.
  const index_t units = ceil_div(n, std::max<index_t>(grain, 1));
  const index_t max_chunks = static_cast<index_t>(pool.size()) * 4;
  const index_t chunks = std::min(std::max<index_t>(units, 1), max_chunks);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  const index_t per = (n + chunks - 1) / chunks;
  pool.run_chunks(static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const index_t lo = begin + static_cast<index_t>(c) * per;
    const index_t hi = std::min(lo + per, end);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace nodetr::tensor
