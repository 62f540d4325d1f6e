// Bounded MPMC request queue — the admission point of the serving engine
// (see engine.hpp for the overall architecture).
//
// Producers submit requests from arbitrary threads; worker sessions drain
// them through the MicroBatcher. The queue is bounded so a traffic burst
// turns into explicit backpressure instead of unbounded memory growth:
//   - kBlock:      push waits for space (producer-paced, no request loss);
//   - kReject:     push fails immediately when full (caller sheds load);
//   - kShedOldest: push evicts the oldest queued request when full — the
//                  victim's future is failed with RequestShedError by the
//                  caller, newest work is admitted (freshest-first shedding
//                  for deadline-bound traffic).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>

#include "nodetr/serve/errors.hpp"
#include "nodetr/tensor/tensor.hpp"

namespace nodetr::serve {

using nodetr::tensor::index_t;
using nodetr::tensor::Shape;
using nodetr::tensor::Tensor;

enum class BackpressurePolicy {
  kBlock,      ///< submit blocks until queue space frees up
  kReject,     ///< submit throws QueueFullError when the queue is at capacity
  kShedOldest, ///< a full queue evicts its oldest request to admit the new one
};

/// Priority class carried by a request. Under admission-control overload the
/// lowest classes are shed first; kInteractive is only refused by a full
/// queue itself.
enum class Priority : int {
  kBatch = 0,        ///< offline / bulk work — first to shed
  kNormal = 1,       ///< default
  kInteractive = 2,  ///< latency-sensitive — shed last
};

[[nodiscard]] const char* to_string(Priority priority);

/// One in-flight inference request. `input`/`output` are rank-4
/// (rows, D, H, W); a rank-3 submission is wrapped as one row and squeezed
/// back on completion. Row bookkeeping (`output`, `rows_done`, `failed`) is
/// only touched by the single worker that popped the request — the
/// MicroBatcher keeps split requests on one worker — so it needs no lock.
struct Request {
  std::uint64_t id = 0;
  /// Request-scoped trace id (obs::new_trace_id(), minted at submit). Every
  /// flight-recorder event and Chrome-trace flow point on this request's
  /// path carries it, so one id names one request across the queue, the
  /// batcher's split/merge/carry, the workers, and the accelerator.
  std::uint64_t trace_id = 0;
  Tensor input;
  bool squeeze = false;
  Tensor output;
  index_t rows_done = 0;
  bool failed = false;
  std::promise<Tensor> promise;
  /// Queue wait observed at pop (µs); -1 until popped. Written by the single
  /// popping worker (same no-lock rule as the row bookkeeping above) and
  /// read back at completion for the SLO monitor. With a router the device
  /// queue's pop overwrites the router's central-pop value, so the final
  /// number is the full submit → worker wait.
  std::int64_t queue_wait_us = -1;
  /// Device index the router dispatched this request to; -1 until routed
  /// (or forever, in an engine without a router). Written by the single
  /// router thread before the device-queue push.
  int routed_device = -1;
  std::chrono::steady_clock::time_point enqueued_at;
  Priority priority = Priority::kNormal;
  /// Absolute completion deadline; the epoch value means "none". Enforced at
  /// admission, re-checked at batch formation, and propagated into the
  /// accelerator's ExecDeadline (see engine.hpp).
  std::chrono::steady_clock::time_point deadline{};

  [[nodiscard]] bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  [[nodiscard]] bool expired(std::chrono::steady_clock::time_point now) const {
    return has_deadline() && now >= deadline;
  }
  /// Remaining budget in µs (clamped at 0); meaningless without a deadline.
  [[nodiscard]] std::int64_t remaining_us(std::chrono::steady_clock::time_point now) const {
    const auto left =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now).count();
    return left > 0 ? left : 0;
  }
};

using RequestPtr = std::shared_ptr<Request>;

enum class PushResult { kOk, kFull, kClosed };

/// Bounded multi-producer/multi-consumer FIFO of requests.
class RequestQueue {
 public:
  RequestQueue(std::size_t capacity, BackpressurePolicy policy);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Enqueue. Under kBlock this waits for space (kClosed if the queue closes
  /// while waiting); under kReject a full queue returns kFull immediately.
  /// Under kShedOldest a full queue evicts its front request into `*shed`
  /// and admits `r` (kOk); the caller must fail the victim's future. When
  /// `shed` is null, kShedOldest degrades to kReject.
  PushResult push(RequestPtr r, RequestPtr* shed = nullptr);

  /// Dequeue, blocking until an item arrives. Returns nullptr only once the
  /// queue is closed AND drained, so close() never drops accepted requests.
  [[nodiscard]] RequestPtr pop();

  /// Non-blocking dequeue; nullptr when empty.
  [[nodiscard]] RequestPtr try_pop();

  /// Return an already-accepted request to the FRONT of the queue so it is
  /// served next (crash salvage: a dying worker hands back requests it
  /// popped but never touched). Ignores capacity and the closed flag — the
  /// request was admitted once and must still drain.
  void requeue(RequestPtr r);

  /// Dequeue, waiting at most until `deadline`. Returns nullptr on timeout
  /// or once closed and drained.
  [[nodiscard]] RequestPtr pop_until(std::chrono::steady_clock::time_point deadline);

  /// Observer invoked (outside the queue lock) with each popped request's
  /// queue wait in µs — the standing-queue-delay signal admission control
  /// keys on. Set once before consumers start; not synchronized against
  /// concurrent pops.
  void set_wait_observer(std::function<void(std::int64_t)> observer) {
    wait_observer_ = std::move(observer);
  }

  /// Stop admitting new requests; queued ones remain poppable (drain).
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] BackpressurePolicy policy() const { return policy_; }

 private:
  void observe_wait(const RequestPtr& r) const;

  const std::size_t capacity_;
  const BackpressurePolicy policy_;
  std::function<void(std::int64_t)> wait_observer_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;  ///< signalled on pop/close
  std::condition_variable cv_items_;  ///< signalled on push/close
  std::deque<RequestPtr> items_;
  bool closed_ = false;
};

}  // namespace nodetr::serve
