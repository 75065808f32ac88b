// Asynchronous double-buffered I/O pipeline in front of the synchronous
// IoScheduler.
//
// Design:
//  - Accounting happens on the submitting thread, at submission time,
//    through IoScheduler::account — so IoStats (op counts, per-disk block
//    counts, simulated time) are identical to a synchronous run issuing
//    the same batches, regardless of worker timing.
//  - Execution is deferred to a fixed pool of worker threads draining one
//    FIFO queue per disk. At most one worker services a disk at a time, so
//    requests touching the same disk (hence the same block — a block lives
//    on exactly one disk) execute in submission order: a read submitted
//    after a write of the same block always observes the written data.
//    Requests on different disks proceed concurrently, which is what turns
//    the paper's "one parallel op" accounting into real D-way overlap.
//  - A ticket is a monotonically increasing completion handle. wait(t)
//    blocks until every request of submission t has executed; ticket 0 is
//    the always-complete ticket returned for empty or synchronous
//    submissions.
//  - depth bounds the number of in-flight submissions (backpressure): a
//    new submission blocks until fewer than `depth` tickets are pending.
//    depth < 2 disables the pipeline entirely — submissions execute
//    synchronously inline via IoScheduler, byte- and stats-identically.
//
// Threading contract: submissions, waits and stat reads come from one
// "algorithm" thread; only backend transfers run on the workers. Worker
// exceptions (e.g. a read of an unwritten block) are captured and
// rethrown on the next wait()/drain()/submission.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pdm/io_scheduler.h"
#include "util/metrics.h"

namespace pdm {

/// Completion handle for one asynchronous submission. 0 == complete.
using IoTicket = u64;

class AsyncIoScheduler {
 public:
  /// Wraps `sync`; starts disabled (depth 0). Worker threads are spawned
  /// lazily when the depth is raised to >= 2.
  explicit AsyncIoScheduler(IoScheduler& sync);
  ~AsyncIoScheduler();

  AsyncIoScheduler(const AsyncIoScheduler&) = delete;
  AsyncIoScheduler& operator=(const AsyncIoScheduler&) = delete;

  /// Max in-flight submissions. Quiesces (waits for all in-flight work
  /// without rethrowing — a captured worker error stays sticky and
  /// surfaces at the next wait/drain/submit), then reconfigures; < 2
  /// disables the pipeline (and joins the workers). Never throws, so it
  /// is safe from RAII destructors during unwinding.
  void set_depth(usize depth);

  /// Grow-only re-arbitration: raises the depth bound WITHOUT quiescing,
  /// so a long-running job can absorb freed service capacity mid-flight.
  /// In-flight submissions keep executing; backpressure waiters are woken
  /// to observe the wider bound. `depth <= depth()` is a no-op (shrinking
  /// mid-flight would require the quiesce — use set_depth). Accounting is
  /// unaffected: charges happen at submission on the submitting thread,
  /// identically at any depth, so IoStats stay byte-equal across grants.
  void raise_depth(usize depth);

  usize depth() const noexcept {
    return depth_.load(std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return depth() >= 2; }

  /// Submits a batch; the request payload buffers (dst/src) must stay
  /// alive and untouched until the returned ticket completes. Charges the
  /// batch to IoStats immediately (see header comment). When disabled,
  /// executes synchronously and returns 0. `rounds_out`, if non-null,
  /// receives the parallel-op count charged for the batch.
  IoTicket read_async(std::span<const ReadReq> reqs, u64* rounds_out = nullptr);
  IoTicket write_async(std::span<const WriteReq> reqs,
                       u64* rounds_out = nullptr);

  /// Submit + wait: synchronous semantics but still ordered through the
  /// per-disk queues, so it composes with in-flight asynchronous requests.
  u64 read(std::span<const ReadReq> reqs);
  u64 write(std::span<const WriteReq> reqs);

  /// Blocks until ticket `t` has fully executed. Rethrows a worker error.
  /// Errors are sticky: once a worker has failed, every subsequent
  /// wait/drain/submit rethrows (the disk state is suspect) — a swallowed
  /// throw during unwinding cannot lose the error.
  void wait(IoTicket t);

  /// True iff ticket `t` has fully executed (never blocks).
  bool complete(IoTicket t);

  /// Blocks until every submitted request has executed.
  void drain();

  IoScheduler& sync() noexcept { return *sync_; }

 private:
  struct Job {
    IoTicket ticket = 0;
    bool is_write = false;
    std::vector<ReadReq> reads;    // all on one disk, submission order
    std::vector<WriteReq> writes;  // all on one disk, submission order
  };
  struct DiskQueue {
    std::deque<Job> jobs;
    bool busy = false;  // a worker is executing this disk's front job
  };
  /// Outstanding per-disk job count for one ticket, plus what the
  /// observability layer needs to attribute the ticket at completion:
  /// the submit timestamp (submit->complete latency) and the direction.
  struct PendingTicket {
    usize outstanding = 0;
    bool is_write = false;
    std::chrono::steady_clock::time_point t_submit;
    // Causal attribution captured from the submitting thread's jobtrace
    // scope, re-established around the completion retro-span (which is
    // emitted on an aio-worker thread).
    u64 job = 0;
    u64 parent = 0;
  };

  template <class Req>
  IoTicket submit(std::span<const Req> reqs);
  void worker_loop();
  void start_workers_locked();
  void stop_workers();
  void quiesce() noexcept;  // wait for pending work, no rethrow
  void rethrow_error_locked();

  IoScheduler* sync_;
  // Atomic: depth()/enabled() are sampled unlocked by the algorithm
  // thread while raise_depth() widens the bound from a service thread.
  std::atomic<usize> depth_{0};
  std::vector<DiskQueue> queues_;  // one per disk
  std::vector<std::string> queue_names_;  // per-disk trace counter names
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a job may be runnable
  std::condition_variable done_cv_;  // waiters: a ticket completed
  std::unordered_map<u64, PendingTicket> pending_;  // ticket -> in flight

  // Ticket submit->complete latency distributions (registry-owned; cached
  // references so the hot completion path skips the name lookup).
  metrics::LogHistogram& read_ticket_ns_;
  metrics::LogHistogram& write_ticket_ns_;
  u64 next_ticket_ = 0;
  u32 scan_cursor_ = 0;  // round-robin fairness over disk queues
  bool stop_ = false;
  std::exception_ptr error_;
};

/// RAII depth override: sets the pipeline depth for the lifetime of the
/// scope and restores (draining) on exit. Wrap a sorter call in one to
/// run that call at its own depth.
class AsyncDepthScope {
 public:
  AsyncDepthScope(AsyncIoScheduler& aio, usize depth)
      : aio_(&aio), saved_(aio.depth()) {
    aio_->set_depth(depth);
  }
  ~AsyncDepthScope() { aio_->set_depth(saved_); }

  AsyncDepthScope(const AsyncDepthScope&) = delete;
  AsyncDepthScope& operator=(const AsyncDepthScope&) = delete;

 private:
  AsyncIoScheduler* aio_;
  usize saved_;
};

}  // namespace pdm
