#include "pdm/async_io.h"

#include <algorithm>
#include <string>

#include "util/jobtrace.h"
#include "util/trace.h"

namespace pdm {

namespace {

// One worker per disk gives full simulated-latency overlap; the cap keeps
// thread counts sane for very wide arrays.
constexpr usize kMaxWorkers = 64;

}  // namespace

AsyncIoScheduler::AsyncIoScheduler(IoScheduler& sync)
    : sync_(&sync),
      queues_(sync.backend().num_disks()),
      read_ticket_ns_(metrics::Registry::global().histogram("io.read_ticket_ns")),
      write_ticket_ns_(
          metrics::Registry::global().histogram("io.write_ticket_ns")) {
  queue_names_.reserve(queues_.size());
  for (usize d = 0; d < queues_.size(); ++d) {
    queue_names_.push_back("disk" + std::to_string(d) + ".queue");
  }
}

AsyncIoScheduler::~AsyncIoScheduler() {
  // stop_workers lets the workers finish every queued job before joining,
  // so destruction implicitly drains.
  stop_workers();
}

void AsyncIoScheduler::quiesce() noexcept {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return pending_.empty(); });
}

void AsyncIoScheduler::set_depth(usize depth) {
  if (depth == this->depth()) return;
  quiesce();
  depth_.store(depth, std::memory_order_relaxed);
  if (depth >= 2 && workers_.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    start_workers_locked();
  } else if (depth < 2 && !workers_.empty()) {
    stop_workers();
  }
}

void AsyncIoScheduler::raise_depth(usize depth) {
  std::unique_lock<std::mutex> lk(mu_);
  if (depth <= depth_.load(std::memory_order_relaxed)) return;
  // Grow without a quiesce: widening the backpressure bound cannot break
  // the per-disk FIFO ordering (queues are untouched) and accounting is
  // charged at submission, so mid-flight raises leave IoStats byte-equal.
  // Going 0/1 -> >=2 also flips enabled(): in-flight state is empty in
  // that case (the sync path never queued), so spawning workers suffices.
  depth_.store(depth, std::memory_order_relaxed);
  if (workers_.empty()) start_workers_locked();
  lk.unlock();
  // Wake submitters parked on the old, narrower bound.
  done_cv_.notify_all();
}

void AsyncIoScheduler::start_workers_locked() {
  stop_ = false;
  const usize n = std::min<usize>(queues_.size(), kMaxWorkers);
  workers_.reserve(n);
  for (usize i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void AsyncIoScheduler::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void AsyncIoScheduler::rethrow_error_locked() {
  // Deliberately sticky (error_ is not cleared): a failed backend op means
  // the disk state is suspect, and unwind-time drains that swallow the
  // throw (drain guards, ring destructors) must not lose it — the next
  // wait/drain/submit rethrows until the scheduler is destroyed.
  if (error_) std::rethrow_exception(error_);
}

template <class Req>
IoTicket AsyncIoScheduler::submit(std::span<const Req> reqs) {
  constexpr bool kIsWrite = std::is_same_v<Req, WriteReq>;
  static_assert(std::is_same_v<Req, ReadReq> || kIsWrite);
  if (reqs.empty()) return 0;

  std::unique_lock<std::mutex> lk(mu_);
  // Backpressure: at most depth_ submissions in flight. Workers always
  // drain pending jobs (even after an error), so this cannot stall.
  done_cv_.wait(lk, [this] { return pending_.size() < depth_; });
  rethrow_error_locked();

  const IoTicket ticket = ++next_ticket_;
  // Split into one job per disk, preserving submission order within each.
  usize njobs = 0;
  std::vector<u32> touched;  // disks this ticket queued on (counter tracks)
  for (const auto& r : reqs) {
    DiskQueue& q = queues_[r.where.disk];
    if (q.jobs.empty() || q.jobs.back().ticket != ticket) {
      Job j;
      j.ticket = ticket;
      j.is_write = kIsWrite;
      q.jobs.push_back(std::move(j));
      ++njobs;
      touched.push_back(r.where.disk);
    }
    if constexpr (kIsWrite) {
      q.jobs.back().writes.push_back(r);
    } else {
      q.jobs.back().reads.push_back(r);
    }
  }
  PendingTicket pt;
  pt.outstanding = njobs;
  pt.is_write = kIsWrite;
  pt.t_submit = std::chrono::steady_clock::now();
  // Capture the submitting thread's job attribution: the completion
  // retro-span is emitted on an aio-worker thread, whose own jobtrace
  // scope (if any) belongs to a different job.
  pt.job = jobtrace::current();
  pt.parent = jobtrace::current_parent();
  pending_[ticket] = pt;
  // Snapshot the counters under the lock; emit them after releasing it, so
  // the I/O workers never wait on the tracer.
  const bool tracing = trace::TraceLog::instance().enabled();
  const usize in_flight = pending_.size();
  std::vector<usize> depths;
  if (tracing) {
    depths.reserve(touched.size());
    for (u32 d : touched) depths.push_back(queues_[d].jobs.size());
  }
  lk.unlock();
  work_cv_.notify_all();
  if (tracing) {
    trace::TraceLog& log = trace::TraceLog::instance();
    log.counter("io", "tickets_in_flight", in_flight);
    for (usize i = 0; i < touched.size(); ++i) {
      log.counter_dyn("io", queue_names_[touched[i]], depths[i]);
    }
  }
  return ticket;
}

IoTicket AsyncIoScheduler::read_async(std::span<const ReadReq> reqs,
                                      u64* rounds_out) {
  if (!enabled()) {
    // Disabled: exactly the synchronous scheduler path.
    const u64 rounds = sync_->read(reqs);
    if (rounds_out != nullptr) *rounds_out = rounds;
    return 0;
  }
  // Charge first, on the submitting thread: identical stats to sync. The
  // coalesced form of the batch is what the workers execute — one backend
  // call per extent, same per-disk order as the raw requests.
  const u64 rounds = sync_->account(reqs);
  if (rounds_out != nullptr) *rounds_out = rounds;
  return submit<ReadReq>(sync_->last_coalesced<ReadReq>());
}

IoTicket AsyncIoScheduler::write_async(std::span<const WriteReq> reqs,
                                       u64* rounds_out) {
  if (!enabled()) {
    const u64 rounds = sync_->write(reqs);
    if (rounds_out != nullptr) *rounds_out = rounds;
    return 0;
  }
  const u64 rounds = sync_->account(reqs);
  if (rounds_out != nullptr) *rounds_out = rounds;
  return submit<WriteReq>(sync_->last_coalesced<WriteReq>());
}

u64 AsyncIoScheduler::read(std::span<const ReadReq> reqs) {
  u64 rounds = 0;
  wait(read_async(reqs, &rounds));
  return rounds;
}

u64 AsyncIoScheduler::write(std::span<const WriteReq> reqs) {
  u64 rounds = 0;
  wait(write_async(reqs, &rounds));
  return rounds;
}

void AsyncIoScheduler::wait(IoTicket t) {
  std::unique_lock<std::mutex> lk(mu_);
  if (t != 0) {
    done_cv_.wait(lk, [this, t] { return !pending_.contains(t); });
  }
  rethrow_error_locked();
}

bool AsyncIoScheduler::complete(IoTicket t) {
  if (t == 0) return true;
  std::lock_guard<std::mutex> lk(mu_);
  return !pending_.contains(t);
}

void AsyncIoScheduler::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return pending_.empty(); });
  rethrow_error_locked();
}

void AsyncIoScheduler::worker_loop() {
  trace::TraceLog::instance().set_thread_name("aio-worker");
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Find a disk with a runnable job, round-robin from the shared cursor.
    const u32 nd = static_cast<u32>(queues_.size());
    u32 disk = nd;
    for (u32 i = 0; i < nd; ++i) {
      const u32 d = (scan_cursor_ + i) % nd;
      if (!queues_[d].busy && !queues_[d].jobs.empty()) {
        disk = d;
        break;
      }
    }
    if (disk == nd) {
      if (stop_) return;
      work_cv_.wait(lk);
      continue;
    }
    scan_cursor_ = (disk + 1) % nd;
    DiskQueue& q = queues_[disk];
    Job job = std::move(q.jobs.front());
    q.jobs.pop_front();
    q.busy = true;
    lk.unlock();

    try {
      // One backend call per request: a single-request batch is a legal
      // "parallel op slice" (<= 1 request per disk trivially), and it lets
      // the backend charge its simulated per-op latency per disk visit.
      // Requests here are already coalesced, so one call moves a whole
      // extent (one syscall / one StreamModel seek + count transfers).
      if (job.is_write) {
        for (const auto& w : job.writes) {
          sync_->backend().write_batch(std::span<const WriteReq>(&w, 1));
        }
      } else {
        for (const auto& r : job.reads) {
          sync_->backend().read_batch(std::span<const ReadReq>(&r, 1));
        }
      }
    } catch (...) {
      lk.lock();
      if (!error_) error_ = std::current_exception();
      lk.unlock();
    }

    lk.lock();
    q.busy = false;
    auto it = pending_.find(job.ticket);
    PDM_ASSERT(it != pending_.end(), "completion for unknown ticket");
    if (--it->second.outstanding == 0) {
      // Ticket fully complete: attribute its submit->complete latency.
      // Measured with chrono directly so the histogram works even in
      // tracing-disabled builds; the retro-span reuses the same duration.
      const auto lat = std::chrono::steady_clock::now() - it->second.t_submit;
      const u64 lat_ns = lat.count() > 0
                             ? static_cast<u64>(
                                   std::chrono::duration_cast<
                                       std::chrono::nanoseconds>(lat)
                                       .count())
                             : 0;
      (it->second.is_write ? write_ticket_ns_ : read_ticket_ns_)
          .record(lat_ns);
      if (trace::TraceLog::instance().enabled()) {
        const u64 now_ns = trace::TraceLog::now_ns();
        const u64 dur = std::min(now_ns, lat_ns);
        // Re-establish the submitter's attribution around the retro-span
        // (TLS stores only — safe under mu_).
        jobtrace::Scope scope(it->second.job, it->second.parent);
        trace::TraceLog::instance().complete(
            "io", it->second.is_write ? "write_ticket" : "read_ticket",
            now_ns - dur, dur, "ticket", job.ticket);
      }
      pending_.erase(it);
      done_cv_.notify_all();
    }
    // The disk we just released may have more queued jobs.
    if (!q.jobs.empty()) work_cv_.notify_one();
  }
}

}  // namespace pdm
