#include "service/sort_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>

#include "util/jobtrace.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace pdm {

namespace {

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::shared_ptr<DiskBackend> require_backend(std::shared_ptr<DiskBackend> b) {
  PDM_CHECK(b != nullptr, "SortService needs a backend");
  return b;
}

}  // namespace

/// One submitted job. Queue-visible fields are guarded by the service
/// mutex; while kRunning the executing worker stages results in locals
/// and commits them under the mutex, so info()/stats() never race it.
struct SortService::Job {
  JobId id = 0;
  SortJobSpec spec;
  u64 n = 0;
  usize record_bytes = 0;
  u64 type_key = 0;
  usize carve_bytes = 0;
  bool batchable = false;
  std::function<void(JobExec&)> run;

  JobState state = JobState::kQueued;
  std::string algorithm;
  std::string error;
  SortReport report;
  IoStats io;
  Clock::time_point t_submit;
  Clock::time_point t_start;
  Clock::time_point t_end;
  Clock::time_point deadline_abs = Clock::time_point::max();
  double est_run_s = 0;  // model-time estimate (deadline admission only)
  bool deadline_missed = false;
  bool batched = false;
  // Set by cancel() while kRunning; polled by the sorter at batch
  // boundaries through PdmContext::check_cancelled.
  std::atomic<bool> cancel_flag{false};
};

SortService::SortService(std::shared_ptr<DiskBackend> backend,
                         ServiceConfig cfg)
    : backend_(require_backend(std::move(backend))),
      cfg_(cfg),
      alloc_(backend_->num_disks()),
      budget_(cfg.total_memory_bytes),
      io_totals_(backend_->num_disks()) {
  PDM_CHECK(cfg_.workers > 0, "SortService needs at least one worker");
  PDM_CHECK(cfg_.mem_slack >= 1.0, "mem_slack below 1 cannot stage a sort");
  PDM_CHECK(cfg_.batch_max > 0, "batch_max must be positive");
  workers_.reserve(cfg_.workers);
  for (usize i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SortService::~SortService() {
  {
    std::lock_guard g(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace {

/// Per-algorithm working-set model for admission: carve =
/// m_mult * M * record_bytes + block_overhead * D * block_bytes, covering
/// the sort's tracked buffers plus the async pipeline's second load
/// buffer and write-behind slabs (each bounded by ~M under the service's
/// slab cap). Calibrated by binary-searching the minimal feasible job
/// budget per algorithm across geometries (measured minima: InternalSort
/// 3.0M; the LMM family 4.0M + 8·D·B at square-ish geometries, up to
/// 5.0M at extreme M/B ratios) and padded ~10-15%. Algorithms not
/// calibrated here fall back to the conservative uniform mem_slack.
struct AdmissionSlack {
  double m_mult = 0;
  double block_overhead = 0;
  bool calibrated = false;
};

AdmissionSlack algo_admission_slack(Algo a) {
  switch (a) {
    case Algo::kInternal:
      // One M-record load + the pipeline's ping-pong load and slab.
      return {3.25, 2.0, true};
    case Algo::kExpectedTwoPass:
    case Algo::kThreePassLmm:
    case Algo::kExpectedThreePass:
      // LMM family: unshuffle/merge/window buffers + pipeline slack
      // (observed peaks reach 5.0M at extreme M/B ratios).
      return {5.5, 8.0, true};
    default:
      return {};
  }
}

}  // namespace

usize SortService::admission_carve(const SortJobSpec& spec,
                                   usize record_bytes, u64 n) const {
  if (spec.carve_bytes != 0) return spec.carve_bytes;
  const double mrec_bytes = static_cast<double>(spec.mem_records) *
                            static_cast<double>(record_bytes);
  const auto uniform = static_cast<usize>(cfg_.mem_slack * mrec_bytes);
  // Parallel in-core kernels acquire tracked scratch (ping-pong merge
  // buffers) only when the job's CPU grant is >= 2: one extra M-load for
  // the internal sort, up to two for the LMM family's cleanup window.
  // Added AFTER the per-algorithm/uniform min below, so the cap cannot
  // under-carve a job that will run parallel; zero when cpu_threads_total
  // leaves every job serial (carves stay byte-identical to the serial
  // configuration).
  double par_mult = cfg_.cpu_threads_total >= 2 ? 2.0 : 0.0;
  usize base = uniform;
  const usize bb = backend_->block_bytes();
  if (cfg_.plan_aware_admission && n > 0 && record_bytes > 0 &&
      bb % record_bytes == 0) {
    if (auto e = plans_.try_entry(n, spec.mem_records, bb / record_bytes,
                                  spec.alpha)) {
      const AdmissionSlack s = algo_admission_slack(e->algo);
      if (s.calibrated) {
        const auto carve = static_cast<usize>(
            s.m_mult * mrec_bytes +
            s.block_overhead * static_cast<double>(backend_->num_disks()) *
                static_cast<double>(bb));
        // Never raise a carve above the conservative bound: a tighter
        // global mem_slack keeps capping every admission.
        base = std::min(carve, uniform);
        if (cfg_.cpu_threads_total >= 2) {
          par_mult = e->algo == Algo::kInternal ? 1.0 : 2.0;
        }
      }
    }
  }
  return base + static_cast<usize>(par_mult * mrec_bytes);
}

bool SortService::queue_before(const Job& a, const Job& b) const {
  if (a.spec.priority != b.spec.priority) {
    return a.spec.priority > b.spec.priority;
  }
  // EDF within the band; no-deadline jobs (deadline_abs = max) run after
  // every deadlined one, FIFO among themselves.
  if (a.deadline_abs != b.deadline_abs) return a.deadline_abs < b.deadline_abs;
  return a.id < b.id;
}

double SortService::estimate_run_s(const SortJobSpec& spec, usize record_bytes,
                                   u64 n) {
  const usize bb = backend_->block_bytes();
  if (record_bytes == 0 || bb % record_bytes != 0) return 0;
  const u64 rpb = bb / record_bytes;
  PlanEntry e;
  try {
    e = plans_.entry(n, spec.mem_records, rpb, spec.alpha);
  } catch (const Error&) {
    return 0;  // no feasible plan: the job fails on a worker, as always
  }
  // A pass is N/(D*B) parallel reads plus as many writes, each costing one
  // seek + one block transfer under the service's cost model.
  const double rounds_per_pass =
      std::ceil(static_cast<double>(n) /
                (static_cast<double>(rpb) * backend_->num_disks()));
  return e.expected_passes * 2.0 * rounds_per_pass * cfg_.cost.round_cost(bb);
}

double SortService::estimate_run_s(const Job& job) {
  return estimate_run_s(job.spec, job.record_bytes, job.n);
}

double SortService::deadline_cal() const {
  std::lock_guard g(mu_);
  return cal_ratio_;
}

JobId SortService::submit_impl(SortJobSpec spec, u64 n, usize record_bytes,
                               u64 type_key,
                               std::function<void(JobExec&)> run) {
  PDM_CHECK(spec.mem_records > 0, "SortJobSpec.mem_records must be > 0");
  PDM_CHECK(n > 0, "cannot submit an empty sort job");
  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->n = n;
  job->record_bytes = record_bytes;
  job->type_key = type_key;
  job->carve_bytes = admission_carve(job->spec, record_bytes, n);
  job->run = std::move(run);
  job->t_submit = Clock::now();
  if (job->spec.deadline_s > 0) {
    job->deadline_abs =
        job->t_submit + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                job->spec.deadline_s));
  }
  // Planning for the admission estimate happens before the lock (the plan
  // cache has its own); skipped entirely unless deadline admission is on.
  if (cfg_.deadline_admission) job->est_run_s = estimate_run_s(*job);
  // Standalone submissions mint their causal id here; cluster-routed jobs
  // arrive with one already stamped at cluster admission.
  if (job->spec.trace_id == 0) job->spec.trace_id = jobtrace::mint();
  jobtrace::Scope trace_scope(job->spec.trace_id, job->spec.parent_trace_id);
  auto& flight = jobtrace::FlightRecorder::instance();

  std::lock_guard g(mu_);
  PDM_CHECK(!stop_, "SortService is shutting down");
  job->id = next_id_++;
  const JobId id = job->id;
  ++submitted_;
  auto reject = [&](std::string why) {
    job->state = JobState::kRejected;
    flight.note_end(job->spec.trace_id, jobtrace::EventKind::kRejected,
                    why.c_str(), /*bad=*/true, cfg_.shard_id);
    job->error = std::move(why);
    job->t_end = job->t_submit;
    job->run = {};  // terminal: release the dataset the closure co-owns
    jobs_.emplace(id, job);
    on_terminal_locked(*job);
    PDM_TRACE_INSTANT_ARG("service", "admission_reject", "job", id);
    return id;
  };
  if (job->carve_bytes > budget_.limit()) {
    // Admission control: this job can never be staged here.
    return reject("admission control: memory carve of " +
                  std::to_string(job->carve_bytes) +
                  " bytes exceeds the service budget of " +
                  std::to_string(budget_.limit()));
  }
  if (cfg_.deadline_admission && job->spec.deadline_s > 0 &&
      job->est_run_s > 0) {
    // Backlog the job would queue behind, spread over the workers, plus
    // its own planned run time. Jobs whose shapes defeat estimation
    // contribute zero — the check stays conservative toward admission.
    // Both terms are model time; the calibration EMA (observed wall
    // seconds per modeled second on THIS shard's backend) rescales them
    // so the check stays honest when CostModel and wall clock diverge.
    double backlog = 0;
    for (const Job* p : pending_) {
      if (queue_before(*p, *job)) backlog += p->est_run_s;
    }
    const double cal =
        cfg_.deadline_calibration && cal_ratio_ > 0 ? cal_ratio_ : 1.0;
    const double wait = cal * backlog / static_cast<double>(cfg_.workers);
    const double run = cal * job->est_run_s;
    if (wait + run > job->spec.deadline_s) {
      return reject("deadline admission: estimated wait " +
                    std::to_string(wait) + "s + run " +
                    std::to_string(run) +
                    "s exceeds deadline of " +
                    std::to_string(job->spec.deadline_s) + "s");
    }
  }
  job->batchable =
      cfg_.small_job_records > 0 && n <= cfg_.small_job_records;
  Job* raw = job.get();
  const auto pos = std::upper_bound(
      pending_.begin(), pending_.end(), raw, [this](const Job* a,
                                                    const Job* b) {
        return queue_before(*a, *b);
      });
  pending_.insert(pos, raw);
  flight.record(raw->spec.trace_id, jobtrace::EventKind::kAdmitted,
                raw->spec.name.c_str(), cfg_.shard_id);
  jobs_.emplace(id, std::move(job));
  work_cv_.notify_one();
  PDM_TRACE_INSTANT_ARG("service", "job_submitted", "job", id);
  return id;
}

std::vector<SortService::ExtractedJob> SortService::extract_queued() {
  std::vector<ExtractedJob> out;
  std::lock_guard g(mu_);
  out.reserve(pending_.size());
  const auto now = Clock::now();
  for (Job* raw : pending_) {
    auto it = jobs_.find(raw->id);
    PDM_ASSERT(it != jobs_.end(), "pending job without a record");
    std::shared_ptr<Job> job = it->second;
    ExtractedJob ex;
    ex.local_id = job->id;
    ex.t_submit = job->t_submit;
    ex.job.spec = std::move(job->spec);
    ex.job.n = job->n;
    ex.job.record_bytes = job->record_bytes;
    ex.job.type_key = job->type_key;
    ex.job.run = std::move(job->run);
    job->run = {};
    // kMigrated is terminal only from this shard's point of view: any
    // waiter (current or future) wakes, sees kMigrated and re-resolves
    // placement with the cluster. The record stays as a tombstone — not
    // counted by on_terminal_locked (the job is not done, it is
    // leaving), zero I/O, dropped with the service at retirement.
    job->state = JobState::kMigrated;
    job->t_end = now;
    // The job un-submits: it re-counts on whichever shard re-admits it,
    // so cluster-level per-shard sums stay exact.
    --submitted_;
    out.push_back(std::move(ex));
  }
  pending_.clear();
  done_cv_.notify_all();
  return out;
}

void SortService::set_capacity_callback(std::function<void()> cb) {
  std::lock_guard g(mu_);
  capacity_cb_ = std::move(cb);
}

bool SortService::cancel(JobId id) {
  std::lock_guard g(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job_state_terminal(job.state)) return false;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kCancelled;
    job.t_end = Clock::now();
    job.run = {};  // safe: a claimed member is only run while still kQueued
    std::erase(pending_, &job);
    jobtrace::FlightRecorder::instance().note_end(
        job.spec.trace_id, jobtrace::EventKind::kCancelled,
        "cancelled while queued", /*bad=*/true, cfg_.shard_id);
    on_terminal_locked(job);
    done_cv_.notify_all();
    return true;
  }
  // kRunning: cooperative preemption. The worker observes the flag at the
  // next batch boundary (or, at the latest, right before the completion
  // callback) and commits the job as kCancelled.
  job.cancel_flag.store(true, std::memory_order_relaxed);
  return true;
}

JobInfo SortService::wait(JobId id) {
  std::unique_lock lock(mu_);
  auto it = jobs_.find(id);
  PDM_CHECK(it != jobs_.end(), "wait: unknown job id");
  // Keep the record alive: retention may evict it while we sleep.
  std::shared_ptr<Job> job = it->second;
  done_cv_.wait(lock, [&] { return job_state_terminal(job->state); });
  return snapshot_locked(*job);
}

void SortService::drain() {
  std::unique_lock lock(mu_);
  done_cv_.wait(lock,
                [&] { return pending_.empty() && active_tasks_ == 0; });
}

bool SortService::forget(JobId id) {
  std::lock_guard g(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || !job_state_terminal(it->second->state)) {
    return false;
  }
  if (it->second->state == JobState::kMigrated) {
    // Migration tombstone: not a retained record (never counted by
    // on_terminal_locked) — it belongs to the drain machinery, not to
    // the caller.
    return false;
  }
  jobs_.erase(it);
  --retained_;
  return true;
}

JobInfo SortService::info(JobId id) const {
  std::lock_guard g(mu_);
  auto it = jobs_.find(id);
  PDM_CHECK(it != jobs_.end(), "info: unknown job id");
  return snapshot_locked(*it->second);
}

bool SortService::known(JobId id) const {
  std::lock_guard g(mu_);
  return jobs_.count(id) != 0;
}

JobInfo SortService::snapshot_locked(const Job& job) const {
  JobInfo out;
  out.id = job.id;
  out.shard = cfg_.shard_id;
  out.name = job.spec.name;
  out.state = job.state;
  out.n = job.n;
  out.priority = job.spec.priority;
  out.algorithm = job.algorithm;
  out.error = job.error;
  out.report = job.report;
  out.io = job.io;
  out.deadline_missed = job.deadline_missed;
  out.batched = job.batched;
  out.trace_id = job.spec.trace_id;
  out.parent_trace_id = job.spec.parent_trace_id;
  // A job failed by run_claim's catch never started; t_start is the
  // ground truth, not the state.
  const bool started = job.t_start != Clock::time_point{};
  if (started) {
    out.queue_s = seconds(job.t_start - job.t_submit);
    if (job_state_terminal(job.state)) {
      out.run_s = seconds(job.t_end - job.t_start);
    } else {
      // Still running: elapsed so far, for live introspection.
      out.run_s = seconds(Clock::now() - job.t_start);
    }
  } else if (job_state_terminal(job.state)) {
    out.queue_s = seconds(job.t_end - job.t_submit);
  } else {
    out.queue_s = seconds(Clock::now() - job.t_submit);
  }
  return out;
}

void SortService::on_terminal_locked(Job& job) {
  switch (job.state) {
    case JobState::kDone: ++completed_; break;
    case JobState::kFailed: ++failed_; break;
    case JobState::kCancelled: ++cancelled_; break;
    case JobState::kRejected: ++rejected_; break;
    default: PDM_ASSERT(false, "on_terminal_locked on a live job"); break;
  }
  if (job.deadline_missed) ++deadline_missed_;
  u64 queued_ns = 0;
  if (job.state == JobState::kDone || job.state == JobState::kFailed) {
    const bool started = job.t_start != Clock::time_point{};
    const auto queued =
        started ? job.t_start - job.t_submit : job.t_end - job.t_submit;
    queued_ns = static_cast<u64>(std::max<std::chrono::nanoseconds::rep>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(queued)
               .count()));
    queue_hist_.record(queued_ns);
  }
  if (!job.spec.locality_key.empty()) {
    // Per-tenant accounting, keyed by the routing/locality key. Registry
    // lookup takes its own (independent) mutex; terminal transitions are
    // infrequent enough that the by-name lookup is fine here.
    auto& reg = metrics::Registry::global();
    const std::string p = "tenant." + job.spec.locality_key;
    reg.counter(p + ".jobs").add(1);
    reg.counter(p + ".bytes").add(job.n * job.record_bytes);
    if (job.spec.deadline_s > 0) {
      reg.counter(job.deadline_missed ? p + ".deadline_missed"
                                      : p + ".deadline_hit")
          .add(1);
    }
    if (queued_ns > 0) reg.histogram(p + ".queue_wait_ns").record(queued_ns);
  }
  ++retained_;
  terminal_fifo_.emplace_back(job.id, job.t_end);
  evict_locked(job.t_end);
}

void SortService::evict_locked(Clock::time_point now) {
  auto drop_front = [&] {
    const JobId id = terminal_fifo_.front().first;
    terminal_fifo_.pop_front();
    auto it = jobs_.find(id);
    // The entry may be stale: forget() erases records without scrubbing
    // the FIFO.
    if (it != jobs_.end() && job_state_terminal(it->second->state)) {
      jobs_.erase(it);
      --retained_;
      ++evicted_;
    }
  };
  if (cfg_.retain_ttl_s > 0) {
    while (!terminal_fifo_.empty() &&
           seconds(now - terminal_fifo_.front().second) > cfg_.retain_ttl_s) {
      drop_front();
    }
  }
  if (cfg_.retain_terminal_max > 0) {
    while (retained_ > cfg_.retain_terminal_max && !terminal_fifo_.empty()) {
      drop_front();
    }
  }
}

ServiceStats SortService::stats() const {
  std::lock_guard g(mu_);
  ServiceStats s;
  s.shard_id = cfg_.shard_id;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.rejected = rejected_;
  s.deadline_missed = deadline_missed_;
  s.retained = retained_;
  s.evicted = evicted_;
  s.batches_run = batches_run_;
  s.plan_cache_hits = plans_.hits();
  s.plan_cache_misses = plans_.misses();
  s.deadline_cal = cal_ratio_;
  s.peak_memory_bytes = budget_.peak();
  s.io = io_totals_.snapshot();
  if (queue_hist_.count() > 0) {
    s.queue_p50_s = static_cast<double>(queue_hist_.quantile(0.5)) * 1e-9;
    s.queue_p99_s = static_cast<double>(queue_hist_.quantile(0.99)) * 1e-9;
    s.queue_max_s = static_cast<double>(queue_hist_.max()) * 1e-9;
  }
  if (completed_ > 0 && any_start_) {
    s.busy_window_s = seconds(last_end_ - first_start_);
    s.jobs_per_sec =
        static_cast<double>(completed_) / std::max(1e-9, s.busy_window_s);
  }
  return s;
}

std::vector<JobInfo> SortService::jobs() const {
  std::lock_guard g(mu_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, jp] : jobs_) out.push_back(snapshot_locked(*jp));
  return out;
}

ShardLoad SortService::load() const {
  std::lock_guard g(mu_);
  ShardLoad l;
  l.shard = cfg_.shard_id;
  l.queued = pending_.size();
  l.running = active_tasks_;
  l.reserved_bytes = budget_.current();
  l.budget_limit = budget_.limit();
  l.depth_in_use = depth_in_use_;
  l.cpu_in_use = cpu_in_use_;
  l.cpu_total = cfg_.cpu_threads_total;
  l.workers = cfg_.workers;
  return l;
}

SortService::Claim SortService::try_claim_locked() {
  for (usize i = 0; i < pending_.size(); ++i) {
    Job* head = pending_[i];
    Claim claim;
    claim.members.push_back(jobs_.at(head->id));
    claim.carve = head->carve_bytes;
    if (head->batchable) {
      for (usize k = i + 1;
           k < pending_.size() && claim.members.size() < cfg_.batch_max;
           ++k) {
        Job* other = pending_[k];
        if (other->batchable && other->type_key == head->type_key) {
          claim.members.push_back(jobs_.at(other->id));
          // Members run sequentially over one context, so the batch needs
          // only the largest member's carve at any moment.
          claim.carve = std::max(claim.carve, other->carve_bytes);
        }
      }
    }
    // Backfill: if the head of the queue cannot reserve memory right now,
    // a smaller job further back may still be admittable.
    if (!budget_.try_acquire(claim.carve)) continue;
    if (claim.members.size() > 1) {
      for (auto& j : claim.members) j->batched = true;
    }
    std::erase_if(pending_, [&](Job* j) {
      return std::any_of(claim.members.begin(), claim.members.end(),
                         [&](const std::shared_ptr<Job>& m) {
                           return m.get() == j;
                         });
    });
    return claim;
  }
  return {};
}

usize SortService::grant_depth_locked() {
  if (cfg_.io_depth_total < 2) return 0;
  const usize share =
      std::max<usize>(2, cfg_.io_depth_total / std::max<usize>(1, cfg_.workers));
  const usize avail = cfg_.io_depth_total - depth_in_use_;
  const usize depth = std::min(share, avail);
  if (depth < 2) return 0;
  depth_in_use_ += depth;
  return depth;
}

usize SortService::grant_cpu_locked() {
  if (cfg_.cpu_threads_total < 2) return 0;
  const usize share = std::max<usize>(
      2, cfg_.cpu_threads_total / std::max<usize>(1, cfg_.workers));
  const usize avail = cfg_.cpu_threads_total - cpu_in_use_;
  const usize cpu = std::min(share, avail);
  if (cpu < 2) return 0;
  cpu_in_use_ += cpu;
  return cpu;
}

void SortService::regrant_locked() {
  // A finished job returned its grants: top the survivors up toward the
  // fair share at the *current* occupancy instead of letting the freed
  // budget idle until the next admission. Raises only — a job's budget
  // never shrinks mid-flight (CpuPool::set_budget takes effect at the next
  // parallel region; AsyncIoScheduler::raise_depth widens the pipeline
  // without a quiesce). Stats stay byte-identical because both knobs are
  // accounted at submission, not at completion.
  const usize tasks = std::max<usize>(1, active_grants_.size());
  if (cfg_.io_depth_total >= 2) {
    const usize fair = std::max<usize>(2, cfg_.io_depth_total / tasks);
    for (auto& g : active_grants_) {
      if (g.depth >= fair) continue;
      const usize avail = cfg_.io_depth_total - depth_in_use_;
      const usize target = std::min(fair, g.depth + avail);
      if (target <= g.depth || target < 2) continue;
      depth_in_use_ += target - g.depth;
      g.depth = target;
      g.ctx->raise_async_depth(target);
    }
  }
  if (cfg_.cpu_threads_total >= 2) {
    const usize fair = std::max<usize>(2, cfg_.cpu_threads_total / tasks);
    for (auto& g : active_grants_) {
      if (g.cpu >= fair) continue;
      const usize avail = cfg_.cpu_threads_total - cpu_in_use_;
      const usize target = std::min(fair, g.cpu + avail);
      if (target <= g.cpu || target < 2) continue;
      cpu_in_use_ += target - g.cpu;
      g.cpu = target;
      g.ctx->set_cpu_budget(target);
    }
  }
  update_cpu_gauges_locked();
}

void SortService::update_cpu_gauges_locked() {
  auto& reg = metrics::Registry::global();
  reg.gauge("cpu.granted").set(static_cast<std::int64_t>(cpu_in_use_));
  usize waiting = 0;
  if (cfg_.cpu_threads_total >= 2) {
    for (const auto& g : active_grants_) {
      if (g.cpu < 2) ++waiting;  // running serial for lack of threads
    }
  }
  reg.gauge("cpu.waiting").set(static_cast<std::int64_t>(waiting));
}

void SortService::worker_loop() {
  trace::TraceLog::instance().set_thread_name("svc-worker");
  std::unique_lock lock(mu_);
  for (;;) {
    Claim claim = try_claim_locked();
    if (claim.members.empty()) {
      if (stop_ && pending_.empty()) return;
      work_cv_.wait(lock);
      continue;
    }
    ++active_tasks_;
    const usize depth = grant_depth_locked();
    const usize cpu = grant_cpu_locked();
    ++batches_run_;
    lock.unlock();

    // run_claim returns the grants (and re-grants the freed budget to the
    // survivors) itself, before its context is destroyed.
    run_claim(claim, depth, cpu);
    budget_.release(claim.carve);

    lock.lock();
    --active_tasks_;
    work_cv_.notify_all();  // freed memory and depth: others may admit
    done_cv_.notify_all();
    if (capacity_cb_) {
      // Capacity freed: let the owning cluster pump its hold queue. The
      // callback runs outside the service mutex — it takes the cluster
      // mutex and then other shards' mutexes, never the reverse.
      auto cb = capacity_cb_;
      lock.unlock();
      cb();
      lock.lock();
    }
  }
}

void SortService::run_claim(Claim& claim, usize depth, usize cpu) {
  trace::TraceSpan trace_span("service", "batch_execute", "jobs",
                              claim.members.size());
  // Returns this claim's grants exactly once, on every exit path, and
  // BEFORE the context dies (regrant_locked must never see a dangling
  // ctx). The re-grant happens here rather than in worker_loop so freed
  // threads/depth reach long-running neighbours immediately. The grants
  // released are read back from the registry entry — regrant_locked may
  // have topped them up past the initial (depth, cpu).
  bool released = false;
  auto release_grants = [&](PdmContext* ctx) noexcept {
    if (released) return;
    released = true;
    std::lock_guard g(mu_);
    usize d = depth;
    usize c = cpu;
    auto it = std::find_if(active_grants_.begin(), active_grants_.end(),
                           [&](const ActiveGrant& a) { return a.ctx == ctx; });
    if (it != active_grants_.end()) {
      d = it->depth;
      c = it->cpu;
      active_grants_.erase(it);
    }
    depth_in_use_ -= d;
    cpu_in_use_ -= c;
    regrant_locked();
  };
  try {
    PdmContext ctx(backend_, alloc_, claim.carve, cfg_.cost,
                   cfg_.seed + claim.members.front()->id, &io_totals_);
    ctx.set_extent_blocks(cfg_.extent_blocks);
    ctx.io().set_coalescing(cfg_.coalesce_io);
    if (depth >= 2) ctx.set_async_depth(depth);
    if (cpu >= 2) ctx.set_cpu_budget(cpu);
    {
      std::lock_guard g(mu_);
      active_grants_.push_back(ActiveGrant{&ctx, depth, cpu});
      update_cpu_gauges_locked();
    }
    try {
      for (auto& j : claim.members) run_one(*j, ctx);
    } catch (...) {
      release_grants(&ctx);
      throw;
    }
    release_grants(&ctx);
  } catch (const std::exception& e) {
    release_grants(nullptr);  // no-op unless PdmContext setup itself threw
    // Context setup or teardown failed: every member that has not reached
    // a terminal state goes down with it.
    const auto now = Clock::now();
    std::lock_guard g(mu_);
    for (auto& j : claim.members) {
      if (job_state_terminal(j->state)) continue;
      j->state = JobState::kFailed;
      j->error = e.what();
      j->t_end = now;
      j->run = {};
      on_terminal_locked(*j);
    }
    done_cv_.notify_all();
  }
}

void SortService::run_one(Job& job, PdmContext& ctx) {
  {
    std::lock_guard g(mu_);
    if (job.state != JobState::kQueued) return;  // cancelled after claim
    job.state = JobState::kRunning;
    job.t_start = Clock::now();
    if (!any_start_ || job.t_start < first_start_) {
      first_start_ = job.t_start;
      any_start_ = true;
    }
  }
  // Everything this worker records for the job — the queue-wait retro
  // span, the job_run span, every sorter phase span and counter beneath
  // it — is stamped with the job's causal id. The scope must outlive
  // trace_span (which emits at end()).
  jobtrace::Scope trace_scope(job.spec.trace_id, job.spec.parent_trace_id);
  ctx.set_trace(job.spec.trace_id, job.spec.parent_trace_id);
  auto& flight = jobtrace::FlightRecorder::instance();
  flight.record(job.spec.trace_id, jobtrace::EventKind::kStarted, nullptr,
                cfg_.shard_id);
  if (trace::TraceLog::instance().enabled()) {
    // Retroactive queue-wait span: submission happened on another thread,
    // so the wait is emitted here as a complete event ending now.
    const u64 queued_ns = static_cast<u64>(
        std::max<std::chrono::nanoseconds::rep>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   job.t_start - job.t_submit)
                   .count()));
    const u64 now_ns = trace::TraceLog::now_ns();
    trace::TraceLog::instance().complete(
        "service", "queue_wait", now_ns - std::min(now_ns, queued_ns),
        queued_ns, "job", job.id);
  }
  trace::TraceSpan trace_span("service", "job_run", "job", job.id);
  // This member's cooperative cancellation flag; cleared before the
  // (batch-shared) context moves on to the next member.
  ctx.set_cancel_flag(&job.cancel_flag);
  // Bound write-behind staging to ~M bytes per slab so a bulk write of
  // the whole dataset cannot blow the job's carve; oversized batches run
  // as ordered synchronous writes instead (stats-identical).
  ctx.write_behind().set_max_slab_bytes(
      std::max<usize>(static_cast<usize>(job.spec.mem_records) *
                          job.record_bytes,
                      2 * ctx.D() * ctx.block_bytes()));
  const IoStats before = ctx.stats();
  SortReport report;
  std::string error;
  bool ok = true;
  try {
    JobExec ex{ctx, job.spec.mem_records, job.spec.alpha, plans_, {}};
    job.run(ex);
    report = std::move(ex.report);
  } catch (const Cancelled& e) {
    ok = false;
    error = e.what();
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  try {
    // Settle in-flight writes so the stats delta below is this job's
    // complete I/O (ReportBuilder drained the success path already; this
    // covers failures, cancellations and callback-issued reads).
    ctx.aio().drain();
  } catch (const std::exception& e) {
    if (ok) {
      ok = false;
      error = e.what();
    }
  }
  ctx.set_cancel_flag(nullptr);
  const IoStats after = ctx.stats();
  const auto end = Clock::now();
  trace_span.end();

  std::lock_guard g(mu_);
  job.t_end = end;
  last_end_ = std::max(last_end_, end);
  job.run = {};  // terminal: release the dataset/callback captures
  // The delta is recorded whatever the outcome: a cancelled or failed
  // job's charges were mirrored into the service totals, so the per-job
  // sums stay exact.
  job.io = delta(after, before);
  if (job.cancel_flag.load(std::memory_order_relaxed)) {
    // cancel() promised kCancelled the moment it returned true — even if
    // the sort outran the flag, the completed work is discarded.
    job.state = JobState::kCancelled;
    job.error = error.empty() ? "cancelled while running" : error;
  } else if (ok) {
    job.state = JobState::kDone;
    job.algorithm = report.algorithm;
    job.report = std::move(report);
    job.deadline_missed =
        job.spec.deadline_s > 0 &&
        seconds(job.t_end - job.t_submit) > job.spec.deadline_s;
    if (cfg_.deadline_calibration && job.est_run_s > 0) {
      // Observed wall seconds per modeled second, smoothed: the factor
      // future deadline-admission estimates are scaled by.
      const double run_s = seconds(job.t_end - job.t_start);
      if (run_s > 0) {
        const double r = run_s / job.est_run_s;
        cal_ratio_ = cal_ratio_ == 0
                         ? r
                         : kCalibrationEma * r +
                               (1.0 - kCalibrationEma) * cal_ratio_;
      }
    }
  } else {
    job.state = JobState::kFailed;
    job.error = std::move(error);
    job.deadline_missed =
        job.spec.deadline_s > 0 &&
        seconds(job.t_end - job.t_submit) > job.spec.deadline_s;
  }
  // Flight-record the terminal transition. A deadline miss gets its own
  // event before the terminal one, and any bad end (failed, cancelled,
  // missed) triggers the dump-on-bad-end sink exactly once.
  if (job.deadline_missed) {
    flight.record(job.spec.trace_id, jobtrace::EventKind::kDeadlineMiss,
                  job.spec.name.c_str(), cfg_.shard_id);
  }
  const bool bad = job.state != JobState::kDone || job.deadline_missed;
  flight.note_end(job.spec.trace_id,
                  job.state == JobState::kCancelled
                      ? jobtrace::EventKind::kCancelled
                      : jobtrace::EventKind::kFinished,
                  job_state_name(job.state), bad, cfg_.shard_id);
  on_terminal_locked(job);
  done_cv_.notify_all();
}

}  // namespace pdm
