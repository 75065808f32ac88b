// pdm::SortService — a multi-tenant sort-job scheduler.
//
// The paper's algorithms answer "how do I sort one dataset in the fewest
// passes?"; the service answers "how do I serve many such sorts at once
// over shared disks and shared memory?". It composes the existing pieces:
//
//  - admission control: every job must reserve a memory carve
//    (try_acquire on the service-wide MemoryBudget) before it may start;
//    jobs whose carve can never fit are rejected at submission, the rest
//    queue until memory frees up. With deadline_admission on, a job whose
//    deadline cannot be met under its planned pass count and the current
//    queue backlog is rejected up front instead of missing silently;
//  - scheduling: priority bands, and within a band earliest-deadline-
//    first (no-deadline jobs after deadlined ones, FIFO among equals);
//  - planning: each admitted job is planned through AdaptiveSorter with
//    its *budgeted* M (not the machine's), via a PlanCache so jobs
//    sharing a shape cost one planner invocation;
//  - execution: a fixed pool of service workers runs jobs concurrently,
//    each in its own job PdmContext (shared backend + shared thread-safe
//    block allocator, private scheduler/budget/RNG); running jobs observe
//    a cooperative cancellation flag at batch boundaries;
//  - I/O arbitration: the async pipeline depth granted to a job is its
//    share of ServiceConfig::io_depth_total, so the aggregate
//    prefetch/write-behind buffering across active jobs never exceeds
//    the service's I/O budget (jobs that cannot get a depth >= 2 run
//    synchronously);
//  - batching: small jobs sharing a record type coalesce into one worker
//    task over one context;
//  - retention: terminal job records are bounded (count and/or TTL), and
//    the aggregate stats are maintained incrementally so a long-lived
//    service neither grows without bound nor pays O(jobs) per stats();
//  - observability: ServiceStats aggregates counters, queue latency
//    percentiles, throughput and live service-wide IoStats that per-job
//    deltas sum to exactly; ShardLoad is the cheap instantaneous load
//    snapshot a cluster router places by.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <typeinfo>
#include <vector>

#include "pdm/striped_run.h"
#include "service/service_stats.h"
#include "service/sort_job.h"
#include "util/metrics.h"

namespace pdm {

struct ServiceConfig {
  /// Concurrent worker threads (= max jobs/batches in flight).
  usize workers = 4;

  /// Service-wide memory budget that job carves are reserved from.
  usize total_memory_bytes = usize{256} << 20;

  /// Aggregate async pipeline depth shared by active jobs; < 2 keeps
  /// every job synchronous.
  usize io_depth_total = 8;

  /// Aggregate in-core kernel threads shared by active jobs, arbitrated
  /// like io_depth_total: each started job is granted its share (>= 2 or
  /// nothing), the grant is released when the job finishes, and freed
  /// capacity is re-granted to still-running jobs mid-flight. 1 (the
  /// default) keeps every job's in-memory work on its worker thread —
  /// the bit-identical legacy serial path.
  usize cpu_threads_total = 1;

  /// Default carve = mem_slack * mem_records * sizeof(record): the
  /// documented per-algorithm working-set slack (~2.5M) plus the async
  /// pipeline's extra load buffer and write-behind slabs, rounded up.
  /// This is the conservative bound used when the job's shape has no
  /// cached plan yet. Once a shape's PlanEntry is cached, the carve uses
  /// that algorithm's calibrated working-set model instead (InternalSort
  /// ~3.25M + 2·D·B, the LMM family ~5.5M + 8·D·B, both including the
  /// pipeline's second load buffer and write-behind slabs — see
  /// algo_admission_slack in the .cpp for the measured minima), admitting
  /// more jobs at the same safety margin. The per-algorithm carve is
  /// never raised above mem_slack's, so tightening this knob still caps
  /// every admission. Explicit SortJobSpec::carve_bytes is unaffected.
  double mem_slack = 6.0;

  /// Blocks per allocation extent for job contexts (the per-syscall
  /// coalescing ceiling); <= 1 reverts to single-block bump allocation,
  /// interleaving concurrent jobs block-by-block (the bench baseline).
  usize extent_blocks = 32;

  /// Extent coalescing in job schedulers (see IoScheduler); off restores
  /// the block-at-a-time backend path with identical ops/blocks/hashes.
  bool coalesce_io = true;

  /// Jobs with n <= this coalesce with same-record-type jobs into one
  /// worker task (0 disables batching).
  u64 small_job_records = 0;

  /// Max jobs coalesced into one batch.
  usize batch_max = 8;

  /// Identifies this service within a cluster (stamped into JobInfo and
  /// ServiceStats; shard 0 = standalone).
  u32 shard_id = 0;

  /// Reject-at-admission for unmeetable deadlines: a deadlined job is
  /// rejected if (estimated queue wait + planned pass count * parallel-op
  /// cost under `cost`) already exceeds its deadline. Off by default —
  /// the estimate is model time, which only tracks wall clock when the
  /// backend is configured to simulate the same CostModel. The check is
  /// calibrated against observed wall clock: an EMA of (actual run
  /// seconds / model-predicted seconds) over completed jobs scales both
  /// the backlog and the run term, so it stays honest on real disks where
  /// CostModel time and wall time diverge (ServiceStats::deadline_cal
  /// exposes the ratio).
  bool deadline_admission = false;

  /// Retention policy for terminal job records: keep at most this many
  /// (0 = unbounded) ...
  usize retain_terminal_max = 0;

  /// ... and drop records older than this many seconds past their
  /// terminal transition (0 = no TTL; checked whenever a job goes
  /// terminal). Lifetime counters in stats() are unaffected.
  double retain_ttl_s = 0;

  CostModel cost{};
  u64 seed = 1;
};

class SortService {
 public:
  /// Co-owns `backend`; the service's allocator and I/O totals are sized
  /// to its geometry. Workers start immediately.
  explicit SortService(std::shared_ptr<DiskBackend> backend,
                       ServiceConfig cfg = {});

  /// Drains every queued and running job, then joins the workers.
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Stages a typed sort job into a type-erased PreparedJob without
  /// admitting it anywhere: the dataset and comparator move into the run
  /// closure (freed as soon as the job has staged the data onto whatever
  /// shard's disks eventually run it). This is the mobile form the
  /// cluster parks in its hold queue and migrates between shards; feed it
  /// to submit_prepared() to admit it.
  template <Record R, class Cmp = std::less<R>>
  static PreparedJob prepare(
      SortJobSpec spec, std::vector<R> data, Cmp cmp = {},
      std::function<void(const SortResult<R>&)> on_complete = {}) {
    PreparedJob job;
    job.n = data.size();
    job.record_bytes = sizeof(R);
    job.type_key = typeid(R).hash_code();
    auto payload = std::make_shared<std::vector<R>>(std::move(data));
    job.run = [payload, cmp, cb = std::move(on_complete),
               order_adaptive = spec.order_adaptive](JobExec& ex) {
      // Opt-in presortedness probe on the still-in-memory payload: O(M)
      // sampled comparisons, zero I/O, before the payload is staged and
      // freed. The run-count estimate becomes part of the plan-cache key;
      // unprobed jobs (est_runs = 0) hit the legacy entries untouched.
      u64 est_runs = 0;
      if (order_adaptive && payload->size() > ex.mem_records) {
        est_runs = probe_presortedness<R>(std::span<const R>(*payload),
                                          ex.mem_records, cmp)
                       .est_runs;
      }
      auto in = write_input_run<R>(ex.ctx, std::span<const R>(*payload));
      payload->clear();
      payload->shrink_to_fit();
      AdaptiveOptions o;
      o.mem_records = ex.mem_records;
      o.alpha = ex.alpha;
      o.force = ex.plans.choose(in.size(), ex.mem_records,
                                ex.ctx.rpb<R>(), ex.alpha, est_runs);
      auto res = pdm_sort<R>(ex.ctx, in, o, cmp);
      ex.report = res.report;
      // A cancellation that lands after the last in-sort check still
      // suppresses the completion callback.
      ex.ctx.check_cancelled();
      if (cb) cb(res);
    };
    job.spec = std::move(spec);
    return job;
  }

  /// Submits a sort job over `data` (moved in; freed as soon as the job
  /// has staged it onto the disks). `on_complete`, if given, runs on the
  /// worker thread right after the sort, while the job's output run and
  /// context are still alive — read the output there. Returns the job id
  /// immediately; rejected jobs get JobState::kRejected (never throw).
  template <Record R, class Cmp = std::less<R>>
  JobId submit(SortJobSpec spec, std::vector<R> data, Cmp cmp = {},
               std::function<void(const SortResult<R>&)> on_complete = {}) {
    return submit_prepared(
        prepare<R>(std::move(spec), std::move(data), cmp,
                   std::move(on_complete)));
  }

  /// Admits a prepared job (see prepare()); same contract as submit().
  JobId submit_prepared(PreparedJob job) {
    return submit_impl(std::move(job.spec), job.n, job.record_bytes,
                       job.type_key, std::move(job.run));
  }

  /// A still-queued job pulled back out of the service for migration,
  /// with the local id it held here and its original submission time
  /// (so the receiving shard can preserve wall-clock deadline
  /// semantics).
  struct ExtractedJob {
    JobId local_id = 0;
    PreparedJob job;
    std::chrono::steady_clock::time_point t_submit;
  };

  /// Drain support: removes EVERY still-queued job (claimed and running
  /// ones are untouched — they finish here) and returns them in queue
  /// order as re-submittable PreparedJobs. Each extracted job's record
  /// goes JobState::kMigrated and is dropped from this service — waiters
  /// blocked on it wake with kMigrated and must re-resolve the job's
  /// placement with the owning cluster. The shard's `submitted` lifetime
  /// counter is decremented per extracted job (the job re-counts on
  /// whichever shard re-admits it), keeping cluster-level sums exact.
  std::vector<ExtractedJob> extract_queued();

  /// Hook invoked (on a worker thread, outside the service mutex) each
  /// time a finished task frees memory, a worker slot and pipeline
  /// depth. The owning cluster uses it to pump its hold queue — the
  /// event that drives work stealing. The callback must not call back
  /// into wait()/drain() of this service.
  void set_capacity_callback(std::function<void()> cb);

  /// Cancels a job. Queued jobs (including claimed-but-not-yet-started
  /// batch members) go terminal immediately; running jobs get their
  /// cooperative flag set and stop at the next batch boundary. Returns
  /// true iff the job will reach JobState::kCancelled — for a running job
  /// the sort may already be past its last checkpoint, in which case the
  /// finished work is discarded and the job still reports kCancelled
  /// (the completion callback is suppressed from the last checkpoint on).
  /// False for unknown ids and jobs already terminal.
  bool cancel(JobId id);

  /// Blocks until the job reaches a terminal state; returns its record.
  /// Throws for unknown ids — including records already dropped by the
  /// retention policy, so with retention on, size retain_terminal_max /
  /// retain_ttl_s to cover the window in which callers still wait on
  /// terminal jobs. (A waiter already blocked inside wait() is safe:
  /// it holds the record and returns normally even if evicted meanwhile.)
  JobInfo wait(JobId id);

  /// Blocks until no job is queued or running.
  void drain();

  /// Snapshot of one job (throws on unknown — possibly evicted — id).
  JobInfo info(JobId id) const;

  /// Whether a record (live or terminal) still exists for `id` — false
  /// once forget() or the retention policy dropped it.
  bool known(JobId id) const;

  /// Drops the record of a terminal job explicitly (retention works even
  /// without this — see ServiceConfig::retain_terminal_max/retain_ttl_s).
  /// Returns false if the id is unknown or the job is still
  /// queued/running. Lifetime counters in stats() are unaffected.
  bool forget(JobId id);

  /// Aggregate snapshot. O(1) in the number of retained job records: the
  /// counters are maintained at terminal transitions, and the queue
  /// percentiles come from a lifetime log-bucketed histogram (exact count/
  /// max; quantiles within the histogram's ~6% bucket resolution).
  ServiceStats stats() const;

  /// Per-job snapshots of every retained job, in submission order.
  std::vector<JobInfo> jobs() const;

  /// Instantaneous load (one mutex acquisition) for routing decisions.
  ShardLoad load() const;

  /// The memory carve this service would require of `spec` at admission:
  /// spec.carve_bytes, or slack * mem_records * record_bytes — where the
  /// slack is the per-algorithm constant when `n` is non-zero and the
  /// shape's plan is cached, else the conservative mem_slack. A carve above budget().limit() means the job would be
  /// rejected — the cluster router spills such jobs to a shard where
  /// they fit.
  usize admission_carve(const SortJobSpec& spec, usize record_bytes,
                        u64 n = 0) const;

  /// Model-time estimate of `spec`'s run (the deadline-admission term):
  /// planned pass count under the cached/derived plan times the parallel-
  /// op cost of `cost`. 0 when the shape defeats estimation. The cluster
  /// pump multiplies this by deadline_cal() to decide whether a parked job
  /// can still meet its deadline.
  double estimate_run_s(const SortJobSpec& spec, usize record_bytes, u64 n);

  /// EMA of observed wall seconds per modeled second over completed jobs
  /// (see ServiceConfig::deadline_admission); 0 until the first sample.
  double deadline_cal() const;

  /// The service-wide budget (reservations; peak = admission pressure).
  MemoryBudget& budget() noexcept { return budget_; }

  DiskBackend& backend() noexcept { return *backend_; }
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Job;
  struct Claim {
    // shared_ptr: a member that goes terminal mid-batch may be evicted by
    // the retention policy while the batch still runs.
    std::vector<std::shared_ptr<Job>> members;
    usize carve = 0;
  };
  using Clock = std::chrono::steady_clock;

  JobId submit_impl(SortJobSpec spec, u64 n, usize record_bytes, u64 type_key,
                    std::function<void(JobExec&)> run);
  void worker_loop();
  Claim try_claim_locked();
  /// Re-grants freed async depth and CPU threads to still-running jobs
  /// (called when a task releases its grants): each registered running
  /// context is topped up toward the fair share at the current task
  /// count. Depth growth is quiesce-free (AsyncIoScheduler::raise_depth);
  /// CPU growth applies at the job's next parallel region.
  void regrant_locked();
  void update_cpu_gauges_locked();
  void run_claim(Claim& claim, usize depth, usize cpu);
  void run_one(Job& job, PdmContext& ctx);
  JobInfo snapshot_locked(const Job& job) const;
  bool queue_before(const Job& a, const Job& b) const;
  double estimate_run_s(const Job& job);
  /// Bumps the lifetime counters, records the queue-latency sample, and
  /// applies the retention policy. Call once, right after a job's state
  /// goes terminal (t_end set), still under the mutex.
  void on_terminal_locked(Job& job);
  void evict_locked(Clock::time_point now);

  std::shared_ptr<DiskBackend> backend_;
  ServiceConfig cfg_;
  DiskAllocator alloc_;
  MemoryBudget budget_;
  SharedIoTotals io_totals_;
  PlanCache plans_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue or memory changed
  std::condition_variable done_cv_;  // waiters: a job reached terminal
  std::vector<std::thread> workers_;
  // shared_ptr so a wait()er survives a concurrent forget()/eviction.
  std::map<JobId, std::shared_ptr<Job>> jobs_;  // id order = submit order
  std::vector<Job*> pending_;  // sorted: priority desc, EDF, id asc
  JobId next_id_ = 1;
  bool stop_ = false;
  usize active_tasks_ = 0;
  usize depth_in_use_ = 0;
  usize cpu_in_use_ = 0;
  /// Running tasks' contexts with their current grants, registered for
  /// the lifetime of run_claim so regrant_locked can top them up. The
  /// context outlives its entry (deregistered under mu_ before
  /// destruction).
  struct ActiveGrant {
    PdmContext* ctx;
    usize depth;
    usize cpu;
  };
  std::vector<ActiveGrant> active_grants_;
  u64 batches_run_ = 0;
  bool any_start_ = false;
  Clock::time_point first_start_;
  Clock::time_point last_end_;

  // Incremental aggregates (all guarded by mu_).
  u64 submitted_ = 0;
  u64 completed_ = 0;
  u64 failed_ = 0;
  u64 cancelled_ = 0;
  u64 rejected_ = 0;
  u64 deadline_missed_ = 0;
  u64 retained_ = 0;
  u64 evicted_ = 0;
  /// EMA of observed/modeled run time for completed jobs (deadline
  /// calibration); 0 until the first sample.
  double cal_ratio_ = 0;
  static constexpr double kCalibrationEma = 0.3;
  /// Capacity-freed hook (cluster hold-queue pump); guarded by mu_,
  /// invoked outside it.
  std::function<void()> capacity_cb_;
  /// Lifetime queue-latency histogram (nanoseconds). Unlike the bounded
  /// sample ring it replaced, p50/p99 cover every terminal job and the
  /// max can never be evicted by later samples.
  metrics::LogHistogram queue_hist_;
  std::deque<std::pair<JobId, Clock::time_point>> terminal_fifo_;
};

}  // namespace pdm
