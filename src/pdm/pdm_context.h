// PdmContext bundles everything a sorter needs: the disk array, the
// parallel-I/O scheduler (with its optional asynchronous pipeline), the
// block allocator, the memory budget and a seeded RNG. One context = one
// PDM machine.
//
// Two ownership modes:
//  - Standalone (the classic one): the context owns its backend and its
//    allocator; one machine, one algorithm thread.
//  - Job context: shares a backend and a block allocator with other
//    contexts (the sort service's multi-tenant mode). The context still
//    owns its scheduler, pipeline, write-behind ring, budget and RNG, so
//    per-job IoStats, async depth and memory carve stay isolated, while
//    the shared thread-safe allocator guarantees two jobs are never handed
//    the same block. An optional SharedIoTotals mirrors every accounting
//    charge into a service-wide aggregate.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "pdm/async_io.h"
#include "pdm/disk_allocator.h"
#include "pdm/disk_backend.h"
#include "pdm/io_scheduler.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "util/cpu_pool.h"
#include "util/rng.h"

namespace pdm {

class PdmContext {
 public:
  /// Standalone machine: takes ownership of the backend.
  explicit PdmContext(std::unique_ptr<DiskBackend> backend,
                      CostModel cost = {}, u64 seed = 1);

  /// Job context over a shared machine: co-owns `backend`, allocates from
  /// `shared_alloc` (which must outlive this context), and carves its own
  /// MemoryBudget limited to `memory_limit_bytes`. When `totals` is
  /// non-null every accounting charge is mirrored into it.
  PdmContext(std::shared_ptr<DiskBackend> backend, DiskAllocator& shared_alloc,
             usize memory_limit_bytes, CostModel cost = {}, u64 seed = 1,
             SharedIoTotals* totals = nullptr);

  PdmContext(const PdmContext&) = delete;
  PdmContext& operator=(const PdmContext&) = delete;

  /// Closes this context's allocator region (recycling its arena tails).
  ~PdmContext();

  u32 D() const noexcept { return backend_->num_disks(); }
  usize block_bytes() const noexcept { return backend_->block_bytes(); }

  IoScheduler& io() noexcept { return sched_; }
  const IoScheduler& io() const noexcept { return sched_; }
  IoStats& stats() noexcept { return sched_.stats(); }
  DiskAllocator& alloc() noexcept { return *alloc_; }
  MemoryBudget& budget() noexcept { return budget_; }
  Rng& rng() noexcept { return rng_; }
  DiskBackend& backend() noexcept { return *backend_; }

  /// This context's allocator region: every run/matrix of this context
  /// allocates inside it, so concurrent jobs' data occupy disjoint disk
  /// regions instead of interleaving block-by-block.
  u32 alloc_region() const noexcept { return region_; }

  /// Blocks per allocation extent for this context's runs (the ceiling on
  /// per-syscall coalescing). <= 1 restores legacy single-block bump
  /// allocation in the shared default region — the block-interleaved
  /// baseline the extent benches compare against.
  usize extent_blocks() const noexcept { return extent_blocks_; }
  void set_extent_blocks(usize blocks) { extent_blocks_ = blocks; }

  /// Allocates one block on `disk` inside this context's region (or the
  /// shared default region when extents are disabled).
  BlockRef alloc_block(u32 disk) {
    return alloc_->alloc(disk, extent_blocks_ > 1 ? region_ : 0);
  }

  /// The co-ownable backend handle, for spawning job contexts that share
  /// this machine's disks.
  std::shared_ptr<DiskBackend> shared_backend() const noexcept {
    return backend_;
  }

  /// The asynchronous pipeline (disabled unless async_depth >= 2).
  AsyncIoScheduler& aio() noexcept { return aio_; }

  /// Opt-in knob for the double-buffered pipeline: >= 2 enables it with
  /// that many in-flight submissions; 0/1 keeps every I/O synchronous.
  /// Depth is a context property; AsyncDepthScope overrides it for one
  /// call. Overlap costs memory, all budget-tracked: a streaming pass's
  /// read-ahead ring holds one extra load slab (up to +M records) and the
  /// write-behind ring stages up to 2 in-flight batches — so do not
  /// enable it on a context whose MemoryBudget limit is sized to the
  /// synchronous slack.
  void set_async_depth(usize depth) { aio_.set_depth(depth); }
  usize async_depth() const noexcept { return aio_.depth(); }

  /// Grow-only mid-flight variant: raises the async depth bound without
  /// quiescing in-flight submissions (the service's depth re-arbiter uses
  /// it to top up long-running jobs as capacity frees). Shrinking still
  /// goes through set_async_depth's quiesce.
  void raise_async_depth(usize depth) { aio_.raise_depth(depth); }

  /// The in-core kernel budget: how many threads (the algorithm thread
  /// included) the parallel kernels may use. 1 (the default) keeps every
  /// kernel on the legacy serial code path — bit-identical output, stats
  /// and schedule hashes. The service's CPU arbiter grants and re-grants
  /// this out of ServiceConfig::cpu_threads_total; the setter is
  /// thread-safe and takes effect at the next parallel region.
  usize cpu_budget() const noexcept { return cpu_pool_.budget(); }
  void set_cpu_budget(usize threads) { cpu_pool_.set_budget(threads); }
  CpuPool& cpu_pool() noexcept { return cpu_pool_; }

  /// Writes a batch with write-behind when the pipeline is enabled (the
  /// payload is copied; callers may reuse their buffers immediately) and
  /// synchronously otherwise. All bulk producers route writes here.
  void write_batch(std::span<const WriteReq> reqs) {
    write_behind_.submit_copy(reqs);
  }

  /// The shared write-behind ring (for drain/flush control).
  WriteBehindRing& write_behind() noexcept { return write_behind_; }

  /// Cooperative cancellation: an external owner (the sort service) may
  /// point the context at a flag it sets from another thread; sorters poll
  /// it at run-formation / merge / distribution batch boundaries via
  /// check_cancelled(). Null (the default) disables the checks. The flag
  /// must outlive the context or be reset to null first.
  void set_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
  }

  bool cancel_requested() const noexcept {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// Job-scoped causal attribution (pdm::jobtrace): the owning service
  /// stamps the job's trace id (and, for distributed range sub-jobs, the
  /// parent id) here before running the closure, so sorters and helper
  /// threads working through this context can re-establish the jobtrace
  /// scope without signature churn. 0 = unattributed (standalone use).
  void set_trace(u64 trace_id, u64 parent_trace_id = 0) noexcept {
    trace_id_ = trace_id;
    parent_trace_id_ = parent_trace_id;
  }
  u64 trace_id() const noexcept { return trace_id_; }
  u64 parent_trace_id() const noexcept { return parent_trace_id_; }

  /// Throws pdm::Cancelled if the cancellation flag is set. Safe at any
  /// batch boundary: the pass loops are exception-safe there (the same
  /// unwind path an I/O error takes), so a cancelled sort releases its
  /// buffers and drains its pipeline on the way out.
  void check_cancelled() const {
    if (cancel_requested()) {
      throw Cancelled("sort cancelled at a batch boundary");
    }
  }

  /// Records-per-block for a given record type.
  template <class R>
  usize rpb() const {
    PDM_CHECK(block_bytes() % sizeof(R) == 0,
              "block_bytes not a multiple of record size");
    return block_bytes() / sizeof(R);
  }

 private:
  std::shared_ptr<DiskBackend> backend_;
  IoScheduler sched_;
  AsyncIoScheduler aio_;
  MemoryBudget budget_;  // before write_behind_, whose slabs it tracks
  WriteBehindRing write_behind_;
  std::unique_ptr<DiskAllocator> own_alloc_;  // null for job contexts
  DiskAllocator* alloc_;
  u32 region_ = 0;
  usize extent_blocks_ = kDefaultExtentBlocks;
  Rng rng_;
  CpuPool cpu_pool_;  // kernel threads; budget 1 = serial (default)
  const std::atomic<bool>* cancel_ = nullptr;
  u64 trace_id_ = 0;
  u64 parent_trace_id_ = 0;

 public:
  /// Default run-extent size: big enough that a memory-load read costs a
  /// handful of syscalls per disk, small enough that tail waste (recycled
  /// at finish()) stays negligible.
  static constexpr usize kDefaultExtentBlocks = 32;
};

/// Convenience factories.
std::unique_ptr<PdmContext> make_memory_context(u32 num_disks,
                                                usize block_bytes,
                                                u64 seed = 1);

std::unique_ptr<PdmContext> make_file_context(u32 num_disks, usize block_bytes,
                                              const std::string& dir,
                                              u64 seed = 1,
                                              bool keep_files = false);

}  // namespace pdm
