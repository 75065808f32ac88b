// Groups arbitrary block-request vectors into parallel I/O operations.
//
// Batching rule: requests are queued per disk in arrival order; round t
// executes the t-th request of every non-empty queue. Thus one call with
// requests totalling `n` blocks costs max_d(blocks bound for disk d)
// parallel operations — an algorithm only achieves one-op-per-D-blocks if
// its *layout* spreads each batch evenly over the disks. This is exactly
// the accounting the paper uses when it credits oblivious algorithms with
// guaranteed parallelism, and it is deliberately block-granular: the
// extent coalescing below changes how many backend requests (syscalls)
// move those blocks, never how many paper ops they cost.
//
// Extent coalescing: before execution, adjacent same-disk requests of a
// batch whose block indices are physically contiguous and whose buffers
// sit at a uniform stride merge into one multi-block request — one
// pread/pwrite (or preadv/pwritev) on the file backend, one seek plus
// `count` sequential transfers under the memory backend's StreamModel.
// IoStats keeps both books exact: read_ops/write_ops and per-disk block
// counts from the raw batch (pass counts, schedule hash), read_calls/
// write_calls and per-disk call counts from the coalesced batch
// (coalesced_ratio = blocks per syscall). set_coalescing(false) restores
// the block-at-a-time path bit-for-bit (the bench baseline).
//
// Accounting and execution are split so that the asynchronous pipeline
// (async_io.h) can charge a batch at submission time — in submission
// order, with exactly the same round arithmetic — while deferring the
// actual backend transfers to its per-disk worker queues. When a pipeline
// is attached and enabled, read()/write() route through it so that every
// legacy synchronous call site still observes the pipeline's per-disk FIFO
// order (a read issued after a buffered write of the same block sees the
// new data).
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "pdm/disk_backend.h"
#include "pdm/io_stats.h"

namespace pdm {

class AsyncIoScheduler;

class IoScheduler {
 public:
  /// Longest span one coalesced request may cover (preadv/pwritev build at
  /// most this many iovecs; IOV_MAX is the OS bound).
  static constexpr u64 kMaxCoalesceBlocks = 1024;

  explicit IoScheduler(DiskBackend& backend, CostModel cost = {});

  /// Executes all reads; returns the number of parallel operations used.
  u64 read(std::span<const ReadReq> reqs);

  /// Executes all writes; returns the number of parallel operations used.
  u64 write(std::span<const WriteReq> reqs);

  /// Stats-only half of read()/write() (Req = ReadReq or WriteReq): charge
  /// the batch exactly as the synchronous path would (request hashes in
  /// submission order, rounds = max per-disk block load) without touching
  /// the backend, and leave the coalesced batch in last_coalesced<Req>()
  /// (valid until the next account call of that type). Used by the async
  /// pipeline; calling it and then executing the coalesced requests in any
  /// per-disk FIFO order yields byte- and stats-identical results.
  template <class Req>
  u64 account(std::span<const Req> reqs);

  /// The coalesced form of the last account() batch of that type.
  template <class Req>
  std::span<const Req> last_coalesced() {
    return coalesced_buf<Req>();
  }

  /// Toggles extent coalescing (default on). Off = every request reaches
  /// the backend block-at-a-time, exactly the pre-extent behaviour; ops,
  /// blocks and hashes are identical either way, only calls differ.
  void set_coalescing(bool on) { coalescing_ = on; }
  bool coalescing() const noexcept { return coalescing_; }

  IoStats& stats() noexcept { return stats_; }
  const IoStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_.reset(backend_->num_disks()); }

  const CostModel& cost() const noexcept { return cost_; }
  void set_cost(CostModel c) { cost_ = c; }

  DiskBackend& backend() noexcept { return *backend_; }

  /// Wires the asynchronous pipeline in front of this scheduler. Owned by
  /// PdmContext; read()/write() delegate to it while it is enabled.
  void attach_pipeline(AsyncIoScheduler* pipeline) { pipeline_ = pipeline; }
  AsyncIoScheduler* pipeline() const noexcept { return pipeline_; }

  /// Wires a shared aggregate: every accounting charge is applied to
  /// `totals` too (under its lock) at the same submission points, so a
  /// service holding one aggregate over many job schedulers sees per-job
  /// stats sum exactly to its totals. Not owned; must outlive this
  /// scheduler.
  void attach_totals(SharedIoTotals* totals) { totals_ = totals; }

 private:
  template <class Req>
  std::vector<Req>& coalesced_buf() {
    if constexpr (std::is_same_v<Req, WriteReq>) {
      return co_writes_;
    } else {
      return co_reads_;
    }
  }
  template <class Req>
  u64 execute(std::span<const Req> reqs);

  DiskBackend* backend_;
  CostModel cost_;
  IoStats stats_;
  AsyncIoScheduler* pipeline_ = nullptr;
  SharedIoTotals* totals_ = nullptr;
  bool coalescing_ = true;
  std::vector<ReadReq> co_reads_;    // coalesced form of the last batch
  std::vector<WriteReq> co_writes_;
};

}  // namespace pdm
