// Prefetch / write-behind ring buffers for the asynchronous I/O pipeline.
//
// Two building blocks sit between the algorithms and AsyncIoScheduler:
//
//  - WriteBehindRing: a fixed ring of staging slabs. submit_copy() copies
//    a write batch's payload into the next slab and submits it
//    asynchronously, so the caller's buffers are reusable the moment the
//    call returns — the write "lands" later, but per-disk FIFO ordering in
//    the scheduler guarantees any subsequent read of those blocks sees the
//    new data. Re-acquiring a slab waits for its previous submission: the
//    ring depth is the write-behind distance.
//
//  - ReadAheadRing<R>: a fixed ring of record slabs for streaming reads.
//    The producer stages the next batch into stage(), push()es it (which
//    submits the reads), and the consumer takes filled slabs in FIFO order
//    with front()/pop() — front() blocks only if the oldest read has not
//    landed yet. With depth 2 this is classic double buffering.
//
// Both rings wait out their in-flight tickets on destruction, so no
// asynchronous request can outlive the buffers it targets.
//
// Extent behaviour: a ring submission is one batch, and the scheduler's
// coalescing pass runs per batch — so a read-ahead chunk or a write-
// behind slab goes to each disk as extent-sized transfers (the slab copy
// preserves the producer's per-disk strides, which is what makes the
// rewritten requests coalescible). Requests are never merged *across*
// submissions: each ticket must remain an independently completable unit.
#pragma once

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "pdm/async_io.h"
#include "pdm/memory_budget.h"

namespace pdm {

class WriteBehindRing {
 public:
  /// Staging slabs are charged to `budget` when one is supplied, so the
  /// write-behind distance shows up in reported memory peaks like every
  /// other working buffer.
  explicit WriteBehindRing(AsyncIoScheduler& aio,
                           MemoryBudget* budget = nullptr, usize depth = 2)
      : aio_(&aio), budget_(budget), slots_(depth == 0 ? 1 : depth) {}

  ~WriteBehindRing() {
    try {
      drain();
    } catch (...) {
      // Destruction during unwinding: the error stays sticky in the
      // scheduler and surfaces at the next pipeline interaction.
    }
    if (budget_ != nullptr) {
      for (auto& s : slots_) budget_->release(s.buf.size());
    }
  }

  WriteBehindRing(const WriteBehindRing&) = delete;
  WriteBehindRing& operator=(const WriteBehindRing&) = delete;

  /// Caps the staging copy: batches larger than this bypass the ring and
  /// run as ordered submit-and-wait writes (stats-identical, no copy, no
  /// slab). Bounds write-behind memory to depth * cap — without a cap a
  /// bulk producer staging a whole dataset in one batch would charge its
  /// full size to the budget, which a service carving per-job budgets
  /// cannot afford.
  void set_max_slab_bytes(usize bytes) { max_slab_bytes_ = bytes; }
  usize max_slab_bytes() const noexcept { return max_slab_bytes_; }

  /// Submits the batch with its payload copied into an internal slab; the
  /// caller's source buffers may be reused immediately. Extent requests
  /// (count > 1, possibly strided) are flattened contiguously into the
  /// slab. Synchronous (and copy-free) while the pipeline is disabled or
  /// the batch exceeds the slab cap.
  IoTicket submit_copy(std::span<const WriteReq> reqs) {
    if (reqs.empty()) return 0;
    if (!aio_->enabled()) {
      aio_->sync().write(reqs);
      return 0;
    }
    const usize bb = aio_->sync().backend().block_bytes();
    u64 total_blocks = 0;
    for (const auto& w : reqs) total_blocks += w.count;
    if (total_blocks * bb > max_slab_bytes_) {
      aio_->write(reqs);  // ordered through the per-disk queues
      return 0;
    }
    Slot& s = slots_[cur_];
    cur_ = (cur_ + 1) % slots_.size();
    aio_->wait(s.ticket);
    const usize want = static_cast<usize>(total_blocks) * bb;
    if (budget_ != nullptr && want != s.buf.size()) {
      if (want > s.buf.size()) budget_->acquire(want - s.buf.size());
      else budget_->release(s.buf.size() - want);
    }
    s.buf.resize(want);
    s.reqs.assign(reqs.begin(), reqs.end());
    usize off = 0;
    for (usize i = 0; i < reqs.size(); ++i) {
      const i64 stride = reqs[i].stride_or(bb);
      s.reqs[i].src = s.buf.data() + off;
      s.reqs[i].src_stride_bytes = 0;  // flattened: contiguous in the slab
      for (u64 b = 0; b < reqs[i].count; ++b) {
        std::memcpy(s.buf.data() + off,
                    reqs[i].src + static_cast<i64>(b) * stride, bb);
        off += bb;
      }
    }
    s.ticket = aio_->write_async(s.reqs);
    return s.ticket;
  }

  /// Blocks until every submitted write has landed.
  void drain() {
    for (auto& s : slots_) {
      aio_->wait(s.ticket);
      s.ticket = 0;
    }
  }

  /// drain(), then frees every slab and returns it to the budget. A slab
  /// keeps the size of its last batch, so without this a finished bulk
  /// write (say, staging a whole input) stays charged to the budget.
  void drain_and_trim() {
    drain();
    for (auto& s : slots_) {
      if (budget_ != nullptr) budget_->release(s.buf.size());
      s.buf = {};
    }
  }

 private:
  struct Slot {
    std::vector<std::byte> buf;
    std::vector<WriteReq> reqs;
    IoTicket ticket = 0;
  };

  AsyncIoScheduler* aio_;
  MemoryBudget* budget_;
  std::vector<Slot> slots_;
  usize cur_ = 0;
  usize max_slab_bytes_ = std::numeric_limits<usize>::max();
};

template <class R>
class ReadAheadRing {
 public:
  /// `slab_records` must fit the largest staged batch; slabs are charged
  /// to `budget` (documented pipeline slack, not algorithm working set).
  ReadAheadRing(AsyncIoScheduler& aio, MemoryBudget& budget,
                usize slab_records, usize depth)
      : aio_(&aio) {
    PDM_CHECK(depth >= 1, "ReadAheadRing needs at least one slab");
    slots_.reserve(depth);
    for (usize i = 0; i < depth; ++i) {
      slots_.emplace_back(budget, slab_records);
    }
  }

  ~ReadAheadRing() {
    for (auto& s : slots_) {
      try {
        aio_->wait(s.ticket);
      } catch (...) {
      }
    }
  }

  ReadAheadRing(const ReadAheadRing&) = delete;
  ReadAheadRing& operator=(const ReadAheadRing&) = delete;

  usize capacity() const { return slots_.size(); }
  usize filled() const { return filled_; }
  bool full() const { return filled_ == slots_.size(); }
  bool empty() const { return filled_ == 0; }

  /// Staging buffer for the next push (only valid while !full()).
  R* stage() {
    PDM_CHECK(!full(), "ReadAheadRing overflow");
    return slots_[head_].buf.data();
  }

  /// Submits `reqs` (which must read into stage()) and marks the slab
  /// filled; `valid[i]` = records block i of the slab will hold (callers
  /// that track the fill themselves pass none).
  void push(std::span<const ReadReq> reqs, std::vector<usize> valid = {}) {
    PDM_CHECK(!full(), "ReadAheadRing overflow");
    Slot& s = slots_[head_];
    s.ticket = aio_->read_async(reqs);
    s.valid = std::move(valid);
    head_ = (head_ + 1) % slots_.size();
    ++filled_;
  }

  struct View {
    R* data;
    const std::vector<usize>* valid;
  };

  /// Oldest filled slab; blocks until its read has landed.
  View front() {
    PDM_CHECK(!empty(), "ReadAheadRing underflow");
    Slot& s = slots_[tail_];
    aio_->wait(s.ticket);
    s.ticket = 0;
    return View{s.buf.data(), &s.valid};
  }

  void pop() {
    PDM_CHECK(!empty(), "ReadAheadRing underflow");
    tail_ = (tail_ + 1) % slots_.size();
    --filled_;
  }

 private:
  struct Slot {
    TrackedBuffer<R> buf;
    std::vector<usize> valid;
    IoTicket ticket = 0;

    Slot(MemoryBudget& budget, usize records) : buf(budget, records) {}
  };

  AsyncIoScheduler* aio_;
  std::vector<Slot> slots_;
  usize head_ = 0;
  usize tail_ = 0;
  usize filled_ = 0;
};

/// Scope guard: drains the pipeline on destruction so that no in-flight
/// request outlives stack buffers declared before it (declare the guard
/// *after* the buffers it protects).
class PipelineDrainGuard {
 public:
  explicit PipelineDrainGuard(AsyncIoScheduler& aio) : aio_(&aio) {}
  ~PipelineDrainGuard() {
    try {
      aio_->drain();
    } catch (...) {
    }
  }

  PipelineDrainGuard(const PipelineDrainGuard&) = delete;
  PipelineDrainGuard& operator=(const PipelineDrainGuard&) = delete;

 private:
  AsyncIoScheduler* aio_;
};

}  // namespace pdm
