// StripedRun: a logical sequence of records striped over the disks, the
// standard PDM layout (Rajasekaran [23]) generalised by a stripe unit.
//
// With unit 1 (the default) a run that starts at disk s keeps block b on
// disk (s + b) mod D, so any D consecutive blocks of a run — and any batch
// of single blocks taken from D runs with staggered start disks — occupy
// distinct disks and move in one parallel I/O.
//
// With unit u > 1 (set_stripe_unit) the run is striped u blocks at a time:
// block b lives on disk (s + floor(b / u)) mod D. This is the merge-run
// layout: a shuffle-cleanup that reads u blocks of the run per chunk then
// finds that piece on one disk as one contiguous extent — one seek plus
// u - 1 streamed blocks, instead of about min(u, D) seeks. Two exceptions
// keep the per-disk block load of every batch, hence the paper's op count,
// identical to unit 1:
//   - only the first floor(nb / (u*D)) * u*D blocks of an nb-block run
//     (the unit span) use the unit; the trailing partial cycle stays
//     block-round-robin, block b on disk (s + b) mod D;
//   - callers give the unit only to the first D*floor(l/D) runs of a
//     cleanup group of l runs (see MergeRunLayout in run_formation.h), so
//     the D staggered start disks of each full group still cover every
//     disk once per chunk; the other l mod D runs keep unit 1.
// A batch that covers whole runs loads each disk exactly as with unit 1.
//
// Physically, each disk's share of the stripe is carved from extents
// (ctx.extent_blocks() contiguous blocks at a time, inside the context's
// allocator region), so the blocks a run keeps on one disk sit at
// consecutive disk addresses: a bulk read or write of the run coalesces
// into one extent-sized syscall per disk (see IoScheduler). Inside the
// unit span every extent is a whole number of units, so a unit never
// straddles two extents. finish() — and, for runs abandoned by a cancelled
// or failed pass, the destructor — returns the unconsumed extent tails to
// the allocator's free list, so tail fragmentation is transient. Runs must
// not outlive their context. With ctx.extent_blocks() <= 1 the run falls
// back to single-block bump allocation in the shared default region (the
// block-interleaved baseline).
//
// A layout helper may instead place every block of a run up front
// (place_blocks): the run then takes those refs in order as it grows and
// allocates nothing itself. The LMM part grid and merged sequences use
// this (see LmmPartLayout in run_formation.h), because their blocks are
// ordered on each disk across many runs at once, which no per-run extent
// can express.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "pdm/pdm_context.h"
#include "pdm/record.h"
#include "util/math_util.h"

namespace pdm {

template <Record R>
class StripedRun {
 public:
  StripedRun() = default;

  explicit StripedRun(PdmContext& ctx, u32 start_disk = 0)
      : ctx_(&ctx), start_disk_(start_disk % ctx.D()) {
    rpb_ = ctx.rpb<R>();
  }

  /// Releases unconsumed extent tails even when the run never reached
  /// finish() — a cancelled or failed pass must not strand disk space.
  ~StripedRun() {
    if (ctx_ != nullptr) release_extent_tails();
  }

  // Move-only: a copy would duplicate extent-tail ownership and the
  // destructor would return the same spans to the free list twice.
  StripedRun(StripedRun&& o) noexcept
      : ctx_(o.ctx_),
        blocks_(std::move(o.blocks_)),
        extents_(std::move(o.extents_)),
        grow_(std::move(o.grow_)),
        placed_(std::move(o.placed_)),
        tail_(std::move(o.tail_)),
        size_(o.size_),
        rpb_(o.rpb_),
        unit_(o.unit_),
        unit_span_(o.unit_span_),
        start_disk_(o.start_disk_),
        finished_(o.finished_) {
    o.extents_.clear();  // moved-from source owns no tails
  }

  StripedRun& operator=(StripedRun&& o) noexcept {
    if (this != &o) {
      if (ctx_ != nullptr) release_extent_tails();
      ctx_ = o.ctx_;
      blocks_ = std::move(o.blocks_);
      extents_ = std::move(o.extents_);
      grow_ = std::move(o.grow_);
      placed_ = std::move(o.placed_);
      tail_ = std::move(o.tail_);
      size_ = o.size_;
      rpb_ = o.rpb_;
      unit_ = o.unit_;
      unit_span_ = o.unit_span_;
      start_disk_ = o.start_disk_;
      finished_ = o.finished_;
      o.extents_.clear();
    }
    return *this;
  }

  /// Copies are metadata aliases: block refs are shared (fine — reads
  /// only), but extent-tail ownership is unique and never duplicated, so
  /// only runs with settled tails (finished, or never allocated) may be
  /// copied — copying a mid-append run would strand or double-free its
  /// tails.
  StripedRun(const StripedRun& o)
      : ctx_(o.ctx_),
        blocks_(o.blocks_),
        tail_(o.tail_),
        size_(o.size_),
        rpb_(o.rpb_),
        unit_(o.unit_),
        unit_span_(o.unit_span_),
        start_disk_(o.start_disk_),
        finished_(o.finished_) {
    PDM_ASSERT(!o.owns_tails(), "copy of a StripedRun with live extent tails");
  }

  StripedRun& operator=(const StripedRun& o) {
    if (this != &o) {
      PDM_ASSERT(!o.owns_tails(),
                 "copy of a StripedRun with live extent tails");
      if (ctx_ != nullptr) release_extent_tails();
      ctx_ = o.ctx_;
      blocks_ = o.blocks_;
      extents_.clear();
      grow_.clear();
      placed_.clear();
      tail_ = o.tail_;
      size_ = o.size_;
      rpb_ = o.rpb_;
      unit_ = o.unit_;
      unit_span_ = o.unit_span_;
      start_disk_ = o.start_disk_;
      finished_ = o.finished_;
    }
    return *this;
  }

  PdmContext& ctx() const { return *ctx_; }
  u64 size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  usize rpb() const noexcept { return rpb_; }
  u64 num_blocks() const noexcept { return blocks_.size(); }
  u32 start_disk() const noexcept { return start_disk_; }
  u64 stripe_unit() const noexcept { return unit_; }
  /// Blocks [0, unit_span_blocks()) are striped in units of stripe_unit().
  u64 unit_span_blocks() const noexcept { return unit_span_; }

  /// Stripes a run that will hold `run_blocks` blocks in units of `unit`
  /// blocks (see the header): the unit span is run_blocks rounded down to
  /// a multiple of unit * D. Must precede the first allocated block.
  void set_stripe_unit(u64 unit, u64 run_blocks) {
    PDM_CHECK(unit >= 1, "stripe unit must be positive");
    PDM_CHECK(blocks_.empty(), "set_stripe_unit after the first block");
    unit_ = unit;
    unit_span_ = unit > 1 ? round_down(run_blocks, unit * ctx_->D()) : 0;
  }

  /// Places the run's blocks up front: block b of the run will be refs[b].
  /// The caller has allocated them (the run never frees them) and must
  /// append exactly refs.size() blocks before finish(). Must precede the
  /// first block; replaces the run's own striping and extent allocation.
  void place_blocks(std::vector<BlockRef> refs) {
    PDM_CHECK(blocks_.empty(), "place_blocks after the first block");
    placed_ = std::move(refs);
  }

  BlockRef block_ref(u64 i) const {
    PDM_CHECK(i < blocks_.size(), "block index out of range");
    return blocks_[i];
  }

  /// Logical records stored in block i (the final block may be partial).
  usize records_in_block(u64 i) const {
    PDM_CHECK(i < blocks_.size(), "block index out of range");
    const u64 start = i * rpb_;
    return static_cast<usize>(std::min<u64>(rpb_, size_ - start));
  }

  /// Allocates the next block of the stripe and returns a write request for
  /// it. `src` must stay alive until the caller submits the request. Used
  /// by multi-run writers that batch blocks across runs into one parallel
  /// write. Advances the logical size by a full block.
  WriteReq stage_append_block(const R* src) {
    PDM_CHECK(tail_.empty(), "stage_append_block with buffered tail");
    PDM_CHECK(!finished_, "append after finish()");
    BlockRef ref = alloc_next_block();
    size_ += rpb_;
    return WriteReq{ref, reinterpret_cast<const std::byte*>(src)};
  }

  /// Appends records with write combining: completed blocks are held in
  /// the tail buffer until at least D of them accumulate, then written in
  /// one batched parallel operation — so even record-at-a-time appends
  /// reach full disk parallelism. Call finish() to flush. Writes go
  /// through the context's write-behind ring, so with the async pipeline
  /// enabled the caller's buffer is copied and the transfer overlaps with
  /// whatever the caller does next.
  void append(std::span<const R> recs) {
    PDM_CHECK(!finished_, "append after finish()");
    if (recs.empty()) return;
    size_ += recs.size();
    const usize flush_records = flush_blocks() * rpb_;
    // Fast path: large append with an empty tail writes directly from the
    // caller's memory without the staging copy.
    if (tail_.empty() && recs.size() >= flush_records) {
      const usize full = recs.size() / rpb_;
      std::vector<WriteReq> reqs;
      reqs.reserve(full);
      for (usize b = 0; b < full; ++b) {
        reqs.push_back(WriteReq{
            alloc_next_block(),
            reinterpret_cast<const std::byte*>(recs.data() + b * rpb_)});
      }
      ctx_->write_batch(reqs);
      tail_.assign(recs.begin() + static_cast<std::ptrdiff_t>(full * rpb_),
                   recs.end());
      return;
    }
    tail_.insert(tail_.end(), recs.begin(), recs.end());
    if (tail_.size() >= flush_records) flush_full_blocks();
  }

  /// Flushes any buffered blocks plus a zero-padded partial tail block
  /// (the logical size excludes the padding), and recycles unconsumed
  /// extent tails to the allocator. Idempotent.
  void finish() {
    if (finished_) return;
    if (tail_.size() >= rpb_) flush_full_blocks();
    finished_ = true;
    if (!tail_.empty()) {
      tail_.resize(rpb_, R{});
      WriteReq req{alloc_next_block(),
                   reinterpret_cast<const std::byte*>(tail_.data())};
      ctx_->write_batch(std::span<const WriteReq>(&req, 1));
      tail_.clear();
    }
    PDM_CHECK(placed_.empty() || placed_.size() == blocks_.size(),
              "run finished short of its placed blocks");
    placed_ = {};
    release_extent_tails();
  }

  /// Reverses the block order in place — pure metadata, no I/O. Used by
  /// up/down run formation: a descending run is written with the records
  /// of each block reversed, then the block list is flipped here, which
  /// yields an ascending run. Requires a finished run of whole blocks
  /// (a partial tail block would land in the middle of the record order).
  /// The stripe then walks the disks downward, which is still D-distinct
  /// per D consecutive blocks, so batched reads keep full parallelism.
  void reverse_blocks() {
    PDM_CHECK(finished_, "reverse_blocks before finish()");
    PDM_CHECK(size_ % rpb_ == 0,
              "reverse_blocks requires whole blocks (no partial tail)");
    std::reverse(blocks_.begin(), blocks_.end());
    if (!blocks_.empty()) start_disk_ = blocks_.front().disk;
  }

  /// Read request for block i into caller memory (rpb records of space).
  ReadReq read_req(u64 i, R* dst) const {
    return ReadReq{block_ref(i), reinterpret_cast<std::byte*>(dst)};
  }

  /// Reads `count` consecutive blocks starting at `first` into dst (which
  /// must hold count*rpb records) with one batched parallel read.
  void read_blocks(u64 first, u64 count, R* dst) const {
    ctx_->io().read(read_reqs(first, count, dst));
  }

  /// The request batch read_blocks issues, for callers that submit it
  /// themselves (a ReadAheadRing).
  std::vector<ReadReq> read_reqs(u64 first, u64 count, R* dst) const {
    PDM_CHECK(first + count <= blocks_.size(), "read_blocks out of range");
    std::vector<ReadReq> reqs;
    reqs.reserve(static_cast<usize>(count));
    for (u64 b = 0; b < count; ++b) {
      reqs.push_back(read_req(first + b, dst + b * rpb_));
    }
    return reqs;
  }

  /// Reads the entire run (convenience for tests; counts I/O normally).
  std::vector<R> read_all() const {
    PDM_CHECK(tail_.empty(), "read_all before finish(): tail not flushed");
    std::vector<R> out(blocks_.size() * rpb_);
    if (!blocks_.empty()) read_blocks(0, blocks_.size(), out.data());
    out.resize(static_cast<usize>(size_));
    return out;
  }

 private:
  usize flush_blocks() const { return std::max<usize>(1, ctx_->D()); }

  void flush_full_blocks() {
    const usize full = tail_.size() / rpb_;
    if (full == 0) return;
    std::vector<WriteReq> reqs;
    reqs.reserve(full);
    for (usize b = 0; b < full; ++b) {
      reqs.push_back(WriteReq{
          alloc_next_block(),
          reinterpret_cast<const std::byte*>(tail_.data() + b * rpb_)});
    }
    ctx_->write_batch(reqs);
    tail_.erase(tail_.begin(),
                tail_.begin() + static_cast<std::ptrdiff_t>(full * rpb_));
  }

  BlockRef alloc_next_block() {
    const u64 b = blocks_.size();
    if (!placed_.empty()) {
      PDM_CHECK(b < placed_.size(), "run grew past its placed blocks");
      blocks_.push_back(placed_[b]);
      return placed_[b];
    }
    const bool in_unit = b < unit_span_;
    const u64 stripe = in_unit ? b / unit_ : b;
    const u32 disk = static_cast<u32>((start_disk_ + stripe) % ctx_->D());
    const usize eb = ctx_->extent_blocks();
    if (eb <= 1) {
      // Legacy path: single blocks, region selection via the context's
      // one implementation of the convention — concurrent runs
      // interleave block-by-block, nothing coalesces.
      BlockRef ref = ctx_->alloc_block(disk);
      blocks_.push_back(ref);
      return ref;
    }
    if (extents_.empty()) {
      extents_.assign(ctx_->D(), Extent{});
      grow_.assign(ctx_->D(), kInitialExtentBlocks);
    }
    Extent& cur = extents_[disk];
    if (cur.count == 0) {
      // Adaptive sizing: short runs (an unshuffle part may own a single
      // block per disk) waste at most a few tail blocks, long runs ramp
      // up to the context's full extent size within a few refills.
      // Inside the unit span extents come in whole units, so every unit
      // is one physically contiguous span on its disk.
      u64 want = std::min<u64>(eb, grow_[disk]);
      if (in_unit) want = round_up(want, unit_);
      grow_[disk] = static_cast<u32>(std::min<u64>(eb, u64{grow_[disk]} * 2));
      cur = ctx_->alloc().alloc_extent(disk, want, ctx_->alloc_region());
    }
    BlockRef ref{disk, cur.index};
    ++cur.index;
    --cur.count;
    blocks_.push_back(ref);
    return ref;
  }

  bool owns_tails() const {
    if (blocks_.size() < placed_.size()) return true;
    for (const Extent& e : extents_) {
      if (e.count > 0) return true;
    }
    return false;
  }

  void release_extent_tails() {
    for (Extent& e : extents_) {
      if (e.count > 0) {
        ctx_->alloc().free_extent(e, ctx_->alloc_region());
        e.count = 0;
      }
    }
  }

  static constexpr u32 kInitialExtentBlocks = 4;

  PdmContext* ctx_ = nullptr;
  std::vector<BlockRef> blocks_;
  std::vector<Extent> extents_;  // per-disk unconsumed allocation tail
  std::vector<u32> grow_;        // per-disk next extent size (doubling)
  std::vector<BlockRef> placed_;  // up-front placement (empty = allocate)
  std::vector<R> tail_;
  u64 size_ = 0;
  usize rpb_ = 0;
  u64 unit_ = 1;       // stripe unit, in blocks
  u64 unit_span_ = 0;  // blocks striped by unit_ (a multiple of unit_ * D)
  u32 start_disk_ = 0;
  bool finished_ = false;
};

/// Writes in-memory data as a striped run. Used to stage experiment inputs;
/// callers that do not want the staging I/O charged to the algorithm should
/// reset the context stats afterwards.
template <Record R>
StripedRun<R> write_input_run(PdmContext& ctx, std::span<const R> data,
                              u32 start_disk = 0) {
  StripedRun<R> run(ctx, start_disk);
  run.append(data);
  run.finish();
  return run;
}

}  // namespace pdm
