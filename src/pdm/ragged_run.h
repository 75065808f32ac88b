// RaggedRun: a striped run whose blocks may each hold fewer than B records.
//
// IntegerSort (§7) writes every bucket's in-memory blocks at the end of a
// phase, padding the final block of each bucket; the pads are what cost the
// extra µ fraction of a pass that Theorem 7.1 accounts for. RaggedRun keeps
// the per-block occupancy so readers can skip the padding.
//
// StripedRun and RaggedRun expose the same three read members — num_blocks,
// read_req and records_in_block — so the helpers below read a block range
// of either with its padding skipped.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "pdm/pdm_context.h"
#include "pdm/record.h"

namespace pdm {

/// The batch that reads blocks [first, first + count) of `run` into dst
/// (count * rpb records of space); valid[i] is set to the records block
/// first + i holds.
template <class Run, class R>
std::vector<ReadReq> block_range_reqs(const Run& run, u64 first, u64 count,
                                      R* dst, std::vector<usize>& valid) {
  PDM_CHECK(first + count <= run.num_blocks(), "block range out of bounds");
  std::vector<ReadReq> reqs;
  reqs.reserve(static_cast<usize>(count));
  valid.resize(static_cast<usize>(count));
  for (u64 b = 0; b < count; ++b) {
    reqs.push_back(run.read_req(first + b, dst + b * run.rpb()));
    valid[b] = run.records_in_block(first + b);
  }
  return reqs;
}

/// Squeezes the padding out of valid.size() consecutive rpb-record blocks
/// at dst, in place; returns the number of valid records now at the front.
template <class R>
usize compact_blocks(R* dst, usize rpb, std::span<const usize> valid) {
  usize n = 0;
  for (usize i = 0; i < valid.size(); ++i) {
    if (n != i * rpb && valid[i] > 0) {
      std::memmove(dst + n, dst + i * rpb, valid[i] * sizeof(R));
    }
    n += valid[i];
  }
  return n;
}

/// Reads blocks [first, first + count) of `run` in one batched parallel
/// read and compacts them (dst must hold count * rpb records); returns the
/// number of valid records.
template <class Run, class R>
usize read_compacted(const Run& run, u64 first, u64 count, R* dst) {
  std::vector<usize> valid;
  run.ctx().io().read(block_range_reqs(run, first, count, dst, valid));
  return compact_blocks(dst, run.rpb(), valid);
}

template <Record R>
class RaggedRun {
 public:
  RaggedRun() = default;

  explicit RaggedRun(PdmContext& ctx, u32 start_disk = 0)
      : ctx_(&ctx), start_disk_(start_disk % ctx.D()), rpb_(ctx.rpb<R>()) {}

  PdmContext& ctx() const { return *ctx_; }
  u64 size() const noexcept { return size_; }
  usize rpb() const noexcept { return rpb_; }

  /// Total blocks including padding: the write-amplification measure.
  u64 num_blocks() const noexcept { return segs_.size(); }

  /// Valid records in block i.
  usize records_in_block(u64 i) const { return segs_[i].count; }

  /// Read request for block i into caller memory (rpb records of space).
  ReadReq read_req(u64 i, R* dst) const {
    return ReadReq{segs_[i].where, reinterpret_cast<std::byte*>(dst)};
  }

  /// Stages one block holding `count <= rpb` valid records. `block_buf`
  /// must hold rpb records, already padded by the caller, and stay alive
  /// until the returned request is submitted.
  WriteReq stage_block(const R* block_buf, usize count) {
    return stage_block_on(
        static_cast<u32>((start_disk_ + segs_.size()) % ctx_->D()), block_buf,
        count);
  }

  /// As stage_block but on an explicit disk: lets a writer that stages
  /// blocks for many ragged runs at once balance the whole batch over the
  /// disks (the distribution pass does this).
  WriteReq stage_block_on(u32 disk, const R* block_buf, usize count) {
    PDM_CHECK(count > 0 && count <= rpb_, "bad ragged block count");
    BlockRef ref = ctx_->alloc_block(disk % ctx_->D());
    segs_.push_back(Segment{ref, static_cast<u32>(count)});
    size_ += count;
    return WriteReq{ref, reinterpret_cast<const std::byte*>(block_buf)};
  }

  std::vector<R> read_all() const {
    std::vector<R> out(segs_.size() * rpb_);
    out.resize(read_compacted(*this, 0, segs_.size(), out.data()));
    return out;
  }

 private:
  struct Segment {
    BlockRef where;
    u32 count = 0;  // valid records in this block
  };

  PdmContext* ctx_ = nullptr;
  std::vector<Segment> segs_;
  u64 size_ = 0;
  u32 start_disk_ = 0;
  usize rpb_ = 0;
};

}  // namespace pdm
