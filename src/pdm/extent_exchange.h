// Extent-grained run export: moving a finished run's records off a
// shard's disks and into caller memory for cross-shard exchange.
//
// A distributed sort ends with one sorted run per shard; gluing them into
// one output means every range crosses the shard boundary exactly once.
// The transfer must not regress to block-at-a-time I/O: a StripedRun's
// blocks were carved from extent-sized contiguous spans per disk
// (DiskAllocator::alloc_extent), so a batch of D * extent_blocks
// consecutive block reads presents each disk with one contiguous span the
// IoScheduler coalesces into a single preadv-style vectored transfer (one
// seek per disk per batch instead of one per block — see IoScheduler's
// extent coalescing and bench_e17).
//
// export_run below chunks the run into such batches. The chunk size also
// bounds the request-vector footprint: a multi-GB run never materializes
// one ReadReq per block at once, only per chunk, while the destination
// span (owned by the caller) receives records in run order.
#pragma once

#include <span>
#include <vector>

#include "pdm/striped_run.h"

namespace pdm {

/// Reads the whole finished run into `dst` (size run.size()), batching
/// one allocation extent per disk per I/O round: the largest span the
/// scheduler can merge into one vectored op. The final partial block's
/// padding is read into scratch and discarded, so dst needs exactly
/// run.size() records.
template <Record R>
void export_run(const StripedRun<R>& run, std::span<R> dst) {
  PDM_CHECK(dst.size() == run.size(), "export_run: dst size mismatch");
  if (run.size() == 0) return;
  const u64 rpb = run.ctx().template rpb<R>();
  const u64 span_blocks =
      std::max<u64>(1, run.ctx().extent_blocks()) * run.ctx().D();
  const u64 nb = run.num_blocks();
  const u64 full = dst.size() / rpb;  // blocks that land directly in dst
  for (u64 first = 0; first < full; first += span_blocks) {
    const u64 count = std::min(span_blocks, full - first);
    run.read_blocks(first, count, dst.data() + first * rpb);
  }
  if (full < nb) {
    // Tail block: padded to rpb on disk, truncated to size() here.
    std::vector<R> scratch(rpb);
    run.read_blocks(full, 1, scratch.data());
    const u64 rest = dst.size() - full * rpb;
    std::copy(scratch.begin(),
              scratch.begin() + static_cast<std::ptrdiff_t>(rest),
              dst.begin() + static_cast<std::ptrdiff_t>(full * rpb));
  }
}

/// Convenience overload allocating the destination.
template <Record R>
std::vector<R> export_run(const StripedRun<R>& run) {
  std::vector<R> out(static_cast<usize>(run.size()));
  export_run<R>(run, std::span<R>(out));
  return out;
}

}  // namespace pdm
