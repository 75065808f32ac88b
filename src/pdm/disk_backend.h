// Abstract storage backend for the simulated disk array.
//
// Implementations: MemoryDiskBackend (default; per-disk byte arrays) and
// FileDiskBackend (one OS file per disk, pread/pwrite). Cross-disk
// concurrency comes from the AsyncIoScheduler's per-disk workers, not
// from the backends. The IoScheduler guarantees that each batch passed here
// contains at most one request per disk — i.e. a batch IS one parallel
// I/O. A request may span `count` physically contiguous blocks (an
// extent): backends execute it as one transfer — a single syscall on the
// file backend, one positioning charge plus `count` sequential transfers
// under the memory backend's StreamModel.
#pragma once

#include <span>

#include "pdm/block.h"
#include "util/common.h"

namespace pdm {

class DiskBackend {
 public:
  virtual ~DiskBackend() = default;

  virtual u32 num_disks() const noexcept = 0;
  virtual usize block_bytes() const noexcept = 0;

  /// Executes one parallel read (<= 1 request per disk, enforced upstream).
  virtual void read_batch(std::span<const ReadReq> reqs) = 0;

  /// Executes one parallel write (<= 1 request per disk).
  virtual void write_batch(std::span<const WriteReq> reqs) = 0;

  /// Current size of a disk in blocks (written high-water mark).
  virtual u64 disk_blocks(u32 disk) const = 0;
};

}  // namespace pdm
