// File-backed disk array: one file per simulated disk. A batch's requests
// run inline, in order, on the calling thread; cross-disk concurrency
// comes from the AsyncIoScheduler's per-disk workers (async depth >= 2),
// which each hand the backend one request per call. Extent requests
// (count > 1) execute as a single pread/pwrite when the buffer is
// contiguous and as preadv/pwritev scatter/gather when the per-block
// buffers sit at a uniform stride — one syscall per extent either way.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "pdm/disk_backend.h"

namespace pdm {

class FileDiskBackend final : public DiskBackend {
 public:
  /// Creates (or truncates) `num_disks` files named disk000.bin.. in `dir`.
  /// The directory is created if missing; files are removed on destruction
  /// unless keep_files is true.
  FileDiskBackend(u32 num_disks, usize block_bytes, std::string dir,
                  bool keep_files = false);
  ~FileDiskBackend() override;

  FileDiskBackend(const FileDiskBackend&) = delete;
  FileDiskBackend& operator=(const FileDiskBackend&) = delete;

  u32 num_disks() const noexcept override { return num_disks_; }
  usize block_bytes() const noexcept override { return block_bytes_; }

  void read_batch(std::span<const ReadReq> reqs) override;
  void write_batch(std::span<const WriteReq> reqs) override;
  u64 disk_blocks(u32 disk) const override;

 private:
  void exec_read(const ReadReq& r) const;
  void exec_write(const WriteReq& w) const;

  u32 num_disks_;
  usize block_bytes_;
  std::string dir_;
  bool keep_files_;
  std::vector<int> fds_;
  // pread/pwrite are intrinsically thread-safe; only the high-water marks
  // need guarding when concurrent job contexts share the backend.
  mutable std::mutex marks_mu_;
  std::vector<u64> blocks_written_;  // high-water mark per disk
};

}  // namespace pdm
