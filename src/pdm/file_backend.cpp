#include "pdm/file_backend.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace pdm {

namespace fs = std::filesystem;

namespace {

// One iovec per block, capped by the OS vector limit; callers chunk.
constexpr usize kIovBatch = 512;

// pread/pwrite the full range, resuming after short transfers (the
// kernel caps a single call at MAX_RW_COUNT ≈ 2 GiB, which a fully
// coalesced extent of large blocks can exceed; regular files otherwise
// only transfer short at EOF or on error).
void pread_full(int fd, std::byte* dst, usize len, off_t off) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, dst, len, off);
    PDM_CHECK(n > 0, "pread short/failed");
    dst += n;
    len -= static_cast<usize>(n);
    off += n;
  }
}

void pwrite_full(int fd, const std::byte* src, usize len, off_t off) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, src, len, off);
    PDM_CHECK(n > 0, "pwrite short/failed");
    src += n;
    len -= static_cast<usize>(n);
    off += n;
  }
}

}  // namespace

FileDiskBackend::FileDiskBackend(u32 num_disks, usize block_bytes,
                                 std::string dir, bool keep_files)
    : num_disks_(num_disks),
      block_bytes_(block_bytes),
      dir_(std::move(dir)),
      keep_files_(keep_files),
      blocks_written_(num_disks, 0) {
  PDM_CHECK(num_disks > 0, "need at least one disk");
  fs::create_directories(dir_);
  fds_.reserve(num_disks);
  for (u32 d = 0; d < num_disks; ++d) {
    char name[32];
    std::snprintf(name, sizeof name, "disk%03u.bin", d);
    const std::string path = dir_ + "/" + name;
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    PDM_CHECK(fd >= 0, "open failed for " + path + ": " + std::strerror(errno));
    fds_.push_back(fd);
  }
}

FileDiskBackend::~FileDiskBackend() {
  for (u32 d = 0; d < num_disks_; ++d) {
    if (fds_[d] >= 0) ::close(fds_[d]);
    if (!keep_files_) {
      char name[32];
      std::snprintf(name, sizeof name, "disk%03u.bin", d);
      std::error_code ec;
      fs::remove(dir_ + "/" + name, ec);
    }
  }
}

void FileDiskBackend::exec_read(const ReadReq& r) const {
  const int fd = fds_.at(r.where.disk);
  const auto bb = static_cast<ssize_t>(block_bytes_);
  const i64 stride = r.stride_or(block_bytes_);
  if (r.count == 1 || stride == static_cast<i64>(block_bytes_)) {
    // Contiguous buffer (or a single block): one pread moves the extent.
    const auto off =
        static_cast<off_t>(r.where.index) * static_cast<off_t>(block_bytes_);
    pread_full(fd, r.dst, static_cast<usize>(r.count) * block_bytes_, off);
    return;
  }
  // Strided scatter (e.g. a striped run reading into an interleaved load
  // buffer): one preadv per iovec chunk gathers the extent. A short
  // vectored transfer (kernel per-call byte cap) finishes block-by-block.
  struct iovec iov[kIovBatch];
  for (u64 b0 = 0; b0 < r.count; b0 += kIovBatch) {
    const usize cnt = static_cast<usize>(std::min<u64>(kIovBatch, r.count - b0));
    for (usize k = 0; k < cnt; ++k) {
      iov[k].iov_base = r.dst + static_cast<i64>(b0 + k) * stride;
      iov[k].iov_len = block_bytes_;
    }
    const auto off = static_cast<off_t>(r.where.index + b0) *
                     static_cast<off_t>(block_bytes_);
    const ssize_t n = ::preadv(fd, iov, static_cast<int>(cnt), off);
    PDM_CHECK(n > 0, "preadv short/failed");
    usize k = static_cast<usize>(n / bb);
    if (const usize part = static_cast<usize>(n % bb); part > 0) {
      pread_full(fd, r.dst + static_cast<i64>(b0 + k) * stride + part,
                 block_bytes_ - part,
                 off + static_cast<off_t>(k) * bb + static_cast<off_t>(part));
      ++k;
    }
    for (; k < cnt; ++k) {
      pread_full(fd, r.dst + static_cast<i64>(b0 + k) * stride, block_bytes_,
                 off + static_cast<off_t>(k) * bb);
    }
  }
}

void FileDiskBackend::exec_write(const WriteReq& w) const {
  const int fd = fds_.at(w.where.disk);
  const auto bb = static_cast<ssize_t>(block_bytes_);
  const i64 stride = w.stride_or(block_bytes_);
  if (w.count == 1 || stride == static_cast<i64>(block_bytes_)) {
    const auto off =
        static_cast<off_t>(w.where.index) * static_cast<off_t>(block_bytes_);
    pwrite_full(fd, w.src, static_cast<usize>(w.count) * block_bytes_, off);
    return;
  }
  struct iovec iov[kIovBatch];
  for (u64 b0 = 0; b0 < w.count; b0 += kIovBatch) {
    const usize cnt = static_cast<usize>(std::min<u64>(kIovBatch, w.count - b0));
    for (usize k = 0; k < cnt; ++k) {
      iov[k].iov_base =
          const_cast<std::byte*>(w.src) + static_cast<i64>(b0 + k) * stride;
      iov[k].iov_len = block_bytes_;
    }
    const auto off = static_cast<off_t>(w.where.index + b0) *
                     static_cast<off_t>(block_bytes_);
    const ssize_t n = ::pwritev(fd, iov, static_cast<int>(cnt), off);
    PDM_CHECK(n > 0, "pwritev short/failed");
    usize k = static_cast<usize>(n / bb);
    if (const usize part = static_cast<usize>(n % bb); part > 0) {
      pwrite_full(fd, w.src + static_cast<i64>(b0 + k) * stride + part,
                  block_bytes_ - part,
                  off + static_cast<off_t>(k) * bb + static_cast<off_t>(part));
      ++k;
    }
    for (; k < cnt; ++k) {
      pwrite_full(fd, w.src + static_cast<i64>(b0 + k) * stride, block_bytes_,
                  off + static_cast<off_t>(k) * bb);
    }
  }
}

void FileDiskBackend::read_batch(std::span<const ReadReq> reqs) {
  for (const auto& r : reqs) exec_read(r);
}

void FileDiskBackend::write_batch(std::span<const WriteReq> reqs) {
  for (const auto& w : reqs) exec_write(w);
  std::lock_guard g(marks_mu_);
  for (const auto& w : reqs) {
    blocks_written_[w.where.disk] =
        std::max(blocks_written_[w.where.disk], w.where.index + w.count);
  }
}

u64 FileDiskBackend::disk_blocks(u32 disk) const {
  PDM_CHECK(disk < num_disks_, "disk out of range");
  std::lock_guard g(marks_mu_);
  return blocks_written_[disk];
}

}  // namespace pdm
