// DiskBackend decorator: forwards every call to the real backend and
// records one span per read_batch/write_batch. Calls arrive on the
// sorter thread and on async I/O workers alike, so a span carries the
// shard and the sort/job id (the job's jobtrace id inside a service, or
// the benchmark's repetition tag for a standalone context) rather than a
// parent. The self-test in selftest.cpp checks that wrapping a backend
// changes neither the records nor the I/O accounting.
#pragma once

#include <atomic>
#include <memory>

#include "pdm/disk_backend.h"
#include "spans.h"
#include "util/jobtrace.h"

namespace perfbench {

class TracedBackend final : public pdm::DiskBackend {
 public:
  TracedBackend(std::shared_ptr<pdm::DiskBackend> inner, SpanLog& log,
                u32 shard = 0)
      : inner_(std::move(inner)), log_(log), shard_(shard) {}

  pdm::u32 num_disks() const noexcept override { return inner_->num_disks(); }
  usize block_bytes() const noexcept override { return inner_->block_bytes(); }
  u64 disk_blocks(pdm::u32 disk) const override {
    return inner_->disk_blocks(disk);
  }

  void read_batch(std::span<const pdm::ReadReq> reqs) override {
    const u64 t0 = log_.now_ns();
    inner_->read_batch(reqs);
    record("pdm.backend.read", t0, blocks_of(reqs));
  }

  void write_batch(std::span<const pdm::WriteReq> reqs) override {
    const u64 t0 = log_.now_ns();
    inner_->write_batch(reqs);
    record("pdm.backend.write", t0, blocks_of(reqs));
  }

  /// Tag stamped on spans of calls made outside any jobtrace scope (a
  /// standalone context): the benchmark sets it per repetition and phase.
  void set_tag(u64 tag) { tag_.store(tag, std::memory_order_relaxed); }

 private:
  template <class Req>
  static u64 blocks_of(std::span<const Req> reqs) {
    u64 b = 0;
    for (const auto& r : reqs) b += r.count;
    return b;
  }

  void record(const char* name, u64 t0, u64 blocks) {
    Span s;
    s.name = name;
    s.start_ns = t0;
    s.end_ns = log_.now_ns();
    const u64 job = pdm::jobtrace::current();
    s.id = job != 0 ? job : tag_.load(std::memory_order_relaxed);
    s.shard = shard_;
    s.bytes = blocks * inner_->block_bytes();
    log_.add(s);
  }

  std::shared_ptr<pdm::DiskBackend> inner_;
  SpanLog& log_;
  u32 shard_;
  std::atomic<u64> tag_{0};
};

}  // namespace perfbench
