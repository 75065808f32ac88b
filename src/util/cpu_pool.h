// pdm::CpuPool — a budgeted work-span pool for the in-core kernels, and
// the library's only compute pool (I/O concurrency lives in the
// AsyncIoScheduler's per-disk workers).
//
// CpuPool is built around a *budget*: the number of threads a parallel
// region may occupy, caller included. The budget is a thread-safe knob an
// external arbiter (the sort service's CPU-budget arbiter) can raise or
// lower while the owner is mid-sort; the new value takes effect at the
// next parallel region, which is exactly the granularity at which the
// kernels are deterministic.
//
// Determinism contract: run_chunks(k, fn) executes fn(0..k-1) with
// disjoint outputs per chunk, so the result is independent of which
// thread runs which chunk. Kernels derive k from the PROBLEM SIZE ONLY
// (never from the budget), so any budget >= 2 produces byte-identical
// results; budget <= 1 runs every chunk inline on the caller in index
// order — zero pool interaction, bit-identical to the legacy serial code.
//
// Helper threads (budget - 1 of them, capped by the high-water budget)
// are spawned lazily at the first region that can use them, named
// "pdm-cpu" for the tracer, and joined in the destructor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.h"

namespace pdm {

class CpuPool {
 public:
  /// Starts with `budget` usable threads (caller included); 1 = serial.
  explicit CpuPool(usize budget = 1);
  ~CpuPool();

  CpuPool(const CpuPool&) = delete;
  CpuPool& operator=(const CpuPool&) = delete;

  /// The number of threads (caller included) the next parallel region may
  /// use. Thread-safe: the service arbiter re-grants budget to a running
  /// job from another thread; the change applies at the next region.
  void set_budget(usize threads);
  usize budget() const noexcept {
    return budget_.load(std::memory_order_relaxed);
  }

  /// Runs fn(i) for i in [0, num_chunks) across at most budget() threads
  /// (caller included), blocking until every chunk has completed. Chunks
  /// must write disjoint outputs; execution order is unspecified. With
  /// budget() <= 1 (or a single chunk) every chunk runs inline on the
  /// caller in index order. The first chunk exception is rethrown here
  /// after the region quiesces.
  void run_chunks(usize num_chunks, const std::function<void(usize)>& fn);

  /// Convenience: deterministic contiguous split of [begin, end) into
  /// `chunks` pieces (boundaries i*n/chunks — a function of the range and
  /// chunk count only), fn(lo, hi) per piece via run_chunks.
  void parallel_ranges(usize begin, usize end, usize chunks,
                       const std::function<void(usize, usize)>& fn);

 private:
  struct Region {
    const std::function<void(usize)>* fn = nullptr;
    usize num_chunks = 0;
    std::atomic<usize> next{0};
    usize slots = 0;   // helper participation permits left (guarded by mu_)
    usize active = 0;  // helpers currently inside the region (mu_)
    std::exception_ptr error;  // first chunk failure (mu_)
  };

  void helper_loop();
  void ensure_helpers_locked(usize want);
  /// Pulls chunks from `r` until exhausted; stores the first error in the
  /// region and fast-forwards the cursor so peers stop early.
  void work(Region& r);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // helpers: a region wants hands
  std::condition_variable done_cv_;  // caller: all helpers left the region
  std::vector<std::thread> helpers_;
  std::atomic<usize> budget_;
  Region* region_ = nullptr;  // open region accepting helpers (mu_)
  bool stop_ = false;
};

}  // namespace pdm
