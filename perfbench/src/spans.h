// The benchmark's own tracer. Spans are recorded around the calls the
// benchmark makes into each layer's public functions (and, through
// TracedBackend, around every DiskBackend call), kept in memory, and
// written out when the run ends. Nothing here reaches into src/: the
// library's own phase tracer stays off unless a run measures its cost.
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  // static string: "core.sort", "pdm.backend.read"..
  u64 start_ns = 0;       // steady clock, relative to the log's epoch
  u64 end_ns = 0;
  i64 parent = -1;        // index of the enclosing span on the same thread
  u64 id = 0;             // sort repetition or job trace id
  u32 shard = 0;
  u64 bytes = 0;          // backend spans: bytes moved
  u64 tid = 0;            // recording thread (hash of std::thread::id)

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  u64 now_ns() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends a finished span; returns its index. Thread-safe.
  i64 add(Span s);

  /// RAII span on the calling thread: nests under the innermost open
  /// Scoped span of this thread (its parent), closes on destruction.
  class Scoped {
   public:
    Scoped(SpanLog& log, const char* name, u64 id);
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    double seconds() const;

   private:
    SpanLog& log_;
    i64 index_ = -1;
    const SpanLog* saved_log_;  // the thread's enclosing span, restored
    i64 saved_open_;            // on destruction
  };

  std::vector<Span> snapshot() const;

  /// Writes every span as one JSON array (the run's trace artifact).
  bool write_json(const std::string& path) const;

  /// Per span name: count, summed duration and summed self time (span
  /// minus the part of it covered by child spans).
  struct NameTotals {
    std::string name;
    u64 count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::vector<NameTotals> totals() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of the union of [start, end) intervals, in seconds.
double union_seconds(std::vector<std::pair<u64, u64>> intervals);

}  // namespace perfbench
