// Decorator transparency: the same small sort with and without
// TracedBackend in front of the real backend must produce the same
// records, the same IoStats op/block/call counts and the same schedule
// hash, so the per-layer figures the decorator yields describe the
// program the timed runs measure.
#include <iostream>

#include "core/adaptive.h"
#include "pdm/memory_backend.h"
#include "traced_backend.h"
#include "util/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdm;

struct Outcome {
  std::vector<u64> records;
  IoStats io;
  std::string algorithm;
};

Outcome sort_once(const std::vector<u64>& data, bool probe, usize cpu_budget,
                  SpanLog* log) {
  constexpr u64 kMem = 4096;
  std::unique_ptr<DiskBackend> backend =
      std::make_unique<MemoryDiskBackend>(4, 64 * sizeof(u64));
  if (log != nullptr) {
    backend = std::make_unique<TracedBackend>(
        std::shared_ptr<DiskBackend>(std::move(backend)), *log);
  }
  PdmContext ctx(std::move(backend));
  ctx.set_async_depth(4);
  ctx.set_cpu_budget(cpu_budget);
  auto in = write_input_run<u64>(ctx, std::span<const u64>(data));
  AdaptiveOptions o;
  o.mem_records = kMem;
  o.probe = probe;
  auto res = pdm_sort<u64>(ctx, in, o);
  return {res.output.read_all(), res.report.io, res.report.algorithm};
}

bool same(const char* what, const Outcome& a, const Outcome& b) {
  const bool ok = a.records == b.records && a.algorithm == b.algorithm &&
                  a.io.read_ops == b.io.read_ops &&
                  a.io.write_ops == b.io.write_ops &&
                  a.io.blocks_read == b.io.blocks_read &&
                  a.io.blocks_written == b.io.blocks_written &&
                  a.io.read_calls == b.io.read_calls &&
                  a.io.write_calls == b.io.write_calls &&
                  a.io.schedule_hash == b.io.schedule_hash;
  if (!ok) {
    std::cerr << "perfbench self-test: decorator changed " << what << ": "
              << a.algorithm << " ops " << a.io.total_ops() << " calls "
              << a.io.total_calls() << " hash " << a.io.schedule_hash
              << " vs " << b.algorithm << " ops " << b.io.total_ops()
              << " calls " << b.io.total_calls() << " hash "
              << b.io.schedule_hash << "\n";
  }
  return ok;
}

}  // namespace

bool decorator_selftest(SpanLog& log) {
  Rng rng(7);
  const auto uniform = make_keys(16 * 4096, Dist::kPermutation, rng);
  const auto near = make_keys(16 * 4096, Dist::kNearSortedDisplaced, rng);
  const usize before = log.snapshot().size();
  const bool ok =
      same("a random-permutation sort",
           sort_once(uniform, false, 1, nullptr),
           sort_once(uniform, false, 1, &log)) &&
      same("a probed near-sorted sort", sort_once(near, true, 2, nullptr),
           sort_once(near, true, 2, &log));
  if (ok && log.snapshot().size() == before) {
    std::cerr << "perfbench self-test: the decorator recorded no spans\n";
    return false;
  }
  return ok;
}

}  // namespace perfbench
