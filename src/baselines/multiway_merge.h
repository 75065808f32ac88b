// External multiway mergesort with forecasting prefetch — the
// STXXL/Dementiev–Sanders-style baseline. Run formation (one pass), then
// merge levels of fan-in F; each level is one pass over the data but its
// parallel-I/O count depends on forecasting quality (see
// primitives/multiway.h). Not oblivious: the I/O schedule is data
// dependent, which is precisely the contrast with the paper's algorithms
// that bench_e12_parallelism quantifies.
#pragma once

#include "core/sort_report.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"

namespace pdm {

struct MultiwaySortOptions {
  u64 mem_records = 0;
  usize lookahead = 1;     // prefetched blocks per run (0 = naive)
  usize refill_batch = 0;  // 0 = D
  u64 fan_in = 0;          // 0 = maximum that fits in memory
};

/// Predicted pass count: 1 + ceil(log_F(N/M)) for fan-in F.
inline double multiway_predicted_passes(u64 n, u64 mem, u64 fan_in) {
  if (n <= mem) return 2.0;  // read + write
  double levels = 0;
  u64 runs = ceil_div(n, mem);
  while (runs > 1) {
    runs = ceil_div(runs, fan_in);
    levels += 1;
  }
  return 1.0 + levels;
}

template <Record R, class Cmp = std::less<R>>
SortResult<R> multiway_merge_sort(PdmContext& ctx,
                                  const StripedRun<R>& input,
                                  const MultiwaySortOptions& opt,
                                  Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  PDM_CHECK(mem % rpb == 0, "M must be a multiple of B");
  u64 fan = opt.fan_in;
  if (fan == 0) {
    const u64 slots = mem / rpb;
    PDM_CHECK(slots > ctx.D() + 2, "memory too small for merging");
    fan = std::max<u64>(2, (slots - ctx.D()) / (1 + opt.lookahead));
  }

  ReportBuilder rb(ctx, "MultiwayMerge", n, mem, rpb);

  RunFormationOptions fopt;
  fopt.run_len = mem;
  auto runs = form_runs_flat<R>(ctx, input, fopt, cmp);

  SortResult<R> result;
  u64 level = 0;
  while (true) {
    if (runs.size() == 1) {
      // Already one sorted run: it is the output (no extra pass).
      result.output = std::move(runs[0]);
      break;
    }
    std::vector<StripedRun<R>> next;
    const bool final_level = runs.size() <= fan;
    for (usize g = 0; g < runs.size(); g += fan) {
      const usize cnt = std::min<usize>(fan, runs.size() - g);
      std::span<const StripedRun<R>> group(runs.data() + g, cnt);
      StripedRun<R> merged(ctx, static_cast<u32>(g % ctx.D()));
      RunSink<R> sink(merged);
      MergePassOptions mopt;
      mopt.mem_records = mem;
      mopt.lookahead = opt.lookahead;
      mopt.refill_batch = opt.refill_batch;
      multiway_merge_pass<R>(ctx, group, sink, mopt, cmp);
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
    ++level;
    if (final_level) {
      PDM_ASSERT(runs.size() == 1, "final merge level left multiple runs");
      result.output = std::move(runs[0]);
      break;
    }
  }
  PDM_ASSERT(result.output.size() == n, "multiway record count mismatch");
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
