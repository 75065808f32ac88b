// Order-adaptive external sort: replacement-selection (or up/down) run
// formation followed by forecasting multiway merge levels over the
// variable-length runs. On random input this behaves like the multiway
// baseline with half the runs (expected run length 2M, Bender et al.);
// on nearly-sorted input run formation emits a single run and the sort
// finishes in one pass — strictly fewer than any fixed-run plan.
//
// The planner cannot know the run count without looking at the data, so
// this header also provides the cheap presortedness probe: O(M) sampled
// comparisons at lag M estimate the replacement-selection run count
// (adjacent-pair descents would be wrong — they miss displacement
// magnitude entirely; a k-displaced permutation with k = M/2 looks almost
// random to adjacent pairs yet collapses to one run). The estimate feeds
// plan_options/choose_plan as the est_runs key.
#pragma once

#include <cmath>
#include <functional>
#include <span>

#include "core/sort_report.h"
#include "primitives/multiway.h"
#include "primitives/run_formation.h"

namespace pdm {

struct PresortednessProbe {
  u64 est_runs = 1;     // predicted replacement-selection run count
  double inv_frac = 0;  // fraction of sampled lag-M pairs out of order
  u64 samples = 0;
};

inline u64 probe_runs_estimate(double inv_frac, u64 n, u64 mem) {
  const u64 chunks = ceil_div(std::max<u64>(n, 1), std::max<u64>(mem, 1));
  const auto est = static_cast<u64>(std::llround(inv_frac * static_cast<double>(chunks)));
  return std::max<u64>(1, est);
}

/// In-memory probe over a record span (free when the payload is still in
/// memory, e.g. service ingest): samples up to `mem` evenly spaced pairs
/// at lag `mem` and counts inversions. A pair (i, i+M) inverted means the
/// displacement there exceeds the heap's absorption range, i.e. a run
/// boundary per memory-load of such pairs — so est_runs ≈ inv_frac * N/M,
/// which is N/2M on random input (each pair inverts with probability 1/2),
/// matching replacement selection's expected run count.
template <class R, class Cmp = std::less<R>>
PresortednessProbe probe_presortedness(std::span<const R> data, u64 mem,
                                       Cmp cmp = {}) {
  PresortednessProbe p;
  const u64 n = data.size();
  if (n == 0 || mem == 0 || n <= mem) return p;  // fits the heap: one run
  const u64 lag = mem;
  const u64 span = n - lag;  // valid pair starts
  const u64 want = std::min<u64>(span, mem);
  u64 inv = 0;
  for (u64 i = 0; i < want; ++i) {
    const u64 pos = static_cast<u64>(static_cast<double>(i) *
                                     static_cast<double>(span) /
                                     static_cast<double>(want));
    if (cmp(data[pos + lag], data[pos])) ++inv;
  }
  p.samples = want;
  p.inv_frac = static_cast<double>(inv) / static_cast<double>(want);
  p.est_runs = probe_runs_estimate(p.inv_frac, n, mem);
  return p;
}

/// On-disk probe: same estimator at block granularity — compares the last
/// record of block b against the first record of block b + M/B (record
/// distance within one record of M). Reads at most M records in one
/// batched parallel operation, charged to IoStats like any other read.
template <Record R, class Cmp = std::less<R>>
PresortednessProbe probe_presortedness(PdmContext& ctx,
                                       const StripedRun<R>& input, u64 mem,
                                       Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  PDM_CHECK(mem > 0 && mem % rpb == 0, "M must be a multiple of B");
  PresortednessProbe p;
  const u64 n = input.size();
  if (n == 0 || n <= mem) return p;
  const u64 lag_blocks = mem / rpb;
  const u64 nb = input.num_blocks();
  if (nb <= lag_blocks) return p;
  const u64 span = nb - lag_blocks;  // valid pair starts (block index)
  const u64 want = std::min<u64>(span, std::max<u64>(1, mem / (2 * rpb)));
  TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(2 * want) * rpb);
  std::vector<ReadReq> reqs;
  reqs.reserve(static_cast<usize>(2 * want));
  std::vector<u64> lows(static_cast<usize>(want));
  for (u64 i = 0; i < want; ++i) {
    const u64 b = static_cast<u64>(static_cast<double>(i) *
                                   static_cast<double>(span) /
                                   static_cast<double>(want));
    lows[static_cast<usize>(i)] = b;
    reqs.push_back(input.read_req(b, buf.data() + (2 * i) * rpb));
    reqs.push_back(
        input.read_req(b + lag_blocks, buf.data() + (2 * i + 1) * rpb));
  }
  ctx.aio().wait(ctx.aio().read_async(reqs));
  u64 inv = 0;
  for (u64 i = 0; i < want; ++i) {
    const u64 b = lows[static_cast<usize>(i)];
    const R& low_last =
        buf.data()[(2 * i) * rpb + input.records_in_block(b) - 1];
    const R& high_first = buf.data()[(2 * i + 1) * rpb];
    if (cmp(high_first, low_last)) ++inv;
  }
  p.samples = want;
  p.inv_frac = static_cast<double>(inv) / static_cast<double>(want);
  p.est_runs = probe_runs_estimate(p.inv_frac, n, mem);
  return p;
}

struct OrderAdaptiveOptions {
  u64 mem_records = 0;
  RunFormationMode mode = RunFormationMode::kReplacementSelection;
  usize lookahead = 1;     // forecasting prefetch per run (0 = naive)
  usize refill_batch = 0;  // 0 = D
  u64 fan_in = 0;          // 0 = maximum that fits in memory
};

/// Merge fan-in at the given shape (same memory split as the multiway
/// baseline: one active + `lookahead` forecast blocks per run, D blocks of
/// write headroom).
inline u64 order_adaptive_fan_in(u64 mem, u64 rpb, u32 disks,
                                 usize lookahead = 1) {
  const u64 slots = mem / rpb;
  PDM_CHECK(slots > disks + 2, "memory too small for merging");
  return std::max<u64>(2, (slots - disks) / (1 + lookahead));
}

/// Predicted pass count from a run-count estimate: 1 formation pass plus
/// one per merge level. est_runs == 1 means the formation pass IS the
/// sort.
inline double order_adaptive_predicted_passes(u64 est_runs, u64 fan_in) {
  double levels = 0;
  u64 runs = std::max<u64>(est_runs, 1);
  while (runs > 1) {
    runs = ceil_div(runs, std::max<u64>(fan_in, 2));
    levels += 1;
  }
  return 1.0 + levels;
}

template <Record R, class Cmp = std::less<R>>
SortResult<R> order_adaptive_sort(PdmContext& ctx, const StripedRun<R>& input,
                                  const OrderAdaptiveOptions& opt,
                                  Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  PDM_CHECK(mem % rpb == 0, "M must be a multiple of B");
  PDM_CHECK(opt.mode != RunFormationMode::kFixed,
            "use multiway_merge_sort for fixed runs");
  const u64 fan = opt.fan_in != 0
                      ? opt.fan_in
                      : order_adaptive_fan_in(mem, rpb, ctx.D(), opt.lookahead);

  ReportBuilder rb(ctx, "OrderAdaptive", n, mem, rpb);

  RunFormationOptions fopt;
  fopt.run_len = mem;
  fopt.mode = opt.mode;
  auto runs = form_runs_flat<R>(ctx, input, fopt, cmp);

  // Merge levels over the variable-length runs: multiway_merge_pass
  // already honors per-run sizes and partial final blocks, so nothing
  // about the level loop cares that runs are no longer uniform.
  SortResult<R> result;
  while (true) {
    if (runs.size() == 1) {
      result.output = std::move(runs[0]);
      break;
    }
    std::vector<StripedRun<R>> next;
    for (usize g = 0; g < runs.size(); g += fan) {
      const usize cnt = std::min<usize>(static_cast<usize>(fan),
                                        runs.size() - g);
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
  }
  PDM_ASSERT(result.output.size() == n, "order-adaptive record count mismatch");
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
