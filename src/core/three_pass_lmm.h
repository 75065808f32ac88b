// ThreePass2 (paper §4, Lemma 4.1): LMM sort specialized to B = sqrt(M),
// N <= M^{3/2}, running in exactly three passes:
//   pass 1: form N/M sorted runs of length M, written unshuffled into
//           m = M/B parts of one block each (folds LMM's unshuffle into
//           the run-formation write);
//   pass 2: merge the j-th parts of all runs — each group is exactly M
//           records, so every merge happens fully in memory;
//   pass 3: shuffle the merged sequences and window-clean (dirty length
//           <= l*m <= M).
// Oblivious: the I/O schedule depends only on (N, M, B, D).
#pragma once

#include "core/capacity.h"
#include "core/sort_report.h"
#include "primitives/lmm_merge.h"

namespace pdm {

struct ThreePassLmmOptions {
  u64 mem_records = 0;
};

template <Record R, class Cmp = std::less<R>>
SortResult<R> three_pass_lmm_sort(PdmContext& ctx, const StripedRun<R>& input,
                                  const ThreePassLmmOptions& opt,
                                  Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  PDM_CHECK(mem > 0 && mem % rpb == 0, "M must be a multiple of B");
  PDM_CHECK(n % mem == 0, "ThreePass2 requires N to be a multiple of M");
  PDM_CHECK(n <= cap_three_pass(mem, rpb),
            "ThreePass2 capacity is M*min(B, M/B) records");

  ReportBuilder rb(ctx, "ThreePass2(LMM)", n, mem, rpb);

  // Pass 1 (+ folded unshuffle): m = M/B parts of exactly one block each.
  RunFormationOptions fopt;
  fopt.run_len = mem;
  fopt.unshuffle_parts = static_cast<u32>(mem / rpb);
  auto parts = form_sorted_runs<R>(ctx, input, fopt, cmp);

  // Passes 2 + 3.
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);
  RunSink<R> sink(result.output);
  LmmOptions lopt;
  lopt.mem_records = mem;
  const CleanupOutcome oc = lmm_merge_from_parts<R>(ctx, parts, sink, lopt, cmp);
  PDM_ASSERT(oc.ok, "deterministic LMM dirty bound violated");
  PDM_ASSERT(oc.emitted == n, "record count mismatch in ThreePass2");

  result.report = rb.finish();
  return result;
}

}  // namespace pdm
