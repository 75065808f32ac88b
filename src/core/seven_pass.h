// SevenPass (paper §6.1, Theorem 6.2): sorts up to M^2 records in seven
// passes with B = sqrt(M), as an outer (l, m)-merge with l = m = sqrt(M)
// over sorted sequences of length M^{3/2} built by ThreePass2.
//
//   passes 1-3: per M^{3/2}-record segment, ThreePass2 — with the final
//               cleanup emitted through an UnshuffleSink, folding the
//               outer unshuffle (step 2) into step 1's write;
//   passes 4-6: sqrt(M) jobs, each an (l,m)-merge of the j-th parts;
//   pass 7:     shuffle + window cleanup (dirty <= l*m = M).
// Oblivious and deterministic.
#pragma once

#include "core/capacity.h"
#include "core/lmm_outer.h"
#include "core/sort_report.h"
#include "primitives/run_formation.h"

namespace pdm {

struct SevenPassOptions {
  u64 mem_records = 0;
};

template <Record R, class Cmp = std::less<R>>
SortResult<R> seven_pass_sort(PdmContext& ctx, const StripedRun<R>& input,
                              const SevenPassOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 s = isqrt(mem);
  const u64 n = input.size();
  const u64 seg_len = mem * s;  // M^{3/2}
  PDM_CHECK(s * s == mem, "SevenPass requires M to be a perfect square");
  PDM_CHECK(rpb == s, "SevenPass requires B = sqrt(M)");
  PDM_CHECK(n % seg_len == 0,
            "SevenPass requires N to be a multiple of M^{3/2}");
  PDM_CHECK(n <= cap_seven_pass(mem), "SevenPass capacity is M^2");
  const u64 segments = n / seg_len;

  ReportBuilder rb(ctx, "SevenPass", n, mem, rpb);

  // Stage 1 (3 passes): ThreePass2 per segment, output unshuffled into
  // s part-runs of M records each.
  FormedRuns<R> outer_parts(static_cast<usize>(segments));
  for (u64 i = 0; i < segments; ++i) {
    RunFormationOptions fopt;
    fopt.run_len = mem;
    fopt.unshuffle_parts = static_cast<u32>(mem / rpb);  // = s
    fopt.first_record = i * seg_len;
    fopt.num_records = seg_len;
    auto inner_parts = form_sorted_runs<R>(ctx, input, fopt, cmp);

    auto& parts_i = outer_parts[static_cast<usize>(i)];
    parts_i.reserve(static_cast<usize>(s));
    for (u64 j = 0; j < s; ++j) {
      parts_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
    }
    UnshuffleSink<R> usink(ctx,
                           std::span<StripedRun<R>>(parts_i.data(), s));
    LmmOptions lopt;
    lopt.mem_records = mem;
    const CleanupOutcome oc =
        lmm_merge_from_parts<R>(ctx, inner_parts, usink, lopt, cmp);
    PDM_ASSERT(oc.ok, "SevenPass stage-1 dirty bound violated");
  }

  // Stages 2 + 3 (3 + 1 passes).
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);
  RunSink<R> sink(result.output);
  const CleanupOutcome oc =
      lmm_outer_tail<R>(ctx, outer_parts, sink, mem, cmp);
  PDM_ASSERT(oc.ok, "SevenPass outer dirty bound violated");
  PDM_ASSERT(oc.emitted == n, "record count mismatch in SevenPass");

  result.report = rb.finish();
  return result;
}

}  // namespace pdm
