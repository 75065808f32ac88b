// ExpectedTwoPass (paper §5, Theorem 5.1) and the §3.2 mesh variant
// (Theorem 3.2) — one engine:
//   pass 1: form sorted runs of length q (q = M for §5; q = N/sqrt(M) for
//           the mesh reading, where the runs are the mesh columns);
//   pass 2: shuffle the runs and window-clean with chunk M, checking on
//           the fly that each emitted window's minimum is >= the previous
//           window's maximum.
// By the shuffling lemma (Lemma 4.2) every record of the shuffled sequence
// is within (N/sqrt(q))*sqrt((a+2) ln N + 1) + N/q of its sorted position
// with probability >= 1 - N^-a; when N is within cap_expected_two_pass the
// displacement bound is below M and pass 2 succeeds. Otherwise the on-line
// check fires and the sorter falls back to a deterministic 3-pass
// (l,m)-merge of the runs it already formed (the paper re-sorts with
// Lemma 4.1 from scratch — same +3 passes; set resort_from_scratch for the
// literal behaviour).
#pragma once

#include "core/capacity.h"
#include "core/sort_report.h"
#include "core/three_pass_lmm.h"
#include "primitives/cleanup.h"
#include "primitives/lmm_merge.h"
#include "primitives/run_formation.h"
#include "util/logging.h"

namespace pdm {

struct ExpectedTwoPassOptions {
  u64 mem_records = 0;
  double alpha = 1.0;          // failure probability target M^-alpha
  u64 run_len = 0;             // 0 => M (§5); mesh variant: N/sqrt(M)
  bool resort_from_scratch = false;  // paper-literal fallback
  bool enforce_capacity = false;     // refuse N beyond the w.h.p. bound
};

template <Record R, class Cmp = std::less<R>>
SortResult<R> expected_two_pass_sort(PdmContext& ctx,
                                     const StripedRun<R>& input,
                                     const ExpectedTwoPassOptions& opt,
                                     Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 n = input.size();
  const u64 run_len = opt.run_len == 0 ? mem : opt.run_len;
  PDM_CHECK(mem % rpb == 0, "M must be a multiple of B");
  PDM_CHECK(run_len % rpb == 0 && run_len <= mem,
            "run length must be block-aligned and <= M");
  PDM_CHECK(n % run_len == 0,
            "ExpectedTwoPass requires N to be a multiple of the run length");
  const u64 l = n / run_len;
  PDM_CHECK(l * rpb <= mem,
            "too many runs: the cleanup pass reads one block per run");
  if (opt.enforce_capacity) {
    PDM_CHECK(n <= cap_expected_two_pass(mem, opt.alpha),
              "N exceeds the Theorem 5.1 capacity");
  }

  ReportBuilder rb(ctx, "ExpectedTwoPass", n, mem, rpb);

  // Pass 1, in the merge-run layout of the pass-2 cleanup: each chunk's
  // read of a run is one extent on one disk (see striped_run.h).
  RunFormationOptions fopt;
  fopt.run_len = run_len;
  fopt.layout = MergeRunLayout::for_cleanup(mem, l, rpb);
  auto runs = form_runs_flat<R>(ctx, input, fopt, cmp);

  // Pass 2: shuffle + window cleanup with on-line verification.
  SortResult<R> result;
  {
    StripedRun<R> attempt(ctx, 0);
    RunSink<R> sink(attempt);
    const u64 chunk = round_down(mem, l * rpb);
    ShuffleChunkSource<R> source(
        ctx, std::span<const StripedRun<R>>(runs.data(), runs.size()), chunk);
    CleanupOptions copt;
    copt.chunk_records = chunk;
    copt.abort_on_violation = true;
    const CleanupOutcome oc = streamed_cleanup<R>(ctx, source, sink, copt, cmp);
    if (oc.ok) {
      PDM_ASSERT(oc.emitted == n, "record count mismatch in ExpectedTwoPass");
      result.output = std::move(attempt);
      result.report = rb.finish();
      return result;
    }
  }

  // Fallback: +3 deterministic passes.
  rb.set_fallback();
  PDM_LOG(LogLevel::kInfo,
          "ExpectedTwoPass: displacement bound violated, taking the "
          "3-pass fallback");
  result.output = StripedRun<R>(ctx, 0);
  if (opt.resort_from_scratch) {
    ThreePassLmmOptions topt;
    topt.mem_records = mem;
    auto res = three_pass_lmm_sort<R>(ctx, input, topt, cmp);
    result.output = std::move(res.output);
  } else {
    RunSink<R> sink(result.output);
    LmmOptions lopt;
    lopt.mem_records = mem;
    const CleanupOutcome oc = lmm_merge<R>(
        ctx, std::span<const StripedRun<R>>(runs.data(), runs.size()), sink,
        lopt, cmp);
    PDM_ASSERT(oc.ok, "fallback lmm_merge violated its dirty bound");
    PDM_ASSERT(oc.emitted == n, "record count mismatch in fallback");
  }
  result.report = rb.finish();
  result.report.fallback_taken = true;
  return result;
}

/// Theorem 3.2 front door: the mesh formulation with N/sqrt(M) columns of
/// q = N/sqrt(M) records each (must divide evenly). Same engine as §5.
template <Record R, class Cmp = std::less<R>>
SortResult<R> expected_two_pass_mesh_sort(PdmContext& ctx,
                                          const StripedRun<R>& input,
                                          ExpectedTwoPassOptions opt,
                                          Cmp cmp = {}) {
  const u64 s = isqrt(opt.mem_records);
  PDM_CHECK(s * s == opt.mem_records, "mesh variant needs square M");
  PDM_CHECK(input.size() % s == 0, "N must be a multiple of sqrt(M)");
  opt.run_len = input.size() / s;  // the mesh column length
  auto res = expected_two_pass_sort<R>(ctx, input, opt, cmp);
  res.report.algorithm = "ExpThreePass1(mesh,2-pass)";
  return res;
}

}  // namespace pdm
