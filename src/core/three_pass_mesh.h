// ThreePass1 (paper §3.1): the mesh-based three-pass sort of N = M^{3/2}
// records viewed as an M x sqrt(M) mesh with B = sqrt(M).
//
//   pass 1: sort each sqrt(M) x sqrt(M) band row-major, consecutive bands
//           with rows in opposite directions (the shearsort pairing that
//           halves the dirty band); write bands as column-blocks with
//           diagonal striping so pass 2 can read full columns in parallel;
//   pass 2: sort every mesh column (M records) vertically, write back;
//   pass 3: row-major window cleanup over bands — after pass 2 at most
//           sqrt(M)/2 (+1) rows are dirty (<= M/2 + sqrt(M) records), well
//           within the window's chunk tolerance of M records.
//
// Correctness follows from the 0-1 principle: all steps are oblivious, and
// for 0-1 inputs the dirty band after pass 2 fits in one cleanup window.
// Oblivious: the I/O schedule depends only on (N, M, B, D).
#pragma once

#include "core/capacity.h"
#include "core/sort_report.h"
#include "pdm/block_matrix.h"
#include "primitives/cleanup.h"

namespace pdm {

struct ThreePassMeshOptions {
  u64 mem_records = 0;
};

template <Record R, class Cmp = std::less<R>>
SortResult<R> three_pass_mesh_sort(PdmContext& ctx,
                                   const StripedRun<R>& input,
                                   const ThreePassMeshOptions& opt,
                                   Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u64 s = isqrt(mem);
  const u64 n = input.size();
  PDM_CHECK(s * s == mem, "ThreePass1 requires M to be a perfect square");
  PDM_CHECK(rpb == s, "ThreePass1 requires B = sqrt(M)");
  PDM_CHECK(n == mem * s, "ThreePass1 sorts exactly M*sqrt(M) records");

  ReportBuilder rb(ctx, "ThreePass1(mesh)", n, mem, rpb);

  // The mesh: M rows x s columns; bands of s rows; the matrix stores one
  // block per (band, column) = a column segment of s records.
  BlockMatrix<R> mat(ctx, /*block_rows=*/s, /*block_cols=*/s);

  {  // Pass 1: band sort + transpose-to-column-blocks write.
    TrackedBuffer<R> load(ctx.budget(), static_cast<usize>(mem));
    TrackedBuffer<R> colmajor(ctx.budget(), static_cast<usize>(mem));
    TrackedBuffer<R> scratch = sort_scratch<R>(ctx, static_cast<usize>(mem));
    for (u64 band = 0; band < s; ++band) {
      input.read_blocks(band * s, s, load.data());
      internal_sort(load.span(), cmp, ctx.cpu_pool(), scratch.span());
      const bool reversed = (band % 2) == 1;
      // Sorted band, row-major; rows of odd bands run right-to-left.
      // Column block c = entries of column c for rows 0..s-1.
      for (u64 c = 0; c < s; ++c) {
        R* dst = colmajor.data() + c * s;
        const u64 col = reversed ? (s - 1 - c) : c;
        for (u64 r = 0; r < s; ++r) dst[r] = load[r * s + col];
      }
      mat.write_block_row(band, colmajor.data());
    }
  }

  {  // Pass 2: sort every mesh column.
    TrackedBuffer<R> col(ctx.budget(), static_cast<usize>(mem));
    TrackedBuffer<R> scratch = sort_scratch<R>(ctx, static_cast<usize>(mem));
    for (u64 c = 0; c < s; ++c) {
      mat.read_block_col(c, col.data());
      internal_sort(col.span(), cmp, ctx.cpu_pool(), scratch.span());
      mat.write_block_col(c, col.data());
    }
  }

  // Pass 3: row-major window cleanup, chunk = one band = M records.
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);
  RunSink<R> sink(result.output);
  MatrixBandSource<R> source(mat);
  CleanupOptions copt;
  copt.chunk_records = mem;
  copt.abort_on_violation = false;
  const CleanupOutcome oc = streamed_cleanup<R>(ctx, source, sink, copt, cmp);
  PDM_ASSERT(oc.ok, "mesh dirty band exceeded the cleanup window");
  PDM_ASSERT(oc.emitted == n, "record count mismatch in ThreePass1");

  result.report = rb.finish();
  return result;
}

}  // namespace pdm
