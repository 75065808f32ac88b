// In-memory sorting kernels.
//
// The PDM model charges nothing for local computation, but the wall-clock
// benches still want a fast internal sort. internal_sort sorts serially
// for small inputs and runs a chunked parallel mergesort (scratch-based
// ping-pong) when the CPU budget allows and scratch space is supplied.
// The serial sort — the whole input, or one chunk of the parallel path —
// is the in-place radix kernel (internal/radix_sort_inplace.h) for
// key-identical records and std::sort for everything else. Every sorter
// reaches it the same way: sort_scratch(ctx, n) once per buffer, then
// internal_sort(span, cmp, ctx.cpu_pool(), scratch.span()) per load.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "internal/radix_sort_inplace.h"
#include "pdm/pdm_context.h"
#include "util/common.h"
#include "util/cpu_pool.h"
#include "util/trace.h"

namespace pdm {

/// The serial in-place sort under internal_sort: the radix kernel when
/// R is KeyIdentical under Cmp (std::less or KeyLess on a padding-free
/// record of at most 8 bytes), std::sort otherwise.
template <class R, class Cmp>
void sort_serial(std::span<R> data, Cmp cmp) {
  if constexpr (KeyIdentical<R, Cmp>) {
    radix_sort_inplace(data);
  } else {
    std::sort(data.begin(), data.end(), cmp);
  }
}

namespace detail {

/// How many of the first k records std::merge(a, a + na, b, b + nb)
/// writes come from a: the smallest i with i == na, i == k or
/// b[k - i - 1] < a[i]. Merging a[0, i) with b[0, k - i) then writes
/// exactly the merge's first k records, so a merge split at such points
/// writes the same bytes as the whole merge.
template <class R, class Cmp>
usize merge_split(const R* a, usize na, const R* b, usize nb, usize k,
                  Cmp& cmp) {
  usize lo = k > nb ? k - nb : 0;
  usize hi = std::min(k, na);
  while (lo < hi) {
    const usize i = lo + (hi - lo) / 2;
    if (cmp(b[k - i - 1], a[i])) {
      hi = i;
    } else {
      lo = i + 1;
    }
  }
  return lo;
}

}  // namespace detail

/// Sorts `data` under `pool`'s CPU budget: a chunked parallel mergesort
/// that ping-pongs through `scratch` when the budget is >= 2, the input is
/// large and `scratch.size() >= data.size()`; sort_serial in place
/// otherwise.
///
/// Determinism: the chunk tree is a function of n ONLY — never of the
/// budget — so every budget >= 2 sorts the same chunks and merges the same
/// pairs, producing identical bytes regardless of how many threads pull
/// chunks. Budget < 2 (or a small input, or missing scratch) takes
/// sort_serial on the whole input. The two paths agree byte-for-byte
/// whenever elements that compare equal are indistinguishable (true for
/// the repo's key-only record types). For KeyIdentical records this holds
/// by construction, and the radix kernel in place of std::sort changes no
/// byte either: a multiset of such records has exactly one sorted order.
template <class R, class Cmp = std::less<R>>
void internal_sort(std::span<R> data, Cmp cmp, CpuPool& pool,
                   std::span<R> scratch) {
  constexpr usize kParallelThreshold = 1u << 14;
  const usize n = data.size();
  if (pool.budget() < 2 || scratch.size() < n || n < kParallelThreshold) {
    sort_serial(data, cmp);
    return;
  }
  PDM_TRACE_SPAN_ARG("kernel", "insort_parallel", "records", n);
  // ~8K records per chunk, capped: enough slack that 4 threads stay busy
  // without making the merge tree deep.
  const usize chunks = std::clamp<usize>(n >> 13, usize{2}, usize{16});
  std::vector<usize> bounds(chunks + 1);
  for (usize c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  pool.run_chunks(chunks, [&](usize c) {
    sort_serial(data.subspan(bounds[c], bounds[c + 1] - bounds[c]), cmp);
  });

  // Pairwise merge rounds, ping-ponging between data and scratch. An odd
  // tail segment merges against an empty range (b == c), i.e. a copy, so
  // every round moves all n records into dst. Each merge is cut into
  // pieces of at most one chunk's worth of output (split points from
  // detail::merge_split), so the last rounds' few long merges still
  // spread over the budget; the pieces write the bytes the whole merge
  // would.
  struct Piece {
    usize a, b, c;  // merge src[a, b) with src[b, c) into dst[a, c)
    usize lo, hi;   // this piece writes dst[lo, hi)
  };
  const usize piece_len = bounds[1];
  std::vector<Piece> pieces;
  R* src = data.data();
  R* dst = scratch.data();
  while (bounds.size() > 2) {
    const usize last = bounds.size() - 1;
    const usize pairs = last / 2 + last % 2;
    pieces.clear();
    for (usize p = 0; p < pairs; ++p) {
      const usize a = bounds[2 * p];
      const usize b = bounds[std::min(last, 2 * p + 1)];
      const usize c = bounds[std::min(last, 2 * p + 2)];
      for (usize lo = a; lo < c; lo += piece_len) {
        pieces.push_back(Piece{a, b, c, lo, std::min(c, lo + piece_len)});
      }
    }
    pool.run_chunks(pieces.size(), [&](usize t) {
      const Piece& q = pieces[t];
      const R* x = src + q.a;
      const R* y = src + q.b;
      const usize nx = q.b - q.a;
      const usize ny = q.c - q.b;
      const usize i0 = detail::merge_split(x, nx, y, ny, q.lo - q.a, cmp);
      const usize i1 = detail::merge_split(x, nx, y, ny, q.hi - q.a, cmp);
      std::merge(x + i0, x + i1, y + (q.lo - q.a - i0), y + (q.hi - q.a - i1),
                 dst + q.lo, cmp);
    });
    std::vector<usize> next_bounds;
    next_bounds.push_back(0);
    for (usize p = 0; p < pairs; ++p) {
      next_bounds.push_back(bounds[std::min(last, 2 * p + 2)]);
    }
    bounds = std::move(next_bounds);
    std::swap(src, dst);
  }
  if (src != data.data()) {
    std::copy(src, src + n, data.data());
  }
}

/// Scratch for internal_sort of up to `n` records under ctx's CPU budget.
/// Acquired (and charged to the memory budget) only when the budget is
/// >= 2, so a serial sort's footprint is unchanged; an empty buffer makes
/// internal_sort take the serial path.
template <class R>
TrackedBuffer<R> sort_scratch(PdmContext& ctx, usize n) {
  if (ctx.cpu_budget() < 2) return {};
  return TrackedBuffer<R>(ctx.budget(), n);
}

}  // namespace pdm
