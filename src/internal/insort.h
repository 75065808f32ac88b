// In-memory sorting kernels.
//
// The PDM model charges nothing for local computation, but the wall-clock
// benches still want a fast internal sort: internal_sort uses std::sort for
// small inputs and a chunked parallel mergesort (scratch-based ping-pong)
// when the CPU budget allows and scratch space is supplied. Every sorter
// reaches it the same way: sort_scratch(ctx, n) once per buffer, then
// internal_sort(span, cmp, ctx.cpu_pool(), scratch.span()) per load.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "pdm/pdm_context.h"
#include "util/common.h"
#include "util/cpu_pool.h"
#include "util/trace.h"

namespace pdm {

/// Sorts `data` under `pool`'s CPU budget: a chunked parallel mergesort
/// that ping-pongs through `scratch` when the budget is >= 2, the input is
/// large and `scratch.size() >= data.size()`; std::sort in place otherwise.
///
/// Determinism: the chunk tree is a function of n ONLY — never of the
/// budget — so every budget >= 2 sorts the same chunks and merges the same
/// pairs, producing identical bytes regardless of how many threads pull
/// chunks. Budget < 2 (or a small input, or missing scratch) takes plain
/// std::sort — the exact legacy serial path. The two paths agree
/// byte-for-byte whenever elements that compare equal are indistinguishable
/// (true for the repo's key-only record types).
template <class R, class Cmp = std::less<R>>
void internal_sort(std::span<R> data, Cmp cmp, CpuPool& pool,
                   std::span<R> scratch) {
  constexpr usize kParallelThreshold = 1u << 14;
  const usize n = data.size();
  if (pool.budget() < 2 || scratch.size() < n || n < kParallelThreshold) {
    std::sort(data.begin(), data.end(), cmp);
    return;
  }
  PDM_TRACE_SPAN_ARG("kernel", "insort_parallel", "records", n);
  // ~8K records per chunk, capped: enough slack that 4 threads stay busy
  // without making the merge tree deep.
  const usize chunks = std::clamp<usize>(n >> 13, usize{2}, usize{16});
  std::vector<usize> bounds(chunks + 1);
  for (usize c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;

  pool.run_chunks(chunks, [&](usize c) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
              data.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]), cmp);
  });

  // Pairwise merge rounds, ping-ponging between data and scratch. An odd
  // tail segment merges against an empty range (b == c), i.e. a copy, so
  // every round moves all n records into dst.
  R* src = data.data();
  R* dst = scratch.data();
  while (bounds.size() > 2) {
    const usize last = bounds.size() - 1;
    const usize pairs = last / 2 + last % 2;
    pool.run_chunks(pairs, [&](usize p) {
      const usize a = bounds[2 * p];
      const usize b = bounds[std::min(last, 2 * p + 1)];
      const usize c = bounds[std::min(last, 2 * p + 2)];
      std::merge(src + a, src + b, src + b, src + c, dst + a, cmp);
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
/// internal_sort take the std::sort path.
template <class R>
TrackedBuffer<R> sort_scratch(PdmContext& ctx, usize n) {
  if (ctx.cpu_budget() < 2) return {};
  return TrackedBuffer<R>(ctx.budget(), n);
}

}  // namespace pdm
