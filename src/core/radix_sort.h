// RadixSort (paper §7, Theorem 7.2): forward (MSB-first) radix sort using
// IntegerSort's distribution pass on log2(M/B)-bit digits.
//
// Each round refines every oversized bucket by its next digit; once a
// bucket fits in memory it is read, sorted internally and appended to the
// output (the paper's step A, folded into the recursion as the leaf case).
// For random keys each round shrinks buckets by ~M/B, giving the
// (1+nu) * log(N/M)/log(M/B) + 1 pass bound; Observation 7.2's example
// (N = M^2, B = sqrt(M), C = 4) lands at <= 3.6 passes, which
// bench_e9_radix_sort reproduces.
#pragma once

#include "core/integer_sort.h"
#include "core/sort_report.h"
#include "internal/insort.h"

namespace pdm {

struct RadixSortOptions {
  u64 mem_records = 0;
  u32 key_bits = 64;    // significant key bits (keys < 2^key_bits)
  u32 digit_bits = 0;   // 0 = floor(log2(M/B))
  bool staged = false;  // use the staged distribution (extension)
  BucketPlacement placement = BucketPlacement::kRotation;
  usize async_depth = 0;  // >= 2: async I/O pipeline depth; 0 = inherit
};

namespace detail {

template <Record R>
struct RadixState {
  PdmContext* ctx;
  u64 mem;
  u32 digit_bits;
  bool staged;
  BucketPlacement placement;
  StripedRun<R>* out;
  TrackedBuffer<R>* leaf_buf;
  TrackedBuffer<R>* scratch_buf;  // parallel leaf-sort scratch; empty when
                                  // the kernel budget is 1 (serial path)
  TrackedBuffer<R>* io_buf;  // block-granular staging: a ragged bucket of
                             // <= M records can span far more than M/B
                             // blocks, so reads land here and only the
                             // valid records are appended to leaf_buf
  u64 rounds = 0;         // distribution rounds executed (for reporting)
  u64 max_depth = 0;
};

template <Record R>
void radix_recurse(RadixState<R>& st, RecordReader<R>& reader, u32 shift,
                   u64 depth) {
  st.max_depth = std::max(st.max_depth, depth);
  const u32 w = st.digit_bits;
  auto digit = [shift, w](const R& r) {
    return static_cast<usize>((record_key(r) >> shift) &
                              ((u64{1} << w) - 1));
  };
  auto dist = distribute_pass<R>(*st.ctx, reader, u32{1} << w, st.mem,
                                 st.staged, digit, st.placement);
  ++st.rounds;

  // Leaf handling batches *groups* of consecutive small buckets: their key
  // ranges are disjoint and ordered, so reading several together (one
  // batched parallel read over all their segments), sorting the union once
  // and appending once preserves the output order while keeping both the
  // reads and the writes at full disk parallelism — per-bucket handling of
  // tiny buckets would degenerate to 1-2 block I/Os.
  const usize rpb = st.ctx->template rpb<R>();
  const usize io_blocks = st.io_buf->size() / rpb;
  usize group_n = 0;        // records already compacted into leaf_buf
  usize pending_valid = 0;  // records covered by pending read reqs
  std::vector<ReadReq> reqs;
  std::vector<u32> valids;

  auto read_pending = [&] {
    if (reqs.empty()) return;
    trace::TraceSpan trace_span("pass", "radix_leaf_read", "reqs",
                                reqs.size());
    st.ctx->io().read(reqs);
    for (usize i = 0; i < valids.size(); ++i) {
      std::copy(st.io_buf->data() + i * rpb,
                st.io_buf->data() + i * rpb + valids[i],
                st.leaf_buf->data() + group_n);
      group_n += valids[i];
    }
    reqs.clear();
    valids.clear();
    pending_valid = 0;
  };
  auto flush_group = [&] {
    read_pending();
    if (group_n == 0) return;
    trace::TraceSpan trace_span("pass", "radix_leaf_sort", "records",
                                group_n);
    std::span<R> recs(st.leaf_buf->data(), group_n);
    internal_sort(recs, KeyLess{}, st.ctx->cpu_pool(),
                  st.scratch_buf->span());
    st.out->append(std::span<const R>(recs.data(), recs.size()));
    group_n = 0;
  };

  for (auto& bucket : dist.buckets) {
    if (bucket.size() == 0) continue;
    if (bucket.size() <= st.mem) {
      if (group_n + pending_valid + bucket.size() > st.leaf_buf->size()) {
        flush_group();
      }
      for (u64 s = 0; s < bucket.num_segments(); ++s) {
        if (valids.size() == io_blocks) read_pending();
        const auto& seg = bucket.segment(s);
        reqs.push_back(ReadReq{
            seg.where, reinterpret_cast<std::byte*>(
                           st.io_buf->data() + valids.size() * rpb)});
        valids.push_back(seg.count);
        pending_valid += seg.count;
      }
    } else if (shift == 0) {
      // All remaining key bits equal: any order of the bucket is sorted
      // by key; stream-copy it out.
      flush_group();
      trace::TraceSpan trace_span("pass", "radix_stream_copy", "records",
                                  bucket.size());
      RaggedRunReader<R> br(bucket);
      while (!br.exhausted()) {
        const usize got = br.read_up_to(st.io_buf->data(), st.io_buf->size());
        if (got == 0) break;
        st.out->append(std::span<const R>(st.io_buf->data(), got));
      }
    } else {
      flush_group();
      RaggedRunReader<R> br(bucket);
      const u32 next_shift = shift >= w ? shift - w : 0;
      radix_recurse(st, br, next_shift, depth + 1);
    }
  }
  flush_group();
}

}  // namespace detail

template <Record R>
SortResult<R> radix_sort(PdmContext& ctx, const StripedRun<R>& input,
                         const RadixSortOptions& opt) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  const u32 w = opt.digit_bits != 0
                    ? opt.digit_bits
                    : std::max<u32>(1, ilog2(mem / rpb));
  PDM_CHECK((u64{1} << w) * rpb <= mem, "digit width exceeds M/B buckets");

  std::optional<AsyncDepthScope> async_scope;
  if (opt.async_depth != 0) async_scope.emplace(ctx.aio(), opt.async_depth);
  ReportBuilder rb(ctx, "RadixSort", input.size(), mem, rpb);
  SortResult<R> result;
  result.output = StripedRun<R>(ctx, 0);

  if (input.size() <= mem) {
    // Fits in memory: one read + one write pass.
    TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(mem));
    TrackedBuffer<R> scratch = sort_scratch<R>(ctx, buf.size());
    StripedRunReader<R> reader(input);
    usize n = 0;
    while (!reader.exhausted()) {
      n += reader.read_up_to(buf.data() + n, buf.size() - n);
    }
    std::span<R> recs(buf.data(), n);
    internal_sort(recs, KeyLess{}, ctx.cpu_pool(), scratch.span());
    result.output.append(std::span<const R>(recs.data(), n));
    result.output.finish();
    result.report = rb.finish();
    return result;
  }

  TrackedBuffer<R> leaf_buf(ctx.budget(), static_cast<usize>(mem));
  TrackedBuffer<R> leaf_scratch = sort_scratch<R>(ctx, leaf_buf.size());
  TrackedBuffer<R> io_buf(ctx.budget(), static_cast<usize>(mem));
  detail::RadixState<R> st{&ctx,
                           mem,
                           w,
                           opt.staged,
                           opt.placement,
                           &result.output,
                           &leaf_buf,
                           &leaf_scratch,
                           &io_buf};
  const u32 kb = std::max<u32>(opt.key_bits, 1);
  const u32 top_shift = kb <= w ? 0 : ((kb - 1) / w) * w;
  StripedRunReader<R> reader(input);
  detail::radix_recurse<R>(st, reader, top_shift, 1);
  result.output.finish();
  PDM_ASSERT(result.output.size() == input.size(),
             "RadixSort record count mismatch");
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
