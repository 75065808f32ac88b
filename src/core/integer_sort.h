// IntegerSort (paper §7, Theorem 7.1): single-digit distribution sort for
// keys in [0, R) with R <= M/B buckets.
//
// Each phase reads M records, partitions them by value in memory, and
// writes every bucket's blocks in as few parallel write steps as possible.
// The final block of each bucket per phase is partial (zero padded); those
// pads are the (mu < 1) extra write fraction of Theorem 7.1. The optional
// placement pass (step A) rereads the buckets and writes the records
// contiguously — doubling the cost to 2(1+mu) passes, as the paper states.
//
// Extension (benched as an ablation in E8): "staged" mode keeps each
// bucket's partial block in memory across phases, eliminating nearly all
// pad blocks at the price of one extra M of staging memory.
#pragma once

#include <vector>

#include "core/sort_report.h"
#include "internal/radix_partition.h"
#include "pdm/ragged_run.h"
#include "primitives/stream.h"

namespace pdm {

/// Bucket block placement policy. kRotation keeps each bucket's blocks on
/// consecutive disks (sequential reads of one bucket hit all disks — the
/// striping of [23]); kBalancedBatch balances every phase's write batch
/// perfectly instead, at the price of scattered reads. bench_e8 ablates
/// the two; rotation wins overall because every distribution round's
/// output is reread by the next round.
enum class BucketPlacement { kRotation, kBalancedBatch };

template <Record R>
struct DistributeOutcome {
  std::vector<RaggedRun<R>> buckets;
  u64 data_blocks = 0;  // ceil-free count of blocks that carry data
  u64 pad_records = 0;  // padding written (the mu overhead, in records)
  u64 phases = 0;
};

/// One distribution pass: reads the input (a StripedRun or a RaggedRun)
/// in M-record phases and appends each record to bucket digit_fn(record)
/// (must be < num_buckets). All of a phase's blocks are written in one
/// batched parallel operation.
template <Record R, class Run, class DigitFn>
DistributeOutcome<R> distribute_pass(
    PdmContext& ctx, const Run& in, u32 num_buckets, u64 mem_records,
    bool staged, DigitFn digit_fn,
    BucketPlacement placement = BucketPlacement::kRotation) {
  const usize rpb = ctx.rpb<R>();
  PDM_CHECK(num_buckets > 0 && static_cast<u64>(num_buckets) * rpb <=
                                    mem_records,
            "bucket staging exceeds M (need R <= M/B)");
  const u64 load_sz =
      staged ? std::max<u64>(rpb, round_down(mem_records / 2, rpb))
             : round_down(mem_records, rpb);
  trace::TraceSpan trace_span("pass", "distribute_pass", "buckets",
                              num_buckets);

  DistributeOutcome<R> out;
  out.buckets.reserve(num_buckets);
  for (u32 i = 0; i < num_buckets; ++i) {
    out.buckets.emplace_back(ctx, i % ctx.D());
  }

  // Prefetch ring: two slabs with the async pipeline on, so the next
  // phase's load streams in while this one partitions and scatters, and
  // one slab off. Each slab takes whole blocks; the per-block valid counts
  // squeeze out a ragged input's padding once the read has landed.
  ReadAheadRing<R> ring(ctx.aio(), ctx.budget(), static_cast<usize>(load_sz),
                        ctx.aio().enabled() ? 2 : 1);
  // Only used by kBalancedBatch: rotates across each phase's whole batch.
  u64 disk_cursor = 0;
  TrackedBuffer<R> grouped(ctx.budget(), static_cast<usize>(load_sz));
  // Per-bucket one-block staging: pad assembly (paper mode) or carry-over
  // (staged mode).
  TrackedBuffer<R> staging(ctx.budget(),
                           static_cast<usize>(num_buckets) * rpb);
  std::vector<usize> staged_cnt(num_buckets, 0);
  // Staged mode: records at the end of each bucket's group still to be
  // carried once the phase's batch is out (see flush_phase).
  std::vector<usize> tail_cnt(num_buckets, 0);
  std::vector<u64> counts(num_buckets);
  std::vector<u64> bounds(num_buckets + 1);
  // After every buffer an in-flight read could target.
  PipelineDrainGuard drain_guard(ctx.aio());

  auto stage = [&](RaggedRun<R>& bucket, const R* buf, usize count) {
    if (placement == BucketPlacement::kBalancedBatch) {
      return bucket.stage_block_on(static_cast<u32>(disk_cursor++), buf,
                                   count);
    }
    return bucket.stage_block(buf, count);
  };

  auto flush_phase = [&](std::span<const R> recs) {
    ctx.check_cancelled();
    // Group in memory: the stable counting partition runs across the
    // kernel budget when granted (>= 2), byte-identically to the serial
    // count + cursor scatter it replaces. The write batch below is built
    // from `grouped`/`counts` alone, so its request order is untouched.
    partition_stable(recs, grouped.span(), num_buckets, digit_fn,
                     ctx.cpu_pool(), std::span<u64>(counts));
    bounds[0] = 0;
    for (u32 i = 0; i < num_buckets; ++i) bounds[i + 1] = bounds[i] + counts[i];
    // Emit: one batched parallel write for the whole phase.
    std::vector<WriteReq> reqs;
    for (u32 i = 0; i < num_buckets; ++i) {
      const R* g = grouped.data() + bounds[i];
      u64 cnt = counts[i];
      R* carry = staging.data() + static_cast<usize>(i) * rpb;
      if (staged) {
        // Top up the carried partial block first.
        if (staged_cnt[i] > 0) {
          const usize take =
              std::min<u64>(rpb - staged_cnt[i], cnt);
          std::copy(g, g + take, carry + staged_cnt[i]);
          staged_cnt[i] += take;
          g += take;
          cnt -= take;
          if (staged_cnt[i] == rpb) {
            reqs.push_back(stage(out.buckets[i], carry, rpb));
            ++out.data_blocks;
            staged_cnt[i] = 0;
          } else {
            continue;  // still partial; nothing else to write
          }
        }
        const u64 full = cnt / rpb;
        for (u64 b = 0; b < full; ++b) {
          reqs.push_back(stage(out.buckets[i], g + b * rpb, rpb));
          ++out.data_blocks;
        }
        // The rest is carried only after the write batch is submitted:
        // `carry` may hold the block just completed above, still in reqs.
        tail_cnt[i] = static_cast<usize>(cnt - full * rpb);
      } else {
        // Paper mode: ceil(cnt/B) blocks, last one zero padded.
        const u64 full = cnt / rpb;
        for (u64 b = 0; b < full; ++b) {
          reqs.push_back(stage(out.buckets[i], g + b * rpb, rpb));
          ++out.data_blocks;
        }
        const u64 rest = cnt - full * rpb;
        if (rest > 0) {
          std::copy(g + full * rpb, g + cnt, carry);
          std::fill(carry + rest, carry + rpb, R{});
          reqs.push_back(
              stage(out.buckets[i], carry, static_cast<usize>(rest)));
          ++out.data_blocks;
          out.pad_records += rpb - rest;
        }
      }
    }
    ctx.write_batch(reqs);
    for (u32 i = 0; i < num_buckets; ++i) {
      if (tail_cnt[i] == 0) continue;
      const R* end = grouped.data() + bounds[i + 1];
      std::copy(end - tail_cnt[i], end,
                staging.data() + static_cast<usize>(i) * rpb);
      staged_cnt[i] = tail_cnt[i];
      tail_cnt[i] = 0;
    }
    ++out.phases;
  };

  const u64 load_blocks = load_sz / rpb;
  const u64 in_blocks = in.num_blocks();
  u64 issued = 0;  // input blocks submitted to the ring
  while (issued < in_blocks || !ring.empty()) {
    while (issued < in_blocks && !ring.full()) {
      const u64 nb = std::min(load_blocks, in_blocks - issued);
      std::vector<usize> valid;
      auto reqs = block_range_reqs(in, issued, nb, ring.stage(), valid);
      ring.push(reqs, std::move(valid));
      issued += nb;
    }
    const auto slab = ring.front();
    flush_phase(std::span<const R>(
        slab.data, compact_blocks(slab.data, rpb, *slab.valid)));
    ring.pop();
  }

  if (staged) {
    // Final flush of the carried partial blocks (zero padded).
    std::vector<WriteReq> reqs;
    for (u32 i = 0; i < num_buckets; ++i) {
      if (staged_cnt[i] == 0) continue;
      R* carry = staging.data() + static_cast<usize>(i) * rpb;
      std::fill(carry + staged_cnt[i], carry + rpb, R{});
      reqs.push_back(stage(out.buckets[i], carry, staged_cnt[i]));
      ++out.data_blocks;
      out.pad_records += rpb - staged_cnt[i];
      staged_cnt[i] = 0;
    }
    ctx.write_batch(reqs);
  }
  return out;
}

/// Appends `src`'s records to `out`, reading as many whole blocks at a
/// time as `buf` holds.
template <Record R>
void append_compacted(const RaggedRun<R>& src, StripedRun<R>& out,
                      std::span<R> buf) {
  const u64 step = buf.size() / src.rpb();
  for (u64 b = 0; b < src.num_blocks(); b += step) {
    const usize got = read_compacted(
        src, b, std::min(step, src.num_blocks() - b), buf.data());
    out.append(std::span<const R>(buf.data(), got));
  }
}

struct IntegerSortOptions {
  u64 mem_records = 0;
  u64 range = 0;            // keys are in [0, range); range <= M/B
  bool placement_pass = true;  // paper's step A
  bool staged = false;         // extension: carry partial blocks in memory
  BucketPlacement placement = BucketPlacement::kRotation;
};

template <Record R>
struct IntegerSortResult {
  StripedRun<R> output;                 // only if placement_pass
  std::vector<RaggedRun<R>> buckets;    // the per-value runs
  SortReport report;
  u64 pad_records = 0;
};

/// Theorem 7.1. Records must have keys (via KeyTraits) in [0, range).
template <Record R>
IntegerSortResult<R> integer_sort(PdmContext& ctx, const StripedRun<R>& input,
                                  const IntegerSortOptions& opt) {
  const usize rpb = ctx.rpb<R>();
  const u64 mem = opt.mem_records;
  PDM_CHECK(opt.range > 0 && opt.range * rpb <= mem,
            "IntegerSort needs range <= M/B");
  ReportBuilder rb(ctx, "IntegerSort", input.size(), mem, rpb);

  IntegerSortResult<R> result;
  auto dist = distribute_pass<R>(
      ctx, input, static_cast<u32>(opt.range), mem, opt.staged,
      [range = opt.range](const R& r) {
        const u64 k = record_key(r);
        PDM_CHECK(k < range, "key out of declared range");
        return static_cast<usize>(k);
      },
      opt.placement);
  result.pad_records = dist.pad_records;

  if (opt.placement_pass) {
    // Step A: reread the buckets in order, write contiguously.
    result.output = StripedRun<R>(ctx, 0);
    TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(round_down(mem, rpb)));
    for (auto& bucket : dist.buckets) {
      append_compacted(bucket, result.output, buf.span());
    }
    result.output.finish();
    PDM_ASSERT(result.output.size() == input.size(),
               "IntegerSort record count mismatch");
  }
  result.buckets = std::move(dist.buckets);
  result.report = rb.finish();
  return result;
}

}  // namespace pdm
