// Merge-run layout: the sorted runs a shuffle-cleanup reads k blocks at a
// time are striped in units of k blocks, so each chunk's piece of a run is
// one contiguous extent on one disk. The layout may change how many
// backend requests (seeks) a sort issues, never its paper op or block
// counts: the expected-pass sorters below must reproduce, exactly, the
// read/write ops and blocks of the block-round-robin layout (constants
// recorded from it), and sort byte-identically to std::sort.
//
// The shapes have k > 1 and l mod D != 0, so both op-count exceptions (the
// block-round-robin runs of a group and the block-round-robin trailing
// cycle of a run) are exercised.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/adaptive.h"
#include "core/expected_six_pass.h"
#include "core/expected_three_pass.h"
#include "core/expected_two_pass.h"
#include "pdm/memory_backend.h"
#include "primitives/run_formation.h"
#include "primitives/stream.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

using test::Geometry;

struct OpCounts {
  u64 read_ops;
  u64 write_ops;
  u64 blocks_read;
  u64 blocks_written;
};

struct LayoutCase {
  const char* name;
  Geometry g;
  u64 n;
  u64 segment_len;    // three/six-pass segment (0 for two-pass)
  OpCounts want;      // block-round-robin layout's figures
  u64 rr_read_calls;  // its backend read requests: the layout must beat it
};

std::vector<u64> permutation(u64 n, u64 seed) {
  Rng rng(seed);
  return make_keys(static_cast<usize>(n), Dist::kPermutation, rng);
}

/// Sorts `c` with `sort` at async depth 0 and 4: both must sort exactly,
/// charge exactly the recorded op and block counts, and read in fewer
/// backend requests than the block-round-robin layout.
template <class SortFn>
void expect_layout_case(const LayoutCase& c, SortFn&& sort) {
  const auto data = permutation(c.n, 7);
  for (usize depth : {usize{0}, usize{4}}) {
    SCOPED_TRACE(testing::Message() << c.name << " async depth " << depth);
    auto ctx = test::make_ctx<u64>(c.g);
    ctx->set_async_depth(depth);
    auto in = test::stage_input<u64>(*ctx, data);
    const SortResult<u64> res = sort(*ctx, in);
    EXPECT_FALSE(res.report.fallback_taken);
    test::expect_sorted_output<u64>(res.output, data);
    const IoStats& io = res.report.io;
    EXPECT_EQ(io.read_ops, c.want.read_ops);
    EXPECT_EQ(io.write_ops, c.want.write_ops);
    EXPECT_EQ(io.blocks_read, c.want.blocks_read);
    EXPECT_EQ(io.blocks_written, c.want.blocks_written);
    EXPECT_LT(io.read_calls, c.rr_read_calls);
  }
}

// Two-pass shapes: M = 4096, B = 64 (64 blocks per run), l runs.
//   D = 4, l = 13: k = 4, unit span 64 (whole run), 1 round-robin run.
//   D = 6, l = 10: k = 6, unit span 36, 4 round-robin runs.
//   D = 8, l = 11: k = 5, unit span 40, 3 round-robin runs.
const LayoutCase kTwoPass[] = {
    {"D4", {4096, 64, 4}, 13 * 4096, 0, {416, 416, 1664, 1664}, 884},
    {"D6", {4096, 64, 6}, 10 * 4096, 0, {218, 217, 1280, 1280}, 700},
    {"D8", {4096, 64, 8}, 11 * 4096, 0, {178, 178, 1408, 1408}, 792},
};

// Three- and six-pass shapes: M = 1024, B = 32 (32 blocks per run), r runs
// per segment, so k = floor(32 / r).
//   D = 4, r = 7: k = 4, unit span 32, 3 round-robin runs per segment.
//   D = 6, r = 8: k = 4, unit span 24, 2 round-robin runs per segment.
//   D = 8, r = 10: k = 3, unit span 24, 2 round-robin runs per segment.
const LayoutCase kThreePass[] = {
    {"D4", {1024, 32, 4}, 3 * 7 * 1024, 7 * 1024,
     {515, 515, 2016, 2016}, 1036},
    {"D6", {1024, 32, 6}, 3 * 8 * 1024, 8 * 1024,
     {441, 413, 2304, 2304}, 1384},
    {"D8", {1024, 32, 8}, 3 * 10 * 1024, 10 * 1024,
     {409, 377, 2880, 2880}, 1968},
};
const LayoutCase kSixPass[] = {
    {"D4", {1024, 32, 4}, 2 * 7 * 1024, 7 * 1024,
     {720, 720, 2688, 2688}, 1592},
    {"D6", {1024, 32, 6}, 2 * 8 * 1024, 8 * 1024,
     {640, 607, 3072, 3072}, 2080},
    {"D8", {1024, 32, 8}, 2 * 10 * 1024, 10 * 1024,
     {598, 560, 3840, 3840}, 2720},
};

TEST(MergeRunLayout, ExpectedTwoPassKeepsOpCounts) {
  for (const LayoutCase& c : kTwoPass) {
    expect_layout_case(c, [&](PdmContext& ctx, const StripedRun<u64>& in) {
      ExpectedTwoPassOptions o;
      o.mem_records = c.g.mem;
      return expected_two_pass_sort<u64>(ctx, in, o);
    });
  }
}

TEST(MergeRunLayout, ExpectedThreePassKeepsOpCounts) {
  for (const LayoutCase& c : kThreePass) {
    expect_layout_case(c, [&](PdmContext& ctx, const StripedRun<u64>& in) {
      ExpectedThreePassOptions o;
      o.mem_records = c.g.mem;
      o.segment_len = c.segment_len;
      return expected_three_pass_sort<u64>(ctx, in, o);
    });
  }
}

TEST(MergeRunLayout, ExpectedSixPassKeepsOpCounts) {
  for (const LayoutCase& c : kSixPass) {
    expect_layout_case(c, [&](PdmContext& ctx, const StripedRun<u64>& in) {
      ExpectedSixPassOptions o;
      o.mem_records = c.g.mem;
      o.segment_len = c.segment_len;
      return expected_six_pass_sort<u64>(ctx, in, o);
    });
  }
}

TEST(MergeRunLayout, UnitStripesTheSpanAndKeepsTheTailRoundRobin) {
  // D = 4, unit 3, 30 blocks: span 24 (two full unit cycles), tail 6.
  const Geometry g{256, 16, 4};
  auto ctx = test::make_ctx<u64>(g);
  StripedRun<u64> run(*ctx, 1);
  run.set_stripe_unit(3, 30);
  EXPECT_EQ(run.unit_span_blocks(), 24u);
  std::vector<u64> data(30 * g.rpb);
  for (usize i = 0; i < data.size(); ++i) data[i] = i;
  run.append(std::span<const u64>(data));
  run.finish();
  for (u64 b = 0; b < 30; ++b) {
    const u64 want = b < 24 ? (1 + b / 3) % 4 : (1 + b) % 4;
    EXPECT_EQ(run.block_ref(b).disk, want) << "block " << b;
  }
  // A copy keeps the layout; the data reads back in order.
  const StripedRun<u64> copy = run;
  EXPECT_EQ(copy.stripe_unit(), 3u);
  EXPECT_EQ(copy.unit_span_blocks(), 24u);
  EXPECT_EQ(copy.read_all(), data);

  // Each whole unit reaches the backend as one request on its disk.
  std::vector<u64> buf(3 * g.rpb);
  for (u64 t = 0; t < 8; ++t) {
    const IoStats before = ctx->stats();
    run.read_blocks(t * 3, 3, buf.data());
    const IoStats d = delta(ctx->stats(), before);
    EXPECT_EQ(d.read_calls, 1u) << "unit " << t;
    EXPECT_EQ(d.disk_read_calls[(1 + t) % 4], 1u) << "unit " << t;
    EXPECT_TRUE(std::equal(buf.begin(), buf.end(),
                           data.begin() + static_cast<i64>(t * 3 * g.rpb)));
  }
}

TEST(MergeRunLayout, UnitGoesToTheFullDiskGroupsOfEachCleanupGroup) {
  const MergeRunLayout layout = MergeRunLayout::for_cleanup(4096, 11, 64);
  EXPECT_EQ(layout.unit, 5u);  // floor(4096 / (11 * 64))
  // D = 4: the first 8 runs of each 11-run group get the unit.
  for (u64 i = 0; i < 22; ++i) {
    EXPECT_EQ(layout.unit_of(i, 4), i % 11 < 8 ? 5u : 1u) << "run " << i;
  }
  EXPECT_EQ(MergeRunLayout{}.unit_of(3, 4), 1u);
}

TEST(MergeRunLayout, ShuffleChunkReadsEachUnitRunAsOneRequest) {
  // D = 4, l = 4 runs of 64 blocks, k = 16: every run is in the unit
  // layout over its whole length, so each chunk issues one request per run.
  const Geometry g{4096, 64, 4};
  auto ctx = test::make_ctx<u64>(g);
  const auto data = permutation(4 * g.mem, 3);
  auto in = test::stage_input<u64>(*ctx, data);
  RunFormationOptions f;
  f.run_len = g.mem;
  f.layout = MergeRunLayout::for_cleanup(g.mem, 4, g.rpb);
  const auto runs = form_runs_flat<u64>(*ctx, in, f);
  ShuffleChunkSource<u64> source(
      *ctx, std::span<const StripedRun<u64>>(runs.data(), runs.size()),
      g.mem);
  std::vector<u64> chunk(g.mem);
  for (int t = 0; t < 4; ++t) {
    const IoStats before = ctx->stats();
    ASSERT_EQ(source.next_chunk(chunk.data(), chunk.size()), g.mem);
    const IoStats d = delta(ctx->stats(), before);
    EXPECT_EQ(d.read_calls, 4u) << "chunk " << t;
    EXPECT_EQ(d.read_ops, 16u) << "chunk " << t;  // 64 blocks over 4 disks
  }
}

TEST(MergeRunLayout, TwoPassCleanupIssuesAboutOneRequestPerRunPerDisk) {
  // D = 4, l = 13, k = 4, unit span = the whole run: 16 chunks, all inside
  // the span. Per disk and chunk the cleanup reads 3 unit runs (one request
  // each) and one block of the round-robin run: 4 requests, against 13
  // with one block per disk per run. Bound: ceil(l/D) + (l mod D) = 5.
  const Geometry g{4096, 64, 4};
  const u64 l = 13;
  const auto data = permutation(l * g.mem, 5);
  StreamModel sm;
  sm.seq_us = 1;
  sm.seek_us = 2;

  // Pass-1 read calls alone: run formation over the same staged input.
  std::vector<u64> pass1(g.disks);
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RunFormationOptions f;
    f.run_len = g.mem;
    form_runs_flat<u64>(*ctx, in, f);
    pass1 = ctx->stats().disk_read_calls;
  }
  auto ctx = test::make_ctx<u64>(g);
  static_cast<MemoryDiskBackend&>(ctx->backend()).set_stream_model(sm);
  auto in = test::stage_input<u64>(*ctx, data);
  ExpectedTwoPassOptions o;
  o.mem_records = g.mem;
  const auto res = expected_two_pass_sort<u64>(*ctx, in, o);
  ASSERT_FALSE(res.report.fallback_taken);
  const u64 chunks = (g.mem / g.rpb) / (g.mem / (l * g.rpb));
  ASSERT_EQ(chunks, 16u);
  for (u32 d = 0; d < g.disks; ++d) {
    const u64 pass2 = res.report.io.disk_read_calls[d] - pass1[d];
    const double per_chunk = static_cast<double>(pass2) / chunks;
    EXPECT_LE(per_chunk, 5.0) << "disk " << d;
    EXPECT_GE(per_chunk, 3.0) << "disk " << d;
  }
}

TEST(WriteBehind, StagingSlabIsNotChargedToTheNextSort) {
  // Staging 16 M records through the write-behind ring leaves a 16 M-record
  // slab behind; the sort that follows must report its own working set.
  const Geometry g = Geometry::square(4096);
  auto ctx = test::make_ctx<u64>(g);
  ctx->set_async_depth(4);
  const auto data = permutation(16 * g.mem, 9);
  auto in = write_input_run<u64>(*ctx, std::span<const u64>(data));
  ctx->aio().drain();
  AdaptiveOptions o;
  o.mem_records = g.mem;
  const auto res = pdm_sort<u64>(*ctx, in, o);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_LT(res.report.peak_memory_bytes, 8 * g.mem * sizeof(u64));
}

}  // namespace
}  // namespace pdm
