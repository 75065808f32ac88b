// LMM part layout: the part grid and the merged-sequence layout of the
// (l, m)-merge (LmmPartLayout in run_formation.h) may change how many
// backend requests (seeks) a sort issues, never its paper op or block
// counts. ThreePass2, SevenPass and the lmm_merge fallback of
// ExpectedTwoPass must reproduce, exactly, the read/write ops and blocks of
// the plain layout (part block b of run i, part j on disk (i + j + b) mod
// D; constants recorded from it) and sort byte-identically to std::sort.
//
// The shapes cover both grid exceptions: parts past the last whole
// u*D-part cycle (m mod (u*D) != 0), runs that do not fill the disks
// (l mod D != 0, on the grid when D | part blocks, on the plain layout
// otherwise).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/expected_two_pass.h"
#include "core/seven_pass.h"
#include "core/three_pass_lmm.h"
#include "pdm/memory_backend.h"
#include "primitives/run_formation.h"
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

struct LmmCase {
  const char* name;
  Geometry g;
  u64 n;
  OpCounts want[2];          // the plain layout's figures at depth 0, 4
  u64 plain_read_calls[2];   // its backend read requests
};

std::vector<u64> permutation(u64 n, u64 seed) {
  Rng rng(seed);
  return make_keys(static_cast<usize>(n), Dist::kPermutation, rng);
}

/// Sorts `data` with `sort` at async depth 0 and 4: both must sort
/// exactly, charge exactly the recorded op and block counts, and read in
/// no more backend requests than the plain layout.
template <class SortFn>
void expect_lmm_case(const LmmCase& c, const std::vector<u64>& data,
                     SortFn&& sort) {
  for (usize x : {0, 1}) {
    const usize depth = x == 0 ? 0 : 4;
    SCOPED_TRACE(testing::Message() << c.name << " async depth " << depth);
    auto ctx = test::make_ctx<u64>(c.g);
    ctx->set_async_depth(depth);
    auto in = test::stage_input<u64>(*ctx, data);
    const SortResult<u64> res = sort(*ctx, in);
    test::expect_sorted_output<u64>(res.output, data);
    const IoStats& io = res.report.io;
    EXPECT_EQ(io.read_ops, c.want[x].read_ops);
    EXPECT_EQ(io.write_ops, c.want[x].write_ops);
    EXPECT_EQ(io.blocks_read, c.want[x].blocks_read);
    EXPECT_EQ(io.blocks_written, c.want[x].blocks_written);
    EXPECT_LE(io.read_calls, c.plain_read_calls[x]);
  }
}

// ThreePass2: m = M/B parts of one block, u = floor(M / (l * B)).
//   cluster: M = 16384, B = 128, D = 4, l = 24: u = 5, m mod (u*D) = 8.
//   D3: M = 1024, B = 32, l = 12: u = 2, m mod (u*D) = 2.
//   D4-l13: l mod D = 1 with one-block parts: the plain layout.
const LmmCase kThreePass[] = {
    {"cluster", {16384, 128, 4}, 24 * 16384,
     {{2304, 2304, 9216, 9216}, {2304, 2304, 9216, 9216}}, {6244, 6244}},
    {"D3", {1024, 32, 3}, 12 * 1024,
     {{392, 392, 1152, 1152}, {392, 392, 1152, 1152}}, {804, 804}},
    {"D4-l13", {1024, 32, 4}, 13 * 1024,
     {{336, 336, 1248, 1248}, {336, 336, 1248, 1248}}, {884, 884}},
};

// SevenPass: M = 256, B = 16, two M^{3/2} segments; the inner merges have
// l = m = 16 (D = 4: u = 1 on the grid; D = 3: plain, 16 mod 3 != 0).
const LmmCase kSevenPass[] = {
    {"D4", {256, 16, 4}, 2 * 4096,
     {{896, 896, 3584, 3584}, {896, 896, 3584, 3584}}, {2304, 2304}},
    {"D3", {256, 16, 3}, 2 * 4096,
     {{1344, 1327, 3584, 3584}, {1344, 1327, 3584, 3584}}, {2211, 2211}},
};

// ExpectedTwoPass fallback on a rotated input (the cleanup fails, then
// lmm_merge runs over the l formed runs): M = 4096, B = 64, D = 4. With
// the pipeline on, the cleanup prefetches one chunk before it aborts.
//   l6: m = 8 parts of 8 blocks, l mod D = 2 but D | 8 (on the grid).
//   l16: m = 16 parts of 4 blocks, u = 1, 4 chunks' blocks per Q_j.
const LmmCase kFallback[] = {
    {"l6", {4096, 64, 4}, 6 * 4096,
     {{432, 399, 1716, 1596}, {448, 399, 1776, 1596}}, {484, 496}},
    {"l16", {4096, 64, 4}, 16 * 4096,
     {{1072, 1040, 4288, 4160}, {1088, 1040, 4352, 4160}}, {2420, 2436}},
};

TEST(LmmLayout, ThreePassKeepsOpCounts) {
  for (const LmmCase& c : kThreePass) {
    expect_lmm_case(c, permutation(c.n, 7),
                    [&](PdmContext& ctx, const StripedRun<u64>& in) {
                      ThreePassLmmOptions o;
                      o.mem_records = c.g.mem;
                      return three_pass_lmm_sort<u64>(ctx, in, o);
                    });
  }
}

TEST(LmmLayout, SevenPassKeepsOpCounts) {
  for (const LmmCase& c : kSevenPass) {
    expect_lmm_case(c, permutation(c.n, 8),
                    [&](PdmContext& ctx, const StripedRun<u64>& in) {
                      SevenPassOptions o;
                      o.mem_records = c.g.mem;
                      return seven_pass_sort<u64>(ctx, in, o);
                    });
  }
}

TEST(LmmLayout, ExpectedTwoPassFallbackKeepsOpCounts) {
  for (const LmmCase& c : kFallback) {
    const auto data =
        make_rotated(static_cast<usize>(c.n), static_cast<usize>(c.n / 2));
    expect_lmm_case(c, data, [&](PdmContext& ctx, const StripedRun<u64>& in) {
      ExpectedTwoPassOptions o;
      o.mem_records = c.g.mem;
      auto res = expected_two_pass_sort<u64>(ctx, in, o);
      EXPECT_TRUE(res.report.fallback_taken);
      return res;
    });
  }
}

TEST(LmmLayout, ClusterShapeSeeksLittle) {
  // The cluster_mix ThreePass2 job: 24 M records at M = 16384, B = 128,
  // D = 4 under the stream model. The plain layout makes 6,356 stream
  // misses staging and sorting it; the grid reads each run's piece of a
  // merge load, and each cleanup chunk's blocks, as one span per disk.
  const Geometry g{16384, 128, 4};
  const auto data = permutation(24 * g.mem, 7);
  auto ctx = test::make_ctx<u64>(g);
  auto& backend = static_cast<MemoryDiskBackend&>(ctx->backend());
  StreamModel sm;
  sm.seq_us = 10;
  sm.seek_us = 200;
  backend.set_stream_model(sm);
  auto in = test::stage_input<u64>(*ctx, data);
  ThreePassLmmOptions o;
  o.mem_records = g.mem;
  const auto res = three_pass_lmm_sort<u64>(*ctx, in, o);
  EXPECT_LE(backend.stream_misses(), 2100u);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(LmmLayout, GridPutsALoadsPartsOfARunOnOneDisk) {
  // The cluster shape: u = 5, 120 parts on the grid, 8 off it.
  const LmmPartLayout a =
      LmmPartLayout::for_merge(16384, 24, 128, 128, 128, 4);
  EXPECT_TRUE(a.balanced());
  EXPECT_EQ(a.unit, 5u);
  EXPECT_EQ(a.grid_parts, 120u);
  EXPECT_EQ(a.chunk_blocks, 1u);
  EXPECT_EQ(a.loads(), 26u);
  for (u64 i : {u64{0}, u64{7}}) {
    for (u64 j = 0; j < 128; ++j) {
      const u64 want = j < 120 ? (i + j / 5) % 4 : (i + j) % 4;
      EXPECT_EQ(a.part_start_disk(i, j), want) << "part " << i << "," << j;
    }
  }
  for (u64 j = 0; j < 128; ++j) {
    EXPECT_EQ(a.merged_start_disk(j), (j < 120 ? j / 5 : j) % 4) << j;
  }
  EXPECT_EQ(a.load_groups(3), (std::vector<u64>{15, 16, 17, 18, 19}));
  EXPECT_EQ(a.load_groups(25), (std::vector<u64>{125, 126, 127}));

  // l = 13 one-block parts on 4 disks: the plain layout, strided loads.
  const LmmPartLayout p = LmmPartLayout::for_merge(1024, 13, 32, 32, 32, 4);
  EXPECT_FALSE(p.balanced());
  EXPECT_EQ(p.grid_parts, 0u);
  EXPECT_EQ(p.part_start_disk(5, 9), (5u + 9u) % 4);
  EXPECT_EQ(p.load_groups(1), (std::vector<u64>{1, 17}));
}

TEST(LmmLayout, RunPartsAndMergedRunsAreContiguousPerDisk) {
  // D = 4, l = 4 runs of m = 8 parts of 2 blocks, M = 64 records (B = 4):
  // u = 2, k = 2; every part and Q_j is on the grid.
  const Geometry g{64, 4, 4};
  auto ctx = test::make_ctx<u64>(g);
  const LmmPartLayout a = LmmPartLayout::for_merge(64, 4, 8, 8, 4, 4);
  ASSERT_EQ(a.unit, 2u);
  ASSERT_EQ(a.grid_parts, 8u);
  ASSERT_EQ(a.chunk_blocks, 2u);
  std::vector<u64> blk(g.rpb, 1);
  // Each disk's blocks, taken in the placement order, are one extent.
  auto expect_contiguous = [&](const std::vector<BlockRef>& order) {
    std::vector<std::vector<u64>> per_disk(g.disks);
    for (const BlockRef& r : order) per_disk[r.disk].push_back(r.index);
    for (const auto& idx : per_disk) {
      for (usize x = 1; x < idx.size(); ++x) EXPECT_EQ(idx[x], idx[0] + x);
    }
  };
  auto parts = a.run_parts<u64>(*ctx, 1);
  std::vector<BlockRef> order;
  for (u64 j = 0; j < 8; ++j) {
    for (u64 b = 0; b < 2; ++b) {
      parts[j].stage_append_block(blk.data());
      const BlockRef r = parts[j].block_ref(b);
      EXPECT_EQ(r.disk, (1 + j / 2 + b) % 4) << "part " << j << " block " << b;
      order.push_back(r);
    }
    parts[j].finish();
  }
  expect_contiguous(order);

  auto q = a.merged_runs<u64>(*ctx);
  for (auto& qj : q) {
    for (u64 t = 0; t < a.merged_blocks(); ++t) qj.stage_append_block(blk.data());
    qj.finish();
  }
  order.clear();
  for (u64 t0 = 0; t0 < a.merged_blocks(); t0 += 2) {
    for (u64 j = 0; j < 8; ++j) {
      for (u64 t = t0; t < t0 + 2; ++t) {
        const BlockRef r = q[j].block_ref(t);
        EXPECT_EQ(r.disk, (j / 2 + t) % 4) << "Q " << j << " block " << t;
        order.push_back(r);
      }
    }
  }
  expect_contiguous(order);
}

TEST(LmmLayout, SingleBlockExtentsAllocateAsTheRunsGrow) {
  // extent_blocks <= 1: the layout's disks, the legacy allocation.
  const Geometry g{64, 4, 4};
  auto ctx = test::make_ctx<u64>(g);
  ctx->set_extent_blocks(1);
  const LmmPartLayout a = LmmPartLayout::for_merge(64, 4, 8, 8, 4, 4);
  auto parts = a.run_parts<u64>(*ctx, 2);
  std::vector<u64> blk(g.rpb, 1);
  for (u64 j = 0; j < 8; ++j) {
    EXPECT_EQ(parts[j].num_blocks(), 0u);
    parts[j].stage_append_block(blk.data());
    EXPECT_EQ(parts[j].block_ref(0).disk, (2 + j / 2) % 4);
  }
}

}  // namespace
}  // namespace pdm
