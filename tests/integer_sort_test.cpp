// Tests for §7: IntegerSort (Theorem 7.1) and RadixSort (Theorem 7.2),
// including the pass bounds, the staged-mode ablation, skewed keys, the
// compacting block reads and the pinned I/O schedules of both sorts.
#include <gtest/gtest.h>

#include "core/integer_sort.h"
#include "core/radix_sort.h"
#include "test_support.h"

namespace pdm {
namespace {

using test::Geometry;

TEST(CompactingRead, StreamsStripedAndRaggedRuns) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(1);
  auto data = make_keys(1000, Dist::kUniform, rng);  // partial final block
  auto in = test::stage_input<u64>(*ctx, data);
  std::vector<u64> got;
  std::vector<u64> buf(256);
  const u64 step = buf.size() / in.rpb();
  for (u64 b = 0; b < in.num_blocks(); b += step) {
    const usize n = read_compacted(
        in, b, std::min(step, in.num_blocks() - b), buf.data());
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, data);

  // A padded ragged bucket, read two blocks at a time: the padding of
  // every block is squeezed out, whichever slot it lands in.
  RaggedRun<u64> bucket(*ctx, 1);
  std::vector<std::vector<u64>> blocks;
  std::vector<u64> want;
  std::vector<WriteReq> reqs;
  for (usize count : {3, 16, 1, 16, 7}) {
    std::vector<u64>& blk = blocks.emplace_back(16, 0);
    for (usize i = 0; i < count; ++i) {
      blk[i] = want.size() + 1;
      want.push_back(blk[i]);
    }
    reqs.push_back(bucket.stage_block(blk.data(), count));
  }
  ctx->io().write(reqs);
  ASSERT_EQ(bucket.num_blocks(), 5u);
  ASSERT_EQ(bucket.size(), want.size());
  got.clear();
  for (u64 b = 0; b < bucket.num_blocks(); b += 2) {
    const usize n = read_compacted(
        bucket, b, std::min<u64>(2, bucket.num_blocks() - b), buf.data());
    got.insert(got.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(bucket.read_all(), want);
}

TEST(IntegerSort, SortsUniformKeys) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(2);
  auto data = make_int_keys(4096, 16, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  auto res = integer_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(IntegerSort, BucketsHoldExactlyTheirValue) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(3);
  auto data = make_int_keys(2048, 16, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  opt.placement_pass = false;
  auto res = integer_sort<u64>(*ctx, in, opt);
  ASSERT_EQ(res.buckets.size(), 16u);
  u64 total = 0;
  for (usize v = 0; v < 16; ++v) {
    auto recs = res.buckets[v].read_all();
    total += recs.size();
    for (u64 r : recs) EXPECT_EQ(r, v);
  }
  EXPECT_EQ(total, data.size());
}

TEST(IntegerSort, WithoutPlacementIsAboutOnePassPlusMu) {
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(4);
  auto data = make_int_keys(32768, 32, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 1024;
  opt.range = 32;
  opt.placement_pass = false;
  auto res = integer_sort<u64>(*ctx, in, opt);
  // Theorem 7.1: (1+mu) passes, mu < 1.
  EXPECT_GE(res.report.passes, 1.0);
  EXPECT_LT(res.report.passes, 2.0);
}

TEST(IntegerSort, StagedModeCutsPadding) {
  const auto g = Geometry::square(1024);
  Rng rng(5);
  auto data = make_int_keys(32768, 32, rng);
  u64 pad_paper, pad_staged;
  double passes_paper, passes_staged;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    IntegerSortOptions opt;
    opt.mem_records = 1024;
    opt.range = 32;
    auto res = integer_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    pad_paper = res.pad_records;
    passes_paper = res.report.passes;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    IntegerSortOptions opt;
    opt.mem_records = 1024;
    opt.range = 32;
    opt.staged = true;
    auto res = integer_sort<u64>(*ctx, in, opt);
    test::expect_sorted_output<u64>(res.output, data);
    pad_staged = res.pad_records;
    passes_staged = res.report.passes;
  }
  EXPECT_LT(pad_staged, pad_paper / 4);
  EXPECT_LE(passes_staged, passes_paper + 0.01);
}

TEST(IntegerSort, StagedKeepsPayloads) {
  // A bucket's carried partial block must reach disk before the next
  // leftover records are carried: with bare keys every record of a bucket
  // is equal, so only payloads show a carry block that was overwritten.
  const auto g = Geometry::square(1024);
  auto ctx = make_memory_context(g.disks, g.rpb * sizeof(KV64));
  Rng rng(13);
  std::vector<KV64> data(16 * 1024 + 100);
  for (usize i = 0; i < data.size(); ++i) {
    data[i] = KV64{rng.below(32), static_cast<u64>(i)};
  }
  auto in = test::stage_input<KV64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = g.mem;
  opt.range = 32;
  opt.staged = true;
  auto res = integer_sort<KV64>(*ctx, in, opt);
  test::expect_key_sorted_permutation<KV64>(res.output, data);
}

TEST(IntegerSort, SkewedKeysStillSortWithBoundedOverhead) {
  // Theorem 7.1's bucket-balance analysis assumes uniform keys. With
  // striped ragged buckets the scheduler still interleaves buckets across
  // disks, so zipf skew does not blow up the pass count — it stays within
  // the same (1 + mu), mu < 1 envelope. (Skew can even *reduce* padding:
  // fat buckets emit more full blocks.)
  const auto g = Geometry::square(1024);
  Rng rng(6);
  auto skewed = make_skewed_int_keys(16384, 32, rng);
  auto ctx = test::make_ctx<u64>(g);
  auto in = test::stage_input<u64>(*ctx, skewed);
  IntegerSortOptions opt;
  opt.mem_records = 1024;
  opt.range = 32;
  auto res = integer_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, skewed);
  EXPECT_GE(res.report.write_passes, 2.0);  // distribute + placement
  EXPECT_LT(res.report.write_passes, 4.0);  // 2(1 + mu), mu < 1
}

TEST(IntegerSort, RejectsRangeOverMOverB) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(256, 0);
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 17;  // > M/B = 16
  EXPECT_THROW(integer_sort<u64>(*ctx, in, opt), Error);
}

TEST(IntegerSort, RejectsOutOfRangeKey) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(256, 0);
  data[100] = 99;  // >= range
  auto in = test::stage_input<u64>(*ctx, data);
  IntegerSortOptions opt;
  opt.mem_records = 256;
  opt.range = 16;
  EXPECT_THROW(integer_sort<u64>(*ctx, in, opt), Error);
}

class RadixSortRange : public ::testing::TestWithParam<u32> {};

TEST_P(RadixSortRange, SortsKeysOfAnyWidth) {
  const u32 key_bits = GetParam();
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(key_bits);
  const u64 range = key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits);
  std::vector<u64> data(8192);
  for (auto& x : data) x = key_bits >= 64 ? rng.next() : rng.below(range);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = key_bits;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

INSTANTIATE_TEST_SUITE_P(Widths, RadixSortRange,
                         ::testing::Values(1, 4, 8, 16, 32, 48, 64));

TEST(RadixSort, SmallInputSingleLoad) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(9);
  auto data = make_int_keys(200, 1000, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 10;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_LE(res.report.passes, 2.2);  // read + write
}

TEST(RadixSort, SingleLoadWithMNotAMultipleOfB) {
  // M = 1000 with B = 32: the input's 32 blocks (the last one partial)
  // need more than M records of block space.
  const auto g = Geometry::square(1024);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(14);
  auto data = make_int_keys(1000, 1000, rng);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 1000;
  opt.key_bits = 10;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(RadixSort, Observation72PassBudget) {
  // N = M^2, B = sqrt(M), keys in [0, M^2): Observation 7.2 promises
  // <= 3.6 passes for C = 4. The paper's write-step analysis counts one
  // phase's padding but not its compounding: every MSD round rereads the
  // previous round's padded blocks (~1.5x volume per level), so the
  // honestly-measured figure is ~5.9 passes in paper mode and ~5.3 with
  // the staged extension (EXPERIMENTS.md E9 discusses the gap). Constant
  // number of passes for any N — the theorem's substance — holds.
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  auto ctx = test::make_ctx<u64>(g);
  Rng rng(10);
  const u64 n = mem * mem;  // 1M records
  std::vector<u64> data(static_cast<usize>(n));
  for (auto& x : data) x = rng.below(n);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = mem;
  opt.key_bits = 20;  // keys < M^2 = 2^20
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
  EXPECT_LE(res.report.passes, 6.5);
  EXPECT_GE(res.report.passes, 3.0);
}

TEST(RadixSort, StagedModeNotWorse) {
  const u64 mem = 1024;
  const auto g = Geometry::square(mem);
  Rng rng(11);
  std::vector<u64> data(65536);
  for (auto& x : data) x = rng.below(1u << 20);
  double p_paper, p_staged;
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RadixSortOptions opt;
    opt.mem_records = mem;
    opt.key_bits = 20;
    p_paper = radix_sort<u64>(*ctx, in, opt).report.passes;
  }
  {
    auto ctx = test::make_ctx<u64>(g);
    auto in = test::stage_input<u64>(*ctx, data);
    RadixSortOptions opt;
    opt.mem_records = mem;
    opt.key_bits = 20;
    opt.staged = true;
    p_staged = radix_sort<u64>(*ctx, in, opt).report.passes;
  }
  EXPECT_LE(p_staged, p_paper + 0.05);
}

TEST(RadixSort, AllEqualKeys) {
  const auto g = Geometry::square(256);
  auto ctx = test::make_ctx<u64>(g);
  std::vector<u64> data(4096, 7);
  auto in = test::stage_input<u64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 8;
  auto res = radix_sort<u64>(*ctx, in, opt);
  test::expect_sorted_output<u64>(res.output, data);
}

TEST(RadixSort, KvPayloadsSurvive) {
  const auto g = Geometry::square(256);
  auto ctx = make_memory_context(g.disks, g.rpb * sizeof(KV64));
  Rng rng(12);
  std::vector<KV64> data(4096);
  for (usize i = 0; i < data.size(); ++i) {
    data[i] = KV64{rng.below(1u << 16), static_cast<u64>(i)};
  }
  auto in = test::stage_input<KV64>(*ctx, data);
  RadixSortOptions opt;
  opt.mem_records = 256;
  opt.key_bits = 16;
  auto res = radix_sort<KV64>(*ctx, in, opt);
  test::expect_key_sorted_permutation<KV64>(res.output, data);
}

// ---- Pinned schedules: records, op counts and peak memory ----
//
// Every case sorts at async depth 0 and 4 and must reproduce the recorded
// I/O figures exactly (a moved read or write changes schedule_hash) and
// the recorded SortReport::peak_memory_bytes.

struct Pin {
  u64 read_ops, write_ops, blocks_read, blocks_written, read_calls,
      write_calls, schedule_hash;
  usize peak_memory_bytes;
};

// `io` is the context's stats right after the sort (the report's delta
// does not carry the order-sensitive schedule hash).
void expect_pin(const IoStats& io, const SortReport& r, const Pin& want) {
  EXPECT_EQ(io.read_ops, want.read_ops);
  EXPECT_EQ(io.write_ops, want.write_ops);
  EXPECT_EQ(io.blocks_read, want.blocks_read);
  EXPECT_EQ(io.blocks_written, want.blocks_written);
  EXPECT_EQ(io.read_calls, want.read_calls);
  EXPECT_EQ(io.write_calls, want.write_calls);
  EXPECT_EQ(io.schedule_hash, want.schedule_hash);
  EXPECT_EQ(r.peak_memory_bytes, want.peak_memory_bytes);
}

struct IntegerPinCase {
  bool placement_pass;
  bool staged;
  BucketPlacement placement;
  Pin want[2];  // async depth 0, 4
};

// M = 1024, B = 32, D = 8; N = 16·M + 100 (a partial final input block),
// keys in [0, 32).
const IntegerPinCase kIntegerPins[] = {
    {true, false, BucketPlacement::kRotation,
     {{175, 225, 1301, 1301, 917, 677, 0x756a6251d4d58a14ULL, 24576},
      {175, 225, 1301, 1301, 917, 672, 0x90118e601f8a8da8ULL, 58112}}},
    {true, true, BucketPlacement::kRotation,
     {{148, 197, 1046, 1046, 790, 579, 0x3c5c4214ffc2e04ULL, 16384},
      {148, 197, 1046, 1046, 790, 587, 0x53d222bf4c91f528ULL, 29696}}},
    {true, false, BucketPlacement::kBalancedBatch,
     {{247, 179, 1301, 1301, 917, 647, 0xb3596600384fe3b8ULL, 24576},
      {247, 179, 1301, 1301, 917, 396, 0xaddec206607bccf8ULL, 58112}}},
    {true, true, BucketPlacement::kBalancedBatch,
     {{221, 154, 1046, 1046, 790, 553, 0xaa0e1b887f1c1e41ULL, 16384},
      {221, 154, 1046, 1046, 790, 517, 0xa89bff9010fbe791ULL, 29696}}},
    {false, false, BucketPlacement::kRotation,
     {{65, 151, 516, 785, 132, 417, 0x3a87a59371a2a69ULL, 24576},
      {65, 151, 516, 785, 132, 412, 0xb5039e00b2925a55ULL, 58112}}},
    {false, true, BucketPlacement::kRotation,
     {{65, 123, 516, 530, 260, 322, 0xd47ed51fb862ab73ULL, 16384},
      {65, 123, 516, 530, 260, 330, 0x7f27e3cd75acfadfULL, 29696}}},
    {false, false, BucketPlacement::kBalancedBatch,
     {{65, 105, 516, 785, 132, 387, 0x746d3fd1aa01faa8ULL, 24576},
      {65, 105, 516, 785, 132, 136, 0x4e216f17ef701568ULL, 58112}}},
    {false, true, BucketPlacement::kBalancedBatch,
     {{65, 80, 516, 530, 260, 296, 0xec6ceb81128bab00ULL, 16384},
      {65, 80, 516, 530, 260, 260, 0x7ab85e8ebc9dead0ULL, 29696}}},
};

TEST(DistributionSchedule, IntegerSortPinned) {
  const auto g = Geometry::square(1024);
  Rng rng(21);
  const auto data = make_int_keys(16 * 1024 + 100, 32, rng);
  for (const IntegerPinCase& c : kIntegerPins) {
    for (usize x : {0, 1}) {
      const usize depth = x == 0 ? 0 : 4;
      SCOPED_TRACE(testing::Message()
                   << "placement_pass " << c.placement_pass << " staged "
                   << c.staged << " balanced "
                   << (c.placement == BucketPlacement::kBalancedBatch)
                   << " async depth " << depth);
      auto ctx = test::make_ctx<u64>(g);
      ctx->set_async_depth(depth);
      auto in = test::stage_input<u64>(*ctx, data);
      IntegerSortOptions opt;
      opt.mem_records = g.mem;
      opt.range = 32;
      opt.placement_pass = c.placement_pass;
      opt.staged = c.staged;
      opt.placement = c.placement;
      auto res = integer_sort<u64>(*ctx, in, opt);
      expect_pin(ctx->stats(), res.report, c.want[x]);
      if (c.placement_pass) {
        test::expect_sorted_output<u64>(res.output, data);
        continue;
      }
      ASSERT_EQ(res.buckets.size(), 32u);
      u64 total = 0;
      for (usize v = 0; v < res.buckets.size(); ++v) {
        const auto recs = res.buckets[v].read_all();
        total += recs.size();
        for (u64 r : recs) ASSERT_EQ(r, v);
      }
      EXPECT_EQ(total, data.size());
    }
  }
}

struct RadixPinCase {
  const char* name;
  usize n;
  u32 key_bits;
  bool equal_keys;  // every key the same: the shift-0 stream copy
  bool staged;
  BucketPlacement placement;
  Pin want[2];  // async depth 0, 4
};

// M = 1024, B = 32, D = 8 (5-bit digits). "in-memory" fits one load;
// "stream-copy" keeps one over-M bucket down to shift 0.
const RadixPinCase kRadixPins[] = {
    {"paper", 16 * 1024 + 100, 20, false, false, BucketPlacement::kRotation,
     {{181, 215, 1299, 1299, 915, 621, 0xf17fed6d97773404ULL, 40960},
      {181, 215, 1299, 1299, 915, 613, 0x8b3b9e7ac2952e4ULL, 74496}}},
    {"staged", 16 * 1024 + 100, 20, false, true, BucketPlacement::kRotation,
     {{145, 199, 1046, 1046, 790, 522, 0xaf55f75c9236236ULL, 32768},
      {145, 199, 1046, 1046, 790, 530, 0xd01a751a2398cd96ULL, 45568}}},
    {"balanced", 16 * 1024 + 100, 20, false, false,
     BucketPlacement::kBalancedBatch,
     {{246, 178, 1299, 1299, 915, 596, 0x5ecbc461ceb52ee2ULL, 40960},
      {246, 178, 1299, 1299, 915, 339, 0x503fa14628264596ULL, 74496}}},
    {"in-memory", 1000, 20, false, false, BucketPlacement::kRotation,
     {{4, 5, 32, 32, 8, 9, 0xc2315cba88644c75ULL, 8192},
      {4, 5, 32, 32, 8, 9, 0xc2315cba88644c75ULL, 16384}}},
    {"stream-copy", 4 * 1024 + 7, 8, true, false, BucketPlacement::kRotation,
     {{51, 51, 387, 387, 99, 99, 0x5969400dc04078c1ULL, 40960},
      {51, 51, 387, 387, 99, 99, 0x87e7d9cd9dc7d101ULL, 65536}}},
};

TEST(DistributionSchedule, RadixSortPinned) {
  const auto g = Geometry::square(1024);
  for (const RadixPinCase& c : kRadixPins) {
    Rng rng(22);
    std::vector<u64> data(c.n, 7);
    if (!c.equal_keys) {
      for (auto& k : data) k = rng.below(u64{1} << c.key_bits);
    }
    for (usize x : {0, 1}) {
      const usize depth = x == 0 ? 0 : 4;
      SCOPED_TRACE(testing::Message() << c.name << " async depth " << depth);
      auto ctx = test::make_ctx<u64>(g);
      ctx->set_async_depth(depth);
      auto in = test::stage_input<u64>(*ctx, data);
      RadixSortOptions opt;
      opt.mem_records = g.mem;
      opt.key_bits = c.key_bits;
      opt.staged = c.staged;
      opt.placement = c.placement;
      auto res = radix_sort<u64>(*ctx, in, opt);
      expect_pin(ctx->stats(), res.report, c.want[x]);
      test::expect_sorted_output<u64>(res.output, data);
    }
  }
}

}  // namespace
}  // namespace pdm
