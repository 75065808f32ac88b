#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
#include "util/generators.h"
#include "util/rng.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- insort

class InternalSortDist : public ::testing::TestWithParam<Dist> {};

TEST_P(InternalSortDist, MatchesStdSort) {
  Rng rng(42);
  auto v = make_keys(5000, GetParam(), rng);
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  CpuPool serial;
  internal_sort(std::span<u64>(v), std::less<u64>{}, serial, {});
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(AllDists, InternalSortDist,
                         ::testing::Values(Dist::kUniform, Dist::kPermutation,
                                           Dist::kSorted, Dist::kReverse,
                                           Dist::kFewDistinct, Dist::kZipf,
                                           Dist::kAllEqual,
                                           Dist::kNearlySorted),
                         [](const auto& info) {
                           std::string s = dist_name(info.param);
                           std::replace(s.begin(), s.end(), '-', '_');
                           return s;
                         });

TEST(InternalSort, ParallelWithCustomComparator) {
  CpuPool pool(4);
  Rng rng(9);
  auto v = make_keys(usize{1} << 16, Dist::kUniform, rng);
  auto expect = v;
  std::sort(expect.begin(), expect.end(), std::greater<u64>{});
  std::vector<u64> scratch(v.size());
  internal_sort(std::span<u64>(v), std::greater<u64>{}, pool,
                std::span<u64>(scratch));
  EXPECT_EQ(v, expect);
}

TEST(InternalSort, EmptyAndSingle) {
  CpuPool serial;
  std::vector<u64> v;
  internal_sort(std::span<u64>(v), std::less<u64>{}, serial, {});
  EXPECT_TRUE(v.empty());
  v = {42};
  internal_sort(std::span<u64>(v), std::less<u64>{}, serial, {});
  EXPECT_EQ(v[0], 42u);
}

// ------------------------------------------------------------ loser tree

TEST(LoserTree, MergesTwoSources) {
  std::vector<std::vector<u64>> src{{1, 4, 7}, {2, 3, 9}};
  LoserTree<u64> tree(2);
  std::vector<usize> pos(2, 1);
  tree.set_initial(0, src[0][0]);
  tree.set_initial(1, src[1][0]);
  tree.build();
  std::vector<u64> out;
  while (!tree.empty()) {
    const usize s = tree.min_source();
    out.push_back(tree.min_value());
    if (pos[s] < src[s].size()) {
      tree.replace_min(src[s][pos[s]++]);
    } else {
      tree.exhaust_min();
    }
  }
  EXPECT_EQ(out, (std::vector<u64>{1, 2, 3, 4, 7, 9}));
}

class LoserTreeK : public ::testing::TestWithParam<usize> {};

TEST_P(LoserTreeK, MatchesStdMerge) {
  const usize k = GetParam();
  Rng rng(k * 31 + 1);
  std::vector<std::vector<u64>> src(k);
  std::vector<u64> all;
  for (usize i = 0; i < k; ++i) {
    const usize len = static_cast<usize>(rng.below(50));
    src[i] = make_keys(len, Dist::kUniform, rng);
    std::sort(src[i].begin(), src[i].end());
    all.insert(all.end(), src[i].begin(), src[i].end());
  }
  std::sort(all.begin(), all.end());

  LoserTree<u64> tree(k);
  std::vector<usize> pos(k, 0);
  for (usize i = 0; i < k; ++i) {
    if (!src[i].empty()) {
      tree.set_initial(i, src[i][0]);
      pos[i] = 1;
    }
  }
  tree.build();
  std::vector<u64> out;
  while (!tree.empty()) {
    const usize s = tree.min_source();
    out.push_back(tree.min_value());
    if (pos[s] < src[s].size()) {
      tree.replace_min(src[s][pos[s]++]);
    } else {
      tree.exhaust_min();
    }
  }
  EXPECT_EQ(out, all);
}

INSTANTIATE_TEST_SUITE_P(Fanins, LoserTreeK,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 31, 64));

// Regression for the replay() tie-break: better(cur, other) used to prefer
// the incumbent path on ties, so after the first replacement equal keys
// could surface from a higher source index first. With ties broken by
// lower source index, a duplicate-heavy merge must drain equal keys in
// (source, position) order: whenever heads tie, the lowest source pops,
// and since each source is internally ordered, every equal-key group in
// the output is sorted by source index, then by position within source.
TEST(LoserTree, StableBySourceIndexUnderHeavyDuplicates) {
  struct Tagged {
    u64 key = 0;
    u32 src = 0;
    u32 pos = 0;
  };
  struct KeyLess {
    bool operator()(const Tagged& a, const Tagged& b) const {
      return a.key < b.key;
    }
  };
  for (u64 seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const usize k = 2 + static_cast<usize>(rng.below(14));
    std::vector<std::vector<Tagged>> src(k);
    for (usize i = 0; i < k; ++i) {
      const usize len = 20 + static_cast<usize>(rng.below(60));
      std::vector<u64> keys(len);
      for (auto& x : keys) x = rng.below(5);  // ~len/5 duplicates per key
      std::sort(keys.begin(), keys.end());
      for (usize p = 0; p < len; ++p) {
        src[i].push_back(
            Tagged{keys[p], static_cast<u32>(i), static_cast<u32>(p)});
      }
    }
    LoserTree<Tagged, KeyLess> tree(k);
    std::vector<usize> pos(k, 1);
    for (usize i = 0; i < k; ++i) tree.set_initial(i, src[i][0]);
    tree.build();
    std::vector<Tagged> out;
    while (!tree.empty()) {
      const usize s = tree.min_source();
      out.push_back(tree.min_value());
      if (pos[s] < src[s].size()) {
        tree.replace_min(src[s][pos[s]++]);
      } else {
        tree.exhaust_min();
      }
    }
    for (usize i = 1; i < out.size(); ++i) {
      ASSERT_LE(out[i - 1].key, out[i].key) << "disorder at " << i;
      if (out[i - 1].key == out[i].key) {
        const bool stable =
            out[i - 1].src < out[i].src ||
            (out[i - 1].src == out[i].src && out[i - 1].pos < out[i].pos);
        ASSERT_TRUE(stable) << "unstable tie at " << i << ": ("
                            << out[i - 1].src << "," << out[i - 1].pos
                            << ") before (" << out[i].src << "," << out[i].pos
                            << ")";
      }
    }
  }
}

TEST(LoserTree, AllSourcesEmpty) {
  LoserTree<u64> tree(4);
  tree.build();
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTree, StableOnTies) {
  // Equal keys: the lower source index must win (stability by source).
  LoserTree<u64> tree(3);
  tree.set_initial(0, 5);
  tree.set_initial(1, 5);
  tree.set_initial(2, 5);
  tree.build();
  EXPECT_EQ(tree.min_source(), 0u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 1u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 2u);
}

// -------------------------------------------------------- radix partition

TEST(RadixPartition, DigitExtraction) {
  EXPECT_EQ(digit_of<u64>(0b1011'0110, 0, 4), 0b0110u);
  EXPECT_EQ(digit_of<u64>(0b1011'0110, 4, 4), 0b1011u);
  EXPECT_EQ(digit_of<u64>(~u64{0}, 0, 64), ~u64{0});
}

TEST(RadixPartition, CountsSumToN) {
  Rng rng(3);
  auto v = make_int_keys(1000, 256, rng);
  std::vector<u64> counts(16);
  count_digits<u64>(std::span<const u64>(v), 4, 4, std::span<u64>(counts));
  u64 total = 0;
  for (u64 c : counts) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(RadixPartition, PartitionGroupsByDigit) {
  Rng rng(4);
  auto v = make_int_keys(4096, 1u << 12, rng);
  std::vector<u64> out(v.size());
  auto bounds = partition_by_digit<u64>(std::span<const u64>(v),
                                        std::span<u64>(out), 8, 4);
  ASSERT_EQ(bounds.size(), 17u);
  EXPECT_EQ(bounds.back(), v.size());
  for (usize d = 0; d < 16; ++d) {
    for (u64 i = bounds[d]; i < bounds[d + 1]; ++i) {
      EXPECT_EQ(digit_of<u64>(out[i], 8, 4), d);
    }
  }
  // Multiset preserved.
  auto a = v;
  auto b = out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(RadixPartition, ScatterIsStableWithinDigit) {
  std::vector<u64> v{0x10, 0x20, 0x11, 0x21, 0x12};
  std::vector<u64> out(v.size());
  auto bounds = partition_by_digit<u64>(std::span<const u64>(v),
                                        std::span<u64>(out), 4, 4);
  // digit = high nibble; within digit 1 the order 0x10, 0x11, 0x12 holds.
  EXPECT_EQ(out[bounds[1]], 0x10u);
  EXPECT_EQ(out[bounds[1] + 1], 0x11u);
  EXPECT_EQ(out[bounds[1] + 2], 0x12u);
}

}  // namespace
}  // namespace pdm
