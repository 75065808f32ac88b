#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
#include "internal/replacement_selection.h"
#include "test_support.h"
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

// ------------------------------------------------------- radix kernel

constexpr Dist kAllDists[] = {
    Dist::kUniform,      Dist::kPermutation,  Dist::kSorted,
    Dist::kReverse,      Dist::kFewDistinct,  Dist::kZipf,
    Dist::kAllEqual,     Dist::kNearlySorted, Dist::kNearSortedDisplaced,
    Dist::kClustered};

// Which records take the radix kernel is decided by type alone.
static_assert(KeyIdentical<u64, std::less<u64>>);
static_assert(KeyIdentical<u64, std::less<>>);
static_assert(KeyIdentical<u64, KeyLess>);
static_assert(KeyIdentical<u32, std::less<u32>>);
static_assert(KeyIdentical<i64, std::less<i64>>);
static_assert(KeyIdentical<KeyPair<u32, u32>, std::less<KeyPair<u32, u32>>>);
static_assert(!KeyIdentical<u64, std::greater<u64>>);  // not the key order
static_assert(!KeyIdentical<KeyPair<u16, u32>,  // two padding bytes
                            std::less<KeyPair<u16, u32>>>);
static_assert(!KeyIdentical<KV64, std::less<KV64>>);  // 16 bytes, payload

/// Sorts `in` with internal_sort at CPU budgets 1 and 4 (the serial
/// kernel, and chunk sorts plus split merges) and checks both against
/// std::sort record for record (for key-identical records: byte for
/// byte).
template <class R, class Cmp = std::less<R>>
void expect_matches_std_sort(const std::vector<R>& in, Cmp cmp = {}) {
  auto expect = in;
  std::sort(expect.begin(), expect.end(), cmp);
  for (usize budget : {1u, 4u}) {
    CpuPool pool(budget);
    auto got = in;
    std::vector<R> scratch(budget > 1 ? got.size() : 0);
    internal_sort(std::span<R>(got), cmp, pool, std::span<R>(scratch));
    ASSERT_TRUE(got == expect) << "budget " << budget;
  }
}

/// Every Dist at the sizes around each kernel boundary: empty and tiny
/// inputs, the std::sort cutoff +-1, and memory loads of the benches.
template <class R, class Make>
void expect_radix_matches_std_sort_on_all_dists(Make make) {
  for (Dist d : kAllDists) {
    for (usize n : {usize{0}, usize{1}, usize{2}, kRadixSmallSort - 1,
                    kRadixSmallSort, kRadixSmallSort + 1, usize{5000},
                    usize{65536}, usize{110080}}) {
      SCOPED_TRACE(std::string(dist_name(d)) + " n=" + std::to_string(n));
      Rng rng(1000 + n);
      const auto keys = make_keys(n, d, rng);
      std::vector<R> in(n);
      for (usize i = 0; i < n; ++i) in[i] = make(keys[i], n);
      expect_matches_std_sort(in);
    }
  }
}

TEST(RadixKernel, MatchesStdSortU64) {
  expect_radix_matches_std_sort_on_all_dists<u64>(
      [](u64 k, usize) { return k; });
}

TEST(RadixKernel, MatchesStdSortU32) {
  expect_radix_matches_std_sort_on_all_dists<u32>(
      [](u64 k, usize) { return static_cast<u32>(k); });
}

TEST(RadixKernel, MatchesStdSortI64WithNegatives) {
  // Shifted down by n/2 (modulo 2^64), so ordered inputs stay ordered and
  // about half the keys of every distribution are negative.
  expect_radix_matches_std_sort_on_all_dists<i64>([](u64 k, usize n) {
    return static_cast<i64>(k - static_cast<u64>(n / 2));
  });
}

TEST(RadixKernel, MatchesStdSortKeyPair) {
  using P = KeyPair<u32, u32>;
  expect_radix_matches_std_sort_on_all_dists<P>([](u64 k, usize) {
    return P{static_cast<u32>(k >> 16), static_cast<u32>(k)};
  });
}

TEST(RadixKernel, MatchesStdSortOnCleanupWindow) {
  // The shuffle cleanup sorts a window of the records it holds back
  // (already sorted) followed by one chunk of l sorted run pieces.
  Rng rng(5);
  const usize pieces = 43;
  const usize piece_len = 1024;
  auto held = make_keys(pieces * piece_len, Dist::kUniform, rng);
  std::sort(held.begin(), held.end());
  std::vector<u64> window = held;
  for (usize p = 0; p < pieces; ++p) {
    auto piece = make_keys(piece_len, Dist::kUniform, rng);
    std::sort(piece.begin(), piece.end());
    window.insert(window.end(), piece.begin(), piece.end());
  }
  expect_matches_std_sort(window);
}

TEST(RadixKernel, FallbackTypesSortThroughStdSort) {
  Rng rng(6);
  const auto keys = make_keys(40000, Dist::kFewDistinct, rng);
  expect_matches_std_sort(keys, std::greater<u64>{});
  using Padded = KeyPair<u16, u32>;
  std::vector<Padded> padded(keys.size());
  for (usize i = 0; i < keys.size(); ++i) {
    padded[i].first = static_cast<u16>(keys[i] % 5);
    padded[i].second = static_cast<u32>(keys[i] >> 3);
  }
  expect_matches_std_sort(padded);
}

TEST(ParallelMerge, SplitPointsReproduceTheWholeMerge) {
  // Records that compare equal but differ in bytes: the split merge must
  // keep std::merge's tie order (first range first) at every split.
  auto by_key = [](const KV64& a, const KV64& b) { return a.key < b.key; };
  Rng rng(8);
  for (int rep = 0; rep < 20; ++rep) {
    const usize na = static_cast<usize>(rng.below(300));
    const usize nb = static_cast<usize>(rng.below(300));
    std::vector<KV64> a(na);
    std::vector<KV64> b(nb);
    for (usize i = 0; i < na; ++i) a[i] = KV64{rng.below(9), i};
    for (usize i = 0; i < nb; ++i) b[i] = KV64{rng.below(9), 1000 + i};
    std::sort(a.begin(), a.end(), by_key);
    std::sort(b.begin(), b.end(), by_key);
    std::vector<KV64> whole(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), whole.begin(), by_key);
    for (usize k = 0; k <= na + nb; ++k) {
      const usize i = detail::merge_split(a.data(), na, b.data(), nb, k,
                                          by_key);
      std::vector<KV64> split(na + nb);
      auto mid = std::merge(a.begin(), a.begin() + i, b.begin(),
                            b.begin() + (k - i), split.begin(), by_key);
      std::merge(a.begin() + i, a.end(), b.begin() + (k - i), b.end(), mid,
                 by_key);
      ASSERT_EQ(split, whole) << "rep " << rep << " k " << k;
    }
  }
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

TEST(KeyLoserTree, SameOrderAsTheGenericTree) {
  // Entries ordered by (tag, key), ties toward the lower source: the key
  // tree must pop sources in exactly the generic tree's order, with heavy
  // duplicates and tags that grow as sources advance.
  struct Entry {
    u64 tag = 0;
    u64 key = 0;
    u32 src = 0;
    u32 pos = 0;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.tag != b.tag ? a.tag < b.tag : a.key < b.key;
    }
  };
  for (u64 seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const usize k = 1 + static_cast<usize>(rng.below(40));
    std::vector<std::vector<Entry>> src(k);
    for (usize i = 0; i < k; ++i) {
      const usize len = static_cast<usize>(rng.below(50)) + 1;
      for (usize p = 0; p < len; ++p) {
        src[i].push_back(Entry{p / 10, rng.below(4), static_cast<u32>(i),
                               static_cast<u32>(p)});
      }
      std::sort(src[i].begin(), src[i].end(), EntryLess{});
    }
    LoserTree<Entry, EntryLess> generic(k);
    KeyLoserTree<Entry> keyed(k);
    for (usize i = 0; i < k; ++i) {
      generic.set_initial(i, src[i][0]);
      keyed.set_initial(i, src[i][0].tag, src[i][0].key, src[i][0]);
    }
    generic.build();
    keyed.build();
    std::vector<usize> pos(k, 1);
    while (!generic.empty()) {
      ASSERT_FALSE(keyed.empty());
      const usize s = generic.min_source();
      ASSERT_EQ(keyed.min_source(), s);
      ASSERT_EQ(keyed.min_tag(), generic.min_value().tag);
      ASSERT_EQ(keyed.min_value().pos, generic.min_value().pos);
      if (pos[s] < src[s].size()) {
        const Entry& e = src[s][pos[s]++];
        generic.replace_min(e);
        keyed.replace_min(e.tag, e.key, e);
      } else {
        generic.exhaust_min();
        keyed.exhaust_min();
      }
    }
    EXPECT_TRUE(keyed.empty());
  }
}

TEST(KeyLoserTree, StableOnTiesAndEmpty) {
  KeyLoserTree<u64> empty(4);
  empty.build();
  EXPECT_TRUE(empty.empty());
  KeyLoserTree<u64> tree(3);
  for (usize i = 0; i < 3; ++i) tree.set_initial(i, 0, 5, 5);
  tree.build();
  EXPECT_EQ(tree.min_source(), 0u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 1u);
  tree.exhaust_min();
  EXPECT_EQ(tree.min_source(), 2u);
  tree.exhaust_min();
  EXPECT_TRUE(tree.empty());
}

// The key tree selects for std::less on u64; an equivalent lambda is not
// known to order by the key, so it keeps the generic tree.
constexpr auto kLambdaLess = [](u64 a, u64 b) { return a < b; };
using LambdaLess = decltype(kLambdaLess);
static_assert(std::is_same_v<detail::RsTree<u64, std::less<u64>>,
                             detail::RsKeyTree<u64>>);
static_assert(std::is_same_v<detail::RsTree<u64, LambdaLess>,
                             detail::RsGenericTree<u64, LambdaLess>>);

TEST(ReplacementSelection, KeyTreeMatchesGenericTreeOnEveryDist) {
  const auto g = test::Geometry::square(256);
  const usize n = 5 * 256 + 48;  // five heap loads and a ragged tail
  for (Dist d : kAllDists) {
    for (bool updown : {false, true}) {
      SCOPED_TRACE(std::string(dist_name(d)) +
                   (updown ? " updown" : " ascending"));
      Rng rng(77);
      const auto data = make_keys(n, d, rng);
      auto select = [&](auto cmp) {
        auto ctx = test::make_ctx<u64>(g);
        auto in = test::stage_input<u64>(*ctx, data);
        auto runs = replacement_select_runs<u64>(*ctx, in, g.mem, 0, 0,
                                                 updown, 3, cmp);
        std::vector<std::vector<u64>> recs;
        for (const auto& r : runs) recs.push_back(r.read_all());
        return recs;
      };
      const auto keyed = select(std::less<u64>{});
      const auto generic = select(kLambdaLess);
      ASSERT_EQ(keyed.size(), generic.size());
      for (usize r = 0; r < keyed.size(); ++r) {
        ASSERT_EQ(keyed[r], generic[r]) << "run " << r;
      }
    }
  }
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
