#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "util/generators.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/table.h"

namespace pdm {
namespace {

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 1), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathUtil, RoundUpDown) {
  EXPECT_EQ(round_up(10, 4), 12u);
  EXPECT_EQ(round_up(12, 4), 12u);
  EXPECT_EQ(round_down(10, 4), 8u);
  EXPECT_EQ(round_down(12, 4), 12u);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(1023), 9u);
  EXPECT_EQ(ilog2_ceil(1), 0u);
  EXPECT_EQ(ilog2_ceil(1023), 10u);
  EXPECT_EQ(ilog2_ceil(1024), 10u);
  EXPECT_EQ(ilog2_ceil(1025), 11u);
}

TEST(MathUtil, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1u << 20), 1024u);
  const u64 big = u64{1} << 40;
  EXPECT_EQ(isqrt(big), u64{1} << 20);
  EXPECT_EQ(isqrt(big - 1), (u64{1} << 20) - 1);
}

TEST(MathUtil, LambdaFactorMonotone) {
  // lambda grows with alpha and with M.
  EXPECT_LT(lambda_factor(1 << 10, 1.0), lambda_factor(1 << 10, 2.0));
  EXPECT_LT(lambda_factor(1 << 10, 1.0), lambda_factor(1 << 20, 1.0));
  EXPECT_GT(lambda_factor(1 << 10, 1.0), 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (u64 bound : {1ull, 2ull, 7ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, Uniform01Range) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<u32> v(257);
  std::iota(v.begin(), v.end(), 0u);
  shuffle(v, rng);
  std::set<u32> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), v.size());
  EXPECT_FALSE(std::is_sorted(v.begin(), v.end()));
}

TEST(Generators, PermutationHasAllValues) {
  Rng rng(5);
  auto v = make_keys(1000, Dist::kPermutation, rng);
  std::set<u64> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 999u);
}

TEST(Generators, SortedAndReverse) {
  Rng rng(5);
  auto s = make_keys(100, Dist::kSorted, rng);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  auto r = make_keys(100, Dist::kReverse, rng);
  EXPECT_TRUE(std::is_sorted(r.rbegin(), r.rend()));
}

TEST(Generators, FewDistinctIsSmallAlphabet) {
  Rng rng(5);
  auto v = make_keys(1000, Dist::kFewDistinct, rng);
  std::set<u64> s(v.begin(), v.end());
  EXPECT_LE(s.size(), 7u);
}

TEST(Generators, IntKeysInRange) {
  Rng rng(6);
  auto v = make_int_keys(1000, 64, rng);
  for (u64 k : v) EXPECT_LT(k, 64u);
  auto w = make_skewed_int_keys(1000, 64, rng);
  for (u64 k : w) EXPECT_LT(k, 64u);
}

TEST(Generators, KvPayloadTracksIndex) {
  Rng rng(8);
  auto v = make_kv(100, Dist::kUniform, rng);
  for (usize i = 0; i < v.size(); ++i) EXPECT_EQ(v[i].value, i);
}

TEST(Generators, EveryDistAcceptsEmptyAndSingleInputs) {
  for (Dist d : {Dist::kUniform, Dist::kPermutation, Dist::kSorted,
                 Dist::kReverse, Dist::kFewDistinct, Dist::kZipf,
                 Dist::kAllEqual, Dist::kNearlySorted,
                 Dist::kNearSortedDisplaced, Dist::kClustered}) {
    SCOPED_TRACE(dist_name(d));
    Rng rng(9);
    EXPECT_TRUE(make_keys(0, d, rng).empty());
    EXPECT_EQ(make_keys(1, d, rng).size(), 1u);
    EXPECT_TRUE(make_kv(0, d, rng).empty());
  }
}

TEST(Generators, RotatedIsPermutation) {
  auto v = make_rotated(100, 37);
  std::set<u64> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 100u);
  EXPECT_EQ(v[0], 37u);
}

TEST(Table, RendersMarkdown) {
  Table t({"a", "bb"});
  t.row().cell("x").cell(u64{42});
  t.row().cell(3.14159, 2).cell(true);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("yes"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_double(2.5000, 3), "2.5");
  EXPECT_EQ(fmt_double(2.0, 3), "2");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1500), "1.50K");
  EXPECT_EQ(fmt_count(2500000), "2.50M");
}

}  // namespace
}  // namespace pdm
