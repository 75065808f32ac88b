// In-place MSD radix sort (American flag sort, 8-bit digits) for records
// whose order is their KeyTraits key.
//
// internal_sort routes a record type here instead of std::sort when the
// type is "key-identical" (KeyIdentical below): the comparator orders by
// the key, and two records that compare equal are byte-identical. For
// such records every correct sort produces the same bytes, so swapping
// the comparison sort for this kernel changes no output, op count or
// schedule hash — only the CPU time spent in core.
//
// The kernel needs no scratch buffer. Each level counts one 8-bit digit,
// then permutes records into their buckets by cycle-leader swaps, and
// recurses into buckets of more than kRadixSmallSort records; smaller
// ones (and inputs that small) go to std::sort. A pre-scan finds the
// highest key bit that differs, so the first digit starts there: keys
// with few significant bits, such as a permutation of 0..n-1, skip the
// empty levels. The same scan returns input that is already ascending
// as is and reverses input that is already descending.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <span>
#include <type_traits>

#include "pdm/record.h"
#include "util/common.h"

namespace pdm {

/// Comparators that order records by their KeyTraits key.
template <class Cmp, class R>
concept KeyOrderComparator = std::same_as<Cmp, std::less<R>> ||
                             std::same_as<Cmp, std::less<>> ||
                             std::same_as<Cmp, KeyLess>;

/// Records the radix kernel may sort for `Cmp`: the comparator orders by
/// the key, and a record is at most 8 bytes with no padding bits, so two
/// records with equal keys are the same bytes (a KeyTraits projection is
/// order-preserving, hence one-to-one on such types; see pdm/record.h).
template <class R, class Cmp>
concept KeyIdentical = KeyOrderComparator<Cmp, R> && ProjectableKey<R> &&
                       std::has_unique_object_representations_v<R> &&
                       sizeof(R) <= sizeof(u64);

/// Inputs and buckets of at most this many records go to std::sort.
inline constexpr usize kRadixSmallSort = 64;

namespace detail {

/// Sorts a[0, n) by the key bits at and below shift + 7; the bits above
/// are equal across the range.
template <class R>
void american_flag_sort(R* a, usize n, unsigned shift) {
  const auto digit = [&shift](const R& r) {
    return static_cast<usize>((record_key(r) >> shift) & 0xFF);
  };
  std::array<usize, 256> count{};
  for (usize i = 0; i < n; ++i) ++count[digit(a[i])];
  if (count[digit(a[0])] == n) {
    // This digit is constant: one scan finds the highest bit that is not.
    const u64 k0 = record_key(a[0]);
    u64 diff = 0;
    for (usize i = 1; i < n; ++i) diff |= record_key(a[i]) ^ k0;
    if (diff == 0) return;
    const unsigned top = static_cast<unsigned>(std::bit_width(diff)) - 1;
    shift = top >= 7 ? top - 7 : 0;
    count.fill(0);
    for (usize i = 0; i < n; ++i) ++count[digit(a[i])];
  }

  std::array<usize, 256> head;
  std::array<usize, 256> tail;
  usize sum = 0;
  for (usize d = 0; d < 256; ++d) {
    head[d] = sum;
    sum += count[d];
    tail[d] = sum;
  }
  // Cycle-leader permutation. A misplaced record v of bucket d moves to
  // the first slot of its own bucket vd that does not already hold a
  // vd record; the record it displaces continues the cycle. Such a slot
  // exists below tail[vd] because v itself is one of vd's records still
  // outside the bucket, and skipping the settled records keeps nearly
  // sorted input nearly free.
  for (usize d = 0; d < 256; ++d) {
    while (head[d] < tail[d]) {
      R v = a[head[d]];
      usize vd = digit(v);
      while (vd != d) {
        usize h = head[vd];
        usize hd;
        while ((hd = digit(a[h])) == vd) ++h;
        const R displaced = a[h];
        a[h] = v;
        head[vd] = h + 1;
        v = displaced;
        vd = hd;
      }
      a[head[d]++] = v;
    }
  }
  if (shift == 0) return;
  const unsigned next = shift >= 8 ? shift - 8 : 0;
  usize start = 0;
  for (usize d = 0; d < 256; ++d) {
    const usize c = count[d];
    if (c > kRadixSmallSort) {
      american_flag_sort(a + start, c, next);
    } else if (c > 1) {
      std::sort(a + start, a + start + c, KeyLess{});
    }
    start += c;
  }
}

}  // namespace detail

/// Sorts `data` ascending by record_key, in place. internal_sort takes
/// this path only for KeyIdentical records.
template <ProjectableKey R>
void radix_sort_inplace(std::span<R> data) {
  R* a = data.data();
  const usize n = data.size();
  if (n <= kRadixSmallSort) {
    std::sort(a, a + n, KeyLess{});
    return;
  }
  // Pre-scan: which key bits vary, and is the input already in order?
  const u64 k0 = record_key(a[0]);
  u64 diff = 0;
  bool ascending = true;
  bool descending = true;
  u64 prev = k0;
  for (usize i = 1; i < n; ++i) {
    const u64 k = record_key(a[i]);
    diff |= k ^ k0;
    ascending &= prev <= k;
    descending &= prev >= k;
    prev = k;
  }
  if (ascending) return;
  if (descending) {
    std::reverse(a, a + n);
    return;
  }
  const unsigned top = static_cast<unsigned>(std::bit_width(diff)) - 1;
  detail::american_flag_sort(a, n, top >= 7 ? top - 7 : 0);
}

}  // namespace pdm
