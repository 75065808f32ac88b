// Record concept and key traits.
//
// Sortable records must be trivially copyable (they are moved with memcpy
// through block buffers). Integer sorting additionally needs a u64 key
// projection, supplied via KeyTraits (specialize for custom records). A
// projection must be order-preserving — a < b exactly when key(a) <
// key(b) — because the in-core radix kernel (internal/radix_sort_inplace.h)
// sorts small padding-free records by key in place of operator<.
//
// Built-in projections:
//  - unsigned integrals: identity (zero-extended);
//  - signed integrals: the order-preserving bias map that flips the sign
//    bit within the type's width, so negative keys sort below
//    non-negative ones in unsigned key space;
//  - KeyPair<A, B>: lexicographic packing of two projectable keys whose
//    widths sum to at most 64 bits (std::pair itself is not trivially
//    copyable, so records use this aggregate instead).
#pragma once

#include <concepts>
#include <type_traits>

#include "util/common.h"

namespace pdm {

template <class R>
concept Record = std::is_trivially_copyable_v<R> && std::default_initializable<R>;

/// u64 key projection used by IntegerSort / RadixSort.
template <class R>
struct KeyTraits;

/// Types with a usable KeyTraits projection.
template <class R>
concept ProjectableKey = requires(const R& r) {
  { KeyTraits<R>::key(r) } -> std::convertible_to<u64>;
};

template <std::unsigned_integral R>
struct KeyTraits<R> {
  static constexpr u64 key(R r) noexcept { return static_cast<u64>(r); }
};

template <std::signed_integral R>
struct KeyTraits<R> {
  /// Bias map: XOR the sign bit at the type's own width. Monotone in the
  /// signed order, and the result stays below 2^(8*sizeof(R)), which is
  /// what lets KeyPair pack members by width.
  static constexpr u64 key(R r) noexcept {
    using U = std::make_unsigned_t<R>;
    const U biased =
        static_cast<U>(static_cast<U>(r) ^ (U{1} << (sizeof(R) * 8 - 1)));
    return static_cast<u64>(biased);
  }
};

/// Trivially copyable composite key ordered lexicographically
/// (first, then second). Nests: KeyPair<KeyPair<u16, u16>, u32> works.
template <class A, class B>
struct KeyPair {
  A first{};
  B second{};

  friend bool operator==(const KeyPair&, const KeyPair&) = default;
  friend auto operator<=>(const KeyPair&, const KeyPair&) = default;
};

template <ProjectableKey A, ProjectableKey B>
  requires(sizeof(A) + sizeof(B) <= sizeof(u64))
struct KeyTraits<KeyPair<A, B>> {
  /// Packs first above second by B's width. Each member's projection is
  /// bounded by 2^(8*sizeof(member)) (identity, bias map and nested packs
  /// all preserve this), so the pack is lexicographic-order-preserving.
  static constexpr u64 key(const KeyPair<A, B>& r) noexcept {
    constexpr unsigned b_bits = 8 * sizeof(B);
    constexpr u64 b_mask =
        b_bits >= 64 ? ~u64{0} : (u64{1} << b_bits) - 1;
    return (KeyTraits<A>::key(r.first) << b_bits) |
           (KeyTraits<B>::key(r.second) & b_mask);
  }
};

/// Extracts the radix key of a record through KeyTraits.
template <class R>
constexpr u64 record_key(const R& r) noexcept {
  return KeyTraits<R>::key(r);
}

/// Orders records by their radix key (the comparator of the integer sorts).
struct KeyLess {
  template <class R>
  constexpr bool operator()(const R& a, const R& b) const noexcept {
    return record_key(a) < record_key(b);
  }
};

}  // namespace pdm
