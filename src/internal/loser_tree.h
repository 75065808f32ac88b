// Tournament (loser) trees: O(log k) comparisons per extracted record
// with a single comparison path per replacement.
//
//  - LoserTree<R, Cmp>: the generic tree. Nodes hold source indices and
//    every comparison reads both records through Cmp. Used by the LMM
//    merge pass, the forecasting multiway merge baseline, and replacement
//    selection over records that are not key-identical.
//  - KeyLoserTree<R>: nodes carry their entry's ordering key inline, a
//    (tag, key, source) triple compared lexicographically, so replaying a
//    path reads one contiguous node per level and never touches a record
//    or a liveness bitmap. Replacement selection uses it for key-identical
//    records (internal/radix_sort_inplace.h), with the run number as the
//    tag and the key complemented on descending runs.
//
// Both break ties toward the lower source index.
#pragma once

#include <bit>
#include <functional>
#include <utility>
#include <vector>

#include "util/common.h"

namespace pdm {

template <class R, class Cmp = std::less<R>>
class LoserTree {
 public:
  explicit LoserTree(usize k, Cmp cmp = {})
      : k_(k), cap_(std::bit_ceil(std::max<usize>(k, 2))), cmp_(cmp),
        tree_(cap_, kNone), val_(cap_), alive_(cap_, false) {}

  /// Sets the initial head record of source i. Call for every live source,
  /// then build().
  void set_initial(usize i, const R& v) {
    PDM_CHECK(i < k_, "source out of range");
    val_[i] = v;
    alive_[i] = true;
  }

  /// Plays the initial tournament.
  void build() { winner_ = play(1); }

  bool empty() const { return winner_ == kNone || !alive_[winner_]; }

  /// Source index holding the current minimum.
  usize min_source() const { return winner_; }

  const R& min_value() const { return val_[winner_]; }

  /// Replaces the minimum with the next record from the same source.
  void replace_min(const R& v) {
    val_[winner_] = v;
    replay();
  }

  /// Marks the minimum's source as exhausted.
  void exhaust_min() {
    alive_[winner_] = false;
    replay();
  }

 private:
  static constexpr usize kNone = static_cast<usize>(-1);

  // Returns the winner (smaller) of the two leaf indices; dead leaves lose.
  // Ties break toward the lower source index. In the initial play() the
  // left subtree always holds the lower leaf range, so "prefer a" was
  // enough there — but replay() calls better(cur, other) with cur on
  // either side, and preferring cur would resolve ties toward whichever
  // source replaced last, making the k-way merge unstable by source
  // index. The explicit index comparison keeps both paths stable.
  usize better(usize a, usize b) const {
    if (a == kNone || !alive_[a]) return b;
    if (b == kNone || !alive_[b]) return a;
    if (cmp_(val_[b], val_[a])) return b;
    if (cmp_(val_[a], val_[b])) return a;
    return a < b ? a : b;  // tie: lower source index wins
  }

  usize play(usize node) {
    if (node >= cap_) {
      const usize leaf = node - cap_;
      return leaf < k_ ? leaf : kNone;
    }
    const usize l = play(2 * node);
    const usize r = play(2 * node + 1);
    const usize w = better(l, r);
    tree_[node] = (w == l) ? r : l;  // store the loser
    return w;
  }

  void replay() {
    usize cur = winner_;
    for (usize node = (winner_ + cap_) / 2; node >= 1; node /= 2) {
      const usize other = tree_[node];
      const usize w = better(cur, other);
      if (w != cur) {
        tree_[node] = cur;
        cur = other;
      }
    }
    winner_ = cur;
  }

  usize k_;
  usize cap_;
  Cmp cmp_;
  std::vector<usize> tree_;
  std::vector<R> val_;
  std::vector<bool> alive_;
  usize winner_ = kNone;
};

template <class R>
class KeyLoserTree {
 public:
  explicit KeyLoserTree(usize k)
      : k_(k), cap_(std::bit_ceil(std::max<usize>(k, 2))),
        tree_(2 * cap_, Node{kDead, kDead, 0}), val_(k) {
    for (usize i = 0; i < cap_; ++i) tree_[cap_ + i].src = i;
  }

  /// Sets the initial entry of source i: ordered by (tag, key), then by
  /// i. Tags must be below ~0. Call for every live source, then build().
  void set_initial(usize i, u64 tag, u64 key, const R& v) {
    PDM_CHECK(i < k_, "source out of range");
    tree_[cap_ + i] = Node{tag, key, i};
    val_[i] = v;
  }

  /// Plays the initial tournament.
  void build() { win_ = play(1); }

  bool empty() const { return win_.tag == kDead; }
  usize min_source() const { return win_.src; }
  u64 min_tag() const { return win_.tag; }
  const R& min_value() const { return val_[win_.src]; }

  /// Replaces the minimum with the next entry from the same source.
  void replace_min(u64 tag, u64 key, const R& v) {
    val_[win_.src] = v;
    win_.tag = tag;
    win_.key = key;
    replay();
  }

  /// Marks the minimum's source as exhausted.
  void exhaust_min() {
    win_.tag = kDead;
    win_.key = kDead;
    replay();
  }

 private:
  // An exhausted source (and every padding leaf past k) holds the
  // all-ones tag and key, so it loses to every live entry.
  static constexpr u64 kDead = ~u64{0};

  struct Node {
    u64 tag;
    u64 key;
    usize src;
  };

  static bool less(const Node& a, const Node& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    if (a.key != b.key) return a.key < b.key;
    return a.src < b.src;
  }

  Node play(usize node) {
    if (node >= cap_) return tree_[node];
    const Node l = play(2 * node);
    const Node r = play(2 * node + 1);
    const bool right_wins = less(r, l);
    tree_[node] = right_wins ? l : r;  // store the loser
    return right_wins ? r : l;
  }

  // Walks the winner's leaf-to-root path; at each node the smaller of the
  // carried entry and the stored loser moves up, the other stays.
  void replay() {
    Node cur = win_;
    for (usize node = (cur.src + cap_) / 2; node >= 1; node /= 2) {
      if (less(tree_[node], cur)) std::swap(tree_[node], cur);
    }
    win_ = cur;
  }

  usize k_;
  usize cap_;
  std::vector<Node> tree_;  // [1, cap_): the loser at each node; then the
                            // leaves, read only by build()
  std::vector<R> val_;      // val_[i]: the record of source i's entry
  Node win_{kDead, kDead, 0};
};

}  // namespace pdm
