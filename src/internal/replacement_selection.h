// Order-adaptive run formation engines (Bender et al., "Run Generation
// Revisited", PAPERS.md): replacement selection through the loser tree
// emits runs of expected length 2M on random input and a *single* run on
// any input whose records are displaced by at most M/2 positions from
// sorted order; the alternating up/down variant additionally collapses
// reverse-sorted input (and is 2-competitive in general). Both stream the
// input with the same memory-load read batches as the fixed-run path, so
// the read-side I/O schedule is identical — only run boundaries move.
//
// The tournament is a KeyLoserTree for key-identical records (its nodes
// carry (run, key, source) inline; internal/radix_sort_inplace.h says
// which records qualify) and the generic LoserTree over (run, record)
// entries for everything else. Both order entries the same way and
// break ties toward the lower source index, so run boundaries and the
// emitted bytes do not depend on which tree selects them.
//
// Memory: one staging block and the heap-sized input loads (two with the
// async pipeline on) are charged to the context budget; the tournament
// itself (~2 * bit_ceil(M) nodes plus M records) is not, matching how the
// merge passes already account for their trees.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "internal/loser_tree.h"
#include "internal/radix_sort_inplace.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "pdm/striped_run.h"
#include "util/math_util.h"
#include "util/trace.h"

namespace pdm {
namespace detail {

/// Tournament over (run, record) entries: records compare first by run
/// tag — an earlier run drains completely before any record of a later
/// run surfaces — then by Cmp, ascending for even tags and descending for
/// odd tags when the up/down policy is active.
template <class R, class Cmp>
class RsGenericTree {
 public:
  RsGenericTree(usize k, Cmp cmp, bool updown)
      : tree_(k, Less{cmp, updown}) {}

  void set_initial(usize i, u64 run, const R& r) {
    tree_.set_initial(i, Item{run, r});
  }
  void build() { tree_.build(); }
  bool empty() const { return tree_.empty(); }
  u64 min_run() const { return tree_.min_value().run; }
  const R& min_value() const { return tree_.min_value().rec; }
  void replace_min(u64 run, const R& r) { tree_.replace_min(Item{run, r}); }
  void exhaust_min() { tree_.exhaust_min(); }

 private:
  struct Item {
    u64 run = 0;
    R rec{};
  };
  struct Less {
    Cmp cmp;
    bool updown;
    bool operator()(const Item& a, const Item& b) const {
      if (a.run != b.run) return a.run < b.run;
      if (updown && (a.run & 1) != 0) return cmp(b.rec, a.rec);
      return cmp(a.rec, b.rec);
    }
  };
  LoserTree<Item, Less> tree_;
};

/// The same order on a KeyLoserTree: tag = run, key = the record's key,
/// complemented on descending runs.
template <class R>
class RsKeyTree {
 public:
  template <class Cmp>
  RsKeyTree(usize k, Cmp /*orders by key*/, bool updown)
      : tree_(k), updown_(updown) {}

  void set_initial(usize i, u64 run, const R& r) {
    tree_.set_initial(i, run, key_of(run, r), r);
  }
  void build() { tree_.build(); }
  bool empty() const { return tree_.empty(); }
  u64 min_run() const { return tree_.min_tag(); }
  const R& min_value() const { return tree_.min_value(); }
  void replace_min(u64 run, const R& r) {
    tree_.replace_min(run, key_of(run, r), r);
  }
  void exhaust_min() { tree_.exhaust_min(); }

 private:
  u64 key_of(u64 run, const R& r) const {
    const u64 k = record_key(r);
    return updown_ && (run & 1) != 0 ? ~k : k;
  }

  KeyLoserTree<R> tree_;
  bool updown_;
};

template <class R, class Cmp>
using RsTree = std::conditional_t<KeyIdentical<R, Cmp>, RsKeyTree<R>,
                                  RsGenericTree<R, Cmp>>;

}  // namespace detail

/// Replacement-selection run formation over a striped input range.
/// Emits variable-length ascending runs: every run except possibly the
/// last holds at least `heap_records` records (the heap is full when the
/// run opens), expected 2*heap_records on random input, and sorted input
/// yields exactly one run. With `updown`, odd-numbered runs are selected
/// descending — written with per-block record reversal and a metadata
/// block-list flip (StripedRun::reverse_blocks), so every emitted run is
/// stored ascending with zero extra I/O. A descending run's sub-block
/// tail cannot be block-reversed; it is emitted as its own mini-run of
/// fewer than B records (at most one per down run).
///
/// Run i starts on disk (i * start_stride) mod D, the same staggering as
/// the fixed path, so cleanup/merge reads spread over all disks.
template <Record R, class Cmp = std::less<R>>
std::vector<StripedRun<R>> replacement_select_runs(
    PdmContext& ctx, const StripedRun<R>& input, u64 heap_records,
    u64 first_record, u64 num_records, bool updown, u32 start_stride,
    Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  PDM_CHECK(heap_records > 0 && heap_records % rpb == 0,
            "heap size must be a positive multiple of B");
  PDM_CHECK(first_record % rpb == 0, "range start must be block aligned");
  PDM_CHECK(first_record <= input.size(), "range start out of bounds");
  const u64 n = num_records == 0 ? input.size() - first_record : num_records;
  PDM_CHECK(first_record + n <= input.size(), "range end out of bounds");
  PDM_CHECK(n > 0, "empty input");
  trace::TraceSpan trace_span("pass", "run_formation_adaptive", "records", n);

  // Input streaming: heap-sized batched reads through a prefetch ring
  // (two slabs with the async pipeline on, one off) — the same load
  // geometry as the fixed path, so the read-side op and block counts
  // match it exactly.
  const u64 load_len = heap_records;
  const u64 num_loads = ceil_div(n, load_len);
  ReadAheadRing<R> ring(ctx.aio(), ctx.budget(), static_cast<usize>(load_len),
                        ctx.aio().enabled() ? 2 : 1);
  PipelineDrainGuard drain_guard(ctx.aio());

  auto records_of = [&](u64 i) { return std::min(load_len, n - i * load_len); };
  u64 issued = 0;     // loads submitted to the ring
  u64 next_load = 0;  // next load index to consume
  u64 valid = 0;      // records in the current load
  usize pos = 0;      // cursor within the current load
  const R* buf = nullptr;
  auto next_record = [&](R& dst) -> bool {
    if (pos >= valid) {
      if (next_load >= num_loads) return false;
      if (next_load > 0) ring.pop();
      for (; issued < num_loads && !ring.full(); ++issued) {
        ring.push(input.read_reqs((first_record + issued * load_len) / rpb,
                                  ceil_div(records_of(issued), rpb),
                                  ring.stage()));
      }
      buf = ring.front().data;
      valid = records_of(next_load);
      pos = 0;
      ++next_load;
    }
    dst = buf[pos++];
    return true;
  };

  // Fill the tournament: the first min(M, N) records all carry run tag 0,
  // which is what guarantees every non-final run's length is >= M — when
  // run r opens, all M tree slots hold tag-r records, and each of them
  // must be emitted into run r before any tag-(r+1) record surfaces.
  const usize k = static_cast<usize>(std::min<u64>(heap_records, n));
  detail::RsTree<R, Cmp> tree(k, cmp, updown);
  {
    R r{};
    for (usize i = 0; i < k; ++i) {
      const bool ok = next_record(r);
      PDM_CHECK(ok, "input exhausted during heap fill");
      tree.set_initial(i, 0, r);
    }
  }
  tree.build();

  std::vector<StripedRun<R>> out;
  TrackedBuffer<R> block_buf(ctx.budget(), rpb);
  usize fill = 0;
  constexpr u64 kNoRun = static_cast<u64>(-1);
  u64 cur_run = kNoRun;
  bool down = false;  // current run is selected descending

  auto open_run = [&](u64 run_no) {
    out.emplace_back(ctx,
                     static_cast<u32>((out.size() * start_stride) % ctx.D()));
    cur_run = run_no;
    down = updown && (run_no & 1) != 0;
  };
  auto flush_block = [&]() {
    if (fill == 0) return;
    // Down runs reverse each block's records at staging; after the run
    // finishes, reverse_blocks() flips the block order and the stored run
    // reads ascending.
    if (down) std::reverse(block_buf.data(), block_buf.data() + fill);
    out.back().append(std::span<const R>(block_buf.data(), fill));
    fill = 0;
  };
  auto close_run = [&]() {
    if (cur_run == kNoRun) return;
    if (!down) {
      flush_block();  // a partial tail is fine for an ascending run
      out.back().finish();
      return;
    }
    out.back().finish();
    out.back().reverse_blocks();
    if (out.back().empty()) out.pop_back();  // down run shorter than B
    if (fill > 0) {
      // Sub-block tail of a down run: becomes its own tiny ascending run.
      std::reverse(block_buf.data(), block_buf.data() + fill);
      out.emplace_back(
          ctx, static_cast<u32>((out.size() * start_stride) % ctx.D()));
      out.back().append(std::span<const R>(block_buf.data(), fill));
      out.back().finish();
      fill = 0;
    }
  };

  while (!tree.empty()) {
    const u64 top_run = tree.min_run();
    const R top = tree.min_value();  // copy: replace_min overwrites it
    if (top_run != cur_run) {
      close_run();
      open_run(top_run);
    }
    R incoming{};
    if (next_record(incoming)) {
      // Classic replacement selection: the incoming record joins the
      // current run iff emitting it after `top` keeps the run's order
      // (>= for ascending runs, <= for descending); otherwise it waits in
      // the heap under the next run's tag.
      const bool eligible = down ? !cmp(top, incoming) : !cmp(incoming, top);
      tree.replace_min(eligible ? top_run : top_run + 1, incoming);
    } else {
      tree.exhaust_min();
    }
    block_buf.data()[fill++] = top;
    if (fill == rpb) {
      ctx.check_cancelled();
      flush_block();
    }
  }
  close_run();
  return out;
}

}  // namespace pdm
