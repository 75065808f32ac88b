// Sorted-run formation: one pass that reads memory-loads of the input,
// sorts them, and writes them back as striped runs — optionally unshuffled
// on the way out (each sorted run split stride-m into m part-runs), which
// is how ThreePass2 folds LMM's unshuffle step into the run-formation pass
// (paper §4, step 2: "this unshuffling can be combined with the initial
// runs formation task").
#pragma once

#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "internal/insort.h"
#include "internal/replacement_selection.h"
#include "pdm/memory_budget.h"
#include "pdm/prefetch_buffer.h"
#include "pdm/striped_run.h"
#include "util/math_util.h"
#include "util/trace.h"

namespace pdm {

/// How runs are formed. kFixed is the legacy default: load M records, sort
/// in core, write one run — byte-identical layout and I/O schedule to every
/// prior release. The adaptive modes select through the loser tree and
/// emit variable-length runs (run_len becomes the heap size): expected 2M
/// on random input, a single run on (nearly) sorted input; kUpDown
/// alternates ascending/descending selection (Bender et al.,
/// 2-competitive), which additionally collapses reverse-sorted input.
enum class RunFormationMode {
  kFixed,
  kReplacementSelection,
  kUpDown,
};

inline const char* run_formation_mode_name(RunFormationMode m) {
  switch (m) {
    case RunFormationMode::kFixed: return "fixed";
    case RunFormationMode::kReplacementSelection: return "replacement";
    case RunFormationMode::kUpDown: return "updown";
  }
  return "?";
}

/// Merge-run layout of flat runs that shuffle-cleanups will read: runs
/// are taken in consecutive groups of `group_runs` (one ShuffleChunkSource
/// per group), and each chunk reads `unit` blocks of every run of the
/// group. Run i is then striped in units of `unit` blocks (see
/// striped_run.h) when it is among the first D*floor(group_runs/D) runs of
/// its group; the other group_runs mod D runs stay block-round-robin, so
/// every chunk's per-disk load, and so the op count, is unchanged.
/// The default (unit 1) is the plain block-round-robin layout.
struct MergeRunLayout {
  u64 unit = 1;
  u64 group_runs = 0;

  /// The layout a cleanup of `group_runs` runs needs when it reads chunks
  /// of round_down(M, group_runs * B) records: k = floor(M / (l * B)).
  static MergeRunLayout for_cleanup(u64 mem, u64 group_runs, u64 rpb) {
    return MergeRunLayout{mem / (group_runs * rpb), group_runs};
  }

  u64 unit_of(u64 run, u32 disks) const {
    if (unit <= 1) return 1;
    return run % group_runs < group_runs / disks * disks ? unit : 1;
  }
};

/// Disk layout of an (l, m)-merge (lmm_merge.h): l runs, each unshuffled
/// into m parts of part_blocks blocks; the group merge reads group j (part
/// j of every run) u = floor(M / (l * part_len)) groups per memory load and
/// writes the merged sequence Q_j; the cleanup then reads the same k =
/// floor(M / (m * B)) blocks of every Q_j per chunk. On the part grid:
///   - block b of part (i, j) lives on disk (i + floor(j / u) + b) mod D,
///     so the u parts of run i that one load reads share a disk; each run
///     keeps its blocks on each disk as one extent in (part, block) order,
///     so one load reads a run's piece as one contiguous span per disk;
///   - block t of Q_j lives on disk (floor(j / u) + t) mod D; each disk
///     holds one span of Q blocks in (chunk, j, t) order (chunk = t / k),
///     so a cleanup chunk reads one contiguous span per disk and a load
///     writes Q in spans of u blocks when k = 1 (ThreePass2).
/// Loads take u consecutive groups. Two exceptions keep the per-disk block
/// load of every batch, hence the paper's op count, identical to the plain
/// layout (part block on disk (i + j + b) mod D, Q_j block t on
/// (j + t) mod D):
///   - only the first grid_parts = u*D*floor(m/(u*D)) parts of each run,
///     and their groups' Q_j, are on the grid; the rest keep the plain rule
///     (inside the same per-disk spans);
///   - the layout needs D | l or D | part_blocks, which makes every group
///     load each disk equally, so any choice of groups per load costs the
///     same ops. Otherwise (balanced() is false) the merge keeps the plain
///     layout, per-run extents, and loads groups a stride of ceil(m/u)
///     apart, which spreads i + j over the disks.
/// With ctx.extent_blocks() <= 1 runs keep the layout's disks but allocate
/// single blocks as they grow (the block-interleaved baseline). Placed
/// blocks belong to the merge's runs and, like theirs, are not freed by it.
struct LmmPartLayout {
  u64 runs = 0;          // l
  u64 parts = 0;         // m
  u64 part_blocks = 0;   // blocks per part
  u64 unit = 1;          // u: groups per memory load
  u64 chunk_blocks = 1;  // k: blocks of each Q_j per cleanup chunk
  u64 grid_parts = 0;    // parts on the grid (a multiple of u * D)
  u32 disks = 1;         // D

  /// The layout of a merge with memory `mem` over `runs` runs of `parts`
  /// parts of `part_len` records (a multiple of rpb).
  static LmmPartLayout for_merge(u64 mem, u64 runs, u64 parts, u64 part_len,
                                 u64 rpb, u32 disks) {
    LmmPartLayout a;
    a.runs = runs;
    a.parts = parts;
    a.part_blocks = part_len / rpb;
    a.unit = std::max<u64>(1, mem / (runs * part_len));
    a.chunk_blocks = std::max<u64>(1, mem / (parts * rpb));
    a.disks = disks;
    if (a.balanced()) a.grid_parts = round_down(parts, a.unit * disks);
    return a;
  }

  bool balanced() const {
    return runs % disks == 0 || part_blocks % disks == 0;
  }

  /// Stripe offset of group j: floor(j / u) on the grid, j off it.
  u64 group_disk(u64 j) const { return j < grid_parts ? j / unit : j; }

  u32 part_start_disk(u64 run, u64 j) const {
    return static_cast<u32>((run + group_disk(j)) % disks);
  }
  u32 merged_start_disk(u64 j) const {
    return static_cast<u32>(group_disk(j) % disks);
  }

  /// Blocks of each merged sequence Q_j.
  u64 merged_blocks() const { return runs * part_blocks; }

  /// Blocks of one Q_j that a load's write stages together: a chunk's
  /// stretch (they sit side by side) when placed, else the whole Q_j, whose
  /// own extents then hold it.
  u64 staged_blocks() const {
    return balanced() ? chunk_blocks : merged_blocks();
  }

  /// Memory loads of the group merge: ceil(m / u).
  u64 loads() const { return ceil_div(parts, unit); }

  /// The groups merged in load r, in staging order.
  std::vector<u64> load_groups(u64 r) const {
    std::vector<u64> g;
    if (balanced()) {
      for (u64 j = r * unit; j < std::min(parts, (r + 1) * unit); ++j) {
        g.push_back(j);
      }
    } else {
      for (u64 j = r; j < parts; j += loads()) g.push_back(j);
    }
    return g;
  }

  /// The m part runs of run i, with their blocks placed (see above).
  template <Record R>
  std::vector<StripedRun<R>> run_parts(PdmContext& ctx, u64 run) const {
    std::vector<StripedRun<R>> out;
    out.reserve(static_cast<usize>(parts));
    for (u64 j = 0; j < parts; ++j) {
      out.emplace_back(ctx, part_start_disk(run, j));
    }
    if (placing(ctx)) {
      place(ctx, out, [&](auto&& visit) {
        for (u64 j = 0; j < parts; ++j) {
          for (u64 b = 0; b < part_blocks; ++b) visit(j, b);
        }
      });
    }
    return out;
  }

  /// The m merged sequences Q_j (runs * part_blocks blocks each), with
  /// their blocks placed (see above).
  template <Record R>
  std::vector<StripedRun<R>> merged_runs(PdmContext& ctx) const {
    std::vector<StripedRun<R>> out;
    out.reserve(static_cast<usize>(parts));
    for (u64 j = 0; j < parts; ++j) out.emplace_back(ctx, merged_start_disk(j));
    if (placing(ctx)) {
      const u64 len = merged_blocks();
      place(ctx, out, [&](auto&& visit) {
        for (u64 t0 = 0; t0 < len; t0 += chunk_blocks) {
          for (u64 j = 0; j < parts; ++j) {
            for (u64 t = t0; t < std::min(len, t0 + chunk_blocks); ++t) {
              visit(j, t);
            }
          }
        }
      });
    }
    return out;
  }

 private:
  bool placing(PdmContext& ctx) const {
    return balanced() && ctx.extent_blocks() > 1;
  }

  /// Places every block of the runs in `out` (block b of run j on disk
  /// (start disk + b) mod D) in one extent per disk, in the order `order`
  /// visits the (run, block) pairs.
  template <Record R, class Order>
  void place(PdmContext& ctx, std::vector<StripedRun<R>>& out,
             Order&& order) const {
    std::vector<std::vector<BlockRef>> refs(out.size());
    std::vector<u64> used(disks, 0);  // blocks per disk, then extent bases
    order([&](u64 j, u64 b) {
      const u32 d = static_cast<u32>((out[j].start_disk() + b) % disks);
      refs[static_cast<usize>(j)].push_back(BlockRef{d, used[d]++});
    });
    for (u32 d = 0; d < disks; ++d) {
      if (used[d] > 0) {
        used[d] = ctx.alloc().alloc_extent(d, used[d], ctx.alloc_region()).index;
      }
    }
    for (usize j = 0; j < out.size(); ++j) {
      for (BlockRef& r : refs[j]) r.index += used[r.disk];
      out[j].place_blocks(std::move(refs[j]));
    }
  }
};

struct RunFormationOptions {
  u64 run_len = 0;          // records per run (<= M, multiple of B)
  u32 unshuffle_parts = 1;  // m; run_len must be a multiple of m*B when m>1
  u64 first_record = 0;     // block-aligned start of the input range
  u64 num_records = 0;      // 0 = to the end of the input
  RunFormationMode mode = RunFormationMode::kFixed;  // adaptive modes: m == 1
  MergeRunLayout layout;    // flat kFixed runs only
};

/// parts[i][j] = part j of sorted run i (stride-m decimation, itself
/// sorted). With unshuffle_parts == 1 each inner vector has one entry: the
/// whole sorted run. Unshuffled runs of full length are laid out for the
/// group merge that reads them (LmmPartLayout, with M = run_len).
template <Record R>
using FormedRuns = std::vector<std::vector<StripedRun<R>>>;

/// Start-disk stride for flat (unsplit) runs: run i starts on disk
/// (i * stride) mod D. Coprime to D, so the map is a bijection for every
/// D — D/2+1 alone is even for D = 6 or 10 (colliding start disks), and
/// odd is still not enough for D = 15 (gcd(9, 15) = 3). For power-of-two
/// D the value is unchanged from D/2+1, preserving historical layouts.
/// Exposed so adversarial generators can target the layout.
inline u32 flat_run_start_stride(u32 num_disks) {
  if (num_disks < 4) return 1;
  u32 s = (num_disks / 2 + 1) | 1;
  while (std::gcd(s, num_disks) != 1) s += 2;
  return s;
}

template <Record R, class Cmp = std::less<R>>
FormedRuns<R> form_sorted_runs(PdmContext& ctx, const StripedRun<R>& input,
                               const RunFormationOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  const u64 run_len = opt.run_len;
  const u32 m = opt.unshuffle_parts;
  PDM_CHECK(run_len > 0 && run_len % rpb == 0,
            "run_len must be a positive multiple of B");
  if (m > 1) {
    PDM_CHECK(run_len % (static_cast<u64>(m) * rpb) == 0,
              "run_len must be a multiple of m*B for unshuffled output");
  }
  PDM_CHECK(opt.first_record % rpb == 0, "range start must be block aligned");
  PDM_CHECK(opt.first_record <= input.size(), "range start out of bounds");
  const u64 n = opt.num_records == 0 ? input.size() - opt.first_record
                                     : opt.num_records;
  PDM_CHECK(opt.first_record + n <= input.size(), "range end out of bounds");
  PDM_CHECK(n > 0, "empty input");
  PDM_CHECK(opt.layout.unit == 1 ||
                (m == 1 && opt.mode == RunFormationMode::kFixed &&
                 opt.layout.group_runs > 0),
            "a merge-run layout needs flat kFixed runs and its group size");
  if (opt.mode != RunFormationMode::kFixed) {
    // Order-adaptive modes emit flat variable-length runs; the unshuffled
    // (LMM) layout needs uniform run lengths, so it stays on kFixed.
    PDM_CHECK(m == 1, "adaptive run formation emits flat runs only");
    auto flat = replacement_select_runs<R>(
        ctx, input, run_len, opt.first_record, n,
        opt.mode == RunFormationMode::kUpDown, flat_run_start_stride(ctx.D()),
        cmp);
    FormedRuns<R> wrapped;
    wrapped.reserve(flat.size());
    for (auto& r : flat) wrapped.emplace_back().push_back(std::move(r));
    return wrapped;
  }
  const u64 num_runs = ceil_div(n, run_len);
  trace::TraceSpan trace_span("pass", "run_formation", "records", n);

  // Prefetch ring: two slabs with the async pipeline on, so run i+1
  // streams in while run i is sorted and written (submission order read
  // i+1, write i, read i+2), and one slab off, which reads each run just
  // before it is sorted. Identical read batches either way, so IoStats op
  // counts do not change — only the wall-clock overlap does.
  const usize load_len = static_cast<usize>(run_len);
  ReadAheadRing<R> ring(ctx.aio(), ctx.budget(), load_len,
                        ctx.aio().enabled() ? 2 : 1);
  TrackedBuffer<R> scratch = sort_scratch<R>(ctx, load_len);
  TrackedBuffer<R> parts_buf;
  if (m > 1) parts_buf = TrackedBuffer<R>(ctx.budget(), load_len);
  PipelineDrainGuard drain_guard(ctx.aio());  // after the buffers it guards

  FormedRuns<R> out;
  out.reserve(static_cast<usize>(num_runs));
  const LmmPartLayout lmm =
      m > 1 ? LmmPartLayout::for_merge(run_len, num_runs, m, run_len / m, rpb,
                                       ctx.D())
            : LmmPartLayout{};

  auto records_of = [&](u64 i) { return std::min(run_len, n - i * run_len); };
  u64 issued = 0;
  for (u64 i = 0; i < num_runs; ++i) {
    ctx.check_cancelled();
    if (i > 0) ring.pop();
    for (; issued < num_runs && !ring.full(); ++issued) {
      ring.push(input.read_reqs((opt.first_record + issued * run_len) / rpb,
                                ceil_div(records_of(issued), rpb),
                                ring.stage()));
    }
    const u64 nrec = records_of(i);
    R* buf = ring.front().data;
    internal_sort(std::span<R>(buf, static_cast<usize>(nrec)), cmp,
                  ctx.cpu_pool(), scratch.span());

    std::vector<StripedRun<R>>& runs_i = out.emplace_back();
    if (m == 1) {
      // Staggered start disks: an odd stride makes i -> start_disk a
      // bijection mod D (D is a power of two in the standard geometry),
      // so a cleanup chunk that reads a few blocks from every run spreads
      // evenly even when the run count does not divide M/B.
      const u32 stride = flat_run_start_stride(ctx.D());
      runs_i.emplace_back(ctx, static_cast<u32>((i * stride) % ctx.D()));
      runs_i[0].set_stripe_unit(opt.layout.unit_of(i, ctx.D()),
                                ceil_div(nrec, rpb));
      runs_i[0].append(std::span<const R>(buf, static_cast<usize>(nrec)));
      runs_i[0].finish();
      continue;
    }
    if (nrec < run_len) {
      // Ragged final run: the stride-m decimations of the sorted tail are
      // still sorted, but their lengths differ (part j holds every record
      // at source index ≡ j mod m, i.e. ceil((nrec - j) / m) records) and
      // are no longer block multiples, so the all-full-blocks staged batch
      // below cannot be used. Fall back to append()/finish(), which pads
      // each part's final block; per-part sizes record the true lengths,
      // so consumers that honor records_in_block() see no padding.
      const u64 p_len_max = ceil_div(nrec, m);
      ctx.cpu_pool().run_chunks(static_cast<usize>(m), [&](usize j) {
        R* dst = parts_buf.data() + j * p_len_max;
        u64 cnt = 0;
        for (u64 t = j; t < nrec; t += m) dst[cnt++] = buf[t];
      });
      runs_i.reserve(m);
      for (u64 j = 0; j < m; ++j) {
        runs_i.emplace_back(ctx, static_cast<u32>((i + j) % ctx.D()));
        const u64 cnt = j < nrec ? ceil_div(nrec - j, m) : 0;
        runs_i.back().append(std::span<const R>(
            parts_buf.data() + j * p_len_max, static_cast<usize>(cnt)));
        runs_i.back().finish();
      }
      continue;
    }
    // Gather the m stride-m decimations, then write every part in one
    // batched operation: part j, block b covers part positions
    // [b*B, (b+1)*B), i.e. source indices (b*B + t)*m + j.
    const u64 p_len = run_len / m;
    // Per-part gathers write disjoint slices of parts_buf, so running
    // them across the kernel budget is byte-identical to the serial loop.
    ctx.cpu_pool().run_chunks(static_cast<usize>(m), [&](usize j) {
      R* dst = parts_buf.data() + j * p_len;
      const R* src = buf;
      for (u64 t = 0; t < p_len; ++t) dst[t] = src[t * m + j];
    });
    runs_i = lmm.run_parts<R>(ctx, i);
    std::vector<WriteReq> reqs;
    reqs.reserve(static_cast<usize>(m * (p_len / rpb)));
    // Part-major staging: on each disk the run's blocks go out in the
    // (part, block) order they are placed in, so the scheduler coalesces
    // each stretch at a uniform buffer stride into one syscall. Per-disk
    // load — hence the parallel-op count — is identical to block-major
    // order.
    for (u64 j = 0; j < m; ++j) {
      for (u64 b = 0; b < p_len / rpb; ++b) {
        reqs.push_back(runs_i[static_cast<usize>(j)].stage_append_block(
            parts_buf.data() + j * p_len + b * rpb));
      }
    }
    ctx.write_batch(reqs);
    for (auto& part : runs_i) part.finish();
  }
  return out;
}

/// Convenience for the unshuffle_parts == 1 case: flat run list.
template <Record R, class Cmp = std::less<R>>
std::vector<StripedRun<R>> form_runs_flat(PdmContext& ctx,
                                          const StripedRun<R>& input,
                                          const RunFormationOptions& opt,
                                          Cmp cmp = {}) {
  PDM_CHECK(opt.unshuffle_parts == 1, "use form_sorted_runs for parts");
  auto formed = form_sorted_runs<R>(ctx, input, opt, cmp);
  std::vector<StripedRun<R>> flat;
  flat.reserve(formed.size());
  for (auto& f : formed) flat.push_back(std::move(f[0]));
  return flat;
}

}  // namespace pdm
