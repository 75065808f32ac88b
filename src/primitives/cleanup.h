// Streamed shuffle-cleanup: the single-pass realization of Observation 4.2.
//
// The paper's cleanup of a shuffled sequence Z is: split Z into chunks
// Z_1..Z_t of d records, sort each, merge (Z_1,Z_2), (Z_3,Z_4), ... then
// (Z_2,Z_3), (Z_4,Z_5), ... — correct whenever every record of Z sits
// within d of its sorted position. The streaming equivalent implemented
// here holds a window W of two chunks: read the next chunk, sort the whole
// window, emit the lower chunk, retain the upper.
//
// Equivalence sketch: the streamed pass emits, for window p, the smallest
// d records of (retained_p ∪ Z_{p+1}); by induction retained_p contains
// every unemitted record from Z_1..Z_p. A record destined for output
// window p (final position < p*d) lies at shuffled position < (p+1)*d by
// the displacement bound, i.e. in some chunk <= p+1 — always visible by
// the time window p is emitted. The paper's two merge rounds compute the
// same multisets (adding Z_{p+2}'s elements to the second round's merge
// cannot change the lower half, since any such element that entered the
// lower half would already have been in Z_{p+1}' after round one).
//
// On-line failure detection (§5): the output windows are sorted by
// construction, so the full output is sorted iff every window's minimum is
// >= the previous window's maximum. When a violation is found the pass
// aborts and the caller falls back to a deterministic sort, exactly as
// ExpectedTwoPass prescribes.
//
// Extent note: both ends of this pass are sequential streams — the source
// reads whole chunk-spans of each input run (run-major batches, see
// ShuffleChunkSource) and the sink appends through StripedRun — so with
// extent-backed runs the whole pass moves in extent-sized transfers; the
// window sort in between never touches the disks.
#pragma once

#include <algorithm>
#include <span>

#include "internal/insort.h"
#include "pdm/memory_budget.h"
#include "primitives/stream.h"
#include "util/trace.h"

namespace pdm {

struct CleanupOutcome {
  bool ok = true;       // false => displacement bound violated, pass aborted
  u64 emitted = 0;      // records pushed to the sink before abort/finish
  u64 windows = 0;      // windows emitted
};

struct CleanupOptions {
  u64 chunk_records = 0;            // d; window is 2d
  bool abort_on_violation = true;   // expected algorithms abort; the
                                    // deterministic ones treat it as a bug
};

template <Record R, class Cmp = std::less<R>>
CleanupOutcome streamed_cleanup(PdmContext& ctx, ChunkSource<R>& source,
                                Sink<R>& sink, const CleanupOptions& opt,
                                Cmp cmp = {}) {
  const usize chunk = static_cast<usize>(opt.chunk_records);
  PDM_CHECK(chunk > 0, "cleanup chunk must be positive");
  PDM_CHECK(source.chunk_records() <= chunk,
            "source chunks larger than cleanup chunk");
  trace::TraceSpan trace_span("pass", "cleanup", "chunk_records", chunk);

  TrackedBuffer<R> window(ctx.budget(), 2 * chunk);
  // Scratch for the parallel window sort (documented extra slack); serial
  // budget-1 jobs acquire nothing extra.
  TrackedBuffer<R> scratch = sort_scratch<R>(ctx, 2 * chunk);

  CleanupOutcome out;
  usize held = 0;
  R last_max{};
  bool have_last = false;

  while (!source.exhausted()) {
    ctx.check_cancelled();
    const usize got = source.next_chunk(window.data() + held, chunk);
    if (got == 0 && source.exhausted()) break;
    const usize total = held + got;
    internal_sort(std::span<R>(window.data(), total), cmp, ctx.cpu_pool(),
                  scratch.span());
    usize emit;
    if (source.exhausted()) {
      emit = total;  // final flush
    } else {
      emit = total > chunk ? total - chunk : 0;
    }
    if (emit > 0) {
      if (have_last && cmp(window[0], last_max)) {
        out.ok = false;
        if (opt.abort_on_violation) return out;
      }
      sink.push(std::span<const R>(window.data(), emit));
      out.emitted += emit;
      ++out.windows;
      last_max = window[emit - 1];
      have_last = true;
      std::copy(window.data() + emit, window.data() + total, window.data());
      held = total - emit;
    } else {
      held = total;
    }
  }
  if (held > 0) {
    // Source went dry exactly at a window boundary: flush the holdover.
    if (have_last && cmp(window[0], last_max)) {
      out.ok = false;
      if (opt.abort_on_violation) return out;
    }
    sink.push(std::span<const R>(window.data(), held));
    out.emitted += held;
    ++out.windows;
  }
  sink.close();
  return out;
}

}  // namespace pdm
