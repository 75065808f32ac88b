// AdaptiveSorter: the planner a downstream user calls when they just want
// the data sorted in as few passes as the paper's toolbox allows. Given
// (N, M, B, D, alpha) it enumerates the feasible algorithms with their
// expected pass counts (paper §1's "New Results" list) and dispatches to
// the cheapest.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/expected_six_pass.h"
#include "core/expected_three_pass.h"
#include "core/expected_two_pass.h"
#include "core/order_adaptive.h"
#include "core/seven_pass.h"
#include "core/three_pass_lmm.h"
#include "core/three_pass_mesh.h"
#include "baselines/multiway_merge.h"

namespace pdm {

enum class Algo {
  kInternal,
  kExpectedTwoPass,
  kThreePassLmm,
  kThreePassMesh,
  kExpectedThreePass,
  kExpectedSixPass,
  kSevenPass,
  kMultiwayMerge,
  kOrderAdaptive,
};

inline const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kInternal: return "InternalSort";
    case Algo::kExpectedTwoPass: return "ExpectedTwoPass";
    case Algo::kThreePassLmm: return "ThreePass2(LMM)";
    case Algo::kThreePassMesh: return "ThreePass1(mesh)";
    case Algo::kExpectedThreePass: return "ExpectedThreePass";
    case Algo::kExpectedSixPass: return "ExpectedSixPass";
    case Algo::kSevenPass: return "SevenPass";
    case Algo::kMultiwayMerge: return "MultiwayMerge";
    case Algo::kOrderAdaptive: return "OrderAdaptive";
  }
  return "?";
}

struct PlanEntry {
  Algo algo{};
  bool feasible = false;
  double expected_passes = 0;
  u64 capacity = 0;        // max N this algorithm handles at these params
  u64 est_runs = 0;        // kOrderAdaptive: probed run-count estimate
  std::string note;
};

/// Enumerates every algorithm with feasibility for the given shape. B and
/// M are in records; alpha is the w.h.p. exponent for expected variants.
/// est_runs > 0 is a presortedness-probe run-count estimate (see
/// core/order_adaptive.h); without it the order-adaptive plan is
/// unranked — the planner refuses to guess how much order the input has.
inline std::vector<PlanEntry> plan_options(u64 n, u64 mem, u64 rpb,
                                           double alpha, u64 est_runs = 0) {
  std::vector<PlanEntry> out;
  const u64 s = isqrt(mem);
  const bool square = s * s == mem;
  const bool b_is_sqrt = square && rpb == s;

  {
    PlanEntry e;
    e.algo = Algo::kInternal;
    e.capacity = mem;
    e.expected_passes = 1;
    e.feasible = n <= mem;
    e.note = "N <= M";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kExpectedTwoPass;
    e.capacity = cap_expected_two_pass(mem, alpha);
    e.expected_passes = 2;
    e.feasible = n > mem && n <= e.capacity && n % mem == 0;
    e.note = "Theorem 5.1";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kThreePassLmm;
    e.capacity = cap_three_pass(mem, rpb);
    e.expected_passes = 3;
    e.feasible = n > mem && n <= e.capacity && n % mem == 0;
    e.note = "Lemma 4.1";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kThreePassMesh;
    e.capacity = b_is_sqrt ? mem * s : 0;
    e.expected_passes = 3;
    e.feasible = b_is_sqrt && n == mem * s;
    e.note = "Theorem 3.1 (exact N = M^1.5, B = sqrt(M))";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kExpectedThreePass;
    e.capacity = cap_expected_three_pass(mem, alpha);
    e.expected_passes = 3;
    e.feasible =
        n > mem && n <= e.capacity && n % mem == 0 &&
        detail::choose_three_pass_segment(n, mem, rpb, alpha) != 0;
    e.note = "Theorem 6.1";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kExpectedSixPass;
    e.capacity = cap_expected_six_pass(mem, alpha);
    e.expected_passes = 6;
    e.feasible = b_is_sqrt && n <= e.capacity &&
                 detail::choose_six_pass_segment(n, mem, rpb, alpha) != 0;
    e.note = "Theorem 6.3";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kSevenPass;
    e.capacity = cap_seven_pass(mem);
    e.expected_passes = 7;
    e.feasible = b_is_sqrt && n <= e.capacity && n % (mem * s) == 0;
    e.note = "Theorem 6.2";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kMultiwayMerge;
    e.capacity = ~u64{0};
    e.expected_passes =
        multiway_predicted_passes(n, mem, std::max<u64>(2, mem / rpb / 2));
    e.feasible = n % rpb == 0;
    e.note = "baseline; parallelism expected, not guaranteed";
    out.push_back(e);
  }
  {
    PlanEntry e;
    e.algo = Algo::kOrderAdaptive;
    e.capacity = ~u64{0};
    e.est_runs = est_runs;
    if (est_runs > 0) {
      // Same approximate fan as the multiway entry (plan_options has no D).
      const u64 fan = std::max<u64>(2, mem / rpb / 2);
      e.expected_passes = order_adaptive_predicted_passes(est_runs, fan);
      e.feasible = n > mem && n % rpb == 0;
      e.note = "probe: ~" + std::to_string(est_runs) +
               " replacement-selection runs";
    } else {
      e.expected_passes = 0;
      e.feasible = false;
      e.note = "needs presortedness probe (est_runs unknown)";
    }
    out.push_back(e);
  }
  return out;
}

/// Picks the feasible plan with the fewest expected passes among the
/// paper's algorithms (whose parallelism is guaranteed); the multiway
/// baseline — whose *data* passes are few but whose parallel-I/O count is
/// only an expectation — is chosen only when nothing else fits. A probed
/// order-adaptive plan (est_runs > 0) wins only when its predicted pass
/// count is *strictly* lower: ties keep the legacy choice, so random
/// input (probe ≈ N/2M runs ⇒ the same pass count as the fixed plans)
/// stays byte-identical to historical behavior.
inline PlanEntry choose_plan(u64 n, u64 mem, u64 rpb, double alpha,
                             u64 est_runs = 0) {
  auto options = plan_options(n, mem, rpb, alpha, est_runs);
  const PlanEntry* best = nullptr;
  for (const auto& e : options) {
    if (!e.feasible || e.algo == Algo::kMultiwayMerge ||
        e.algo == Algo::kOrderAdaptive) {
      continue;
    }
    if (best == nullptr || e.expected_passes < best->expected_passes) {
      best = &e;
    }
  }
  for (const auto& e : options) {
    if (e.algo != Algo::kOrderAdaptive || !e.feasible) continue;
    if (best == nullptr || e.expected_passes < best->expected_passes) {
      best = &e;
    }
  }
  if (best == nullptr) {
    for (const auto& e : options) {
      if (e.feasible && e.algo == Algo::kMultiwayMerge) best = &e;
    }
  }
  PDM_CHECK(best != nullptr,
            "no feasible plan: N must be a multiple of B (and of M for the "
            "small-pass algorithms)");
  return *best;
}

struct AdaptiveOptions {
  u64 mem_records = 0;
  double alpha = 1.0;
  std::optional<Algo> force;  // override the planner
  u64 est_runs = 0;           // presortedness estimate (0 = none)
  bool probe = false;         // probe the input when est_runs == 0
  RunFormationMode adaptive_mode = RunFormationMode::kReplacementSelection;
};

/// Sorts with the planner-selected algorithm.
template <Record R, class Cmp = std::less<R>>
SortResult<R> pdm_sort(PdmContext& ctx, const StripedRun<R>& input,
                       const AdaptiveOptions& opt, Cmp cmp = {}) {
  const usize rpb = ctx.rpb<R>();
  u64 est_runs = opt.est_runs;
  if (!opt.force.has_value() && est_runs == 0 && opt.probe &&
      input.size() > opt.mem_records) {
    est_runs =
        probe_presortedness<R>(ctx, input, opt.mem_records, cmp).est_runs;
  }
  const Algo algo = opt.force.has_value()
                        ? *opt.force
                        : choose_plan(input.size(), opt.mem_records, rpb,
                                      opt.alpha, est_runs)
                              .algo;
  switch (algo) {
    case Algo::kInternal: {
      ReportBuilder rb(ctx, "InternalSort", input.size(), opt.mem_records,
                       rpb);
      TrackedBuffer<R> buf(ctx.budget(), static_cast<usize>(opt.mem_records));
      TrackedBuffer<R> scratch = sort_scratch<R>(ctx, buf.size());
      const u64 nb = input.num_blocks();
      input.read_blocks(0, nb, buf.data());
      std::span<R> recs(buf.data(), static_cast<usize>(input.size()));
      internal_sort(recs, cmp, ctx.cpu_pool(), scratch.span());
      SortResult<R> res;
      res.output = StripedRun<R>(ctx, 0);
      res.output.append(std::span<const R>(recs.data(), recs.size()));
      res.output.finish();
      res.report = rb.finish();
      return res;
    }
    case Algo::kExpectedTwoPass: {
      ExpectedTwoPassOptions o;
      o.mem_records = opt.mem_records;
      o.alpha = opt.alpha;
      return expected_two_pass_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kThreePassLmm: {
      ThreePassLmmOptions o;
      o.mem_records = opt.mem_records;
      return three_pass_lmm_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kThreePassMesh: {
      ThreePassMeshOptions o;
      o.mem_records = opt.mem_records;
      return three_pass_mesh_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kExpectedThreePass: {
      ExpectedThreePassOptions o;
      o.mem_records = opt.mem_records;
      o.alpha = opt.alpha;
      return expected_three_pass_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kExpectedSixPass: {
      ExpectedSixPassOptions o;
      o.mem_records = opt.mem_records;
      o.alpha = opt.alpha;
      return expected_six_pass_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kSevenPass: {
      SevenPassOptions o;
      o.mem_records = opt.mem_records;
      return seven_pass_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kMultiwayMerge: {
      MultiwaySortOptions o;
      o.mem_records = opt.mem_records;
      return multiway_merge_sort<R>(ctx, input, o, cmp);
    }
    case Algo::kOrderAdaptive: {
      OrderAdaptiveOptions o;
      o.mem_records = opt.mem_records;
      o.mode = opt.adaptive_mode;
      return order_adaptive_sort<R>(ctx, input, o, cmp);
    }
  }
  fail("unreachable: unknown algorithm");
}

}  // namespace pdm
