// The two single-sort workloads: one pdm_sort per repetition on a fresh
// standalone context, repeated until the run's time is used up.
//
//  - disk_uniform: a random permutation (the paper's input model) on the
//    memory backend under a seek-charging StreamModel; I/O-bound.
//  - file_nearsorted: a k-displaced near-sorted input on the file
//    backend with the presortedness probe on; CPU-bound, and the probed
//    planner picks the one-pass OrderAdaptive plan.
//
// Timed runs (--trace 0) measure pdm_sort with every tracer off. The
// traced run (--trace 1) splits its time into three phases: untraced
// repetitions (the baseline for the overheads, plus the forced unprobed
// plan for core.plan_gain), repetitions with the benchmark's own spans and
// the backend decorator, and repetitions with the library's phase tracer
// on.
#include "workloads.h"

#include <iostream>
#include <optional>
#include <string_view>

#include "core/adaptive.h"
#include "pdm/file_backend.h"
#include "pdm/memory_backend.h"
#include "traced_backend.h"
#include "util/generators.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using namespace pdm;

struct SortShape {
  u64 n = 0;
  u64 mem = 0;
  usize rpb = 0;
  u32 disks = 0;
  bool file = false;
  StreamModel stream{};
  usize async_depth = 0;
  usize cpu_budget = 1;
  bool probe = false;
  Dist dist = Dist::kPermutation;

  usize block_bytes() const { return rpb * sizeof(u64); }
};

SortShape shape_of(const std::string& workload) {
  SortShape s;
  if (workload == "disk_uniform") {
    s.mem = 65536;
    s.n = 43 * s.mem;  // just under ExpectedTwoPass capacity
    s.rpb = 256;
    s.disks = 4;
    s.stream.seq_us = 20;
    s.stream.seek_us = 400;
    s.async_depth = 4;
    s.cpu_budget = 1;
    s.dist = Dist::kPermutation;
  } else {
    s.mem = 262144;
    s.n = 8 * s.mem;
    s.rpb = 512;
    s.disks = 8;
    s.file = true;
    s.async_depth = 4;
    s.cpu_budget = 2;
    s.probe = true;
    s.dist = Dist::kNearSortedDisplaced;
  }
  return s;
}

/// One standalone machine plus handles on the backends under it.
struct Machine {
  std::unique_ptr<PdmContext> ctx;
  MemoryDiskBackend* memory = nullptr;  // stream-model counters
  TracedBackend* traced = nullptr;      // null when untraced
};

Machine make_machine(const SortShape& s, const std::string& dir,
                     SpanLog* log) {
  Machine m;
  std::unique_ptr<DiskBackend> raw;
  if (s.file) {
    raw = std::make_unique<FileDiskBackend>(s.disks, s.block_bytes(), dir);
  } else {
    auto mb = std::make_unique<MemoryDiskBackend>(s.disks, s.block_bytes());
    mb->set_stream_model(s.stream);
    m.memory = mb.get();
    raw = std::move(mb);
  }
  if (log != nullptr) {
    auto t = std::make_unique<TracedBackend>(
        std::shared_ptr<DiskBackend>(std::move(raw)), *log);
    m.traced = t.get();
    raw = std::move(t);
  }
  m.ctx = std::make_unique<PdmContext>(std::move(raw));
  m.ctx->set_async_depth(s.async_depth);
  m.ctx->set_cpu_budget(s.cpu_budget);
  return m;
}

struct StreamCounts {
  u64 hits = 0;
  u64 misses = 0;
};
StreamCounts stream_counts(const Machine& m) {
  if (m.memory == nullptr) return {};
  return {m.memory->stream_hits(), m.memory->stream_misses()};
}

/// Context construction plus input staging (drained, so the sort starts
/// from durable input): what setup_s times.
struct Staged {
  Machine machine;
  StripedRun<u64> input;
  double setup_s = 0;
};

Staged stage(const SortShape& s, const std::vector<u64>& data,
             const std::string& dir, SpanLog* log) {
  const auto t0 = std::chrono::steady_clock::now();
  Staged st;
  st.machine = make_machine(s, dir, log);
  st.input = write_input_run<u64>(*st.machine.ctx, std::span<const u64>(data));
  st.machine.ctx->aio().drain();
  st.setup_s = seconds_since(t0);
  return st;
}

AdaptiveOptions sort_options(const SortShape& s) {
  AdaptiveOptions o;
  o.mem_records = s.mem;
  o.probe = s.probe;
  return o;
}

/// Repetition loop bound: keep going while the next repetition (of the
/// mean length so far) still fits in the budget, and at least `min_reps`.
class RepBudget {
 public:
  RepBudget(double seconds, u64 min_reps)
      : seconds_(seconds), min_reps_(min_reps),
        t0_(std::chrono::steady_clock::now()) {}
  bool more() const {
    if (reps_ < min_reps_) return true;
    const double used = seconds_since(t0_);
    return used + used / static_cast<double>(reps_) <= seconds_;
  }
  void done_one() { ++reps_; }

 private:
  double seconds_;
  u64 min_reps_;
  std::chrono::steady_clock::time_point t0_;
  u64 reps_ = 0;
};

/// Reads the output back and checks it against the input fingerprint.
bool verify(const SortResult<u64>& res, const Fingerprint& fp) {
  const auto out = res.output.read_all();
  return output_ok(std::span<const u64>(out), fp);
}

struct TimedSample {
  double setup_s = 0;
  double wall_s = 0;
  SortReport report;
};

/// One untraced repetition: stage, sort (optionally forced), verify.
/// Returns nullopt when the sort threw; sets `*corrupt` on a mismatch.
std::optional<TimedSample> timed_rep(const SortShape& s,
                                     const std::vector<u64>& data,
                                     const Fingerprint& fp,
                                     const std::string& dir,
                                     std::optional<Algo> force, bool* corrupt) {
  try {
    Staged st = stage(s, data, dir, nullptr);
    AdaptiveOptions o = sort_options(s);
    o.force = force;
    TimedSample t;
    t.setup_s = st.setup_s;
    const auto t0 = std::chrono::steady_clock::now();
    auto res = pdm_sort<u64>(*st.machine.ctx, st.input, o);
    t.wall_s = seconds_since(t0);
    t.report = res.report;
    if (!verify(res, fp)) *corrupt = true;
    return t;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: sort failed: " << e.what() << "\n";
    return std::nullopt;
  }
}

void timed_run(const RunArgs& a, const SortShape& s,
               const std::vector<u64>& data, const Fingerprint& fp,
               RunResult& r) {
  bool corrupt = false;
  // Warm-up repetition (not reported): first-touch page faults, thread
  // creation and file creation land here instead of in the first sample.
  timed_rep(s, data, fp, a.workdir, std::nullopt, &corrupt);
  std::vector<double> setups, walls, passes, peaks;
  RepBudget budget(a.seconds, 3);
  while (budget.more()) {
    ++r.attempted;
    auto t = timed_rep(s, data, fp, a.workdir, std::nullopt, &corrupt);
    budget.done_one();
    if (!t) {
      ++r.failed;
      continue;
    }
    setups.push_back(t->setup_s);
    walls.push_back(t->wall_s);
    passes.push_back(t->report.passes);
    peaks.push_back(static_cast<double>(t->report.peak_memory_bytes));
  }
  r.correct = !corrupt;
  const double wall = median(walls);
  Metrics& m = r.metrics;
  m["mrec_per_s"] = wall > 0 ? static_cast<double>(s.n) / wall / 1e6 : 0;
  m["passes"] = median(passes);
  m["peak_mem_mb"] = median(peaks) / 1e6;
  m["jobs_per_s"] = wall > 0 ? 1.0 / wall : 0;
  m["job_latency_p50_s"] = wall;
  m["job_latency_p90_s"] = quantile(walls, 0.9);
  m["success_frac"] = static_cast<double>(r.attempted - r.failed) /
                      static_cast<double>(std::max<u64>(1, r.attempted));
  m["setup_s"] = median(setups);
  std::cout << walls.size() << " sorts; wall quartiles "
            << quantile(walls, 0.25) << " / " << wall << " / "
            << quantile(walls, 0.75) << " s\n";
}

// Backend-call tags for a standalone context: repetition * 8 + phase.
// Repetitions count from 1, so staging calls (tag 0) match none of them.
enum Phase : u64 { kProbe = 1, kSort = 2, kVerify = 3, kForm = 4 };
u64 tag(u64 rep, Phase p) { return rep * 8 + p; }

/// One traced repetition: probe and plan as pdm_sort would, the sort
/// forced to that plan, read-back, then run formation alone on the same
/// staged input in the plan's mode. Returns this repetition's per-layer
/// figures, plus "wall_s" (probe + plan + sort, the span-traced
/// counterpart of the untraced sort wall).
Metrics traced_rep(const SortShape& s, const std::vector<u64>& data,
                   const Fingerprint& fp, const std::string& dir, SpanLog& log,
                   u64 rep, bool* corrupt) {
  Staged st = stage(s, data, dir, &log);
  PdmContext& ctx = *st.machine.ctx;
  TracedBackend& tb = *st.machine.traced;
  SpanLog::Scoped rep_span(log, "bench.rep", rep);
  const auto t0 = std::chrono::steady_clock::now();
  u64 est_runs = 0;
  if (s.probe) {
    tb.set_tag(tag(rep, kProbe));
    SpanLog::Scoped sp(log, "core.probe", rep);
    est_runs = probe_presortedness<u64>(ctx, st.input, s.mem).est_runs;
  }
  PlanEntry plan;
  {
    SpanLog::Scoped sp(log, "core.plan", rep);
    plan = choose_plan(s.n, s.mem, s.rpb, 1.0, est_runs);
  }
  const double plan_s = seconds_since(t0);

  tb.set_tag(tag(rep, kSort));
  const StreamCounts sc0 = stream_counts(st.machine);
  const double cpu0 = thread_cpu_s();
  const double pcpu0 = process_cpu_s();
  AdaptiveOptions o = sort_options(s);
  o.force = plan.algo;
  std::optional<SortResult<u64>> res;
  double sort_s = 0;
  {
    SpanLog::Scoped sp(log, "core.sort", rep);
    res.emplace(pdm_sort<u64>(ctx, st.input, o));
    sort_s = sp.seconds();
  }
  const double sort_cpu = thread_cpu_s() - cpu0;
  const double proc_cpu = process_cpu_s() - pcpu0;
  const double wall = seconds_since(t0);
  const StreamCounts sc1 = stream_counts(st.machine);
  const SortReport report = res->report;

  tb.set_tag(tag(rep, kVerify));
  if (!verify(*res, fp)) *corrupt = true;
  res.reset();

  tb.set_tag(tag(rep, kForm));
  RunFormationOptions f;
  f.run_len = s.mem;
  f.mode = plan.algo == Algo::kOrderAdaptive ? AdaptiveOptions{}.adaptive_mode
                                             : RunFormationMode::kFixed;
  double form_s = 0;
  usize runs = 0;
  {
    SpanLog::Scoped sp(log, "primitives.form_runs", rep);
    runs = form_runs_flat<u64>(ctx, st.input, f).size();
    ctx.aio().drain();
    form_s = sp.seconds();
  }

  // Backend calls of the probe and the sort.
  std::vector<std::pair<u64, u64>> busy;
  std::vector<double> call_us;
  double bytes = 0;
  for (const Span& sp : log.snapshot()) {
    if (std::string_view(sp.name).starts_with("pdm.backend") &&
        (sp.id == tag(rep, kProbe) || sp.id == tag(rep, kSort))) {
      busy.emplace_back(sp.start_ns, sp.end_ns);
      call_us.push_back(sp.seconds() * 1e6);
      bytes += static_cast<double>(sp.bytes);
    }
  }
  const double D = s.disks;
  const double hits = static_cast<double>(sc1.hits - sc0.hits);
  const double misses = static_cast<double>(sc1.misses - sc0.misses);
  const double disk_model =
      (hits * static_cast<double>(s.stream.seq_us) +
       misses * static_cast<double>(s.stream.seek_us)) / 1e6 / D;
  const IoStats& io = report.io;
  Metrics m;
  m["wall_s"] = wall;
  m["core.plan_s"] = plan_s;
  m["core.pred_passes"] = plan.expected_passes;
  m["core.pass_error"] = report.passes - plan.expected_passes;
  m["core.sort_cpu_s"] = sort_cpu;
  m["core.blocked_s"] = sort_s - sort_cpu;
  m["primitives.run_formation_s"] = form_s;
  m["primitives.run_formation_ns_per_rec"] =
      form_s * 1e9 / static_cast<double>(s.n);
  m["primitives.runs"] = static_cast<double>(runs);
  m["pdm.read_ops"] = static_cast<double>(io.read_ops);
  m["pdm.write_ops"] = static_cast<double>(io.write_ops);
  m["pdm.blocks"] = static_cast<double>(io.total_blocks());
  m["pdm.calls"] = static_cast<double>(io.total_calls());
  m["pdm.coalesced_ratio"] = io.coalesced_ratio();
  m["pdm.utilization"] = io.utilization();
  m["pdm.sim_disk_s"] = io.sim_time_s;
  m["pdm.backend_busy_s"] = union_seconds(busy);
  m["pdm.backend_calls"] = static_cast<double>(call_us.size());
  m["pdm.backend_mb"] = bytes / 1e6;
  m["pdm.backend_call_us_p50"] = median(call_us);
  m["pdm.stream_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  m["pdm.disk_model_s"] = disk_model;
  m["pdm.model_floor_s"] = plan.expected_passes * 2.0 *
                           static_cast<double>(s.n) /
                           (D * static_cast<double>(s.rpb)) *
                           CostModel{}.round_cost(s.block_bytes());
  m["pdm.wall_over_floor"] = disk_model > 0 ? sort_s / disk_model : 0;
  m["util.process_cpu_s"] = proc_cpu;
  m["util.cores_used"] = proc_cpu / sort_s;
  return m;
}

void traced_run(const RunArgs& a, const SortShape& s,
                const std::vector<u64>& data, const Fingerprint& fp,
                RunResult& r, SpanLog& log) {
  bool corrupt = false;
  const Algo unprobed = choose_plan(s.n, s.mem, s.rpb, 1.0, 0).algo;
  timed_rep(s, data, fp, a.workdir, std::nullopt, &corrupt);  // warm-up

  // Phase A: untraced baseline (and the unprobed plan, when it differs).
  std::vector<double> base_walls, unprobed_walls;
  bool plan_differs = false;
  {
    RepBudget budget(a.seconds * 0.3, 2);
    while (budget.more()) {
      ++r.attempted;
      auto t = timed_rep(s, data, fp, a.workdir, std::nullopt, &corrupt);
      if (t) {
        base_walls.push_back(t->wall_s);
        plan_differs = t->report.algorithm != algo_name(unprobed);
      } else {
        ++r.failed;
      }
      if (plan_differs) {
        ++r.attempted;
        auto u = timed_rep(s, data, fp, a.workdir, unprobed, &corrupt);
        if (u) {
          unprobed_walls.push_back(u->wall_s);
        } else {
          ++r.failed;
        }
      }
      budget.done_one();
    }
  }

  // Phase B: the benchmark's spans and the backend decorator.
  std::vector<Metrics> samples;
  {
    RepBudget budget(a.seconds * 0.4, 2);
    for (u64 rep = 1; budget.more(); ++rep) {
      ++r.attempted;
      try {
        samples.push_back(
            traced_rep(s, data, fp, a.workdir, log, rep, &corrupt));
      } catch (const std::exception& e) {
        std::cerr << "perfbench: traced sort failed: " << e.what() << "\n";
        ++r.failed;
      }
      budget.done_one();
    }
  }

  // Phase C: the library's phase tracer on.
  std::vector<double> lib_walls;
  {
    auto& tl = trace::TraceLog::instance();
    tl.set_enabled(true);
    RepBudget budget(a.seconds * 0.3, 2);
    while (budget.more()) {
      ++r.attempted;
      auto t = timed_rep(s, data, fp, a.workdir, std::nullopt, &corrupt);
      if (t) {
        lib_walls.push_back(t->wall_s);
      } else {
        ++r.failed;
      }
      tl.clear();
      budget.done_one();
    }
    tl.set_enabled(false);
  }
  r.correct = !corrupt;

  if (samples.empty()) return;  // every traced repetition failed
  // Per-layer figures: the median over the span-traced repetitions.
  Metrics& m = r.metrics;
  for (const auto& [name, _] : samples.front()) {
    std::vector<double> xs;
    for (const Metrics& sm : samples) xs.push_back(sm.at(name));
    m[name] = median(xs);
  }
  const double base = median(base_walls);
  m["core.plan_gain"] =
      unprobed_walls.empty() ? 1.0 : median(unprobed_walls) / base;
  m["trace.overhead_frac"] = m["wall_s"] / base - 1;
  m.erase("wall_s");
  m["trace.lib_overhead_frac"] = median(lib_walls) / base - 1;
  std::cout << "traced samples: " << base_walls.size() << " baseline, "
            << unprobed_walls.size() << " unprobed-plan, " << samples.size()
            << " span-traced, " << lib_walls.size() << " library-traced\n";
}

}  // namespace

bool is_single_sort(const std::string& workload) {
  return workload == "disk_uniform" || workload == "file_nearsorted";
}

RunResult run_single_sort(const RunArgs& a, SpanLog& log) {
  const SortShape s = shape_of(a.workload);
  Rng rng(a.seed);
  const std::vector<u64> data =
      make_keys(static_cast<usize>(s.n), s.dist, rng);
  const Fingerprint fp = fingerprint(std::span<const u64>(data));
  std::cout << a.workload << ": N = " << s.n << ", M = " << s.mem
            << ", B = " << s.rpb << ", D = " << s.disks << ", "
            << (s.file ? "file" : "memory") << " backend, async depth "
            << s.async_depth << ", CPU budget " << s.cpu_budget << "\n";
  RunResult r;
  if (a.trace) {
    traced_run(a, s, data, fp, r, log);
  } else {
    timed_run(a, s, data, fp, r);
  }
  return r;
}

}  // namespace perfbench
