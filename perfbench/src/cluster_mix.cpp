// cluster_mix: a closed loop of 4 client threads against a 2-shard
// Cluster (1 worker each, least-loaded routing, hold queue on). Each
// client is a tenant with its own locality key and keeps exactly one job
// outstanding (submit, then wait), so twice as many jobs are outstanding
// as there are workers: admission, hold-queue waits, steals, depth/CPU
// arbitration, the plan cache and seek contention on shared disks all
// sit on the measured path.
//
// Every client cycles through 8 jobs (3 x M/2, 3 x 8M, 2 x 24M records:
// InternalSort, ExpectedTwoPass and ThreePass2(LMM) plans) and rotates
// its inputs through a uniform permutation, a near-sorted input
// submitted with order_adaptive on, and a few-distinct input. The clients
// start the size cycle in phase and differ in their input rotation: with
// the cycles out of phase, the median latency swung by ±15% from run to
// run (it falls where hold-queue waits spread the distribution thin).
// Inputs are generated from the seed before any timing; each job's
// completion callback reads the output back and checks order and
// fingerprint.
#include <malloc.h>

#include <atomic>
#include <functional>
#include <iostream>
#include <string_view>
#include <thread>

#include "cluster/cluster.h"
#include "traced_backend.h"
#include "util/generators.h"
#include "util/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pdm;

constexpr u64 kMem = 16384;
constexpr usize kBlockBytes = 1024;
constexpr usize kRpb = kBlockBytes / sizeof(u64);
constexpr u32 kDisksPerShard = 4;
constexpr u32 kShards = 2;
constexpr usize kClients = 4;
constexpr u64 kCycle[8] = {kMem / 2, 8 * kMem, 24 * kMem, kMem / 2,
                           8 * kMem, kMem / 2, 24 * kMem, 8 * kMem};
constexpr Dist kDists[3] = {Dist::kPermutation, Dist::kNearSortedDisplaced,
                            Dist::kFewDistinct};

StreamModel stream_model() {
  StreamModel s;
  s.seq_us = 10;
  s.seek_us = 200;
  return s;
}

struct Dataset {
  std::vector<u64> keys;
  Fingerprint fp;
};

/// datasets[client][cycle position][dist]: inputs of every job a client
/// can submit, generated once from the seed.
using Datasets = std::vector<std::vector<std::vector<Dataset>>>;

Datasets make_datasets(u64 seed) {
  Rng rng(seed);
  Datasets ds(kClients);
  for (usize c = 0; c < kClients; ++c) {
    for (u64 n : kCycle) {
      auto& per_dist = ds[c].emplace_back();
      for (Dist d : kDists) {
        Dataset x;
        x.keys = make_keys(static_cast<usize>(n), d, rng);
        x.fp = fingerprint(std::span<const u64>(x.keys));
        per_dist.push_back(std::move(x));
      }
    }
  }
  return ds;
}

/// One cluster plus handles on its shards' backends.
struct Rig {
  std::vector<std::shared_ptr<MemoryDiskBackend>> disks;
  std::unique_ptr<Cluster> cluster;
};

std::unique_ptr<Rig> make_rig(SpanLog* log) {
  auto rig = std::make_unique<Rig>();
  ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.policy = RoutePolicy::kLeastLoaded;
  cfg.hold_queue = true;
  cfg.shard.workers = 1;
  cfg.shard.io_depth_total = 8;
  cfg.shard.cpu_threads_total = 2;
  cfg.shard.total_memory_bytes = usize{64} << 20;
  Rig* r = rig.get();
  rig->cluster = std::make_unique<Cluster>(
      [r, log](u32 shard) -> std::shared_ptr<DiskBackend> {
        auto b = std::make_shared<MemoryDiskBackend>(kDisksPerShard,
                                                     kBlockBytes);
        b->set_stream_model(stream_model());
        r->disks.push_back(b);
        if (log == nullptr) return b;
        return std::make_shared<TracedBackend>(b, *log, shard);
      },
      cfg);
  return rig;
}

/// Completion callback that reads the job's output back and flags a
/// wrong order or record fingerprint.
std::function<void(const SortResult<u64>&)> verifying_callback(
    const Fingerprint* fp, std::atomic<bool>& corrupt) {
  return [fp, &corrupt](const SortResult<u64>& res) {
    const auto out = res.output.read_all();
    if (!output_ok(std::span<const u64>(out), *fp)) corrupt.store(true);
  };
}

struct JobSample {
  u64 n = 0;
  JobState state = JobState::kFailed;
  double latency_s = 0;
  double submit_s = 0;
  double queue_s = 0;
  double run_s = 0;
  double passes = 0;
  double plan_s = 0;       // traced: client-side probe + choose_plan
  double pred_passes = 0;  // traced: the plan's expected passes
};

struct LoopResult {
  std::vector<JobSample> jobs;
  double wall_s = 0;
  double proc_cpu_s = 0;
  u64 done = 0;
  u64 done_records = 0;
};

/// Runs the closed loop for `seconds`: clients stop submitting at the
/// deadline and the loop ends when their last jobs return. With a span
/// log, each job also gets a client-side replica of the service's
/// planning (probe + choose_plan, timed and recorded) and spans around
/// submit and wait.
LoopResult run_loop(Cluster& cluster, const Datasets& ds, double seconds,
                    SpanLog* log, std::atomic<bool>& corrupt) {
  std::vector<std::vector<JobSample>> per_client(kClients);
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> clients;
  for (usize c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string tenant = "tenant-" + std::to_string(c);
      for (u64 j = 0; seconds_since(t0) < seconds; ++j) {
        const usize pos = static_cast<usize>(j % std::size(kCycle));
        const usize dist = static_cast<usize>((j + c) % std::size(kDists));
        const Dataset& d = ds[c][pos][dist];
        SortJobSpec spec;
        spec.name = tenant + "/" + std::to_string(j);
        spec.mem_records = kMem;
        spec.locality_key = tenant;
        spec.order_adaptive = kDists[dist] == Dist::kNearSortedDisplaced;
        JobSample s;
        s.n = d.keys.size();
        if (log != nullptr) {
          const auto p0 = std::chrono::steady_clock::now();
          SpanLog::Scoped sp(*log, "core.plan", 0);
          u64 est = 0;
          if (spec.order_adaptive && s.n > kMem) {
            est = probe_presortedness<u64>(std::span<const u64>(d.keys), kMem)
                      .est_runs;
          }
          s.pred_passes =
              choose_plan(s.n, kMem, kRpb, 1.0, est).expected_passes;
          s.plan_s = seconds_since(p0);
        }
        std::vector<u64> payload = d.keys;
        const u64 ts0 = log != nullptr ? log->now_ns() : 0;
        const auto j0 = std::chrono::steady_clock::now();
        JobInfo info;
        try {
          const JobId id =
              cluster.submit<u64>(spec, std::move(payload), std::less<u64>{},
                                  verifying_callback(&d.fp, corrupt));
          s.submit_s = seconds_since(j0);
          const u64 ts1 = log != nullptr ? log->now_ns() : 0;
          info = cluster.wait(id);
          s.latency_s = seconds_since(j0);
          if (log != nullptr) {
            Span sub;
            sub.name = "cluster.submit";
            sub.start_ns = ts0;
            sub.end_ns = ts1;
            sub.id = info.trace_id;
            sub.shard = info.shard;
            log->add(sub);
            Span w = sub;
            w.name = "cluster.wait";
            w.start_ns = ts1;
            w.end_ns = log->now_ns();
            log->add(w);
          }
        } catch (const std::exception& e) {
          std::cerr << "perfbench: job failed: " << e.what() << "\n";
          info.state = JobState::kFailed;
          s.latency_s = seconds_since(j0);
        }
        s.state = info.state;
        s.queue_s = info.queue_s;
        s.run_s = info.run_s;
        s.passes = info.report.passes;
        if (info.state != JobState::kDone && !info.error.empty()) {
          std::cerr << "perfbench: job " << spec.name << " "
                    << job_state_name(info.state) << ": " << info.error
                    << "\n";
        }
        per_client[c].push_back(s);
      }
    });
  }
  for (auto& t : clients) t.join();
  LoopResult r;
  r.wall_s = seconds_since(t0);
  r.proc_cpu_s = process_cpu_s() - cpu0;
  for (auto& v : per_client) {
    for (const JobSample& s : v) {
      r.jobs.push_back(s);
      if (s.state == JobState::kDone) {
        ++r.done;
        r.done_records += s.n;
      }
    }
  }
  return r;
}

/// Latencies of every attempted job; a job that did not complete counts
/// as its epoch's whole wall, i.e. as missing any latency limit.
void add_latencies(const LoopResult& l, std::vector<double>& xs) {
  for (const JobSample& s : l.jobs) {
    xs.push_back(s.state == JobState::kDone ? s.latency_s : l.wall_s);
  }
}

/// Submits one M/2 job per client and input distribution, and waits for
/// all of them: the plan cache, the shards' lazily started helpers and
/// the allocator are warm before the loop starts.
void warm_up(Cluster& cluster, const Datasets& ds, std::atomic<bool>& corrupt,
             RunResult& r) {
  std::vector<JobId> ids;
  for (usize c = 0; c < kClients; ++c) {
    for (usize dist = 0; dist < std::size(kDists); ++dist) {
      const Dataset& d = ds[c][0][dist];
      SortJobSpec spec;
      spec.name = "warm-up";
      spec.mem_records = kMem;
      spec.locality_key = "tenant-" + std::to_string(c);
      spec.order_adaptive = kDists[dist] == Dist::kNearSortedDisplaced;
      ids.push_back(cluster.submit<u64>(spec, d.keys, std::less<u64>{},
                                        verifying_callback(&d.fp, corrupt)));
    }
  }
  for (JobId id : ids) {
    ++r.attempted;
    if (cluster.wait(id).state != JobState::kDone) ++r.failed;
  }
}

/// Cluster-side counters of one rig, so an epoch's loop can be measured
/// as the difference after and before it (excluding the warm-up).
struct Counters {
  IoStats io;
  u64 cache_hits = 0;
  u64 cache_lookups = 0;
  u64 held_total = 0;
  u64 stolen = 0;
  u64 spilled = 0;
  u64 stream_hits = 0;
  u64 stream_misses = 0;

  static Counters of(const Rig& rig) {
    const ClusterStats st = rig.cluster->stats();
    Counters c;
    // ClusterStats::io leaves read_calls/write_calls at 0, so the totals
    // are summed from the per-shard snapshots instead.
    for (const ServiceStats& ss : st.per_shard) {
      c.io.read_ops += ss.io.read_ops;
      c.io.write_ops += ss.io.write_ops;
      c.io.blocks_read += ss.io.blocks_read;
      c.io.blocks_written += ss.io.blocks_written;
      c.io.read_calls += ss.io.read_calls;
      c.io.write_calls += ss.io.write_calls;
      c.io.sim_time_s += ss.io.sim_time_s;
      c.cache_hits += ss.plan_cache_hits;
      c.cache_lookups += ss.plan_cache_hits + ss.plan_cache_misses;
    }
    c.held_total = st.held_total;
    c.stolen = st.stolen;
    c.spilled = st.spilled;
    for (const auto& b : rig.disks) {
      c.stream_hits += b->stream_hits();
      c.stream_misses += b->stream_misses();
    }
    return c;
  }

  void add_delta(const Counters& after, const Counters& before) {
    const IoStats d = delta(after.io, before.io);
    io.read_ops += d.read_ops;
    io.write_ops += d.write_ops;
    io.blocks_read += d.blocks_read;
    io.blocks_written += d.blocks_written;
    io.read_calls += d.read_calls;
    io.write_calls += d.write_calls;
    io.sim_time_s += d.sim_time_s;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_lookups += after.cache_lookups - before.cache_lookups;
    held_total += after.held_total - before.held_total;
    stolen += after.stolen - before.stolen;
    spilled += after.spilled - before.spilled;
    stream_hits += after.stream_hits - before.stream_hits;
    stream_misses += after.stream_misses - before.stream_misses;
  }
};

/// What a sequence of epochs measured.
struct Epochs {
  std::vector<JobSample> jobs;
  std::vector<double> latencies;
  std::vector<double> epoch_jobs_per_s;
  std::vector<double> epoch_mrec_per_s;
  std::vector<double> setups;
  std::vector<double> job_imbalance;
  std::vector<double> io_imbalance;
  std::vector<std::pair<u64, u64>> loop_ns;  // span-log time of each loop
  Counters counters;
  double wall_s = 0;
  double proc_cpu_s = 0;
  double peak_mem_bytes = 0;
  u64 done = 0;
};

// The memory backend never frees blocks a finished job consumed, so a
// shard's disk array grows by several MB per job. The loop therefore runs
// in epochs of about this length, each on a fresh cluster, to keep the
// benchmark's footprint bounded (see also run_cluster_mix's mallopt).
constexpr double kEpochSeconds = 5;

Epochs run_epochs(const Datasets& ds, double seconds, SpanLog* log,
                  std::atomic<bool>& corrupt, RunResult& r) {
  Epochs e;
  const int n =
      std::max(1, static_cast<int>(std::lround(seconds / kEpochSeconds)));
  for (int i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto rig = make_rig(log);
    warm_up(*rig->cluster, ds, corrupt, r);
    e.setups.push_back(seconds_since(t0));
    const Counters before = Counters::of(*rig);
    const u64 ns0 = log != nullptr ? log->now_ns() : 0;
    const LoopResult l =
        run_loop(*rig->cluster, ds, seconds / n, log, corrupt);
    rig->cluster->drain();
    if (log != nullptr) e.loop_ns.emplace_back(ns0, log->now_ns());
    e.counters.add_delta(Counters::of(*rig), before);
    const ClusterStats st = rig->cluster->stats();
    e.job_imbalance.push_back(st.job_imbalance);
    e.io_imbalance.push_back(st.io_imbalance);
    e.peak_mem_bytes =
        std::max(e.peak_mem_bytes, static_cast<double>(st.peak_memory_bytes));
    r.attempted += l.jobs.size();
    r.failed += l.jobs.size() - l.done;
    e.done += l.done;
    e.wall_s += l.wall_s;
    e.proc_cpu_s += l.proc_cpu_s;
    e.epoch_jobs_per_s.push_back(static_cast<double>(l.done) / l.wall_s);
    e.epoch_mrec_per_s.push_back(static_cast<double>(l.done_records) /
                                 l.wall_s / 1e6);
    add_latencies(l, e.latencies);
    e.jobs.insert(e.jobs.end(), l.jobs.begin(), l.jobs.end());
  }
  return e;
}

void timed_run(const RunArgs& a, const Datasets& ds, RunResult& r) {
  std::atomic<bool> corrupt{false};  // outlives every rig's callbacks
  const Epochs e = run_epochs(ds, a.seconds, nullptr, corrupt, r);
  r.correct = !corrupt.load();
  std::vector<double> passes;
  for (const JobSample& s : e.jobs) {
    if (s.state == JobState::kDone) passes.push_back(s.passes);
  }
  Metrics& m = r.metrics;
  m["mrec_per_s"] = median(e.epoch_mrec_per_s);
  m["passes"] = mean(passes);
  m["peak_mem_mb"] = e.peak_mem_bytes / 1e6;
  m["jobs_per_s"] = median(e.epoch_jobs_per_s);
  m["job_latency_p50_s"] = quantile(e.latencies, 0.5);
  m["job_latency_p90_s"] = quantile(e.latencies, 0.9);
  m["success_frac"] = static_cast<double>(e.done) /
                      static_cast<double>(std::max<usize>(1, e.jobs.size()));
  m["setup_s"] = median(e.setups);
  std::cout << "cluster_mix: " << e.jobs.size() << " jobs in "
            << e.epoch_jobs_per_s.size() << " epochs, " << e.wall_s << " s, "
            << e.done << " completed\n";
}

void traced_run(const RunArgs& a, const Datasets& ds, RunResult& r,
                SpanLog& log) {
  std::atomic<bool> corrupt{false};
  // Phase A: untraced baseline for the overheads.
  const double base_lat =
      mean(run_epochs(ds, a.seconds * 0.3, nullptr, corrupt, r).latencies);
  // Phase B: the benchmark's spans and the backend decorator.
  const Epochs e = run_epochs(ds, a.seconds * 0.4, &log, corrupt, r);
  // Phase C: the library's phase tracer on.
  auto& tl = trace::TraceLog::instance();
  tl.set_enabled(true);
  const double lib_lat =
      mean(run_epochs(ds, a.seconds * 0.3, nullptr, corrupt, r).latencies);
  tl.set_enabled(false);
  tl.clear();
  r.correct = !corrupt.load();

  const double jobs = static_cast<double>(std::max<u64>(1, e.done));
  std::vector<double> plan, pred, err, queue, run, submit_us, hold;
  double floor = 0;
  for (const JobSample& s : e.jobs) {
    plan.push_back(s.plan_s);
    if (s.state != JobState::kDone) continue;
    pred.push_back(s.pred_passes);
    err.push_back(s.passes - s.pred_passes);
    queue.push_back(s.queue_s);
    run.push_back(s.run_s);
    submit_us.push_back(s.submit_s * 1e6);
    hold.push_back(std::max(0.0, s.latency_s - s.queue_s - s.run_s));
    floor += s.pred_passes * 2.0 * static_cast<double>(s.n) /
             (kDisksPerShard * static_cast<double>(kRpb)) *
             CostModel{}.round_cost(kBlockBytes);
  }
  // Backend calls made during the loops (warm-up calls excluded).
  std::vector<std::pair<u64, u64>> busy;
  std::vector<double> call_us;
  double bytes = 0;
  for (const Span& sp : log.snapshot()) {
    if (!std::string_view(sp.name).starts_with("pdm.backend")) continue;
    bool in_loop = false;
    for (const auto& [lo, hi] : e.loop_ns) {
      in_loop = in_loop || (sp.start_ns >= lo && sp.end_ns <= hi);
    }
    if (!in_loop) continue;
    busy.emplace_back(sp.start_ns, sp.end_ns);
    call_us.push_back(sp.seconds() * 1e6);
    bytes += static_cast<double>(sp.bytes);
  }
  const Counters& c = e.counters;
  const StreamModel sm = stream_model();
  const double disks = kShards * kDisksPerShard;
  const double disk_model =
      (static_cast<double>(c.stream_hits) * static_cast<double>(sm.seq_us) +
       static_cast<double>(c.stream_misses) * static_cast<double>(sm.seek_us)) /
      1e6 / disks / jobs;

  // Cluster figures are per completed job (counts, seconds) or ratios.
  Metrics& m = r.metrics;
  m["core.plan_s"] = mean(plan);
  m["core.pred_passes"] = mean(pred);
  m["core.pass_error"] = mean(err);
  m["pdm.read_ops"] = static_cast<double>(c.io.read_ops) / jobs;
  m["pdm.write_ops"] = static_cast<double>(c.io.write_ops) / jobs;
  m["pdm.blocks"] = static_cast<double>(c.io.total_blocks()) / jobs;
  m["pdm.calls"] = static_cast<double>(c.io.total_calls()) / jobs;
  m["pdm.coalesced_ratio"] = c.io.coalesced_ratio();
  m["pdm.utilization"] = c.io.utilization();
  m["pdm.sim_disk_s"] = c.io.sim_time_s / jobs;
  m["pdm.backend_busy_s"] = union_seconds(busy) / jobs;
  m["pdm.backend_calls"] = static_cast<double>(call_us.size()) / jobs;
  m["pdm.backend_mb"] = bytes / 1e6 / jobs;
  m["pdm.backend_call_us_p50"] = median(call_us);
  const u64 lookups = c.stream_hits + c.stream_misses;
  m["pdm.stream_hit_rate"] =
      lookups == 0 ? 0
                   : static_cast<double>(c.stream_hits) /
                         static_cast<double>(lookups);
  m["pdm.disk_model_s"] = disk_model;
  m["pdm.model_floor_s"] = floor / jobs;
  m["pdm.wall_over_floor"] =
      disk_model > 0 ? e.wall_s / jobs / disk_model : 0;
  m["util.process_cpu_s"] = e.proc_cpu_s / jobs;
  m["util.cores_used"] = e.proc_cpu_s / e.wall_s;
  m["service.queue_s_p50"] = quantile(queue, 0.5);
  m["service.queue_s_p90"] = quantile(queue, 0.9);
  m["service.run_s_p50"] = quantile(run, 0.5);
  m["service.run_s_p90"] = quantile(run, 0.9);
  m["service.submit_us_p50"] = quantile(submit_us, 0.5);
  m["service.plan_cache_hit_rate"] =
      c.cache_lookups == 0 ? 0
                           : static_cast<double>(c.cache_hits) /
                                 static_cast<double>(c.cache_lookups);
  m["cluster.hold_wait_s_p50"] = quantile(hold, 0.5);
  m["cluster.hold_wait_s_p90"] = quantile(hold, 0.9);
  m["cluster.held_total"] = static_cast<double>(c.held_total);
  m["cluster.stolen"] = static_cast<double>(c.stolen);
  m["cluster.spilled"] = static_cast<double>(c.spilled);
  m["cluster.job_imbalance"] = median(e.job_imbalance);
  m["cluster.io_imbalance"] = median(e.io_imbalance);
  m["trace.overhead_frac"] =
      base_lat > 0 ? mean(e.latencies) / base_lat - 1 : 0;
  m["trace.lib_overhead_frac"] = base_lat > 0 ? lib_lat / base_lat - 1 : 0;
  std::cout << "cluster_mix traced: " << e.jobs.size() << " jobs ("
            << e.done << " completed) in " << e.wall_s << " s\n";
}

}  // namespace

RunResult run_cluster_mix(const RunArgs& a, SpanLog& log) {
  // The disk arrays grow by doubling through every size up to tens of MB.
  // Under glibc's adaptive mmap threshold the smaller steps land on the
  // heap and fragment it, so each epoch left ~150 MB of RSS behind; a
  // fixed threshold keeps them mmapped and returns them when a rig dies.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  const Datasets ds = make_datasets(a.seed);
  std::cout << "cluster_mix: " << kShards << " shards x 1 worker, "
            << kClients << " closed-loop clients, M = " << kMem << ", B = "
            << kRpb << ", D = " << kDisksPerShard << " per shard\n";
  RunResult r;
  if (a.trace) {
    traced_run(a, ds, r, log);
  } else {
    timed_run(a, ds, r);
  }
  return r;
}

}  // namespace perfbench
