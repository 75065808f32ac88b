// Elastic-cluster scenario suite: scripted topology changes against
// seeded workloads. Locks down the PR 5 acceptance criteria:
//
//  - consistent-hash ring: across 1→2→4→8 transitions only ~1/N of
//    locality keys remap, every remapped key moves TO the joining shard
//    (or OFF the leaving one), the assignment is near-uniform
//    (chi-square bound), and sticky pins survive remaps coherently;
//  - live 2→4 scale-out and 4→3 drain complete under load with zero
//    lost or duplicated jobs and per-job pass counts equal to the
//    static-topology baseline;
//  - the two-level exact-sum IoStats invariant holds across migrations
//    and retirements (per-job deltas sum to shard totals — live or
//    retired — and shard totals sum to the cluster total);
//  - the hold queue lets idle shards steal a saturated shard's backlog
//    in EDF-within-priority order (starvation regression);
//  - concurrent submits and cancels while add_shard/drain_shard run
//    mid-flight stay coherent. The whole file must be TSan-clean (CI
//    runs it under -fsanitize=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "pdm/backend_factory.h"
#include "test_support.h"
#include "util/generators.h"

namespace pdm {
namespace {

constexpr u64 kMem = 1024;          // per-job M in records
constexpr usize kBlockBytes = 256;  // rpb: u64 = 32
constexpr u32 kDisksPerShard = 4;

SortJobSpec spec_of(std::string name, std::string locality_key = "",
                    int priority = 0) {
  SortJobSpec s;
  s.name = std::move(name);
  s.mem_records = kMem;
  s.priority = priority;
  s.locality_key = std::move(locality_key);
  return s;
}

/// A locality key routing to `shard` on the cluster's consistent-hash
/// ring.
std::string key_for_shard(const Cluster& cluster, u32 shard,
                          std::string seed) {
  std::string key = seed;
  while (cluster.router().ring().route(locality_hash(key)) != shard) {
    key += seed;
  }
  return key;
}

/// Submits a u64 job whose callback verifies sortedness and counts its
/// own invocations — the "zero lost or duplicated jobs" probe: exactly
/// one callback per kDone job, zero per anything else.
JobId submit_counted(Cluster& cluster, SortJobSpec spec,
                     std::vector<u64> data,
                     std::shared_ptr<std::atomic<int>> runs,
                     std::atomic<int>& bad) {
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  return cluster.submit<u64>(
      std::move(spec), std::move(data), std::less<u64>{},
      [expected = std::move(expected), runs,
       &bad](const SortResult<u64>& res) {
        ++*runs;
        if (res.output.read_all() != expected) ++bad;
      });
}

/// Asserts the two-level exact-sum I/O invariant over a drained cluster:
/// per-job deltas sum to each shard's totals (live shards via jobs(),
/// retired shards via the cluster-held records of `ids`), and per-shard
/// totals sum to the cluster totals.
void expect_two_level_invariant(Cluster& cluster,
                                const std::vector<JobId>& ids) {
  const ClusterStats st = cluster.stats();
  std::vector<IoStats> sums(st.shards);
  for (auto& s : sums) s.reset(kDisksPerShard);
  std::set<u32> retired;
  for (usize s = 0; s < st.shards; ++s) {
    if (cluster.shard_active(static_cast<u32>(s))) {
      for (const JobInfo& j : cluster.shard(s).jobs()) {
        sums[s].read_ops += j.io.read_ops;
        sums[s].write_ops += j.io.write_ops;
        sums[s].blocks_read += j.io.blocks_read;
        sums[s].blocks_written += j.io.blocks_written;
      }
    } else {
      retired.insert(static_cast<u32>(s));
    }
  }
  // Retired shards' records live at cluster level now; their JobInfo
  // still names the serving shard.
  for (JobId id : ids) {
    const JobInfo j = cluster.info(id);
    if (retired.count(j.shard) == 0) continue;
    sums[j.shard].read_ops += j.io.read_ops;
    sums[j.shard].write_ops += j.io.write_ops;
    sums[j.shard].blocks_read += j.io.blocks_read;
    sums[j.shard].blocks_written += j.io.blocks_written;
  }
  IoStats shard_sum;
  shard_sum.reset(0);
  for (usize s = 0; s < st.shards; ++s) {
    EXPECT_EQ(sums[s].read_ops, st.per_shard[s].io.read_ops) << "shard " << s;
    EXPECT_EQ(sums[s].write_ops, st.per_shard[s].io.write_ops)
        << "shard " << s;
    EXPECT_EQ(sums[s].blocks_read, st.per_shard[s].io.blocks_read)
        << "shard " << s;
    EXPECT_EQ(sums[s].blocks_written, st.per_shard[s].io.blocks_written)
        << "shard " << s;
    shard_sum.read_ops += st.per_shard[s].io.read_ops;
    shard_sum.write_ops += st.per_shard[s].io.write_ops;
    shard_sum.blocks_read += st.per_shard[s].io.blocks_read;
    shard_sum.blocks_written += st.per_shard[s].io.blocks_written;
    shard_sum.read_calls += st.per_shard[s].io.read_calls;
    shard_sum.write_calls += st.per_shard[s].io.write_calls;
    const IoStats& io = st.per_shard[s].io;
    shard_sum.disk_read_calls.insert(shard_sum.disk_read_calls.end(),
                                     io.disk_read_calls.begin(),
                                     io.disk_read_calls.end());
    shard_sum.disk_write_calls.insert(shard_sum.disk_write_calls.end(),
                                      io.disk_write_calls.begin(),
                                      io.disk_write_calls.end());
  }
  EXPECT_EQ(shard_sum.read_ops, st.io.read_ops);
  EXPECT_EQ(shard_sum.write_ops, st.io.write_ops);
  EXPECT_EQ(shard_sum.blocks_read, st.io.blocks_read);
  EXPECT_EQ(shard_sum.blocks_written, st.io.blocks_written);
  // Backend call counts roll up the same way: summed totals, per-disk
  // vectors concatenated in shard order.
  EXPECT_GT(shard_sum.read_calls, 0u);
  EXPECT_EQ(shard_sum.read_calls, st.io.read_calls);
  EXPECT_EQ(shard_sum.write_calls, st.io.write_calls);
  EXPECT_EQ(shard_sum.disk_read_calls, st.io.disk_read_calls);
  EXPECT_EQ(shard_sum.disk_write_calls, st.io.disk_write_calls);
}

// ---------------------------------------------------------------------
// Consistent-hash ring properties (satellite: property test).
// ---------------------------------------------------------------------

TEST(ClusterScenarios, RingRemapsOnlyOneNthOfKeysPerTransition)
{
  // 1 → 2 → 4 → 8 shards, one add at a time: adding shard k to a
  // (k)-shard ring must move keys ONLY onto shard k, and roughly a
  // 1/(k+1) share of them (the ring's vnode arcs concentrate the share
  // around the fair split).
  constexpr usize kKeys = 20000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (usize i = 0; i < kKeys; ++i) {
    keys.push_back("tenant-" + std::to_string(i));
  }
  ShardRouter router(1, RoutePolicy::kLocalityHash);
  std::vector<ShardLoad> loads(8);  // slot-indexed placeholders
  auto place_all = [&] {
    std::vector<u32> out;
    out.reserve(kKeys);
    SortJobSpec spec;
    for (const auto& k : keys) {
      spec.locality_key = k;
      out.push_back(router.place(spec, loads));
    }
    return out;
  };
  std::vector<u32> before = place_all();
  for (u32 add = 1; add < 8; ++add) {
    router.add_shard(add);
    std::vector<u32> after = place_all();
    usize moved = 0;
    for (usize i = 0; i < kKeys; ++i) {
      if (after[i] != before[i]) {
        ++moved;
        // The consistent-hash property, exactly: a remapped key can only
        // have been claimed by the joining shard.
        ASSERT_EQ(after[i], add) << "key " << keys[i]
                                 << " moved between surviving shards";
      }
    }
    const double frac =
        static_cast<double>(moved) / static_cast<double>(kKeys);
    const double fair = 1.0 / static_cast<double>(add + 1);
    EXPECT_GT(frac, 0.55 * fair) << "transition to " << add + 1 << " shards";
    EXPECT_LT(frac, 1.45 * fair) << "transition to " << add + 1 << " shards";
    before = std::move(after);
  }
  // Near-uniform assignment at 8 shards: chi-square over the key counts
  // against the uniform expectation. With 256 vnodes the arc-share
  // spread is ~1/sqrt(256) per shard (measured chi2 ~69 for this key
  // population); 200 is a loose deterministic bound (the ring layout is
  // a pure function of the shard ids).
  std::vector<usize> counts(8, 0);
  for (u32 s : before) ++counts[s];
  const double expect = static_cast<double>(kKeys) / 8.0;
  double chi2 = 0;
  for (usize c : counts) {
    const double d = static_cast<double>(c) - expect;
    chi2 += d * d / expect;
  }
  EXPECT_LT(chi2, 200.0) << "assignment too skewed";
  for (usize c : counts) {
    EXPECT_GT(static_cast<double>(c), 0.7 * expect);
    EXPECT_LT(static_cast<double>(c), 1.3 * expect);
  }

  // Removal is the mirror image: draining shard 3 moves exactly its own
  // keys, nothing else.
  std::vector<u32> with8 = before;
  router.remove_shard(3);
  std::vector<u32> after = place_all();
  for (usize i = 0; i < kKeys; ++i) {
    if (with8[i] == 3) {
      EXPECT_NE(after[i], 3u);
    } else {
      EXPECT_EQ(after[i], with8[i]) << "unrelated key moved on a drain";
    }
  }
}

TEST(ClusterScenarios, StickyPinsSurviveTopologyChangesCoherently)
{
  ShardRouter router(4, RoutePolicy::kLocalityHash);
  router.set_spill_promote_after(2);
  std::vector<ShardLoad> loads(8);
  SortJobSpec spec;
  spec.locality_key = "pinned-tenant";
  // Two consecutive spills to shard 2 pin the key there.
  router.note_spill(spec.locality_key, 2);
  router.note_spill(spec.locality_key, 2);
  ASSERT_TRUE(router.pinned_shard(spec.locality_key).has_value());
  EXPECT_EQ(*router.pinned_shard(spec.locality_key), 2u);
  EXPECT_EQ(router.place(spec, loads), 2u);
  // Adding a shard does not disturb the pin (even if the ring would now
  // route the key elsewhere).
  router.add_shard(4);
  ASSERT_TRUE(router.pinned_shard(spec.locality_key).has_value());
  EXPECT_EQ(*router.pinned_shard(spec.locality_key), 2u);
  EXPECT_EQ(router.place(spec, loads), 2u);
  // Draining the pin's target dissolves it: the key re-learns, and
  // placement falls back to the ring — on an active shard.
  router.remove_shard(2);
  EXPECT_FALSE(router.pinned_shard(spec.locality_key).has_value());
  const u32 placed = router.place(spec, loads);
  EXPECT_NE(placed, 2u);
  EXPECT_TRUE(router.is_active(placed));
}

// ---------------------------------------------------------------------
// Scripted scale-out and drain under load (tentpole acceptance).
// ---------------------------------------------------------------------

/// Runs every dataset once on a static 1-shard cluster (same per-shard
/// geometry) and returns the per-dataset pass counts: the
/// static-topology baseline elastic runs are pinned to.
std::vector<double> baseline_passes(
    const std::vector<std::vector<u64>>& datasets) {
  ClusterConfig cfg;
  cfg.shards = 1;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  std::vector<double> passes;
  for (const auto& d : datasets) {
    const JobInfo info =
        cluster.wait(cluster.submit<u64>(spec_of("base"), d));
    EXPECT_EQ(info.state, JobState::kDone);
    passes.push_back(info.report.passes);
  }
  return passes;
}

TEST(ClusterScenarios, ScaleOutTwoToFourUnderLoad)
{
  Rng rng(31);
  std::vector<std::vector<u64>> datasets;
  for (int j = 0; j < 20; ++j) {
    datasets.push_back(
        make_keys((static_cast<usize>(j) % 3 + 1) * 2 * kMem,
                  Dist::kPermutation, rng));
  }
  const std::vector<double> base = baseline_passes(datasets);

  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLeastLoaded;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 50),
                  cfg);
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::atomic<int> bad{0};
  auto feed = [&](int from, int to) {
    for (int j = from; j < to; ++j) {
      runs.push_back(std::make_shared<std::atomic<int>>(0));
      ids.push_back(submit_counted(
          cluster,
          spec_of("job" + std::to_string(j),
                  "tenant-" + std::to_string(j % 5)),
          datasets[static_cast<usize>(j)], runs.back(), bad));
    }
  };
  // First half lands on the 2-shard topology and backs up...
  feed(0, 10);
  // ...then the cluster scales out live: the new shards join the ring
  // and immediately steal parked backlog.
  const u32 s2 = cluster.add_shard();
  const u32 s3 = cluster.add_shard();
  EXPECT_EQ(s2, 2u);
  EXPECT_EQ(s3, 3u);
  feed(10, 20);
  cluster.drain();

  for (usize j = 0; j < ids.size(); ++j) {
    const JobInfo info = cluster.wait(ids[j]);
    ASSERT_EQ(info.state, JobState::kDone) << info.error;
    // Placement (elastic or not) must not change a job's I/O complexity.
    EXPECT_DOUBLE_EQ(info.report.passes, base[j]) << "job " << j;
    EXPECT_EQ(runs[j]->load(), 1) << "job " << j << " ran != once";
  }
  EXPECT_EQ(bad.load(), 0);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(st.active, 4u);
  EXPECT_EQ(st.shards_added, 2u);
  EXPECT_EQ(st.completed, 20u);
  EXPECT_EQ(st.submitted, 20u);
  ASSERT_EQ(st.jobs_per_shard.size(), 4u);
  // The scale-out actually absorbed load.
  EXPECT_GT(st.jobs_per_shard[2] + st.jobs_per_shard[3], 0u);
  u64 placed = 0;
  for (u64 per : st.jobs_per_shard) placed += per;
  EXPECT_EQ(placed, 20u);
  expect_two_level_invariant(cluster, ids);
}

TEST(ClusterScenarios, DrainShardMigratesQueuedJobsUnderLoad)
{
  Rng rng(32);
  std::vector<std::vector<u64>> datasets;
  for (int j = 0; j < 12; ++j) {
    datasets.push_back(make_keys(2 * kMem, Dist::kPermutation, rng));
  }
  const std::vector<double> base = baseline_passes(datasets);

  ClusterConfig cfg;
  cfg.shards = 4;
  cfg.policy = RoutePolicy::kLocalityHash;
  cfg.shard.workers = 1;
  // Local queues (no cluster hold queue) so the drained shard has a
  // backlog to extract — the migration path under test.
  cfg.hold_queue = false;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 100),
                  cfg);
  const std::string hot = key_for_shard(cluster, 1, "h");
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::atomic<int> bad{0};
  // A queue of keyed jobs piles up on shard 1 (workers = 1).
  for (int j = 0; j < 12; ++j) {
    runs.push_back(std::make_shared<std::atomic<int>>(0));
    ids.push_back(submit_counted(cluster,
                                 spec_of("hot" + std::to_string(j), hot),
                                 datasets[static_cast<usize>(j)],
                                 runs.back(), bad));
    EXPECT_EQ(cluster.shard_of(ids.back()), 1u);
  }
  // A waiter blocked on a queued job must follow it through migration.
  std::thread waiter([&] {
    const JobInfo info = cluster.wait(ids[10]);
    EXPECT_EQ(info.state, JobState::kDone);
  });
  // Retire shard 1 mid-backlog: queued jobs migrate, the running one
  // finishes in place, the shard's records move to cluster storage. Wait
  // for shard 1 to start its first job, so one has run there by the time
  // it retires (the drain only migrates jobs still queued).
  while (cluster.info(ids[0]).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.drain_shard(1);
  EXPECT_FALSE(cluster.shard_active(1));
  EXPECT_EQ(cluster.active_shards().size(), 3u);
  waiter.join();
  // The hot tenant's ring arc fell to a survivor; new submissions keep
  // flowing without touching the retired slot.
  runs.push_back(std::make_shared<std::atomic<int>>(0));
  ids.push_back(submit_counted(cluster, spec_of("after", hot),
                               datasets[11], runs.back(), bad));
  EXPECT_NE(cluster.shard_of(ids.back()), 1u);
  cluster.drain();

  usize on_retired = 0;
  for (usize j = 0; j < ids.size(); ++j) {
    const JobInfo info = cluster.wait(ids[j]);
    ASSERT_EQ(info.state, JobState::kDone) << info.error;
    EXPECT_EQ(runs[j]->load(), 1) << "job " << j << " ran != once";
    EXPECT_DOUBLE_EQ(info.report.passes,
                     base[std::min<usize>(j, base.size() - 1)])
        << "job " << j;
    if (info.shard == 1) ++on_retired;
  }
  EXPECT_EQ(bad.load(), 0);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 4u);
  EXPECT_EQ(st.active, 3u);
  EXPECT_EQ(st.shards_drained, 1u);
  EXPECT_EQ(st.completed, 13u);
  EXPECT_EQ(st.submitted, 13u);
  EXPECT_GT(st.migrated, 0u);
  // Whatever ran on shard 1 before retirement is still accounted and
  // inspectable; the rest moved.
  EXPECT_EQ(st.migrated + on_retired, 12u);
  EXPECT_GE(on_retired, 1u);  // at least the job that was running
  expect_two_level_invariant(cluster, ids);
  // The retired slot is inert: placement never picks it and its handle
  // throws.
  EXPECT_THROW(cluster.shard(1), Error);
}

TEST(ClusterScenarios, ClusterRecordRetentionBoundsDrainHistory)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLocalityHash;
  cfg.shard.workers = 1;
  cfg.retain_cluster_records_max = 2;
  // No stealing: all five keyed jobs must run (and leave records) on
  // shard 1, so the drain moves five records into cluster storage.
  cfg.hold_queue = false;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes), cfg);
  Rng rng(34);
  const std::string hot = key_for_shard(cluster, 1, "r");
  std::vector<JobId> ids;
  for (int j = 0; j < 5; ++j) {
    ids.push_back(cluster.submit<u64>(
        spec_of("r" + std::to_string(j), hot),
        make_keys(2 * kMem, Dist::kPermutation, rng)));
  }
  cluster.drain();
  for (JobId id : ids) EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
  // Retirement moves the 5 records into cluster-held storage, where the
  // FIFO cap keeps only the newest 2; evicted ids throw like shard-side
  // retention eviction always has.
  cluster.drain_shard(1);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.cluster_records, 2u);
  EXPECT_EQ(cluster.info(ids[4]).state, JobState::kDone);
  EXPECT_THROW(cluster.info(ids[0]), Error);
  EXPECT_FALSE(cluster.forget(ids[0]));
  EXPECT_TRUE(cluster.forget(ids[4]));
}

// ---------------------------------------------------------------------
// Hold queue + work stealing (satellite: starvation regression).
// ---------------------------------------------------------------------

TEST(ClusterScenarios, IdleShardsStealHeldBacklogInEdfOrder)
{
  ClusterConfig cfg;
  cfg.shards = 2;
  cfg.policy = RoutePolicy::kLocalityHash;
  cfg.shard.workers = 1;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 200),
                  cfg);
  Rng rng(33);
  const std::string key0 = key_for_shard(cluster, 0, "z");
  const std::string key1 = key_for_shard(cluster, 1, "y");
  // Saturate shard 0: a large carve holds most of its budget while a
  // long job occupies its only worker — the ROADMAP admission-aging
  // hazard at cluster scope.
  SortJobSpec big = spec_of("big", key0);
  big.carve_bytes = cluster.shard(0).budget().limit() / 2;
  const JobId big_id = cluster.submit<u64>(
      big, make_keys(64 * kMem, Dist::kPermutation, rng));
  // Occupy shard 1 briefly so the small-job stream parks first.
  const JobId blocker = cluster.submit<u64>(
      spec_of("blocker", key1), make_keys(8 * kMem, Dist::kPermutation, rng));
  while (cluster.info(big_id).state == JobState::kQueued ||
         cluster.info(blocker).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // A small-job stream keyed to the saturated shard, submitted in an
  // order that inverts the EDF-within-priority order.
  std::mutex order_mu;
  std::vector<std::string> order;
  auto tracked = [&](std::string name, int priority, double deadline_s) {
    SortJobSpec s = spec_of(name, key0, priority);
    s.deadline_s = deadline_s;
    return cluster.submit<u64>(
        std::move(s), make_keys(kMem, Dist::kUniform, rng),
        std::less<u64>{},
        [&order, &order_mu, name](const SortResult<u64>&) {
          std::lock_guard g(order_mu);
          order.push_back(name);
        });
  };
  std::vector<JobId> smalls;
  smalls.push_back(tracked("p0-late", 0, 0));
  smalls.push_back(tracked("p0-loose", 0, 60.0));
  smalls.push_back(tracked("p0-tight", 0, 30.0));
  smalls.push_back(tracked("p1-loose", 1, 60.0));
  smalls.push_back(tracked("p1-tight", 1, 30.0));
  // All five parked: shard 0 has no worker or memory headroom.
  {
    const ClusterStats st = cluster.stats();
    EXPECT_GE(st.held_now, 4u);  // the blocker may have finished already
  }
  cluster.drain();
  EXPECT_EQ(cluster.wait(big_id).state, JobState::kDone);
  for (JobId id : smalls) {
    EXPECT_EQ(cluster.wait(id).state, JobState::kDone);
    // The backlog did not wait for the saturated shard: shard 1 stole it.
    EXPECT_EQ(cluster.shard_of(id), 1u);
  }
  const ClusterStats st = cluster.stats();
  EXPECT_GE(st.stolen, 5u);
  EXPECT_GE(st.held_total, 5u);
  // EDF within priority bands, priority first — the hold queue's
  // dispatch order, serialized by shard 1's single worker.
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "p1-tight");
  EXPECT_EQ(order[1], "p1-loose");
  EXPECT_EQ(order[2], "p0-tight");
  EXPECT_EQ(order[3], "p0-loose");
  EXPECT_EQ(order[4], "p0-late");
}

// ---------------------------------------------------------------------
// Concurrent elasticity stress (satellite: TSan).
// ---------------------------------------------------------------------

TEST(ClusterScenarios, StressSubmitsAndCancelsDuringTopologyChanges)
{
  ClusterConfig cfg;
  cfg.shards = 3;
  cfg.policy = RoutePolicy::kLeastLoaded;
  cfg.shard.workers = 2;
  cfg.shard.total_memory_bytes = usize{32} << 20;
  Cluster cluster(memory_backend_factory(kDisksPerShard, kBlockBytes, 20),
                  cfg);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 24;
  std::atomic<int> bad{0};
  std::atomic<u64> cancelled_true{0};
  std::mutex ids_mu;
  std::vector<JobId> ids;
  std::vector<std::shared_ptr<std::atomic<int>>> runs;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(100 + static_cast<u64>(t));
      for (int j = 0; j < kPerThread; ++j) {
        auto r = std::make_shared<std::atomic<int>>(0);
        const u64 n = (1 + static_cast<u64>(j % 3)) * kMem;
        // Appended piecewise: GCC 12 reports a false -Wrestrict on
        // "s" + std::to_string(t).
        std::string name = "s";
        name += std::to_string(t);
        name += '-';
        name += std::to_string(j);
        JobId id = submit_counted(
            cluster,
            spec_of(name, "tenant-" + std::to_string((t + j) % 7), j % 2),
            make_keys(static_cast<usize>(n), Dist::kUniform, rng), r, bad);
        std::lock_guard g(ids_mu);
        ids.push_back(id);
        runs.push_back(std::move(r));
      }
    });
  }
  std::thread canceller([&] {
    // Distinct victims only: cancelling a running job twice truthfully
    // returns true both times (both calls promise kCancelled), which
    // would double-count against the stats below.
    std::set<JobId> tried;
    for (int k = 0; k < 30; ++k) {
      JobId victim = 0;
      {
        std::lock_guard g(ids_mu);
        if (!ids.empty()) {
          victim = ids[static_cast<usize>(k * 7) % ids.size()];
        }
      }
      if (victim != 0 && tried.insert(victim).second &&
          cluster.cancel(victim)) {
        ++cancelled_true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Topology churn mid-flight: grow to 4, retire shard 1, grow again.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const u32 added1 = cluster.add_shard();
  cluster.drain_shard(1);
  const u32 added2 = cluster.add_shard();
  for (auto& th : submitters) th.join();
  canceller.join();
  cluster.drain();

  EXPECT_EQ(added1, 3u);
  EXPECT_EQ(added2, 4u);
  const ClusterStats st = cluster.stats();
  EXPECT_EQ(st.shards, 5u);
  EXPECT_EQ(st.active, 4u);
  EXPECT_EQ(st.submitted, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.rejected,
            st.submitted);
  EXPECT_EQ(st.cancelled, cancelled_true.load());
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(bad.load(), 0);
  // No job lost, none run twice: exactly one callback per completed
  // job; a cancelled job may have 0 or 1 (cancel() may land between the
  // sort's last checkpoint and its commit — the work is discarded and
  // the job still reports kCancelled, as the service documents); never
  // more than one anywhere.
  u64 total_runs = 0;
  u64 cancelled_after_callback = 0;
  for (usize j = 0; j < ids.size(); ++j) {
    const int r = runs[j]->load();
    ASSERT_LE(r, 1) << "job " << ids[j] << " ran twice";
    total_runs += static_cast<u64>(r);
    const JobInfo info = cluster.info(ids[j]);
    if (info.state == JobState::kDone) {
      EXPECT_EQ(r, 1) << "completed job " << ids[j] << " lost its callback";
    } else if (info.state == JobState::kCancelled) {
      cancelled_after_callback += static_cast<u64>(r);
    } else {
      EXPECT_EQ(r, 0) << "job " << ids[j] << " in state "
                      << job_state_name(info.state) << " ran";
    }
  }
  EXPECT_EQ(total_runs, st.completed + cancelled_after_callback);
  // The drained shard ended with zero jobs: its final snapshot balances
  // (everything it ever admitted reached a terminal state there)...
  const ServiceStats& retired = st.per_shard[1];
  EXPECT_EQ(retired.submitted, retired.completed + retired.failed +
                                   retired.cancelled + retired.rejected);
  // ...and the two-level accounting invariant holds across the
  // migrations and the retirement.
  expect_two_level_invariant(cluster, ids);
}

}  // namespace
}  // namespace pdm
