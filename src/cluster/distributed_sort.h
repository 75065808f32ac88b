// Types for Cluster::submit_distributed — one sort spanning every shard.
//
// A distributed job is a coordinator around P ordinary range sub-jobs:
// sample splitters partition the input into P contiguous key ranges
// (range_partition.h), each range is pinned to one shard
// (SortJobSpec::target_shard) and rides the normal hold-queue/placement
// machinery, each shard sorts its range with the paper's small-pass
// algorithms at its single-shard pass count, and the coordinator
// concatenates the sorted ranges in splitter order. See cluster.h for the
// lifecycle and docs/ARCHITECTURE.md ("One giant sort") for the design.
#pragma once

#include <string>
#include <vector>

#include "core/sort_report.h"
#include "pdm/record.h"
#include "service/sort_job.h"

namespace pdm {

struct DistributedOptions {
  /// Ranges to split into; 0 = one per currently active shard.
  u32 ranges = 0;

  /// Oversampling factor: oversample * ranges sampled splitter
  /// candidates. Larger = tighter balance bound, more sampling work.
  u32 oversample = 32;

  /// Seed for splitter sampling (deterministic partitions per seed).
  u64 sample_seed = 1;
};

/// Type-erased snapshot of a distributed job (Cluster::distributed_info /
/// distributed_wait). `state` is kRunning until every range sub-job is
/// terminal, then kDone / kCancelled / kFailed (failure wins over
/// cancellation when both occur).
struct DistributedInfo {
  JobId id = 0;
  std::string name;
  JobState state = JobState::kRunning;
  u64 n = 0;
  u32 oversample = 0;
  double skew = 0;  // max/mean of the splitter partition sizes

  /// jobtrace causal id of the distributed job. Every range sub-job
  /// carries it as parent_trace_id, so one Chrome trace reconstructs the
  /// whole tree: this id's spans (partition, coordinate, concat) parent
  /// the per-range ids' phase spans and I/O tickets.
  u64 trace_id = 0;

  /// Per range: serving shard, cluster id of the sub-job, record count
  /// (after feasibility rounding) and — once terminal — the sub-job's
  /// report. Empty ranges have sub_jobs[i] == 0 and a default report.
  std::vector<u32> range_shards;
  std::vector<JobId> sub_jobs;
  std::vector<u64> range_records;
  std::vector<SortReport> range_reports;

  std::string error;  // first failing range's error, for kFailed
  double wall_s = 0;  // submit -> terminal, coordinator wall clock
};

/// Delivered to submit_distributed's completion callback. `output` is the
/// concatenated sorted dataset when info.state == kDone, empty otherwise.
template <Record R>
struct DistributedSortResult {
  std::vector<R> output;
  DistributedInfo info;
};

}  // namespace pdm
