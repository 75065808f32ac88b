// Entry points of the benchmark's workloads and self-test.
#pragma once

#include <string>

#include "common.h"
#include "spans.h"

namespace perfbench {

/// disk_uniform and file_nearsorted (single_sort.cpp).
bool is_single_sort(const std::string& workload);
RunResult run_single_sort(const RunArgs& args, SpanLog& log);

/// cluster_mix (cluster_mix.cpp).
RunResult run_cluster_mix(const RunArgs& args, SpanLog& log);

/// Sorts small inputs with and without TracedBackend and checks that the
/// records, the IoStats op/block/call counts and the schedule hash are
/// identical (selftest.cpp). Prints what differed and returns false on a
/// mismatch.
bool decorator_selftest(SpanLog& log);

}  // namespace perfbench
