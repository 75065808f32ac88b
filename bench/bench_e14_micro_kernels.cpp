// E14 — in-memory kernel microbenchmarks (google-benchmark): the local
// computation the PDM model treats as free. Quantifies the premise that
// CPU work per pass is far cheaper than the I/O it accompanies.
//
// BM_StdSortByDist / BM_InternalSortSerial compare std::sort with the
// serial internal_sort (the in-place radix kernel for u64) per workload
// distribution at the sizes the sorters use: 2^13 (a parallel chunk),
// 2^16 (a disk_uniform memory load) and 110,080 (a cleanup window).
// BM_ReplacementSelection times one replacement-selection pass with the
// key-carrying loser tree against the generic tree, in ns per record.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
#include "internal/replacement_selection.h"
#include "util/generators.h"
#include "util/rng.h"
#include "util/cpu_pool.h"

namespace pdm {
namespace {

void BM_StdSort(benchmark::State& state) {
  const usize n = static_cast<usize>(state.range(0));
  Rng rng(1);
  auto base = make_keys(n, Dist::kUniform, rng);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_StdSort)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 21);

// Args: {Dist, n}. Both arms sort a fresh copy of the same input.
void sort_by_dist_args(benchmark::internal::Benchmark* b) {
  for (i64 d = 0; d <= static_cast<i64>(Dist::kClustered); ++d) {
    for (i64 n : {i64{1} << 13, i64{1} << 16, i64{110080}}) b->Args({d, n});
  }
}

template <bool kInternal>
void sort_by_dist(benchmark::State& state) {
  const Dist d = static_cast<Dist>(state.range(0));
  const usize n = static_cast<usize>(state.range(1));
  Rng rng(1);
  const auto base = make_keys(n, d, rng);
  CpuPool serial;
  std::vector<u64> v(n);
  for (auto _ : state) {
    std::copy(base.begin(), base.end(), v.begin());
    if constexpr (kInternal) {
      internal_sort(std::span<u64>(v), std::less<u64>{}, serial, {});
    } else {
      std::sort(v.begin(), v.end());
    }
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dist_name(d));
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}

void BM_StdSortByDist(benchmark::State& state) { sort_by_dist<false>(state); }
BENCHMARK(BM_StdSortByDist)->Apply(sort_by_dist_args);

void BM_InternalSortSerial(benchmark::State& state) {
  sort_by_dist<true>(state);
}
BENCHMARK(BM_InternalSortSerial)->Apply(sort_by_dist_args);

void BM_ParallelSort(benchmark::State& state) {
  const usize n = static_cast<usize>(state.range(0));
  CpuPool pool(8);
  Rng rng(1);
  auto base = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> scratch(n);
  for (auto _ : state) {
    auto v = base;
    internal_sort(std::span<u64>(v), std::less<u64>{}, pool,
                  std::span<u64>(scratch));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_ParallelSort)->Arg(1 << 18)->Arg(1 << 21);

void BM_LoserTreeMerge(benchmark::State& state) {
  const usize k = static_cast<usize>(state.range(0));
  const usize per = 1 << 14;
  Rng rng(2);
  std::vector<std::vector<u64>> runs(k);
  for (auto& r : runs) {
    r = make_keys(per, Dist::kUniform, rng);
    std::sort(r.begin(), r.end());
  }
  std::vector<u64> out(k * per);
  for (auto _ : state) {
    LoserTree<u64> tree(k);
    std::vector<usize> pos(k, 1);
    for (usize i = 0; i < k; ++i) tree.set_initial(i, runs[i][0]);
    tree.build();
    usize o = 0;
    while (!tree.empty()) {
      const usize s = tree.min_source();
      out[o++] = tree.min_value();
      if (pos[s] < per) {
        tree.replace_min(runs[s][pos[s]++]);
      } else {
        tree.exhaust_min();
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(k * per));
}
BENCHMARK(BM_LoserTreeMerge)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Args: {Dist, key tree?}. One replacement-selection pass over N = 8M
// records, M = 16384 (B = 128, D = 32, memory backend), as in e20. The
// generic arm passes a lambda equal to std::less, which the selection
// cannot tell orders by the key, so it keeps the generic tree. The
// ns_per_rec counter is an inverted rate, which google-benchmark prints
// with an "s" suffix: "190s" reads 190 ns per record.
void BM_ReplacementSelection(benchmark::State& state) {
  const Dist d = static_cast<Dist>(state.range(0));
  const bool key_tree = state.range(1) != 0;
  const u64 mem = 16384;
  const usize n = static_cast<usize>(8 * mem);
  Rng rng(5);
  const auto keys = make_keys(n, d, rng);
  const auto lambda_less = [](u64 a, u64 b) { return a < b; };
  for (auto _ : state) {
    state.PauseTiming();  // staging and teardown are not selection work
    {
      auto ctx = make_memory_context(32, 128 * sizeof(u64), 1);
      auto in = write_input_run<u64>(*ctx, std::span<const u64>(keys));
      state.ResumeTiming();
      const auto runs =
          key_tree
              ? replacement_select_runs<u64>(*ctx, in, mem, 0, 0, false, 1)
              : replacement_select_runs<u64>(*ctx, in, mem, 0, 0, false, 1,
                                             lambda_less);
      benchmark::DoNotOptimize(runs.data());
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetLabel(std::string(dist_name(d)) +
                 (key_tree ? " key tree" : " generic tree"));
  state.counters["ns_per_rec"] = benchmark::Counter(
      static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReplacementSelection)
    ->ArgsProduct({{static_cast<i64>(Dist::kUniform),
                    static_cast<i64>(Dist::kNearSortedDisplaced)},
                   {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_RadixPartition(benchmark::State& state) {
  const usize n = 1 << 20;
  const u32 bits = static_cast<u32>(state.range(0));
  Rng rng(3);
  auto v = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> out(n);
  for (auto _ : state) {
    auto bounds = partition_by_digit<u64>(std::span<const u64>(v),
                                          std::span<u64>(out), 32, bits);
    benchmark::DoNotOptimize(bounds.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_RadixPartition)->Arg(4)->Arg(6)->Arg(8);

void BM_UnshuffleGather(benchmark::State& state) {
  // The stride-m gather of run formation's unshuffled write.
  const usize n = 1 << 20;
  const usize m = static_cast<usize>(state.range(0));
  Rng rng(4);
  auto v = make_keys(n, Dist::kUniform, rng);
  std::vector<u64> out(n);
  const usize p = n / m;
  for (auto _ : state) {
    for (usize j = 0; j < m; ++j) {
      u64* dst = out.data() + j * p;
      for (usize t = 0; t < p; ++t) dst[t] = v[t * m + j];
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(n));
}
BENCHMARK(BM_UnshuffleGather)->Arg(16)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace pdm
