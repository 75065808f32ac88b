// E14 — in-memory kernel microbenchmarks (google-benchmark): the local
// computation the PDM model treats as free. Quantifies the premise that
// CPU work per pass is far cheaper than the I/O it accompanies.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "internal/insort.h"
#include "internal/loser_tree.h"
#include "internal/radix_partition.h"
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
