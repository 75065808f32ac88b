// Shared pieces of the perfbench harness: run configuration, the metric
// sink every workload fills, sample statistics, CPU clocks and the
// order-independent record fingerprint used to check outputs.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/common.h"

namespace perfbench {

using pdm::i64;
using pdm::u32;
using pdm::u64;
using pdm::usize;

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for file backends and span dumps
};

/// Metric name -> value. Units live in main.cpp's catalogue, which also
/// fixes the printed order.
using Metrics = std::map<std::string, double>;

/// What a workload hands back to main(): the metrics plus the run's job
/// accounting. `correct` is false only on an output fingerprint or order
/// mismatch, which main() turns into a non-zero exit.
struct RunResult {
  Metrics metrics;
  u64 attempted = 0;
  u64 failed = 0;
  bool correct = true;
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double thread_cpu_s() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }
inline double process_cpu_s() {
  return clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}
inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}
inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Order-independent multiset fingerprint: a lost, duplicated or altered
/// record changes at least one of the three fields with overwhelming
/// probability, whatever order the records come in.
struct Fingerprint {
  u64 count = 0;
  u64 sum = 0;
  u64 hash_xor = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline u64 mix64(u64 x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline Fingerprint fingerprint(std::span<const u64> xs) {
  Fingerprint f;
  f.count = xs.size();
  for (u64 x : xs) {
    f.sum += x;
    f.hash_xor ^= mix64(x);
  }
  return f;
}

/// True when `out` is non-decreasing and holds exactly the multiset whose
/// fingerprint is `expect`.
inline bool output_ok(std::span<const u64> out, const Fingerprint& expect) {
  for (usize i = 1; i < out.size(); ++i) {
    if (out[i] < out[i - 1]) return false;
  }
  return fingerprint(out) == expect;
}

}  // namespace perfbench
