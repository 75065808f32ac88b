// Shared helpers for the experiment harness (bench_e*). Every binary
// prints (a) the experiment id and the paper claim it regenerates, and
// (b) one or more markdown tables whose rows are recorded in
// EXPERIMENTS.md as paper-vs-measured. Benches that track the perf
// trajectory additionally emit a machine-readable section into a shared
// JSON file (JsonWriter + json_file_update below).
#pragma once

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sort_report.h"
#include "pdm/pdm_context.h"
#include "pdm/striped_run.h"
#include "util/cli.h"
#include "util/generators.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/trace.h"

namespace pdm::bench {

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n================================================================\n"
            << id << "\n" << claim << "\n"
            << "================================================================\n\n";
}

/// Standard geometry: B = sqrt(M), D = sqrt(M)/C.
struct Geom {
  u64 mem;
  u64 rpb;
  u32 disks;

  static Geom square(u64 mem, u64 c = 4) {
    const u64 s = isqrt(mem);
    PDM_CHECK(s * s == mem, "M must be a perfect square");
    return Geom{mem, s, static_cast<u32>(std::max<u64>(1, s / c))};
  }
};

template <Record R = u64>
std::unique_ptr<PdmContext> make_ctx(const Geom& g, u64 seed = 1) {
  return make_memory_context(g.disks, g.rpb * sizeof(R), seed);
}

/// Stages input and zeroes stats so only the sorter's I/O is measured.
template <Record R>
StripedRun<R> stage(PdmContext& ctx, const std::vector<R>& data) {
  auto run = write_input_run<R>(ctx, std::span<const R>(data));
  ctx.io().reset_stats();
  return run;
}

/// Fails loudly (benches must not silently report on wrong output).
template <Record R>
void check_sorted(const StripedRun<R>& out, u64 expect_n) {
  PDM_CHECK(out.size() == expect_n, "bench: output size mismatch");
  auto v = out.read_all();
  for (usize i = 1; i < v.size(); ++i) {
    PDM_CHECK(!(v[i] < v[i - 1]), "bench: output not sorted");
  }
}

inline void add_report_cells(Table& t, const SortReport& r) {
  t.cell(r.passes, 3)
      .cell(r.read_passes, 3)
      .cell(r.write_passes, 3)
      .cell(fmt_double(r.utilization, 2) + "/" + std::to_string(r.disks))
      .cell(r.fallback_taken);
}

inline std::vector<std::string> report_headers() {
  return {"passes", "read-passes", "write-passes", "util", "fallback"};
}

// --- machine-readable benchmark output ---------------------------------

/// Streaming JSON builder, just enough for bench payloads: objects,
/// arrays, string/number/bool scalars, automatic commas.
class JsonWriter {
 public:
  std::string str() const { return out_.str(); }

  JsonWriter& begin_obj() {
    sep();
    out_ << '{';
    nest_.push_back(false);
    return *this;
  }
  JsonWriter& end_obj() {
    nest_.pop_back();
    out_ << '}';
    done();
    return *this;
  }
  JsonWriter& begin_arr() {
    sep();
    out_ << '[';
    nest_.push_back(false);
    return *this;
  }
  JsonWriter& end_arr() {
    nest_.pop_back();
    out_ << ']';
    done();
    return *this;
  }
  JsonWriter& key(const std::string& k) {
    sep();
    out_ << '"' << escaped(k) << "\": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(const std::string& v) {
    sep();
    out_ << '"' << escaped(v) << '"';
    done();
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string(v)); }
  JsonWriter& value(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    sep();
    out_ << buf;
    done();
    return *this;
  }
  JsonWriter& value(u64 v) {
    sep();
    out_ << v;
    done();
    return *this;
  }
  JsonWriter& value(int v) {
    sep();
    out_ << v;
    done();
    return *this;
  }
  JsonWriter& value(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    done();
    return *this;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    return out;
  }
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!nest_.empty() && nest_.back()) out_ << ", ";
  }
  void done() {
    if (!nest_.empty()) nest_.back() = true;
  }

  std::ostringstream out_;
  std::vector<bool> nest_;
  bool after_key_ = false;
};

/// The top-level entries of the JSON object file at `path` (none if it
/// is missing), each as (key, raw value text). The parser handles exactly
/// what these helpers emit — a one-level object of balanced values — so
/// several bench binaries can share one output file (BENCH_PR2.json)
/// without a JSON dependency.
inline std::vector<std::pair<std::string, std::string>> json_file_entries(
    const std::string& path) {
  std::vector<std::pair<std::string, std::string>> entries;
  if (std::ifstream in(path); in) {
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    usize i = text.find('{');
    i = i == std::string::npos ? text.size() : i + 1;
    while (i < text.size()) {
      while (i < text.size() &&
             (std::isspace(static_cast<unsigned char>(text[i])) != 0 ||
              text[i] == ',')) {
        ++i;
      }
      if (i >= text.size() || text[i] != '"') break;
      usize j = i + 1;
      std::string k;
      while (j < text.size() && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < text.size()) ++j;
        k += text[j];
        ++j;
      }
      j = text.find(':', j);
      if (j == std::string::npos) break;
      ++j;
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j])) != 0) {
        ++j;
      }
      const usize start = j;
      int depth = 0;
      bool in_str = false;
      for (; j < text.size(); ++j) {
        const char c = text[j];
        if (in_str) {
          if (c == '\\') {
            ++j;
          } else if (c == '"') {
            in_str = false;
          }
          continue;
        }
        if (c == '"') {
          in_str = true;
        } else if (c == '{' || c == '[') {
          ++depth;
        } else if (c == '}' || c == ']') {
          if (depth == 0) break;
          --depth;
        } else if (c == ',' && depth == 0) {
          break;
        }
      }
      usize end = j;
      while (end > start &&
             std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
        --end;
      }
      entries.emplace_back(k, text.substr(start, end - start));
      i = j;
    }
  }
  return entries;
}

/// Inserts or replaces the top-level entry `key` in the JSON object file
/// at `path` (created if missing), preserving the other entries.
inline void json_file_update(const std::string& path, const std::string& key,
                             const std::string& payload) {
  auto entries = json_file_entries(path);
  bool replaced = false;
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = payload;
      replaced = true;
    }
  }
  if (!replaced) entries.emplace_back(key, payload);
  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (usize e = 0; e < entries.size(); ++e) {
    out << "  \"" << entries[e].first << "\": " << entries[e].second
        << (e + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "}\n";
}

/// Observability flag parity across the serving benches:
/// --trace_out=FILE enables the phase tracer for the whole bench;
/// --metrics=1 prints the metrics registry after the run. Call
/// trace_begin() before the workload and observability_finish() at exit
/// (it writes the Chrome JSON and/or the registry text as requested).
inline std::string trace_begin(const Cli& cli) {
  const std::string trace_out = cli.get("trace_out", "");
  if (!trace_out.empty()) {
    trace::TraceLog::instance().set_enabled(true);
    trace::TraceLog::instance().set_thread_name("bench-main");
  }
  return trace_out;
}

inline void observability_finish(const Cli& cli,
                                 const std::string& trace_out) {
  if (cli.get_u64("metrics", 0) != 0) {
    std::cout << "\n-- metrics --\n" << metrics::Registry::global().text();
  }
  if (!trace_out.empty()) {
    if (trace::TraceLog::instance().write_chrome_json(trace_out)) {
      std::cout << "wrote trace -> " << trace_out << " ("
                << trace::TraceLog::instance().snapshot().size()
                << " events, " << trace::TraceLog::instance().dropped()
                << " dropped)\n";
    } else {
      std::cerr << "trace: could not write " << trace_out << "\n";
    }
  }
}

/// Merges this process's metrics registry snapshot into the "metrics"
/// entry of the JSON file at `path` — a one-key object holding the
/// exposition text, newline-escaped — so a perf run carries its counters
/// next to its timings. Several benches share one file: each metric line
/// of this process replaces the line of the same kind and name, and the
/// other lines stay, so one bench's gauges (say e19's cpu.*) survive the
/// benches that run after it.
inline void json_file_merge_metrics(const std::string& path) {
  std::vector<std::string> lines;
  for (const auto& [k, v] : json_file_entries(path)) {
    if (k != "metrics") continue;
    usize i = v.find("\"registry_text\"");
    if (i != std::string::npos) i = v.find('"', v.find(':', i));
    if (i == std::string::npos) continue;
    std::string line;
    for (++i; i < v.size() && v[i] != '"'; ++i) {
      char c = v[i];
      if (c == '\\' && i + 1 < v.size()) {
        c = v[++i] == 'n' ? '\n' : v[i];
      }
      if (c == '\n') {
        lines.push_back(line);
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) lines.push_back(line);
  }
  // A line's identity is its kind and name: its first two words.
  auto id = [](const std::string& line) {
    return line.substr(0, line.find(' ', line.find(' ') + 1));
  };
  std::istringstream fresh(metrics::Registry::global().text());
  for (std::string line; std::getline(fresh, line);) {
    bool replaced = false;
    for (auto& old : lines) {
      if (id(old) == id(line)) {
        old = line;
        replaced = true;
      }
    }
    if (!replaced) lines.push_back(line);
  }
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  JsonWriter jm;
  jm.begin_obj();
  jm.key("registry_text").value(text);
  jm.end_obj();
  json_file_update(path, "metrics", jm.str());
}

}  // namespace pdm::bench
