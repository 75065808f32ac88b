// Low-overhead phase tracer. Threads record spans ("X" complete events) and
// instants into per-thread ring buffers; TraceLog::write_chrome_json dumps the
// whole session as Chrome trace_event JSON that opens directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Two gates:
//  - compile time: PDMSORT_TRACING (CMake option, default ON). When OFF the
//    macros expand to nothing and TraceLog becomes an inline no-op stub, so
//    call sites compile either way.
//  - run time: TraceLog::set_enabled(true). Default off; a disabled tracer
//    costs one relaxed atomic load per span.
//
// Span names and categories must be string literals (the ring stores the
// pointer). Dynamic names (algorithm strings) go through the *_dyn calls,
// which copy into a fixed inline buffer. Span durations are mirrored into the
// global metrics registry as `span.<name>` histograms when a sink is
// installed, so metrics_text() shows per-phase totals next to the trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#ifndef PDMSORT_TRACING
#define PDMSORT_TRACING 1
#endif

namespace pdm::trace {

/// Per-thread ring usage (TraceLog::ring_occupancy): how full each
/// thread's event ring is and how many events it has overwritten. Defined
/// outside the compile gate so the metrics exposition compiles (to empty
/// data) in -DPDMSORT_TRACING=OFF builds.
struct RingOccupancy {
  std::uint32_t tid = 0;
  std::uint64_t used = 0;      // events currently buffered (<= capacity)
  std::uint64_t capacity = 0;  // ring size in events
  std::uint64_t dropped = 0;   // events overwritten by wrap-around
};

}  // namespace pdm::trace

#if PDMSORT_TRACING

#include <iosfwd>

namespace pdm::trace {

struct TraceEvent {
  static constexpr std::size_t kNameBuf = 32;
  const char* name = nullptr;  // literal; nullptr => name_buf holds a copy
  const char* cat = "";
  char ph = 'X';               // 'X' complete, 'i' instant, 'C' counter
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;    // 'X' only
  const char* arg0_name = nullptr;
  const char* arg1_name = nullptr;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  // Job attribution (pdm::jobtrace): the job id work on the recording
  // thread was scoped to, and its parent id for distributed range
  // sub-jobs. 0 = unattributed. Emitted as "job"/"parent" args in the
  // Chrome JSON so a viewer query reconstructs a job's causal tree.
  std::uint64_t job = 0;
  std::uint64_t parent = 0;
  char name_buf[kNameBuf] = {0};

  const char* name_str() const { return name != nullptr ? name : name_buf; }
};

class TraceLog {
 public:
  static TraceLog& instance();

  void set_enabled(bool on);
  bool enabled() const;

  // Drop all buffered events (rings of exited threads included).
  void clear();
  // Events overwritten because a thread ring wrapped.
  std::uint64_t dropped() const;
  // Per-thread ring usage, for the metrics exposition (trace.ring.* gauges).
  std::vector<RingOccupancy> ring_occupancy() const;

  // Complete event with explicit timestamps — for retro spans whose start was
  // captured on another thread (queue wait, hold park, I/O tickets).
  void complete(const char* cat, const char* name, std::uint64_t ts_ns,
                std::uint64_t dur_ns, const char* arg0_name = nullptr,
                std::uint64_t arg0 = 0, const char* arg1_name = nullptr,
                std::uint64_t arg1 = 0);
  void complete_dyn(const char* cat, const std::string& name,
                    std::uint64_t ts_ns, std::uint64_t dur_ns,
                    const char* arg0_name = nullptr, std::uint64_t arg0 = 0);
  void instant(const char* cat, const char* name,
               const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
               const char* arg1_name = nullptr, std::uint64_t arg1 = 0);
  // Counter track (e.g. per-disk queue depth); renders as a graph in Perfetto.
  void counter(const char* cat, const char* name, std::uint64_t value);
  // Counter with a runtime-built name (copied into the inline buffer).
  void counter_dyn(const char* cat, const std::string& name,
                   std::uint64_t value);

  // Label the calling thread in the trace viewer ("M" metadata row).
  void set_thread_name(const char* name);

  std::vector<TraceEvent> snapshot() const;
  void write_chrome_json(std::ostream& os) const;
  bool write_chrome_json(const std::string& path) const;

  // Monotonic nanoseconds since process start (trace timebase).
  static std::uint64_t now_ns();

 private:
  TraceLog();
  struct Impl;
  Impl* impl_;
};

// RAII span: records a complete event (and a `span.<name>` histogram sample)
// from construction to destruction or end(). No-op if tracing was disabled at
// construction time.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, const char* arg0_name = nullptr,
            std::uint64_t arg0 = 0);
  ~TraceSpan() { end(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  void end();
  // Attach/overwrite the arg after construction (e.g. bytes discovered late).
  void set_arg(const char* name, std::uint64_t value);

 private:
  const char* cat_;
  const char* name_;
  const char* arg0_name_;
  std::uint64_t arg0_;
  std::uint64_t start_ns_;
  bool active_;
};

// Mirror span durations into the metrics registry (installed by metrics.h's
// install_span_histograms(); kept as a hook so util/trace has no hard
// dependency on util/metrics).
using SpanSink = void (*)(const char* name, std::uint64_t dur_ns);
void set_span_sink(SpanSink sink);

}  // namespace pdm::trace

#define PDM_TRACE_CAT2(a, b) a##b
#define PDM_TRACE_CAT(a, b) PDM_TRACE_CAT2(a, b)
#define PDM_TRACE_SPAN(cat, name) \
  ::pdm::trace::TraceSpan PDM_TRACE_CAT(pdm_trace_span_, __COUNTER__)(cat, name)
#define PDM_TRACE_SPAN_ARG(cat, name, arg_name, arg_value)          \
  ::pdm::trace::TraceSpan PDM_TRACE_CAT(pdm_trace_span_, __COUNTER__)( \
      cat, name, arg_name, static_cast<std::uint64_t>(arg_value))
#define PDM_TRACE_INSTANT(cat, name) \
  ::pdm::trace::TraceLog::instance().instant(cat, name)
#define PDM_TRACE_INSTANT_ARG(cat, name, arg_name, arg_value)   \
  ::pdm::trace::TraceLog::instance().instant(                   \
      cat, name, arg_name, static_cast<std::uint64_t>(arg_value))
#define PDM_TRACE_COUNTER(cat, name, value)      \
  ::pdm::trace::TraceLog::instance().counter(    \
      cat, name, static_cast<std::uint64_t>(value))

#else  // !PDMSORT_TRACING — every call site compiles to nothing.

namespace pdm::trace {

struct TraceEvent {
  const char* name_str() const { return ""; }
};

class TraceLog {
 public:
  static TraceLog& instance() {
    static TraceLog log;
    return log;
  }
  void set_enabled(bool) {}
  bool enabled() const { return false; }
  void clear() {}
  std::uint64_t dropped() const { return 0; }
  std::vector<RingOccupancy> ring_occupancy() const { return {}; }
  void complete(const char*, const char*, std::uint64_t, std::uint64_t,
                const char* = nullptr, std::uint64_t = 0,
                const char* = nullptr, std::uint64_t = 0) {}
  void complete_dyn(const char*, const std::string&, std::uint64_t,
                    std::uint64_t, const char* = nullptr,
                    std::uint64_t = 0) {}
  void instant(const char*, const char*, const char* = nullptr,
               std::uint64_t = 0, const char* = nullptr, std::uint64_t = 0) {}
  void counter(const char*, const char*, std::uint64_t) {}
  void counter_dyn(const char*, const std::string&, std::uint64_t) {}
  void set_thread_name(const char*) {}
  std::vector<TraceEvent> snapshot() const { return {}; }
  template <typename Os>
  void write_chrome_json(Os&) const {}
  bool write_chrome_json(const std::string&) const { return false; }
  static std::uint64_t now_ns() { return 0; }
};

class TraceSpan {
 public:
  TraceSpan(const char*, const char*, const char* = nullptr,
            std::uint64_t = 0) {}
  void end() {}
  void set_arg(const char*, std::uint64_t) {}
};

using SpanSink = void (*)(const char*, std::uint64_t);
inline void set_span_sink(SpanSink) {}

}  // namespace pdm::trace

// The value arguments stay referenced (never evaluated), so a variable
// that only feeds a trace event is not an unused variable here.
#define PDM_TRACE_SPAN(cat, name) \
  do {                            \
  } while (0)
#define PDM_TRACE_SPAN_ARG(cat, name, arg_name, arg_value) \
  do {                                                     \
    if (false) (void)(arg_value);                          \
  } while (0)
#define PDM_TRACE_INSTANT(cat, name) \
  do {                               \
  } while (0)
#define PDM_TRACE_INSTANT_ARG(cat, name, arg_name, arg_value) \
  do {                                                        \
    if (false) (void)(arg_value);                             \
  } while (0)
#define PDM_TRACE_COUNTER(cat, name, value) \
  do {                                      \
    if (false) (void)(value);               \
  } while (0)

#endif  // PDMSORT_TRACING
