#include "spans.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

namespace perfbench {

namespace {
// Innermost open Scoped span of this thread, and the log it belongs to.
thread_local const SpanLog* t_log = nullptr;
thread_local i64 t_open = -1;

u64 this_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}
}  // namespace

i64 SpanLog::add(Span s) {
  s.tid = this_tid();
  std::lock_guard g(mu_);
  spans_.push_back(s);
  return static_cast<i64>(spans_.size()) - 1;
}

SpanLog::Scoped::Scoped(SpanLog& log, const char* name, u64 id)
    : log_(log), saved_log_(t_log), saved_open_(t_open) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = t_log == &log ? t_open : -1;
  s.start_ns = log.now_ns();
  index_ = log.add(s);
  t_log = &log;
  t_open = index_;
}

SpanLog::Scoped::~Scoped() {
  const u64 end = log_.now_ns();
  {
    std::lock_guard g(log_.mu_);
    log_.spans_[static_cast<usize>(index_)].end_ns = end;
  }
  t_log = saved_log_;
  t_open = saved_open_;
}

double SpanLog::Scoped::seconds() const {
  const u64 now = log_.now_ns();
  std::lock_guard g(log_.mu_);
  const Span& s = log_.spans_[static_cast<usize>(index_)];
  return static_cast<double>((s.end_ns != 0 ? s.end_ns : now) - s.start_ns) *
         1e-9;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard g(mu_);
  return spans_;
}

bool SpanLog::write_json(const std::string& path) const {
  const auto spans = snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << ",\"shard\":" << s.shard << ",\"bytes\":" << s.bytes
        << ",\"tid\":" << s.tid << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::vector<SpanLog::NameTotals> SpanLog::totals() const {
  const auto spans = snapshot();
  std::vector<std::vector<std::pair<u64, u64>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<usize>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, NameTotals> by_name;
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    NameTotals& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_s += s.seconds();
    t.self_s += s.seconds() - union_seconds(children[i]);
  }
  std::vector<NameTotals> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

double union_seconds(std::vector<std::pair<u64, u64>> iv) {
  std::sort(iv.begin(), iv.end());
  u64 covered = 0;
  u64 cur_start = 0;
  u64 cur_end = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_end) {
      if (open) covered += cur_end - cur_start;
      cur_start = a;
      cur_end = b;
      open = true;
    } else {
      cur_end = std::max(cur_end, b);
    }
  }
  if (open) covered += cur_end - cur_start;
  return static_cast<double>(covered) * 1e-9;
}

}  // namespace perfbench
