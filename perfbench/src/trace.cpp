#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
std::atomic<u32> g_next_tag{1};

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void record(const Span& s) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(s);
}

std::vector<Span> take() {
  std::lock_guard<std::mutex> lk(g_mu);
  return std::exchange(g_spans, {});
}

u32 thread_tag() noexcept {
  thread_local const u32 tag = g_next_tag.fetch_add(1);
  return tag;
}

std::vector<LayerRow> self_times(const std::vector<Span>& spans) {
  // Child time per (id, parent name); the parent pointer is a static
  // string, so compare by content.
  std::map<std::pair<u64, std::string>, i64> child_ns;
  for (const Span& s : spans)
    if (s.parent != nullptr) child_ns[{s.id, s.parent}] += s.t1_ns - s.t0_ns;
  std::map<std::string, LayerRow> rows;
  for (const Span& s : spans) {
    LayerRow& r = rows[s.name];
    r.name = s.name;
    const i64 dur = s.t1_ns - s.t0_ns;
    const auto it = child_ns.find({s.id, s.name});
    const i64 children = it == child_ns.end() ? 0 : it->second;
    const i64 self = std::max<i64>(0, dur - children);
    ++r.count;
    r.total_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(self) / 1e6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  i64 origin = 0;
  for (const Span& s : spans)
    if (origin == 0 || s.t0_ns < origin) origin = s.t0_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    const char* dot = std::strchr(s.name, '.');
    const std::string cat =
        dot == nullptr ? std::string(s.name) : std::string(s.name, dot);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":\"%s\"}}",
                 first ? "" : ",\n", s.name, cat.c_str(), s.tid,
                 static_cast<double>(s.t0_ns - origin) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 s.parent == nullptr ? "" : s.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
