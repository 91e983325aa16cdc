#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace adriatic::log {
namespace {

Level g_level = Level::kWarn;
Sink g_sink;
std::mutex g_mutex;

const char* level_tag(Level level) {
  switch (level) {
    case Level::kDebug:
      return "DEBUG";
    case Level::kInfo:
      return "INFO ";
    case Level::kWarn:
      return "WARN ";
    case Level::kError:
      return "ERROR";
    default:
      return "?????";
  }
}

}  // namespace

void set_level(Level level) { g_level = level; }

void set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_sink = std::move(sink);
}

void emit(Level level, const std::string& msg) {
  if (level < g_level) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sink) {
    g_sink(level, msg);
    return;
  }
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), msg.c_str());
}

}  // namespace adriatic::log
