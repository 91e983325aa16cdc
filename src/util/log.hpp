// Minimal leveled logger. Simulation models report through this so tests can
// silence or capture output deterministically.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace adriatic::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
void set_level(Level level);

/// Redirect log output (default writes to stderr). Pass nullptr to restore.
using Sink = std::function<void(Level, const std::string&)>;
void set_sink(Sink sink);

void emit(Level level, const std::string& msg);

namespace detail {
class LineBuilder {
 public:
  explicit LineBuilder(Level level) : level_(level) {}
  LineBuilder(const LineBuilder&) = delete;
  LineBuilder& operator=(const LineBuilder&) = delete;
  ~LineBuilder() { emit(level_, os_.str()); }

  template <typename T>
  LineBuilder& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  Level level_;
  std::ostringstream os_;
};
}  // namespace detail

[[nodiscard]] inline detail::LineBuilder debug() {
  return detail::LineBuilder(Level::kDebug);
}
[[nodiscard]] inline detail::LineBuilder info() {
  return detail::LineBuilder(Level::kInfo);
}
[[nodiscard]] inline detail::LineBuilder warn() {
  return detail::LineBuilder(Level::kWarn);
}
[[nodiscard]] inline detail::LineBuilder error() {
  return detail::LineBuilder(Level::kError);
}

}  // namespace adriatic::log
