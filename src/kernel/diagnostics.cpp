#include "kernel/diagnostics.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace adriatic::kern {

const char* to_string(DeadlockReport::Kind kind) {
  switch (kind) {
    case DeadlockReport::Kind::kDeadlock:
      return "deadlock";
    case DeadlockReport::Kind::kLivelock:
      return "livelock";
  }
  return "?";
}

std::string DeadlockReport::to_string() const {
  std::ostringstream out;
  out << kern::to_string(kind) << " at " << at.str() << " (delta "
      << delta_count << ", " << activations << " activations): "
      << waiters.size() << " blocked process(es)";
  for (const BlockedWaiter& w : waiters) {
    out << "\n  " << w.process << " (" << (w.is_thread ? "thread" : "method")
        << ", blocked " << w.wait_duration.str() << ", since "
        << w.blocked_since.str() << ") waiting on:";
    if (w.awaited.empty()) out << " <nothing>";
    for (const std::string& e : w.awaited) out << ' ' << e;
  }
  return out.str();
}

}  // namespace adriatic::kern
