// Structured hang diagnostics. When a simulation goes quiescent while
// processes remain blocked on dynamic waits (deadlock), or simulated time
// keeps advancing without any non-daemon process dispatching (livelock,
// opt-in via Simulation::set_max_quiet_time), the kernel assembles a
// DeadlockReport naming every blocked process and the events it awaits —
// ids are the same FNV-1a name hashes the scheduler trace uses, so reports
// join directly against conformance traces.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::kern {

/// One blocked process in a DeadlockReport.
struct BlockedWaiter {
  std::string process;  ///< Full hierarchical name.
  u64 process_id = 0;   ///< sched_name_hash(process); joins with sched traces.
  bool is_thread = false;
  Time blocked_since;  ///< Sim time at which the current wait began.
  Time wait_duration;  ///< report.at - blocked_since.
  std::vector<std::string> awaited;  ///< Names of the awaited events.
  std::vector<u64> awaited_ids;      ///< sched_name_hash of each awaited name.
};

/// Assembled by Simulation::run() when a hang is detected. Deadlocks are
/// reported at quiescence without changing run()'s return value
/// (kNoActivity, as before); livelocks end the run with StopReason::kStalled.
struct DeadlockReport {
  enum class Kind : u8 {
    kDeadlock,  ///< Quiescent with blocked waiters: nothing can wake them.
    kLivelock,  ///< Time advanced max_quiet_time with no non-daemon dispatch.
  };

  Kind kind = Kind::kDeadlock;
  Time at;             ///< Sim time of detection.
  u64 delta_count = 0;
  u64 activations = 0;
  std::vector<BlockedWaiter> waiters;

  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] const char* to_string(DeadlockReport::Kind kind);

/// Invoked synchronously by Simulation when a report is assembled.
using DeadlockHandler = std::function<void(const DeadlockReport&)>;

}  // namespace adriatic::kern
