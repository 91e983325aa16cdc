// Simulation events with the SystemC 2.0 notification rules:
//   notify()            — immediate: triggers in the current evaluation phase
//   notify_delta()      — triggers in the next delta cycle
//   notify(Time)        — triggers after a simulated delay
// An event carries at most one pending notification; an earlier notification
// overrides a later one, and immediate overrides everything.
#pragma once

#include <string>
#include <vector>

#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::kern {

class Simulation;
class Process;

class Event {
 public:
  explicit Event(Simulation& sim, std::string name = "");
  /// Detaches from every process that references this event (static
  /// sensitivity and dynamic waits) and purges scheduler-queue entries, so
  /// an event may safely be destroyed before the processes or the
  /// simulation that reference it.
  ~Event();

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void notify();             ///< Immediate notification.
  void notify_delta();       ///< Next-delta notification.
  void notify(Time delay);   ///< Timed (delay==0 behaves like delta).
  void cancel();             ///< Withdraw any pending notification.

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// sched_name_hash(name()), computed once at construction.
  [[nodiscard]] u64 trace_id() const noexcept { return trace_id_; }
  [[nodiscard]] Simulation& sim() const noexcept { return *sim_; }
  [[nodiscard]] bool has_pending() const noexcept {
    return pending_ != Pending::kNone;
  }

 private:
  friend class Simulation;
  friend class Process;
  friend class ThreadProcess;
  friend class MethodProcess;

  enum class Pending : u8 { kNone, kDelta, kTimed };

  /// Fire: wake statically sensitive and dynamically waiting processes.
  void trigger();

  void add_static(Process& p);
  void remove_static(Process& p);
  void add_dynamic(Process& p);
  void remove_dynamic(Process& p);

  Simulation* sim_;
  std::string name_;
  u64 trace_id_;
  Pending pending_ = Pending::kNone;
  Time pending_time_;   ///< Absolute trigger time when pending_ == kTimed.
  u64 generation_ = 0;  ///< Invalidates stale queue entries.
  u64 timed_refs_ = 0;  ///< Timed-queue entries (live + stale) naming us.
  u64 delta_refs_ = 0;  ///< Delta-queue/scratch slots (live + stale) naming us.

  std::vector<Process*> static_waiters_;
  std::vector<Process*> dynamic_waiters_;
};

}  // namespace adriatic::kern
