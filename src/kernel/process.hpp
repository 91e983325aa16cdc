// Simulation processes: thread processes (SC_THREAD — stackful, may block in
// wait()) and method processes (SC_METHOD — run-to-completion callbacks).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernel/fiber.hpp"
#include "kernel/object.hpp"
#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::kern {

class Event;
class Simulation;

class Process : public Object {
 public:
  enum class State : u8 {
    kReady,       ///< In the runnable queue.
    kWaitStatic,  ///< Waiting on static sensitivity.
    kWaitDynamic, ///< Waiting on a dynamic wait()/next_trigger() condition.
    kTerminated,
  };

  Process(Object& parent, std::string name);
  ~Process() override;

  [[nodiscard]] virtual bool is_thread() const noexcept = 0;
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] const char* kind() const override { return "process"; }

  /// Adds `e` to the static sensitivity list (elaboration time).
  void sensitive(Event& e);
  /// Skip the initialization run at simulation start.
  void dont_initialize() noexcept { dont_initialize_ = true; }
  [[nodiscard]] bool wants_initialize() const noexcept {
    return !dont_initialize_;
  }

  /// Daemon processes are servers that legitimately idle on request events
  /// forever; they are excluded from starvation (deadlock) reports.
  void set_daemon(bool daemon = true) noexcept { daemon_ = daemon; }
  [[nodiscard]] bool is_daemon() const noexcept { return daemon_; }

  /// Opts this process out of temporal decoupling: in TimingMode::kLoose its
  /// wait(Time) calls still go through the scheduler one by one. Needed by
  /// processes whose side effects between waits are consumed asynchronously
  /// (e.g. a thread toggling a signal other processes edge-detect — under
  /// decoupling the toggles would collapse into one delta and lose edges).
  void set_timing_strict(bool strict = true) noexcept {
    timing_strict_ = strict;
  }
  [[nodiscard]] bool timing_strict() const noexcept { return timing_strict_; }

  /// Accumulated loose-mode delay not yet synchronised with the scheduler:
  /// this process's view of time is sim().now() + local_time_offset().
  /// Always zero in TimingMode::kTimed and while the process is suspended.
  [[nodiscard]] Time local_time_offset() const noexcept {
    return local_offset_;
  }

  /// Notified when the process terminates (thread function returned).
  [[nodiscard]] Event& terminated_event() noexcept { return *terminated_event_; }

  /// True if the last timed wait ended via timeout rather than event.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// Sim time at which the current wait began (diagnostics: wait duration in
  /// DeadlockReport). Meaningful while state() is a wait state.
  [[nodiscard]] Time blocked_since() const noexcept { return wait_since_; }

 protected:
  friend class Simulation;
  friend class Event;

  /// Executes one activation (resumes the fiber / calls the method body).
  virtual void activate() = 0;

  /// Called by an event this process dynamically waits on.
  void dynamic_triggered(Event& e);
  /// Called by an event in this process's static sensitivity list.
  void static_triggered();

  void clear_dynamic_waits();
  void mark_ready();

  enum class WaitMode : u8 { kNone, kOr, kAnd };

  State state_ = State::kReady;
  WaitMode wait_mode_ = WaitMode::kNone;
  Time wait_since_;    ///< Sim time the current wait began.
  Time local_offset_;  ///< Loose-mode local time ahead of sim().now().
  usize and_pending_ = 0;  ///< Outstanding events for an and-list wait.
  std::vector<Event*> waited_events_;
  std::unique_ptr<Event> timeout_event_;
  std::unique_ptr<Event> terminated_event_;
  std::vector<Event*> static_events_;
  bool dont_initialize_ = false;
  bool daemon_ = false;
  bool timing_strict_ = false;
  bool timed_out_ = false;
  bool in_runnable_queue_ = false;
};

/// SC_THREAD analogue: runs `fn` on its own fiber; wait() suspends it.
class ThreadProcess final : public Process {
 public:
  ThreadProcess(Object& parent, std::string name, std::function<void()> fn,
                usize stack_bytes = 256 * 1024);

  [[nodiscard]] bool is_thread() const noexcept override { return true; }

  // -- Blocking waits; callable only from within this process's fiber ------
  // (exposed via the free functions in wait.hpp).
  void wait_static();
  void wait_event(Event& e);
  void wait_time(Time t);
  /// Waits for `e` or a timeout; sets timed_out() accordingly.
  void wait_time_event(Time t, Event& e);
  void wait_any(std::span<Event* const> events);
  void wait_all(std::span<Event* const> events);

 private:
  void activate() override;
  void suspend();
  /// One scheduler-visible wait of `t`: resumed in place when the kernel
  /// allows it (Simulation::wait_in_place), else a round trip through the
  /// timeout event.
  void wait_for(Time t);
  /// Loose mode: performs one real timed wait for the accumulated local
  /// offset (a synchronisation point) and resets the offset.
  void sync_local_time();
  /// Loose mode: synchronises iff a local offset is pending. Every blocking
  /// wait flushes first so event waits happen at the process's local time.
  void flush_local_time() {
    if (!local_offset_.is_zero()) sync_local_time();
  }

  Fiber fiber_;
};

/// SC_METHOD analogue: a run-to-completion callback.
class MethodProcess final : public Process {
 public:
  MethodProcess(Object& parent, std::string name, std::function<void()> fn);

  [[nodiscard]] bool is_thread() const noexcept override { return false; }

  /// One-shot dynamic sensitivity override (SystemC next_trigger).
  void next_trigger(Event& e);
  void next_trigger(Time t);

 private:
  void activate() override;

  std::function<void()> fn_;
};

}  // namespace adriatic::kern
