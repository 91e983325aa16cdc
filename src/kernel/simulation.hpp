// The simulation context and scheduler: evaluate / update / delta-notify /
// timed-notify phases per the SystemC 2.0 functional specification.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kernel/diagnostics.hpp"
#include "kernel/sched_trace.hpp"
#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::kern {

class Object;
class Event;
class Process;
class Channel;
class TraceFile;

/// Why a run() call returned.
enum class StopReason : u8 {
  kTimeLimit,    ///< Reached the requested duration.
  kNoActivity,   ///< Event queues drained; simulation quiescent.
  kExplicitStop, ///< A process called Simulation::stop().
  kStalled,      ///< The max_quiet_time progress watchdog fired (livelock).
};

/// Timing abstraction the scheduler runs under (see docs/timing_modes.md).
enum class TimingMode : u8 {
  /// Bus-cycle-accurate: every wait(Time) is a real scheduler round-trip.
  /// This is the paper's abstraction level and the conformance baseline —
  /// golden trace digests are only defined in this mode.
  kTimed,
  /// Loosely timed (TLM-2 style): thread processes accumulate wait(Time)
  /// delays in a per-process local-time offset and only synchronise with
  /// the scheduler at quantum expiry, event waits, or zero-time yields.
  /// Functional results are preserved; trace digests and exact event
  /// interleavings are not.
  kLoose,
};

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // -- Control --------------------------------------------------------------

  /// Runs for `duration` of simulated time (default: until no activity).
  StopReason run(Time duration = Time::max());
  /// Requests the scheduler to stop after the current delta cycle.
  void stop() noexcept { stop_requested_ = true; }
  /// Thread-safe stop request (e.g. a campaign watchdog on another OS
  /// thread): sticky until observed by run(), which returns kExplicitStop
  /// at the next delta-cycle or time-advance boundary. Unlike stop(), this
  /// is safe to call while run() is executing on a different thread.
  void request_stop() noexcept {
    external_stop_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] u64 delta_count() const noexcept { return delta_count_; }
  [[nodiscard]] u64 activations() const noexcept { return activations_; }

  // -- Timing mode (temporal decoupling) ------------------------------------

  /// Selects the timing abstraction for this run. Switch before run() (or
  /// between run() calls); flipping it mid-quantum would strand accumulated
  /// local offsets.
  void set_timing_mode(TimingMode m) noexcept { timing_mode_ = m; }
  [[nodiscard]] TimingMode timing_mode() const noexcept { return timing_mode_; }
  [[nodiscard]] bool loose() const noexcept {
    return timing_mode_ == TimingMode::kLoose;
  }

  /// Global quantum for kLoose: the largest local-time offset a decoupled
  /// process may accumulate before it must synchronise with the scheduler.
  /// Must be nonzero.
  void set_quantum(Time q);
  [[nodiscard]] Time quantum() const noexcept { return quantum_; }

  /// The calling process's view of time: global time plus its local offset
  /// (equal to now() in kTimed or outside a process).
  [[nodiscard]] Time local_now() const noexcept;

  /// Number of loose-mode synchronisations (quantum expiries and offset
  /// flushes before event waits) performed so far.
  [[nodiscard]] u64 loose_syncs() const noexcept { return loose_syncs_; }
  /// Kernel-internal: counted by ThreadProcess when it synchronises.
  void note_loose_sync() noexcept { ++loose_syncs_; }
  /// Current timed-queue length including not-yet-compacted stale entries;
  /// exposed so tests can pin the compaction policy.
  [[nodiscard]] usize timed_queue_size() const noexcept {
    return timed_queue_.size();
  }

  // -- Elaboration ----------------------------------------------------------

  /// Runs binding checks and prepares initial process activation. Called
  /// automatically by the first run(); may be called explicitly.
  void elaborate();
  [[nodiscard]] bool elaborated() const noexcept { return elaborated_; }
  /// Registers a callback to run at elaboration (used for binding checks).
  void at_elaboration(std::function<void()> fn);

  // -- Introspection --------------------------------------------------------

  [[nodiscard]] Object* find_object(const std::string& full_name) const;
  [[nodiscard]] std::vector<Object*> top_level_objects() const;
  /// Thread processes left blocked on dynamic waits when the simulation went
  /// quiescent — the observable signature of a model deadlock (e.g. the
  /// paper's Sec. 5.4 blocking-bus case).
  [[nodiscard]] std::vector<Process*> starved_processes() const;

  // -- Hang diagnostics ------------------------------------------------------

  /// Sim-time progress watchdog: if simulated time is about to advance more
  /// than `t` past the last non-daemon process dispatch, run() stops with
  /// StopReason::kStalled and assembles a kLivelock DeadlockReport. Zero
  /// (the default) disables the watchdog. Daemon processes (e.g. clock
  /// ticks) do not count as progress, so a clocked model that only toggles
  /// its clock still trips the watchdog.
  void set_max_quiet_time(Time t) noexcept { max_quiet_time_ = t; }
  [[nodiscard]] Time max_quiet_time() const noexcept { return max_quiet_time_; }

  /// Installs a callback invoked synchronously whenever a DeadlockReport is
  /// assembled (quiescent deadlock or watchdog livelock). Pass nullptr /
  /// empty to remove.
  void set_deadlock_handler(DeadlockHandler h) {
    deadlock_handler_ = std::move(h);
  }

  /// The report from the most recent run(), if that run detected a hang.
  /// Cleared at the start of every run(). A deadlocked run still returns
  /// kNoActivity (existing callers key on that); check here for the details.
  [[nodiscard]] const std::optional<DeadlockReport>& deadlock_report()
      const noexcept {
    return deadlock_report_;
  }

  /// The process currently executing, or nullptr between activations.
  [[nodiscard]] Process* current_process() const noexcept {
    return current_process_;
  }
  /// The process executing right now on the calling OS thread, whichever
  /// simulation it belongs to; nullptr outside activations. Only reads a
  /// thread-local pointer, so a signal handler may call it.
  [[nodiscard]] static const Process* running_process() noexcept;

  // -- Scheduler tracing & conformance hooks --------------------------------

  /// Installs (or removes, with nullptr) the structured scheduler-trace
  /// observer. The observer sees every dispatch / update / notification /
  /// time-advance record; when detached the hooks cost one pointer check.
  void set_observer(SchedulerObserver* obs) noexcept { observer_ = obs; }
  [[nodiscard]] SchedulerObserver* observer() const noexcept {
    return observer_;
  }

  /// Disables/enables stale-entry compaction of the timed queue. Compaction
  /// is pure bookkeeping — it must never change scheduling order — and the
  /// conformance suite pins that by diffing trace digests with the knob in
  /// both positions.
  void set_timed_compaction(bool enabled) noexcept {
    timed_compaction_enabled_ = enabled;
  }

  /// TEST-ONLY: drain the runnable queue LIFO instead of FIFO. This is a
  /// deliberate scheduler-order perturbation used to prove the conformance
  /// digests actually detect evaluation-order changes; never enable it in a
  /// model.
  void debug_set_lifo_evaluation(bool enabled) noexcept {
    debug_lifo_evaluation_ = enabled;
  }

  // -- Kernel-internal interface (used by Event/Process/Channel) ------------

  void make_runnable(Process& p);
  void schedule_timed(Event& e, Time abs_time);
  void unschedule_timed(Event& e);
  void schedule_delta(Event& e);
  /// Called by ~Event: removes every queue reference to `e` so the scheduler
  /// never dereferences a destroyed event.
  void purge_event(Event& e);
  void request_update(Channel& ch);
  void attach_tracer(TraceFile& tf);
  void detach_tracer(TraceFile& tf);
  /// Called by the running thread `p` before it blocks `n` times for `t`
  /// each. When `p` is the only thing due before now() + n * t, performs in
  /// place the scheduler steps its n round trips would take (per step: end
  /// of the delta cycle, tracer sampling, the time advance, its timeout and
  /// its dispatch), with the same counts and trace records, and returns
  /// true: `p` carries on without yielding. Otherwise changes nothing and
  /// returns false. Without an observer or tracer attached, the n steps
  /// collapse into one update of the counts and the clock.
  [[nodiscard]] bool wait_in_place(Process& p, Time t, u64 n);

 private:
  friend class Object;
  friend class Process;

  void register_object(Object& o);
  void unregister_object(Object& o);
  void adopt_process(Process& p);
  void unregister_process(Process& p);

  /// Runs one evaluation phase + update phase + delta notifications.
  /// Returns true if more runnable processes emerged.
  bool delta_cycle();
  void evaluate();
  void update();
  bool notify_delta_queue();
  void sample_tracers();

  struct TimedEntry {
    Time time;
    u64 seq;      ///< FIFO tie-break among same-time entries.
    Event* event;
    u64 generation;
    [[nodiscard]] bool operator>(const TimedEntry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  // Timed queue: a binary min-heap over a plain vector (not
  // std::priority_queue) so stale entries — cancelled or overridden
  // notifications, detected by generation mismatch — can be compacted in
  // place once they outnumber live ones. See compact_timed_queue().
  void timed_push(TimedEntry entry);
  void timed_pop();
  [[nodiscard]] const TimedEntry& timed_top() const { return timed_queue_.front(); }
  void compact_timed_queue();

  /// Snapshots the blocked non-daemon processes into a DeadlockReport.
  [[nodiscard]] DeadlockReport build_stall_report(DeadlockReport::Kind k) const;
  /// Stores the report, notifies the handler, logs a one-line summary.
  void report_stall(DeadlockReport::Kind k);

  /// True (and clears the flag) when request_stop() fired since last check.
  [[nodiscard]] bool consume_external_stop() noexcept {
    if (!external_stop_.load(std::memory_order_relaxed)) return false;
    external_stop_.store(false, std::memory_order_relaxed);
    return true;
  }

  /// Reports a scheduler decision to the observer, if one is installed.
  void emit(SchedRecord::Kind kind, u64 id) {
    if (observer_ != nullptr) [[unlikely]]
      observer_->on_record(
          SchedRecord{kind, now_.picoseconds(), delta_count_, id});
  }

  Time now_;
  /// End time of the current run() (Time::max() when unbounded).
  Time run_end_ = Time::max();
  u64 delta_count_ = 0;
  u64 activations_ = 0;
  TimingMode timing_mode_ = TimingMode::kTimed;
  Time quantum_ = Time::us(1);
  u64 loose_syncs_ = 0;
  u64 timed_seq_ = 0;
  u64 timed_stale_ = 0;  ///< Upper-bound estimate of stale timed entries.
  bool elaborated_ = false;
  bool stop_requested_ = false;
  /// Set by request_stop() from any OS thread; checked (and consumed) by
  /// run() at delta-cycle and time-advance boundaries.
  std::atomic<bool> external_stop_{false};
  bool timed_compaction_enabled_ = true;
  bool debug_lifo_evaluation_ = false;
  /// Progress watchdog (see set_max_quiet_time); zero disables.
  Time max_quiet_time_;
  /// Sim time of the most recent non-daemon process dispatch.
  Time last_progress_time_;
  DeadlockHandler deadlock_handler_;
  std::optional<DeadlockReport> deadlock_report_;
  bool sampling_tracers_ = false;  ///< Guards tracers_ mutation during sampling.
  SchedulerObserver* observer_ = nullptr;

  std::deque<Process*> runnable_;
  std::vector<Event*> delta_queue_;
  std::vector<Channel*> update_queue_;
  std::vector<TimedEntry> timed_queue_;
  /// Reused across delta cycles so update()/notify_delta_queue() do not
  /// allocate on every cycle (they swap with the live queues).
  std::vector<Event*> delta_scratch_;
  std::vector<Channel*> update_scratch_;

  Process* current_process_ = nullptr;
  std::map<std::string, Object*> objects_;
  std::vector<Object*> top_level_;
  std::vector<Process*> processes_;
  /// Spawned after elaboration; activated at the next delta cycle.
  std::vector<Process*> pending_dynamic_;
  std::vector<std::function<void()>> elaboration_hooks_;
  std::vector<TraceFile*> tracers_;
};

// -- Free wait() functions (SystemC style), callable from thread processes --

void wait();
void wait(Event& e);
void wait(Time t);
void wait(Time t, Event& e);
void wait_any(std::span<Event* const> events);
void wait_all(std::span<Event* const> events);
/// True if the calling thread's last wait(Time, Event&) ended by timeout.
[[nodiscard]] bool timed_out();
/// Performs `n` consecutive wait(t) calls of the calling thread in place,
/// as one batch, when nothing else is due before they end
/// (Simulation::wait_in_place); returns false, having waited nothing,
/// otherwise and for a loosely timed process that is not timing_strict().
[[nodiscard]] bool wait_in_place(Time t, u64 n);

}  // namespace adriatic::kern
