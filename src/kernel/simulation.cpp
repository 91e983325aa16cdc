#include "kernel/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "kernel/channel.hpp"
#include "kernel/event.hpp"
#include "kernel/object.hpp"
#include "kernel/port.hpp"
#include "kernel/process.hpp"
#include "kernel/vcd.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace adriatic::kern {

namespace {
// Compaction of stale timed-queue entries only kicks in past this size, so
// small models never pay for a heap rebuild.
constexpr u64 kCompactMinStale = 64;

// The process executing right now on this OS thread; lets the free wait()
// functions find their process without a global simulation context.
thread_local Process* t_running = nullptr;

[[nodiscard]] ThreadProcess& running_thread(const char* what) {
  // Every wait() funnels through here, so avoid the dynamic_cast: is_thread()
  // fully discriminates (ThreadProcess is the only is_thread() == true class
  // and is final), making the downcast safe.
  Process* p = t_running;
  if (p == nullptr || !p->is_thread())
    throw std::logic_error(std::string(what) +
                           " may only be called from a thread process");
  return *static_cast<ThreadProcess*>(p);
}
}  // namespace

const Process* Simulation::running_process() noexcept { return t_running; }

Simulation::Simulation() = default;
Simulation::~Simulation() = default;

void Simulation::set_quantum(Time q) {
  if (q.is_zero())
    throw std::invalid_argument("Simulation::set_quantum: zero quantum");
  quantum_ = q;
}

Time Simulation::local_now() const noexcept {
  const Process* p = current_process_;
  return p == nullptr ? now_ : now_ + p->local_time_offset();
}

// ---------------------------------------------------------------------------
// Registration

void Simulation::register_object(Object& o) {
  auto [it, inserted] = objects_.emplace(o.name(), &o);
  if (!inserted)
    throw std::invalid_argument("duplicate object name: " + o.name());
  if (o.parent() == nullptr) top_level_.push_back(&o);
}

void Simulation::unregister_object(Object& o) {
  objects_.erase(o.name());
  if (o.parent() == nullptr) std::erase(top_level_, &o);
  // Process list cleanup happens in unregister_process(), called from
  // ~Process(): by the time ~Object() runs the Process subobject is already
  // destroyed and a dynamic_cast here would (silently) yield nullptr.
}

void Simulation::unregister_process(Process& p) {
  std::erase(processes_, &p);
  std::erase(runnable_, &p);
  std::erase(pending_dynamic_, &p);
}

void Simulation::adopt_process(Process& p) {
  processes_.push_back(&p);
  // Processes spawned after elaboration (dynamic spawning) join the
  // schedule at the next delta cycle — deferred so that configuration
  // applied right after construction (dont_initialize, sensitivity) is
  // honoured before the first activation.
  if (elaborated_) pending_dynamic_.push_back(&p);
}

Object* Simulation::find_object(const std::string& full_name) const {
  auto it = objects_.find(full_name);
  return it == objects_.end() ? nullptr : it->second;
}

std::vector<Object*> Simulation::top_level_objects() const {
  return top_level_;
}

std::vector<Process*> Simulation::starved_processes() const {
  std::vector<Process*> out;
  for (Process* p : processes_)
    if (p->state() == Process::State::kWaitDynamic && p->is_thread() &&
        !p->is_daemon())
      out.push_back(p);
  return out;
}

// ---------------------------------------------------------------------------
// Hang diagnostics

DeadlockReport Simulation::build_stall_report(DeadlockReport::Kind k) const {
  DeadlockReport report;
  report.kind = k;
  report.at = now_;
  report.delta_count = delta_count_;
  report.activations = activations_;
  for (Process* p : processes_) {
    // kWaitDynamic covers blocked thread wait()s and method next_trigger()s
    // whose events will (deadlock) or may (livelock) never fire. Statically
    // sensitive processes are idle servers, not hang participants; daemons
    // opted out explicitly.
    if (p->state() != Process::State::kWaitDynamic || p->is_daemon()) continue;
    BlockedWaiter w;
    w.process = p->name();
    w.process_id = p->trace_id();
    w.is_thread = p->is_thread();
    w.blocked_since = p->blocked_since();
    w.wait_duration = now_ - w.blocked_since;
    for (const Event* e : p->waited_events_) {
      w.awaited.push_back(e->name_);
      w.awaited_ids.push_back(e->trace_id());
    }
    report.waiters.push_back(std::move(w));
  }
  return report;
}

void Simulation::report_stall(DeadlockReport::Kind k) {
  DeadlockReport report = build_stall_report(k);
  // A clean drain — quiescence with nobody blocked — is not a deadlock.
  // A livelock is reportable even with no dynamic waiters (time was
  // spinning with nothing dispatching), so it always lands.
  if (k == DeadlockReport::Kind::kDeadlock && report.waiters.empty()) return;
  log::warn() << "simulation " << to_string(k) << " at " << now_.str() << ": "
              << report.waiters.size() << " process(es) blocked";
  for (const auto& w : report.waiters) {
    auto l = log::warn();
    l << "  waiter " << w.process << " on:";
    for (const auto& e : w.awaited) l << " " << e;
  }
  deadlock_report_.emplace(std::move(report));
  if (deadlock_handler_) deadlock_handler_(*deadlock_report_);
}

// ---------------------------------------------------------------------------
// Elaboration

void Simulation::at_elaboration(std::function<void()> fn) {
  elaboration_hooks_.push_back(std::move(fn));
}

void Simulation::elaborate() {
  if (elaborated_) return;
  for (auto& hook : elaboration_hooks_) hook();
  // Port binding checks.
  for (auto& [name, obj] : objects_) {
    if (auto* port = dynamic_cast<PortBase*>(obj)) port->check_binding();
  }
  // Initial activation of all processes (unless dont_initialize).
  for (Process* p : processes_) {
    if (p->wants_initialize()) {
      make_runnable(*p);
    } else {
      p->state_ = Process::State::kWaitStatic;
    }
  }
  elaborated_ = true;
}

// ---------------------------------------------------------------------------
// Scheduling primitives

void Simulation::make_runnable(Process& p) {
  if (p.state() == Process::State::kTerminated) return;
  if (p.in_runnable_queue_) return;
  p.in_runnable_queue_ = true;
  p.state_ = Process::State::kReady;
  runnable_.push_back(&p);
}

void Simulation::schedule_timed(Event& e, Time abs_time) {
  ++e.timed_refs_;
  timed_push(TimedEntry{abs_time, timed_seq_++, &e, e.generation_});
}

void Simulation::unschedule_timed(Event& e) {
  // Lazy removal: the queue entry goes stale (detected by generation check
  // on pop). We only count it here; once stale entries dominate the heap —
  // the signature of periodic cancel/renotify patterns like clocks or DRCF
  // prefetch timers — compact_timed_queue() rebuilds the heap without them,
  // bounding memory at ~2x the live entry count.
  (void)e;
  ++timed_stale_;
  if (timed_compaction_enabled_ && timed_stale_ >= kCompactMinStale &&
      2 * timed_stale_ >= timed_queue_.size())
    compact_timed_queue();
}

void Simulation::schedule_delta(Event& e) {
  ++e.delta_refs_;
  delta_queue_.push_back(&e);
}

void Simulation::purge_event(Event& e) {
  if (e.delta_refs_ != 0) {
    std::erase(delta_queue_, &e);
    // The delta dispatch loop may be mid-flight over delta_scratch_ when a
    // trigger callback destroys an event; null the slot instead of erasing
    // so the loop's iterators stay valid.
    std::replace(delta_scratch_.begin(), delta_scratch_.end(),
                 static_cast<Event*>(&e), static_cast<Event*>(nullptr));
    e.delta_refs_ = 0;
  }
  if (e.timed_refs_ != 0) {
    u64 removed_stale = 0;
    std::erase_if(timed_queue_, [&](const TimedEntry& t) {
      if (t.event != &e) return false;
      if (t.generation != e.generation_) ++removed_stale;
      return true;
    });
    std::make_heap(timed_queue_.begin(), timed_queue_.end(),
                   std::greater<TimedEntry>{});
    timed_stale_ -= std::min(timed_stale_, removed_stale);
    e.timed_refs_ = 0;
  }
}

void Simulation::request_update(Channel& ch) { update_queue_.push_back(&ch); }

void Simulation::attach_tracer(TraceFile& tf) { tracers_.push_back(&tf); }

void Simulation::detach_tracer(TraceFile& tf) {
  // A tracer may detach from inside a sample callback (a model destroys a
  // TraceFile whose sampled value had side effects); null the slot instead
  // of erasing so sample_tracers()'s index walk stays valid.
  if (sampling_tracers_) {
    std::replace(tracers_.begin(), tracers_.end(), &tf,
                 static_cast<TraceFile*>(nullptr));
  } else {
    std::erase(tracers_, &tf);
  }
}

// ---------------------------------------------------------------------------
// Scheduler phases

void Simulation::evaluate() {
  ADRIATIC_CHECK(current_process_ == nullptr,
                 "evaluation phase entered while a process is active");
  while (!runnable_.empty()) {
    Process* p;
    if (debug_lifo_evaluation_) [[unlikely]] {
      p = runnable_.back();  // test-only order perturbation
      runnable_.pop_back();
    } else {
      p = runnable_.front();
      runnable_.pop_front();
    }
    p->in_runnable_queue_ = false;
    ADRIATIC_CHECK(p->state() == Process::State::kReady,
                   "dispatched process not in kReady state");
    current_process_ = p;
    t_running = p;
    ++activations_;
    if (!p->is_daemon()) last_progress_time_ = now_;
    emit(SchedRecord::Kind::kDispatch, p->trace_id());
    p->activate();
    t_running = nullptr;
    current_process_ = nullptr;
  }
}

void Simulation::update() {
  // update() must not request further updates; snapshot the queue. The
  // scratch vector is a member so steady-state delta cycles allocate nothing.
  update_scratch_.clear();
  update_scratch_.swap(update_queue_);
  for (Channel* ch : update_scratch_) {
    ch->update_requested_ = false;
    emit(SchedRecord::Kind::kUpdate, ch->trace_id());
    ch->update();
  }
  ADRIATIC_CHECK(update_queue_.empty(),
                 "a channel requested an update from inside update()");
}

bool Simulation::notify_delta_queue() {
  delta_scratch_.clear();
  delta_scratch_.swap(delta_queue_);
  for (Event* e : delta_scratch_) {
    if (e == nullptr) continue;  // purged by ~Event mid-dispatch
    // Consuming the slot releases our claim on the pointer; an event whose
    // refcounts drop to zero here may be destroyed freely afterwards.
    ADRIATIC_CHECK(e->delta_refs_ > 0,
                   "delta-queue slot names an event with no delta refs");
    --e->delta_refs_;
    if (e->pending_ == Event::Pending::kDelta) {
      emit(SchedRecord::Kind::kDeltaNotify, e->trace_id());
      e->trigger();
    }
  }
  return !runnable_.empty();
}

void Simulation::sample_tracers() {
  if (tracers_.empty()) return;
  // Index walk under the sampling flag: a sample callback may detach a
  // tracer (detach_tracer nulls its slot) or attach a new one (push_back —
  // safe with indices even through reallocation; the newcomer is sampled
  // this same instant).
  sampling_tracers_ = true;
  for (usize i = 0; i < tracers_.size(); ++i) {
    if (tracers_[i] != nullptr) tracers_[i]->cycle(now_);
  }
  sampling_tracers_ = false;
  std::erase(tracers_, static_cast<TraceFile*>(nullptr));
}

// ---------------------------------------------------------------------------
// Timed queue (min-heap with stale-entry compaction)

void Simulation::timed_push(TimedEntry entry) {
  timed_queue_.push_back(entry);
  std::push_heap(timed_queue_.begin(), timed_queue_.end(),
                 std::greater<TimedEntry>{});
}

void Simulation::timed_pop() {
  std::pop_heap(timed_queue_.begin(), timed_queue_.end(),
                std::greater<TimedEntry>{});
  timed_queue_.pop_back();
}

void Simulation::compact_timed_queue() {
  std::erase_if(timed_queue_, [](const TimedEntry& t) {
    if (t.event->generation_ != t.generation) {
      ADRIATIC_CHECK(t.event->timed_refs_ > 0,
                     "compaction found an entry with no timed refs");
      --t.event->timed_refs_;
      return true;
    }
    return false;
  });
  std::make_heap(timed_queue_.begin(), timed_queue_.end(),
                 std::greater<TimedEntry>{});
  timed_stale_ = 0;
}

bool Simulation::delta_cycle() {
  evaluate();
  // Activate processes spawned during the evaluation phase: their
  // post-construction configuration (sensitivity, dont_initialize) is final
  // by now, and they must be able to receive this delta's notifications.
  if (!pending_dynamic_.empty()) {
    std::vector<Process*> pending;
    pending.swap(pending_dynamic_);
    for (Process* p : pending) {
      if (p->wants_initialize()) {
        make_runnable(*p);
      } else {
        p->state_ = Process::State::kWaitStatic;
      }
    }
  }
  update();
  ++delta_count_;
  const bool more = notify_delta_queue();
  emit(SchedRecord::Kind::kDeltaCycleEnd, 0);
  return more;
}

StopReason Simulation::run(Time duration) {
  if (!elaborated_) elaborate();
  stop_requested_ = false;
  deadlock_report_.reset();
  last_progress_time_ = now_;
  const bool bounded = duration != Time::max();
  const Time end = bounded ? now_ + duration : Time::max();
  run_end_ = end;

  for (;;) {
    // Run delta cycles while there is immediate work: runnable processes,
    // pending channel updates, or pending delta notifications (the latter
    // can exist without runnables, e.g. notify_delta() before run()).
    while (!runnable_.empty() || !update_queue_.empty() ||
           !delta_queue_.empty() || !pending_dynamic_.empty()) {
      delta_cycle();
      if (stop_requested_ || consume_external_stop()) {
        sample_tracers();
        return StopReason::kExplicitStop;
      }
    }
    sample_tracers();
    // Cross-thread stop (campaign watchdog): honoured between time steps so
    // a run dominated by timed activity still stops promptly.
    if (consume_external_stop()) return StopReason::kExplicitStop;

    // Advance to the next valid timed notification.
    for (;;) {
      if (timed_queue_.empty()) {
        timed_stale_ = 0;
        // Quiescent with blocked waiters left behind: a model deadlock.
        // Report it, but keep the kNoActivity return — callers distinguish
        // a clean drain from a deadlock via deadlock_report().
        report_stall(DeadlockReport::Kind::kDeadlock);
        return StopReason::kNoActivity;
      }
      const TimedEntry top = timed_top();
      if (top.event->generation_ != top.generation ||
          top.event->pending_ != Event::Pending::kTimed ||
          top.event->pending_time_ != top.time) {
        timed_pop();  // stale (cancelled or overridden)
        ADRIATIC_CHECK(top.event->timed_refs_ > 0,
                       "stale timed entry names an event with no timed refs");
        --top.event->timed_refs_;
        if (timed_stale_ > 0) --timed_stale_;
        continue;
      }
      if (bounded && top.time > end) {
        now_ = end;
        return StopReason::kTimeLimit;
      }
      // Progress watchdog: simulated time is about to move further past the
      // last non-daemon dispatch than the model tolerates — a livelock
      // (e.g. a clock or retry timer spinning while every worker is stuck).
      if (!max_quiet_time_.is_zero() &&
          top.time - last_progress_time_ > max_quiet_time_) {
        now_ = last_progress_time_ + max_quiet_time_;
        report_stall(DeadlockReport::Kind::kLivelock);
        return StopReason::kStalled;
      }
      now_ = top.time;
      emit(SchedRecord::Kind::kTimeAdvance, 0);
      // Trigger every valid entry scheduled for this instant.
      while (!timed_queue_.empty() && timed_top().time == now_) {
        const TimedEntry entry = timed_top();
        timed_pop();
        ADRIATIC_CHECK(entry.event->timed_refs_ > 0,
                       "timed-queue entry names an event with no timed refs");
        --entry.event->timed_refs_;
        if (entry.event->generation_ == entry.generation &&
            entry.event->pending_ == Event::Pending::kTimed &&
            entry.event->pending_time_ == now_) {
          emit(SchedRecord::Kind::kTimedNotify, entry.event->trace_id());
          entry.event->trigger();
        } else if (timed_stale_ > 0) {
          --timed_stale_;
        }
      }
      break;
    }
  }
}

bool Simulation::wait_in_place(Process& p, Time t, u64 n) {
  // The round trip's next steps are fixed when nothing else is due first:
  // no other work in this delta cycle, no stop to honour at its end, and a
  // timed queue whose top (stale entries included, which the round trip
  // would pop) comes strictly after the last wake, so p's timeouts fire
  // alone. The last wake must also land inside this run() (n * t cannot
  // overflow then) and no step may trip the watchdog.
  if (t.is_zero() || n == 0 || !runnable_.empty() || !update_queue_.empty() ||
      !delta_queue_.empty() || !pending_dynamic_.empty() || stop_requested_ ||
      external_stop_.load(std::memory_order_relaxed) ||
      (run_end_ - now_) / t < n)
    return false;
  const Time wake = now_ + t * n;
  if (!timed_queue_.empty() && timed_top().time <= wake) return false;
  // A non-daemon's every dispatch is progress, so only its first step can
  // trip the watchdog (each later one spans t, no more than the first). A
  // daemon's steps are not progress: its last wake must still be in time.
  const Time quiet_until = p.is_daemon() ? wake : now_ + t;
  if (!max_quiet_time_.is_zero() &&
      quiet_until - last_progress_time_ > max_quiet_time_)
    return false;
  ADRIATIC_CHECK(current_process_ == &p,
                 "wait_in_place called for a process that is not running");
  p.timed_out_ = false;  // a plain timed wait is not a "timeout"
  if (observer_ == nullptr && tracers_.empty()) [[likely]] {
    // Nobody sees the steps one by one: only their counts and end remain.
    delta_count_ += n;
    activations_ += n;
    now_ = wake;
    if (!p.is_daemon()) last_progress_time_ = now_;
    return true;
  }
  for (u64 i = 0; i < n; ++i) {
    // The rest of p's delta cycle (delta_cycle() and run()'s tail) ...
    ++delta_count_;
    emit(SchedRecord::Kind::kDeltaCycleEnd, 0);
    sample_tracers();
    // ... the time advance and p's timeout (run()'s timed-queue loop) ...
    now_ += t;
    emit(SchedRecord::Kind::kTimeAdvance, 0);
    emit(SchedRecord::Kind::kTimedNotify, p.timeout_event_->trace_id());
    // ... and p's dispatch (evaluate()).
    ++activations_;
    if (!p.is_daemon()) last_progress_time_ = now_;
    emit(SchedRecord::Kind::kDispatch, p.trace_id());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Free wait functions

void wait() { running_thread("wait()").wait_static(); }

void wait(Event& e) { running_thread("wait(event)").wait_event(e); }

void wait(Time t) { running_thread("wait(time)").wait_time(t); }

void wait(Time t, Event& e) {
  running_thread("wait(time, event)").wait_time_event(t, e);
}

void wait_any(std::span<Event* const> events) {
  running_thread("wait_any").wait_any(events);
}

void wait_all(std::span<Event* const> events) {
  running_thread("wait_all").wait_all(events);
}

bool timed_out() { return running_thread("timed_out()").timed_out(); }

bool wait_in_place(Time t, u64 n) {
  ThreadProcess& p = running_thread("wait_in_place()");
  // A decoupled process owes its waits to its local offset, not the
  // scheduler; only a timed (or strict) one may step the clock in place.
  if (p.sim().loose() && !p.timing_strict()) return false;
  return p.sim().wait_in_place(p, t, n);
}

}  // namespace adriatic::kern
