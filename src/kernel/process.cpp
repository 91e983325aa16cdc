#include "kernel/process.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernel/event.hpp"
#include "kernel/simulation.hpp"
#include "util/log.hpp"

namespace adriatic::kern {

Process::Process(Object& parent, std::string name)
    : Object(parent, std::move(name)) {
  timeout_event_ =
      std::make_unique<Event>(sim(), this->name() + ".timeout");
  terminated_event_ =
      std::make_unique<Event>(sim(), this->name() + ".terminated");
  sim().adopt_process(*this);
}

Process::~Process() {
  for (Event* e : static_events_) e->remove_static(*this);
  clear_dynamic_waits();
  // Must happen here, not in ~Object(): once this destructor returns, the
  // object's dynamic type is no longer Process, and any scheduler list that
  // still names us (processes_, runnable_, pending_dynamic_) would dangle.
  sim().unregister_process(*this);
}

void Process::sensitive(Event& e) {
  static_events_.push_back(&e);
  e.add_static(*this);
}

void Process::static_triggered() {
  if (state_ != State::kWaitStatic) return;
  mark_ready();
}

void Process::dynamic_triggered(Event& e) {
  // The event has already removed us from its own waiter list.
  if (state_ != State::kWaitDynamic) return;
  std::erase(waited_events_, &e);
  if (wait_mode_ == WaitMode::kAnd) {
    if (and_pending_ > 0) --and_pending_;
    if (and_pending_ > 0) return;  // keep waiting for the rest
  }
  timed_out_ = (&e == timeout_event_.get());
  clear_dynamic_waits();
  mark_ready();
}

void Process::clear_dynamic_waits() {
  for (Event* e : waited_events_) e->remove_dynamic(*this);
  waited_events_.clear();
  timeout_event_->cancel();
  wait_mode_ = WaitMode::kNone;
  and_pending_ = 0;
}

void Process::mark_ready() {
  state_ = State::kReady;
  sim().make_runnable(*this);
}

// ---------------------------------------------------------------------------
// ThreadProcess

ThreadProcess::ThreadProcess(Object& parent, std::string name,
                             std::function<void()> fn, usize stack_bytes)
    : Process(parent, std::move(name)),
      fiber_(
          [this, fn = std::move(fn)] {
            fn();
            // Publish any local-time offset still pending when the body
            // returns, so a loosely-timed thread terminates at the simulated
            // time it actually reached instead of silently discarding the
            // tail of its last quantum.
            flush_local_time();
          },
          stack_bytes) {}

void ThreadProcess::activate() {
  fiber_.resume();
  if (fiber_.finished()) {
    state_ = State::kTerminated;
    clear_dynamic_waits();
    terminated_event_->notify_delta();
  }
}

void ThreadProcess::suspend() {
  Fiber::yield();
  // Execution resumes here when the scheduler re-activates us.
}

void ThreadProcess::wait_static() {
  flush_local_time();
  if (static_events_.empty())
    log::warn() << name()
                << ": wait() with empty static sensitivity never returns";
  state_ = State::kWaitStatic;
  wait_since_ = sim().now();
  suspend();
}

void ThreadProcess::wait_event(Event& e) {
  if (!local_offset_.is_zero()) {
    // Loose mode with a pending offset: the awaited event must be armed
    // ACROSS the flush window. Flushing first (a plain timed wait) would
    // drop any notification landing inside it — the classic missed-event
    // deadlock: a producer the caller just signalled completes and notifies
    // while the caller is still paying down its local offset. Arm both; a
    // plain wait remains only when the flush finishes without the event.
    wait_time_event(Time::zero(), e);
    if (!timed_out_) return;  // the event fired inside the flush window
    timed_out_ = false;
  }
  timed_out_ = false;
  wait_mode_ = WaitMode::kOr;
  waited_events_.push_back(&e);
  e.add_dynamic(*this);
  state_ = State::kWaitDynamic;
  wait_since_ = sim().now();
  suspend();
}

void ThreadProcess::wait_time(Time t) {
  Simulation& s = sim();
  if (s.loose() && !timing_strict_) {
    // Temporal decoupling: run ahead of global time, deferring the
    // scheduler round-trip until the quantum is exhausted. A zero-time
    // wait still synchronises — models use wait(0) as an explicit yield,
    // and skipping it could spin a polling loop forever.
    local_offset_ += t;
    if (!t.is_zero() && local_offset_ < s.quantum()) return;
    sync_local_time();
    return;
  }
  wait_for(t);
}

void ThreadProcess::wait_for(Time t) {
  if (sim().wait_in_place(*this, t, 1)) return;
  timeout_event_->notify(t);  // t == 0 degrades to a delta yield
  wait_event(*timeout_event_);
  timed_out_ = false;  // a plain timed wait is not a "timeout"
}

void ThreadProcess::sync_local_time() {
  // Offset cleared before the wait so wait_event()'s flush is a no-op
  // (no recursion) and a quantum boundary looks like one plain timed wait.
  const Time offset = local_offset_;
  local_offset_ = Time::zero();
  sim().note_loose_sync();
  wait_for(offset);
}

void ThreadProcess::wait_time_event(Time t, Event& e) {
  // Fold any pending loose-mode offset into the timeout instead of flushing
  // first: the timeout should expire `t` after the caller's LOCAL time, and
  // the event stays armed over the whole flush window (see wait_event).
  const Time owed = local_offset_;
  if (!owed.is_zero()) {
    t += owed;
    local_offset_ = Time::zero();
    sim().note_loose_sync();
  }
  timed_out_ = false;
  wait_mode_ = WaitMode::kOr;
  timeout_event_->notify(t);
  waited_events_.push_back(timeout_event_.get());
  timeout_event_->add_dynamic(*this);
  waited_events_.push_back(&e);
  e.add_dynamic(*this);
  state_ = State::kWaitDynamic;
  const Time start = sim().now();
  wait_since_ = start;
  suspend();
  // Local time is monotonic: if the event cut the wait short, the unpaid
  // part of the folded offset is still owed. Discarding it would let a
  // delta-notified producer/consumer ping-pong contract an entire run to
  // one global instant — time would never advance and run(duration) would
  // never return. Carrying it forward makes the quantum check in
  // wait_time() force a hard sync once enough debt accumulates.
  if (!timed_out_ && !owed.is_zero()) {
    const Time paid = sim().now() - start;
    if (paid < owed) local_offset_ = owed - paid;
  }
}

void ThreadProcess::wait_any(std::span<Event* const> events) {
  if (events.empty()) throw std::invalid_argument("wait_any: empty list");
  if (!local_offset_.is_zero()) {
    // Arm the whole set across the flush window (see wait_event); re-arm
    // plainly below only when the flush timeout was the sole trigger.
    const Time offset = local_offset_;
    local_offset_ = Time::zero();
    sim().note_loose_sync();
    timed_out_ = false;
    wait_mode_ = WaitMode::kOr;
    timeout_event_->notify(offset);
    waited_events_.push_back(timeout_event_.get());
    timeout_event_->add_dynamic(*this);
    for (Event* e : events) {
      waited_events_.push_back(e);
      e->add_dynamic(*this);
    }
    state_ = State::kWaitDynamic;
    const Time start = sim().now();
    wait_since_ = start;
    suspend();
    if (!timed_out_) {
      // An event cut the flush short: carry the unpaid offset forward
      // (see wait_time_event — local time is monotonic).
      const Time paid = sim().now() - start;
      if (paid < offset) local_offset_ = offset - paid;
      return;
    }
    timed_out_ = false;
  }
  timed_out_ = false;
  wait_mode_ = WaitMode::kOr;
  for (Event* e : events) {
    waited_events_.push_back(e);
    e->add_dynamic(*this);
  }
  state_ = State::kWaitDynamic;
  wait_since_ = sim().now();
  suspend();
}

void ThreadProcess::wait_all(std::span<Event* const> events) {
  if (events.empty()) throw std::invalid_argument("wait_all: empty list");
  // wait_all keeps flush-first semantics: a conjunction with a timeout mixed
  // in has no clean meaning in the kOr/kAnd machinery, so events notified
  // inside the flush window are not observed — the standard SystemC
  // "notification before wait() is lost" contract, merely with a window
  // widened by up to one quantum. Loosely-timed models combining wait_all
  // with signalling producers should re-check state flags after waking.
  flush_local_time();
  timed_out_ = false;
  wait_mode_ = WaitMode::kAnd;
  and_pending_ = events.size();
  for (Event* e : events) {
    waited_events_.push_back(e);
    e->add_dynamic(*this);
  }
  state_ = State::kWaitDynamic;
  wait_since_ = sim().now();
  suspend();
}

// ---------------------------------------------------------------------------
// MethodProcess

MethodProcess::MethodProcess(Object& parent, std::string name,
                             std::function<void()> fn)
    : Process(parent, std::move(name)), fn_(std::move(fn)) {}

void MethodProcess::activate() {
  // Default resumption is static sensitivity; the body may override it by
  // calling next_trigger().
  state_ = State::kWaitStatic;
  wait_since_ = sim().now();
  fn_();
}

void MethodProcess::next_trigger(Event& e) {
  wait_mode_ = WaitMode::kOr;
  waited_events_.push_back(&e);
  e.add_dynamic(*this);
  state_ = State::kWaitDynamic;
  wait_since_ = sim().now();
}

void MethodProcess::next_trigger(Time t) {
  timeout_event_->notify(t);
  next_trigger(*timeout_event_);
}

}  // namespace adriatic::kern
