#include "kernel/event.hpp"

#include <algorithm>

#include "kernel/process.hpp"
#include "kernel/sched_trace.hpp"
#include "kernel/simulation.hpp"

namespace adriatic::kern {

Event::Event(Simulation& sim, std::string name)
    : sim_(&sim), name_(std::move(name)), trace_id_(sched_name_hash(name_)) {}

Event::~Event() {
  // Mutual deregistration: processes keep raw pointers to the events they
  // are sensitive to (and vice versa), and destruction order is the model's
  // business — a Signal declared after a Module dies first, while the
  // Module's processes still list its events. Scrub those back-references
  // here so ~Process never touches a freed event, and drop any scheduler
  // queue entries that still name us.
  for (Process* p : static_waiters_) std::erase(p->static_events_, this);
  for (Process* p : dynamic_waiters_) std::erase(p->waited_events_, this);
  // Both queues use lazy removal, so a cancelled or overridden notification
  // leaves a stale slot naming us long after pending_ went back to kNone —
  // the refcounts, not pending_, say whether the scheduler still holds a
  // pointer that must be purged.
  if (delta_refs_ != 0 || timed_refs_ != 0) sim_->purge_event(*this);
}

void Event::notify() {
  // Immediate notification overrides any pending one and fires now.
  if (pending_ == Pending::kTimed) sim_->unschedule_timed(*this);
  ++generation_;
  pending_ = Pending::kNone;
  trigger();
}

void Event::notify_delta() {
  if (pending_ == Pending::kDelta) return;
  // A pending timed notification is later than a delta: override it.
  if (pending_ == Pending::kTimed) sim_->unschedule_timed(*this);
  ++generation_;
  pending_ = Pending::kDelta;
  sim_->schedule_delta(*this);
}

void Event::notify(Time delay) {
  if (delay.is_zero()) {
    notify_delta();
    return;
  }
  const Time abs = sim_->now() + delay;
  if (pending_ == Pending::kDelta) return;  // delta is earlier
  if (pending_ == Pending::kTimed) {
    if (pending_time_ <= abs) return;
    sim_->unschedule_timed(*this);  // overridden by an earlier deadline
  }
  ++generation_;
  pending_ = Pending::kTimed;
  pending_time_ = abs;
  sim_->schedule_timed(*this, abs);
}

void Event::cancel() {
  if (pending_ == Pending::kTimed) sim_->unschedule_timed(*this);
  ++generation_;
  pending_ = Pending::kNone;
}

void Event::trigger() {
  // The event is firing: any bookkeeping for a pending notification is void.
  ++generation_;
  pending_ = Pending::kNone;

  // Dynamic waiters are one-shot; detach them before calling back, since a
  // woken process may immediately re-register.
  std::vector<Process*> dyn;
  dyn.swap(dynamic_waiters_);
  for (Process* p : dyn) p->dynamic_triggered(*this);

  // Static sensitivity persists across triggers.
  for (Process* p : static_waiters_) p->static_triggered();
}

void Event::add_static(Process& p) { static_waiters_.push_back(&p); }

void Event::remove_static(Process& p) { std::erase(static_waiters_, &p); }

void Event::add_dynamic(Process& p) { dynamic_waiters_.push_back(&p); }

void Event::remove_dynamic(Process& p) { std::erase(dynamic_waiters_, &p); }

}  // namespace adriatic::kern
