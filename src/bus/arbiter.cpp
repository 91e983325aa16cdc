#include "bus/arbiter.hpp"

#include <algorithm>

#include "kernel/process.hpp"
#include "kernel/simulation.hpp"
#include "util/log.hpp"

namespace adriatic::bus {

Arbiter::Arbiter(kern::Object& owner, ArbPolicy policy)
    : owner_(&owner), policy_(policy) {}

kern::Time Arbiter::acquire(u32 priority) {
  auto& sim = owner_->sim();
  if (!busy_ && waiters_.empty()) {
    busy_ = true;
    ++grants_;
    record_grant(sim, kern::Time::zero());
    return kern::Time::zero();
  }
  const kern::Time start = sim.now();
  auto req = std::make_unique<Request>();
  req->priority = priority;
  req->seq = seq_++;
  req->grant = std::make_unique<kern::Event>(sim);
  kern::Event& grant = *req->grant;
  waiters_.push_back(std::move(req));
  kern::wait(grant);  // release() notifies and removes the entry
  const kern::Time waited = sim.now() - start;
  total_wait_ += waited;
  ++grants_;
  ++contended_;
  record_grant(sim, waited);
  return waited;
}

void Arbiter::record_grant(kern::Simulation& sim, kern::Time waited) {
  const kern::Process* p = sim.current_process();
  const u64 id = p != nullptr ? p->trace_id() : 0;
  auto [it, inserted] = masters_.try_emplace(id);
  MasterGrantStats& m = it->second;
  if (inserted) {
    if (p != nullptr) m.master = p->name();
    m.master_id = id;
  }
  const kern::Time now = sim.now();
  if (m.grants > 0 && now - m.last_grant > m.max_grant_gap)
    m.max_grant_gap = now - m.last_grant;
  ++m.grants;
  m.last_grant = now;
  m.total_wait += waited;
  if (waited > m.max_wait) m.max_wait = waited;
  if (!starvation_threshold_.is_zero() && waited > starvation_threshold_) {
    if (m.starved_grants == 0)
      log::warn() << owner_->name() << ": master " << m.master
                  << " starved: waited " << waited.str() << " (threshold "
                  << starvation_threshold_.str() << ")";
    ++m.starved_grants;
  }
}

std::vector<MasterGrantStats> Arbiter::master_stats() const {
  std::vector<MasterGrantStats> out;
  out.reserve(masters_.size());
  for (const auto& [id, m] : masters_) out.push_back(m);
  std::sort(out.begin(), out.end(),
            [](const MasterGrantStats& a, const MasterGrantStats& b) {
              return a.master < b.master;
            });
  return out;
}

std::vector<MasterGrantStats> Arbiter::starved_masters() const {
  std::vector<MasterGrantStats> out = master_stats();
  std::erase_if(out,
                [](const MasterGrantStats& m) { return m.starved_grants == 0; });
  return out;
}

void Arbiter::release() {
  if (waiters_.empty()) {
    busy_ = false;
    return;
  }
  const usize next = pick_next();
  // Resource stays busy; hand it to the winner in this same instant.
  waiters_[next]->grant->notify();
  waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(next));
  ++rr_counter_;
}

usize Arbiter::pick_next() const {
  switch (policy_) {
    case ArbPolicy::kPriority: {
      usize best = 0;
      for (usize i = 1; i < waiters_.size(); ++i) {
        const auto& a = *waiters_[i];
        const auto& b = *waiters_[best];
        if (a.priority > b.priority ||
            (a.priority == b.priority && a.seq < b.seq))
          best = i;
      }
      return best;
    }
    case ArbPolicy::kRoundRobin:
      return static_cast<usize>(rr_counter_ % waiters_.size());
    case ArbPolicy::kFifo:
    default: {
      usize best = 0;
      for (usize i = 1; i < waiters_.size(); ++i)
        if (waiters_[i]->seq < waiters_[best]->seq) best = i;
      return best;
    }
  }
}

}  // namespace adriatic::bus
