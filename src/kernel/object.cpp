#include "kernel/object.hpp"

#include <stdexcept>

#include "kernel/channel.hpp"
#include "kernel/sched_trace.hpp"
#include "kernel/simulation.hpp"

namespace adriatic::kern {

Object::Object(Simulation& sim, std::string name)
    : sim_(&sim),
      parent_(nullptr),
      name_(std::move(name)),
      full_name_(name_),
      trace_id_(sched_name_hash(full_name_)) {
  register_self();
}

Object::Object(Object& parent, std::string name)
    : sim_(&parent.sim()),
      parent_(&parent),
      name_(std::move(name)),
      full_name_(parent.name() + "." + name_),
      trace_id_(sched_name_hash(full_name_)) {
  parent_->children_.push_back(this);
  register_self();
}

Object::~Object() {
  if (parent_ != nullptr) {
    auto& sib = parent_->children_;
    std::erase(sib, this);
  }
  sim_->unregister_object(*this);
}

void Object::register_self() {
  if (name_.empty()) throw std::invalid_argument("Object: empty name");
  sim_->register_object(*this);
}

void Channel::request_update() {
  if (update_requested_) return;
  update_requested_ = true;
  sim().request_update(*this);
}

}  // namespace adriatic::kern
