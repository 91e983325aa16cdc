// Named simulation objects. Every module, channel, port and process is an
// Object: it has a hierarchical name ("top.bus.arbiter"), a parent, and is
// registered with its Simulation so tools (tracing, the transformation pass)
// can look entities up by name — the equivalent of sc_object in SystemC.
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace adriatic::kern {

class Simulation;

class Object {
 public:
  /// Root object (no parent).
  Object(Simulation& sim, std::string name);
  /// Child object; inherits the parent's simulation.
  Object(Object& parent, std::string name);
  virtual ~Object();

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  [[nodiscard]] const std::string& basename() const noexcept { return name_; }
  [[nodiscard]] const std::string& name() const noexcept { return full_name_; }
  /// sched_name_hash(name()), computed once: the id scheduler trace records
  /// and grant accounting use for this entity.
  [[nodiscard]] u64 trace_id() const noexcept { return trace_id_; }
  [[nodiscard]] Object* parent() const noexcept { return parent_; }
  [[nodiscard]] Simulation& sim() const noexcept { return *sim_; }
  [[nodiscard]] const std::vector<Object*>& children() const noexcept {
    return children_;
  }

  /// Short tag describing the object class ("module", "signal", ...), used
  /// by introspection reports.
  [[nodiscard]] virtual const char* kind() const { return "object"; }

 private:
  void register_self();

  Simulation* sim_;
  Object* parent_;
  std::string name_;
  std::string full_name_;
  u64 trace_id_;
  std::vector<Object*> children_;
};

}  // namespace adriatic::kern
