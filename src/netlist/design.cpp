#include "netlist/design.hpp"

#include <algorithm>
#include <stdexcept>

namespace adriatic::netlist {

void Design::add(const std::string& name, Decl decl) {
  if (name.empty()) throw std::invalid_argument("Design: empty name");
  auto [it, inserted] = decls_.emplace(name, std::move(decl));
  if (!inserted)
    throw std::invalid_argument("Design: duplicate component " + name);
  order_.push_back(name);
}

const Decl& Design::at(const std::string& name) const {
  auto it = decls_.find(name);
  if (it == decls_.end())
    throw std::out_of_range("Design: no component " + name);
  return it->second;
}

Decl& Design::at(const std::string& name) {
  auto it = decls_.find(name);
  if (it == decls_.end())
    throw std::out_of_range("Design: no component " + name);
  return it->second;
}

const char* decl_kind(const Decl& d) {
  struct Visitor {
    const char* operator()(const BusDecl&) const { return "bus"; }
    const char* operator()(const DirectLinkDecl&) const { return "link"; }
    const char* operator()(const MemoryDecl&) const { return "memory"; }
    const char* operator()(const HwAccelDecl&) const { return "hwacc"; }
    const char* operator()(const DmaDecl&) const { return "dma"; }
    const char* operator()(const ProcessorDecl&) const { return "processor"; }
    const char* operator()(const TrafficGenDecl&) const { return "traffic"; }
    const char* operator()(const DrcfDecl&) const { return "drcf"; }
    const char* operator()(const IssDecl&) const { return "iss"; }
    const char* operator()(const IrqControllerDecl&) const { return "irq"; }
    const char* operator()(const BridgeDecl&) const { return "bridge"; }
  };
  return std::visit(Visitor{}, d);
}

std::vector<std::string> Design::validate() const {
  std::vector<std::string> problems;
  auto check_bus = [&](const std::string& owner, const std::string& ref,
                       bool allow_link, bool allow_empty) {
    if (ref.empty()) {
      if (!allow_empty) problems.push_back(owner + ": missing bus binding");
      return;
    }
    auto it = decls_.find(ref);
    if (it == decls_.end()) {
      problems.push_back(owner + ": binding to unknown component '" + ref +
                         "'");
      return;
    }
    const bool is_bus = std::holds_alternative<BusDecl>(it->second);
    const bool is_link = std::holds_alternative<DirectLinkDecl>(it->second);
    if (!is_bus && !(allow_link && is_link))
      problems.push_back(owner + ": '" + ref + "' is a " +
                         decl_kind(it->second) + ", expected a bus" +
                         (allow_link ? " or link" : ""));
  };

  for (const auto& name : order_) {
    const Decl& d = decls_.at(name);
    if (const auto* m = std::get_if<MemoryDecl>(&d)) {
      if (m->words == 0) problems.push_back(name + ": zero-size memory");
      check_bus(name, m->bus, false, true);
    } else if (const auto* h = std::get_if<HwAccelDecl>(&d)) {
      if (!h->spec.valid()) problems.push_back(name + ": invalid kernel spec");
      check_bus(name, h->slave_bus, false, true);
      check_bus(name, h->master_bus, true, false);
    } else if (const auto* dm = std::get_if<DmaDecl>(&d)) {
      check_bus(name, dm->slave_bus, false, false);
      check_bus(name, dm->master_bus, true, false);
    } else if (const auto* p = std::get_if<ProcessorDecl>(&d)) {
      if (!p->program) problems.push_back(name + ": null program");
      check_bus(name, p->master_bus, true, false);
    } else if (const auto* t = std::get_if<TrafficGenDecl>(&d)) {
      check_bus(name, t->master_bus, true, false);
    } else if (const auto* l = std::get_if<DirectLinkDecl>(&d)) {
      if (!contains(l->slave))
        problems.push_back(name + ": link to unknown component '" + l->slave +
                           "'");
    } else if (const auto* is = std::get_if<IssDecl>(&d)) {
      check_bus(name, is->master_bus, true, false);
      if (is->program.empty()) problems.push_back(name + ": empty program");
      if (!contains(is->code_memory)) {
        problems.push_back(name + ": unknown code memory '" +
                           is->code_memory + "'");
      } else if (!std::holds_alternative<MemoryDecl>(
                     decls_.at(is->code_memory))) {
        problems.push_back(name + ": code memory '" + is->code_memory +
                           "' is not a memory");
      }
    } else if (const auto* br = std::get_if<BridgeDecl>(&d)) {
      check_bus(name, br->upstream_bus, false, false);
      check_bus(name, br->downstream_bus, false, false);
      if (br->low > br->high)
        problems.push_back(name + ": inverted bridge window");
      if (br->upstream_bus == br->downstream_bus &&
          !br->upstream_bus.empty())
        problems.push_back(name + ": bridge loops back onto its own bus");
    } else if (const auto* ic = std::get_if<IrqControllerDecl>(&d)) {
      check_bus(name, ic->bus, false, false);
      for (const auto& [line, src] : ic->lines) {
        if (line >= 32)
          problems.push_back(name + ": IRQ line out of range");
        if (!contains(src) ||
            !std::holds_alternative<HwAccelDecl>(decls_.at(src)))
          problems.push_back(name + ": IRQ source '" + src +
                             "' is not a hwacc component");
      }
    } else if (const auto* dr = std::get_if<DrcfDecl>(&d)) {
      check_bus(name, dr->slave_bus, false, false);
      check_bus(name, dr->config_bus, true, false);
      if (dr->contexts.size() != dr->context_params.size())
        problems.push_back(name + ": context/params size mismatch");
      for (const auto& c : dr->contexts) {
        if (!contains(c)) {
          problems.push_back(name + ": wraps unknown component '" + c + "'");
        } else if (!std::holds_alternative<HwAccelDecl>(decls_.at(c))) {
          problems.push_back(name + ": wrapped component '" + c +
                             "' has no bus-slave address interface");
        }
      }
    }
  }
  return problems;
}

}  // namespace adriatic::netlist
