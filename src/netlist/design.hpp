// Declarative design description — the structural netlist the DRCF
// transformation (paper Fig. 4) operates on. C++ has no reflection over live
// object graphs, and the paper's own tooling transformed SystemC source; we
// transform this netlist instead and elaborate either the original or the
// transformed architecture into live modules. The four paper phases map to:
//   analyse module   -> inspect a ComponentDecl's interface/ports (typed)
//   analyse instance -> inspect its recorded bindings
//   create DRCF      -> insert a DrcfDecl wrapping the candidates
//   modify instance  -> rewrite the candidates' bus bindings
#pragma once

#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "accel/kernel_spec.hpp"
#include "bus/bus.hpp"
#include "drcf/context.hpp"
#include "drcf/drcf.hpp"
#include "kernel/time.hpp"
#include "soc/irq.hpp"
#include "soc/iss.hpp"
#include "soc/processor.hpp"
#include "soc/traffic_gen.hpp"
#include "util/types.hpp"

namespace adriatic::netlist {

struct BusDecl {
  bus::BusConfig config;
};

/// Zero-contention point-to-point link to one slave component.
struct DirectLinkDecl {
  kern::Time word_time = kern::Time::ns(10);
  std::string slave;  ///< Component name the link connects to.
};

struct MemoryDecl {
  bus::addr_t low = 0;
  usize words = 0;
  kern::Time read_latency = kern::Time::zero();
  kern::Time write_latency = kern::Time::zero();
  std::string bus;  ///< Bus this memory is a slave of ("" = unbound).
};

struct HwAccelDecl {
  bus::addr_t base = 0;
  accel::KernelSpec spec;
  kern::Time cycle_time = kern::Time::ns(10);
  std::string slave_bus;   ///< Bus exposing the register window.
  std::string master_bus;  ///< Bus the accelerator fetches data over.
};

struct DmaDecl {
  bus::addr_t base = 0;
  usize chunk_words = 16;
  std::string slave_bus;
  std::string master_bus;
};

struct ProcessorDecl {
  soc::ProcessorConfig config;
  soc::Processor::Program program;
  std::string master_bus;
};

/// Binary-software core: executes `program` (assembled TinyRISC subset)
/// from the named code memory, fetching instructions over the bus.
struct IssDecl {
  soc::IssConfig config;
  morphosys::Program program;
  std::string master_bus;
  /// Memory holding the program image; the elaborator encodes and loads
  /// `program` at config.reset_pc inside this memory.
  std::string code_memory;
};

/// Bus-to-bus bridge: a slave window on the upstream bus forwarded to the
/// downstream bus at (address + offset).
struct BridgeDecl {
  bus::addr_t low = 0;
  bus::addr_t high = 0;
  i64 offset = 0;
  std::string upstream_bus;
  std::string downstream_bus;
};

struct IrqControllerDecl {
  bus::addr_t base = 0;
  std::string bus;
  /// line index -> accelerator component whose done_event drives it.
  std::vector<std::pair<u32, std::string>> lines;
};

struct TrafficGenDecl {
  soc::TrafficGenConfig config;
  std::string master_bus;
};

/// Produced by the transformation pass (a designer can also write it by
/// hand): wraps previously declared HwAccel components as DRCF contexts.
struct DrcfDecl {
  drcf::DrcfConfig config;
  std::vector<std::string> contexts;  ///< Names of wrapped components.
  std::vector<drcf::ContextParams> context_params;  ///< One per context.
  std::string slave_bus;   ///< Bus the DRCF serves.
  std::string config_bus;  ///< Bus/link for configuration fetches.
};

using Decl =
    std::variant<BusDecl, DirectLinkDecl, MemoryDecl, HwAccelDecl, DmaDecl,
                 ProcessorDecl, TrafficGenDecl, DrcfDecl, IssDecl,
                 IrqControllerDecl, BridgeDecl>;

class Design {
 public:
  /// Adds a component; throws on duplicate names.
  void add(const std::string& name, Decl decl);

  [[nodiscard]] bool contains(const std::string& name) const {
    return decls_.count(name) != 0;
  }
  [[nodiscard]] const Decl& at(const std::string& name) const;
  [[nodiscard]] Decl& at(const std::string& name);

  template <typename T>
  [[nodiscard]] const T* get_if(const std::string& name) const {
    auto it = decls_.find(name);
    return it == decls_.end() ? nullptr : std::get_if<T>(&it->second);
  }
  template <typename T>
  [[nodiscard]] T* get_if(const std::string& name) {
    auto it = decls_.find(name);
    return it == decls_.end() ? nullptr : std::get_if<T>(&it->second);
  }

  /// Names in insertion order (elaboration is deterministic).
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }

  /// Structural checks: dangling bus references, type mismatches.
  /// Returns human-readable problems (empty = valid).
  [[nodiscard]] std::vector<std::string> validate() const;

 private:
  std::map<std::string, Decl> decls_;
  std::vector<std::string> order_;
};

/// Short type tag for reports ("bus", "hwacc", ...).
[[nodiscard]] const char* decl_kind(const Decl& d);

}  // namespace adriatic::netlist
