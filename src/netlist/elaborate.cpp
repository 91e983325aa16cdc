#include "netlist/elaborate.hpp"

#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace adriatic::netlist {

namespace {

/// The interned synthetic bitstream of `size` words, each `word`. Memoised
/// process-wide, so a job elaborating a design that an earlier job already
/// elaborated neither fills nor hashes its bitstreams again. Like the
/// ImageRegistry's mutex, the memo's mutex is only held inside elaboration
/// and never across a fork.
mem::SharedImageRef synthetic_bitstream(bus::word word, u64 size) {
  static std::mutex mu;
  static std::map<std::pair<bus::word, u64>, mem::SharedImageRef> memo;
  std::lock_guard<std::mutex> lock(mu);
  mem::SharedImageRef& image = memo[{word, size}];
  if (image == nullptr)
    image = mem::ImageRegistry::instance().intern(
        std::vector<bus::word>(size, word));
  return image;
}

[[noreturn]] void fail_validation(const std::vector<std::string>& problems) {
  std::string msg = "Design validation failed:";
  for (const auto& p : problems) msg += "\n  - " + p;
  throw std::invalid_argument(msg);
}
}  // namespace

Elaborated::Elaborated(kern::Simulation& sim, const Design& design,
                       const std::string& top_name) {
  const auto problems = design.validate();
  if (!problems.empty()) fail_validation(problems);

  top_ = std::make_unique<kern::Module>(sim, top_name);

  // Pass 1: construct buses and memories (binding targets).
  for (const auto& name : design.names()) {
    const Decl& d = design.at(name);
    if (const auto* b = std::get_if<BusDecl>(&d)) {
      auto obj = std::make_unique<bus::Bus>(*top_, name, b->config);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* m = std::get_if<MemoryDecl>(&d)) {
      auto obj = std::make_unique<mem::Memory>(
          *top_, name, m->low, m->words, m->read_latency, m->write_latency);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    }
  }

  // Pass 2: construct everything else.
  for (const auto& name : design.names()) {
    const Decl& d = design.at(name);
    if (const auto* h = std::get_if<HwAccelDecl>(&d)) {
      auto obj = std::make_unique<soc::HwAccel>(*top_, name, h->base, h->spec,
                                                h->cycle_time);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* dm = std::get_if<DmaDecl>(&d)) {
      auto obj =
          std::make_unique<soc::Dma>(*top_, name, dm->base, dm->chunk_words);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* p = std::get_if<ProcessorDecl>(&d)) {
      auto obj =
          std::make_unique<soc::Processor>(*top_, name, p->config, p->program);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* t = std::get_if<TrafficGenDecl>(&d)) {
      auto obj = std::make_unique<soc::TrafficGen>(*top_, name, t->config);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* l = std::get_if<DirectLinkDecl>(&d)) {
      auto obj = std::make_unique<bus::DirectLink>(*top_, name, l->word_time);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* dr = std::get_if<DrcfDecl>(&d)) {
      auto obj = std::make_unique<drcf::Drcf>(*top_, name, dr->config);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* is = std::get_if<IssDecl>(&d)) {
      auto obj = std::make_unique<soc::IssProcessor>(*top_, name, is->config);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* ic = std::get_if<IrqControllerDecl>(&d)) {
      auto obj =
          std::make_unique<soc::InterruptController>(*top_, name, ic->base);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    } else if (const auto* br = std::get_if<BridgeDecl>(&d)) {
      auto obj = std::make_unique<bus::Bridge>(*top_, name, br->low, br->high,
                                               br->offset);
      objects_[name] = obj.get();
      owned_.push_back(std::move(obj));
    }
  }

  // Pass 3: bindings.
  for (const auto& name : design.names()) {
    const Decl& d = design.at(name);
    if (const auto* m = std::get_if<MemoryDecl>(&d)) {
      if (!m->bus.empty()) get_bus(m->bus).bind_slave(get_memory(name));
    } else if (const auto* l = std::get_if<DirectLinkDecl>(&d)) {
      auto* slave = dynamic_cast<bus::BusSlaveIf*>(objects_.at(l->slave));
      if (slave == nullptr)
        throw std::invalid_argument(name + ": link target '" + l->slave +
                                    "' is not a bus slave");
      get_link(name).bind_slave(*slave);
    }
  }
  for (const auto& name : design.names()) {
    const Decl& d = design.at(name);
    if (const auto* h = std::get_if<HwAccelDecl>(&d)) {
      auto& acc = get_hwacc(name);
      if (!h->slave_bus.empty()) get_bus(h->slave_bus).bind_slave(acc);
      acc.mst_port.bind(master_if(h->master_bus));
    } else if (const auto* dm = std::get_if<DmaDecl>(&d)) {
      auto& dma = get_dma(name);
      get_bus(dm->slave_bus).bind_slave(dma);
      dma.mst_port.bind(master_if(dm->master_bus));
    } else if (const auto* p = std::get_if<ProcessorDecl>(&d)) {
      get_processor(name).mst_port.bind(master_if(p->master_bus));
    } else if (const auto* is = std::get_if<IssDecl>(&d)) {
      auto& core = get_iss(name);
      core.mst_port.bind(master_if(is->master_bus));
      // Encode and load the program image into the code memory.
      const auto image = soc::encode_program(is->program);
      get_memory(is->code_memory).load(is->config.reset_pc, image);
    } else if (const auto* ic = std::get_if<IrqControllerDecl>(&d)) {
      auto& ctrl = get_irq(name);
      get_bus(ic->bus).bind_slave(ctrl);
      for (const auto& [line, src] : ic->lines)
        ctrl.connect(line, get_hwacc(src).done_event());
    } else if (const auto* br = std::get_if<BridgeDecl>(&d)) {
      auto& bridge = get_as<bus::Bridge>(name);
      get_bus(br->upstream_bus).bind_slave(bridge);
      bridge.mst_port.bind(get_bus(br->downstream_bus));
    } else if (const auto* t = std::get_if<TrafficGenDecl>(&d)) {
      get_traffic(name).mst_port.bind(master_if(t->master_bus));
    } else if (const auto* dr = std::get_if<DrcfDecl>(&d)) {
      auto& fabric = get_drcf(name);
      for (usize i = 0; i < dr->contexts.size(); ++i) {
        auto& inner = get_hwacc(dr->contexts[i]);
        const usize ctx = fabric.add_context(inner, dr->context_params[i]);
        // Write a synthetic bitstream so configuration fetches return
        // recognisable words, and arm the fabric's fetch integrity check
        // with it as the golden copy.
        const auto& params = fabric.context_params(ctx);
        for (const auto& mem_name : design.names()) {
          if (design.get_if<MemoryDecl>(mem_name) == nullptr) continue;
          auto& mem = get_memory(mem_name);
          if (params.config_address < mem.get_low_add() ||
              params.config_address + params.size_words - 1 >
                  mem.get_high_add())
            continue;
          const auto word = static_cast<bus::word>(kBitstreamPattern |
                                                   static_cast<u32>(ctx));
          auto image = synthetic_bitstream(word, params.size_words);
          // Bitstreams are shared read-mostly data: attach the interned image
          // page-for-page when the placement allows, so identical contexts
          // across campaign jobs alias one golden copy instead of
          // materialising private pages.
          const usize off = params.config_address - mem.get_low_add();
          if (off % mem::kPageWords == 0 &&
              mem.backing().pages_untouched(off, params.size_words)) {
            mem.attach_image(image, params.config_address);
          } else {
            mem.load(params.config_address,
                     std::vector<bus::word>(params.size_words, word));
          }
          fabric.set_golden_bitstream(ctx, std::move(image));
          break;
        }
      }
      get_bus(dr->slave_bus).bind_slave(fabric);
      fabric.mst_port.bind(master_if(dr->config_bus));
    }
  }
}

bus::BusMasterIf& Elaborated::master_if(const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end())
    throw std::out_of_range("Elaborated: no component " + name);
  if (auto* b = dynamic_cast<bus::Bus*>(it->second)) return *b;
  if (auto* l = dynamic_cast<bus::DirectLink*>(it->second)) return *l;
  throw std::out_of_range("Elaborated: '" + name + "' is not a bus or link");
}

template <typename T>
T& Elaborated::get_as(const std::string& name) const {
  auto it = objects_.find(name);
  if (it == objects_.end())
    throw std::out_of_range("Elaborated: no component " + name);
  auto* p = dynamic_cast<T*>(it->second);
  if (p == nullptr)
    throw std::out_of_range("Elaborated: '" + name + "' has kind " +
                            it->second->kind());
  return *p;
}

bus::Bus& Elaborated::get_bus(const std::string& n) const {
  return get_as<bus::Bus>(n);
}
bus::DirectLink& Elaborated::get_link(const std::string& n) const {
  return get_as<bus::DirectLink>(n);
}
mem::Memory& Elaborated::get_memory(const std::string& n) const {
  return get_as<mem::Memory>(n);
}
soc::HwAccel& Elaborated::get_hwacc(const std::string& n) const {
  return get_as<soc::HwAccel>(n);
}
soc::Dma& Elaborated::get_dma(const std::string& n) const {
  return get_as<soc::Dma>(n);
}
soc::Processor& Elaborated::get_processor(const std::string& n) const {
  return get_as<soc::Processor>(n);
}
soc::TrafficGen& Elaborated::get_traffic(const std::string& n) const {
  return get_as<soc::TrafficGen>(n);
}
drcf::Drcf& Elaborated::get_drcf(const std::string& n) const {
  return get_as<drcf::Drcf>(n);
}
soc::IssProcessor& Elaborated::get_iss(const std::string& n) const {
  return get_as<soc::IssProcessor>(n);
}
soc::InterruptController& Elaborated::get_irq(const std::string& n) const {
  return get_as<soc::InterruptController>(n);
}

}  // namespace adriatic::netlist
