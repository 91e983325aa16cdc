// Shared scaffolding for the experiment harnesses: a minimal DRCF system
// builder and the register-poke helpers the drivers use.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/bus_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "soc/soc_lib.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace adriatic::bench {

/// A minimal bus slave with a fixed address window; reads return the offset,
/// writes are accepted. Serves as a context body when the experiment only
/// cares about switching behaviour, not kernel functionality.
class StubSlave : public kern::Module, public bus::BusSlaveIf {
 public:
  StubSlave(kern::Object& parent, std::string name, bus::addr_t low,
            bus::addr_t high)
      : Module(parent, std::move(name)), low_(low), high_(high) {}

  [[nodiscard]] bus::addr_t get_low_add() const override { return low_; }
  [[nodiscard]] bus::addr_t get_high_add() const override { return high_; }
  bool read(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    *data = static_cast<bus::word>(add - low_);
    ++accesses;
    return true;
  }
  bool write(bus::addr_t add, bus::word*) override {
    if (add < low_ || add > high_) return false;
    ++accesses;
    return true;
  }

  u64 accesses = 0;

 private:
  bus::addr_t low_;
  bus::addr_t high_;
};

/// Bus + configuration memory + N stub contexts folded into one DRCF.
struct DrcfRig {
  DrcfRig(usize n_contexts, u64 context_words, drcf::DrcfConfig drcf_cfg,
          bus::BusConfig bus_cfg = {}, bool dedicated_cfg_link = false)
      : sys_bus(top, "bus", bus_cfg),
        cfg_mem(top, "cfg_mem", 0x100000,
                std::max<usize>(1024, n_contexts * context_words + 64)),
        fabric(top, "drcf1", drcf_cfg) {
    for (usize i = 0; i < n_contexts; ++i) {
      const auto base = static_cast<bus::addr_t>(0x100 + i * 0x100);
      slaves.push_back(std::make_unique<StubSlave>(
          top, "ctx" + std::to_string(i), base, base + 0xF));
      fabric.add_context(
          *slaves.back(),
          {.config_address =
               0x100000 + static_cast<bus::addr_t>(i * context_words),
           .size_words = context_words});
    }
    sys_bus.bind_slave(fabric);
    if (dedicated_cfg_link) {
      cfg_link = std::make_unique<bus::DirectLink>(top, "cfg_link",
                                                   bus_cfg.cycle_time);
      cfg_link->bind_slave(cfg_mem);
      fabric.mst_port.bind(*cfg_link);
    } else {
      sys_bus.bind_slave(cfg_mem);
      fabric.mst_port.bind(sys_bus);
    }
  }

  [[nodiscard]] bus::addr_t ctx_addr(usize i) const {
    return static_cast<bus::addr_t>(0x100 + i * 0x100);
  }

  /// Loads a synthetic bitstream per context into cfg_mem and arms the
  /// fabric's fetch integrity check with it as the golden copy.
  void arm_golden_bitstreams() {
    for (usize i = 0; i < fabric.context_count(); ++i) {
      const auto& p = fabric.context_params(i);
      const std::vector<bus::word> bits(
          p.size_words, static_cast<bus::word>(0xC0DE0000u | i));
      cfg_mem.load(p.config_address, bits);
      fabric.set_golden_bitstream(
          i, mem::ImageRegistry::instance().intern(bits));
    }
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::Bus sys_bus;
  mem::Memory cfg_mem;
  std::unique_ptr<bus::DirectLink> cfg_link;
  std::vector<std::unique_ptr<StubSlave>> slaves;
  drcf::Drcf fabric;
};

/// Drives one accelerator run through its register window and waits for
/// completion by polling STATUS.
inline void run_accelerator(soc::Cpu& c, bus::addr_t base, bus::addr_t src,
                            bus::addr_t dst, u32 len) {
  c.write(base + soc::HwAccel::kSrc, static_cast<bus::word>(src));
  c.write(base + soc::HwAccel::kDst, static_cast<bus::word>(dst));
  c.write(base + soc::HwAccel::kLen, static_cast<bus::word>(len));
  c.write(base + soc::HwAccel::kCtrl, 1);
  c.poll_until(base + soc::HwAccel::kStatus, soc::HwAccel::kDone,
               kern::Time::ns(100));
  c.write(base + soc::HwAccel::kStatus, 0);
}

}  // namespace adriatic::bench
