#include "soc/iss.hpp"

#include <stdexcept>

#include "kernel/simulation.hpp"
#include "util/log.hpp"

namespace adriatic::soc {

using morphosys::Instruction;
using morphosys::Opcode;

std::vector<bus::word> encode_program(const morphosys::Program& program) {
  std::vector<bus::word> image;
  image.reserve(program.size() * 2);
  for (const auto& ins : program) {
    const u32 w0 = (static_cast<u32>(ins.op) & 0x3F) |
                   (static_cast<u32>(ins.rd) & 0xF) << 6 |
                   (static_cast<u32>(ins.rs) & 0xF) << 10 |
                   (static_cast<u32>(ins.rt) & 0xF) << 14;
    image.push_back(static_cast<bus::word>(w0));
    // Branches carry the target index; everything else carries imm.
    const bool is_branch = ins.op == Opcode::kBeq || ins.op == Opcode::kBne ||
                           ins.op == Opcode::kJmp;
    image.push_back(is_branch ? static_cast<bus::word>(ins.target)
                              : static_cast<bus::word>(ins.imm));
  }
  return image;
}

IssProcessor::IssProcessor(kern::Object& parent, std::string name,
                           IssConfig cfg)
    : Module(parent, std::move(name)),
      mst_port(*this, "mst_port"),
      cfg_(cfg),
      halted_event_(sim(), this->name() + ".halted") {
  if (cfg_.icache_line_words != 0 && !is_pow2(cfg_.icache_line_words))
    throw std::invalid_argument(this->name() +
                                ": icache line must be a power of two");
  spawn_thread("core", [this] { run(); });
}

bus::word IssProcessor::bus_read(bus::addr_t add) {
  bus::word v = 0;
  if (mst_port->read(add, &v, cfg_.bus_priority) != bus::BusStatus::kOk)
    throw std::runtime_error(name() + ": data read fault at " +
                             std::to_string(add));
  ++stats_.data_reads;
  return v;
}

void IssProcessor::bus_write(bus::addr_t add, bus::word value) {
  if (mst_port->write(add, &value, cfg_.bus_priority) != bus::BusStatus::kOk)
    throw std::runtime_error(name() + ": data write fault at " +
                             std::to_string(add));
  ++stats_.data_writes;
}

bool IssProcessor::fetch(u32 pc, bus::word* w0, bus::word* w1) {
  const bus::addr_t addr = cfg_.reset_pc + pc * 2;
  if (cfg_.icache_line_words >= 2) {
    auto cached = [&](bus::addr_t a, bus::word* out) {
      if (line_valid_ && a >= line_base_ &&
          a < line_base_ + cfg_.icache_line_words) {
        *out = line_[a - line_base_];
        ++stats_.icache_hits;
        return true;
      }
      return false;
    };
    for (const auto& [a, out] :
         {std::pair{addr, w0}, std::pair{addr + 1, w1}}) {
      if (cached(a, out)) continue;
      // Refill the line containing `a`.
      line_base_ = a & ~static_cast<bus::addr_t>(cfg_.icache_line_words - 1);
      line_.assign(cfg_.icache_line_words, 0);
      if (mst_port->burst_read(line_base_, line_, cfg_.bus_priority) !=
          bus::BusStatus::kOk)
        return false;
      line_valid_ = true;
      stats_.ifetch_reads += cfg_.icache_line_words;
      *out = line_[a - line_base_];
    }
    return true;
  }
  if (mst_port->read(addr, w0, cfg_.bus_priority) != bus::BusStatus::kOk)
    return false;
  if (mst_port->read(addr + 1, w1, cfg_.bus_priority) != bus::BusStatus::kOk)
    return false;
  stats_.ifetch_reads += 2;
  return true;
}

void IssProcessor::run() {
  u32 pc = 0;
  auto halt = [&](bool illegal) {
    stats_.halted = true;
    stats_.illegal_instruction = illegal;
    halted_event_.notify_delta();
  };

  for (;;) {
    bus::word w0 = 0, w1 = 0;
    if (!fetch(pc, &w0, &w1)) {
      log::error() << name() << ": instruction fetch fault at pc " << pc;
      halt(true);
      return;
    }
    const auto op = static_cast<Opcode>(static_cast<u32>(w0) & 0x3F);
    const u8 rd = static_cast<u8>((static_cast<u32>(w0) >> 6) & 0xF);
    const u8 rs = static_cast<u8>((static_cast<u32>(w0) >> 10) & 0xF);
    const u8 rt = static_cast<u8>((static_cast<u32>(w0) >> 14) & 0xF);
    const i32 imm = static_cast<i32>(w1);
    ++pc;
    ++stats_.instructions;
    kern::wait(cfg_.cycle_time);  // one cycle per instruction, plus bus time

    switch (op) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        halt(false);
        return;
      case Opcode::kAddi:
        regs_.at(rd) = regs_.at(rs) + imm;
        break;
      case Opcode::kAdd:
        regs_.at(rd) = regs_.at(rs) + regs_.at(rt);
        break;
      case Opcode::kSub:
        regs_.at(rd) = regs_.at(rs) - regs_.at(rt);
        break;
      case Opcode::kMul:
        regs_.at(rd) = regs_.at(rs) * regs_.at(rt);
        break;
      case Opcode::kLdw:
        regs_.at(rd) = bus_read(
            static_cast<bus::addr_t>(regs_.at(rs) + imm));
        break;
      case Opcode::kStw:
        bus_write(static_cast<bus::addr_t>(regs_.at(rs) + imm), regs_.at(rt));
        break;
      case Opcode::kBeq:
        if (regs_.at(rs) == regs_.at(rt)) pc = static_cast<u32>(w1);
        break;
      case Opcode::kBne:
        if (regs_.at(rs) != regs_.at(rt)) pc = static_cast<u32>(w1);
        break;
      case Opcode::kJmp:
        pc = static_cast<u32>(w1);
        break;
      default:
        // RA/DMA opcodes are MorphoSys-only; this core treats them as
        // illegal (and so would any fetch of non-code memory).
        log::error() << name() << ": illegal opcode "
                     << static_cast<int>(op) << " at pc " << pc - 1;
        halt(true);
        return;
    }
  }
}

}  // namespace adriatic::soc
