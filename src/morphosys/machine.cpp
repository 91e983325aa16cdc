#include "morphosys/machine.hpp"

#include <stdexcept>

namespace adriatic::morphosys {

namespace {

// One packed main-memory word per context row:
//   [15:0] imm, [20:16] op, [24:21] src_a, [28:25] src_b, [30:29] dst,
//   [31] write_fb.
u32 pack_word(const ContextWord& w) {
  return (static_cast<u32>(static_cast<u16>(w.imm))) |
         (static_cast<u32>(w.op) & 0x1F) << 16 |
         (static_cast<u32>(w.src_a) & 0xF) << 21 |
         (static_cast<u32>(w.src_b) & 0xF) << 25 |
         (static_cast<u32>(w.dst_reg) & 0x3) << 29 |
         (w.write_fb ? 1u : 0u) << 31;
}

ContextWord unpack_word(u32 v) {
  ContextWord w;
  w.imm = static_cast<i16>(v & 0xFFFF);
  w.op = static_cast<RcOp>((v >> 16) & 0x1F);
  w.src_a = static_cast<MuxSel>((v >> 21) & 0xF);
  w.src_b = static_cast<MuxSel>((v >> 25) & 0xF);
  w.dst_reg = static_cast<u8>((v >> 29) & 0x3);
  w.write_fb = ((v >> 31) & 1) != 0;
  return w;
}

}  // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg),
      mem_(cfg.main_memory_words, 0),
      fb_(cfg.frame_buffer_words) {}

i32 Machine::mem_read(usize addr) const { return mem_.at(addr); }

void Machine::mem_load(usize addr, std::span<const i32> data) {
  if (addr + data.size() > mem_.size())
    throw std::out_of_range("Machine: mem_load outside memory");
  for (usize i = 0; i < data.size(); ++i) mem_[addr + i] = data[i];
}

void Machine::store_context_image(usize addr, const Context& c) {
  if (addr + 8 > mem_.size())
    throw std::out_of_range("Machine: context image outside memory");
  for (usize r = 0; r < 8; ++r)
    mem_[addr + r] = static_cast<i32>(pack_word(c.rows[r]));
}

Context Machine::decode_context_image(usize addr) const {
  Context c;
  for (usize r = 0; r < 8; ++r)
    c.rows[r] = unpack_word(static_cast<u32>(mem_.at(addr + r)));
  return c;
}

void Machine::start_dma(DmaJob job) {
  const usize payload_words = job.kind == DmaJob::Kind::kContexts
                                  ? job.words * cfg_.context_image_words
                                  : job.words;
  const u64 duration =
      cfg_.mem_latency_cycles +
      ceil_div<u64>(payload_words, std::max<u32>(1, cfg_.dma_words_per_cycle));
  job.finish_cycle = stats_.cycles + duration;
  dma_ = job;
}

void Machine::tick_dma() {
  if (!dma_busy()) return;
  ++stats_.dma_busy_cycles;
  if (stats_.cycles < dma_.finish_cycle) return;
  // Complete the job: perform the functional data movement.
  switch (dma_.kind) {
    case DmaJob::Kind::kLoad:
      for (usize i = 0; i < dma_.words; ++i)
        fb_.write(dma_.fb_addr + i,
                  static_cast<i16>(mem_.at(dma_.mem_addr + i)));
      break;
    case DmaJob::Kind::kStore:
      for (usize i = 0; i < dma_.words; ++i)
        mem_.at(dma_.mem_addr + i) = fb_.read(dma_.fb_addr + i);
      break;
    case DmaJob::Kind::kContexts:
      for (usize i = 0; i < dma_.words; ++i) {
        ctx_mem_.set(dma_.plane, dma_.fb_addr + i,
                     decode_context_image(dma_.mem_addr +
                                          i * cfg_.context_image_words));
        ++stats_.contexts_loaded;
      }
      break;
    case DmaJob::Kind::kNone:
      break;
  }
  dma_.kind = DmaJob::Kind::kNone;
}

bool Machine::run(const Program& program, u64 max_cycles) {
  regs_.fill(0);
  u32 pc = 0;
  const u64 limit = stats_.cycles + max_cycles;

  while (stats_.cycles < limit) {
    if (pc >= program.size()) return false;
    const Instruction& ins = program[pc];
    ++pc;
    ++stats_.cycles;
    ++stats_.risc_instructions;
    tick_dma();

    auto reg_u = [&](u8 r) { return static_cast<usize>(regs_.at(r)); };

    switch (ins.op) {
      case Opcode::kNop:
        break;
      case Opcode::kHalt:
        return true;
      case Opcode::kAddi:
        regs_.at(ins.rd) = regs_.at(ins.rs) + ins.imm;
        break;
      case Opcode::kAdd:
        regs_.at(ins.rd) = regs_.at(ins.rs) + regs_.at(ins.rt);
        break;
      case Opcode::kSub:
        regs_.at(ins.rd) = regs_.at(ins.rs) - regs_.at(ins.rt);
        break;
      case Opcode::kMul:
        regs_.at(ins.rd) = regs_.at(ins.rs) * regs_.at(ins.rt);
        break;
      case Opcode::kLdw:
        stats_.cycles += cfg_.mem_latency_cycles;
        regs_.at(ins.rd) =
            mem_.at(reg_u(ins.rs) + static_cast<usize>(ins.imm));
        break;
      case Opcode::kStw:
        stats_.cycles += cfg_.mem_latency_cycles;
        mem_.at(reg_u(ins.rs) + static_cast<usize>(ins.imm)) =
            regs_.at(ins.rt);
        break;
      case Opcode::kBeq:
        if (regs_.at(ins.rs) == regs_.at(ins.rt)) pc = ins.target;
        break;
      case Opcode::kBne:
        if (regs_.at(ins.rs) != regs_.at(ins.rt)) pc = ins.target;
        break;
      case Opcode::kJmp:
        pc = ins.target;
        break;

      case Opcode::kDmaLd:
      case Opcode::kDmaSt:
      case Opcode::kDmaCl: {
        while (dma_busy()) {
          ++stats_.cycles;
          ++stats_.dma_wait_cycles;
          tick_dma();
        }
        DmaJob job;
        if (ins.op == Opcode::kDmaLd) {
          job.kind = DmaJob::Kind::kLoad;
          job.mem_addr = reg_u(ins.rs);
          job.fb_addr = reg_u(ins.rt);
          job.words = static_cast<usize>(ins.imm);
        } else if (ins.op == Opcode::kDmaSt) {
          job.kind = DmaJob::Kind::kStore;
          job.fb_addr = reg_u(ins.rs);
          job.mem_addr = reg_u(ins.rt);
          job.words = static_cast<usize>(ins.imm);
        } else {
          job.kind = DmaJob::Kind::kContexts;
          job.plane = ins.rd & 1;
          job.fb_addr = 0;  // contexts land at indices [0, count)
          job.mem_addr = reg_u(ins.rt);
          job.words = static_cast<usize>(ins.imm);
          if (job.words > kContextsPerPlane)
            throw std::invalid_argument("DMACL: more than 16 contexts");
        }
        start_dma(job);
        break;
      }

      case Opcode::kRaMode:
        mode_ = ins.imm == 0 ? BroadcastMode::kRow : BroadcastMode::kColumn;
        break;

      case Opcode::kRaExec: {
        const usize plane = ins.rs & 1;
        const usize ctx_index = ins.rt & (kContextsPerPlane - 1);
        // Paper property: executing from one plane overlaps reloading the
        // other; executing from the plane under reload must stall.
        while (dma_busy() && dma_.kind == DmaJob::Kind::kContexts &&
               dma_.plane == plane) {
          ++stats_.cycles;
          ++stats_.ra_stall_cycles;
          tick_dma();
        }
        const Context& ctx = ctx_mem_.at(plane, ctx_index);
        const usize fb_base = reg_u(ins.rd);
        for (i32 i = 0; i < ins.imm; ++i) {
          ++stats_.cycles;
          ++stats_.ra_cycles;
          tick_dma();
          if (dma_busy()) ++stats_.overlapped_cycles;
          array_.step(ctx, mode_, fb_, fb_base, static_cast<usize>(i));
        }
        break;
      }

      case Opcode::kWaitDma:
        while (dma_busy()) {
          ++stats_.cycles;
          ++stats_.dma_wait_cycles;
          tick_dma();
        }
        break;
    }
  }
  return false;  // cycle budget exhausted
}

double Machine::array_utilization() const {
  const u64 denom = array_.cycles_executed() * kArrayCells;
  return denom == 0 ? 0.0
                    : static_cast<double>(array_.active_cell_ops()) /
                          static_cast<double>(denom);
}

}  // namespace adriatic::morphosys
