// The MorphoSys-class machine: TinyRISC control processor, 8x8 RC array,
// double-plane context memory, frame buffer, DMA controller and main memory,
// with cycle accounting that exposes the architecture's headline property —
// context reload into one plane overlaps execution from the other.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "morphosys/isa.hpp"
#include "morphosys/rc_array.hpp"
#include "util/types.hpp"

namespace adriatic::morphosys {

constexpr usize kContextPlanes = 2;
constexpr usize kContextsPerPlane = 16;

/// Context memory: two planes of 16 contexts; the array executes from one
/// plane while the DMA reloads the other (paper: "While the RC array is
/// executing one of the 16 contexts, the other 16 contexts can be reloaded").
class ContextMemory {
 public:
  [[nodiscard]] const Context& at(usize plane, usize index) const {
    return planes_.at(plane).at(index);
  }
  void set(usize plane, usize index, const Context& c) {
    planes_.at(plane).at(index) = c;
  }

 private:
  std::array<std::array<Context, kContextsPerPlane>, kContextPlanes> planes_{};
};

struct MachineConfig {
  usize main_memory_words = 1u << 16;
  usize frame_buffer_words = 4096;
  u32 mem_latency_cycles = 4;    ///< Main-memory word access.
  u32 dma_words_per_cycle = 1;   ///< DMA streaming throughput.
  /// Words of main memory encoding one context (8 context words, packed).
  u32 context_image_words = 8;
};

struct MachineStats {
  u64 cycles = 0;             ///< Total machine cycles.
  u64 risc_instructions = 0;
  u64 ra_cycles = 0;          ///< Cycles with the array executing.
  u64 ra_stall_cycles = 0;    ///< RAEXEC blocked on a same-plane DMA load.
  u64 dma_busy_cycles = 0;
  u64 dma_wait_cycles = 0;    ///< WAITDMA stalls.
  u64 overlapped_cycles = 0;  ///< Array executing while DMA busy.
  u64 contexts_loaded = 0;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg = {});

  // Main-memory backdoor (program/data loading and result checks).
  [[nodiscard]] i32 mem_read(usize addr) const;
  void mem_load(usize addr, std::span<const i32> data);

  /// Encodes a context into its main-memory image at `addr` (what DMACL
  /// fetches). Layout: one packed word per context row.
  void store_context_image(usize addr, const Context& c);

  /// Runs `program` until HALT or `max_cycles`. Returns true on clean halt.
  bool run(const Program& program, u64 max_cycles = 1'000'000);

  [[nodiscard]] const MachineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const RcArray& array() const noexcept { return array_; }
  [[nodiscard]] FrameBuffer& frame_buffer() noexcept { return fb_; }
  [[nodiscard]] i32 reg(usize i) const { return regs_.at(i); }
  [[nodiscard]] const ContextMemory& context_memory() const noexcept {
    return ctx_mem_;
  }
  /// Array utilization: non-NOP cell-ops / (array cycles * 64 cells).
  [[nodiscard]] double array_utilization() const;

 private:
  struct DmaJob {
    enum class Kind : u8 { kNone, kLoad, kStore, kContexts } kind = Kind::kNone;
    usize mem_addr = 0;
    usize fb_addr = 0;      ///< Or context index base for kContexts.
    usize plane = 0;
    usize words = 0;        ///< Remaining words (or contexts for kContexts).
    u64 finish_cycle = 0;
  };

  void start_dma(DmaJob job);
  void tick_dma();
  [[nodiscard]] bool dma_busy() const {
    return dma_.kind != DmaJob::Kind::kNone;
  }
  [[nodiscard]] Context decode_context_image(usize addr) const;

  MachineConfig cfg_;
  std::vector<i32> mem_;
  FrameBuffer fb_;
  RcArray array_;
  ContextMemory ctx_mem_;
  std::array<i32, 16> regs_{};
  BroadcastMode mode_ = BroadcastMode::kRow;
  DmaJob dma_;
  MachineStats stats_;
};

}  // namespace adriatic::morphosys
