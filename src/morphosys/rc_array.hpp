// The 8x8 reconfigurable-cell array with its three-layer interconnect
// (paper Sec. 3c): mesh neighbours, intra-quadrant row/column lines, and
// inter-quadrant lanes. Each RC has an ALU/multiplier, shifter, input muxes
// and a four-entry 16-bit register file; execution is SIMD from a broadcast
// context word.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "morphosys/isa.hpp"
#include "util/types.hpp"

namespace adriatic::morphosys {

constexpr usize kArrayDim = 8;
constexpr usize kArrayCells = kArrayDim * kArrayDim;
constexpr usize kQuadDim = 4;

class FrameBuffer {
 public:
  explicit FrameBuffer(usize words = 2048) : data_(words, 0) {}

  [[nodiscard]] i16 read(usize addr) const {
    return addr < data_.size() ? data_[addr] : 0;
  }
  void write(usize addr, i16 v) {
    if (addr < data_.size()) data_[addr] = v;
  }
  [[nodiscard]] usize size() const noexcept { return data_.size(); }

 private:
  std::vector<i16> data_;
};

class RcArray {
 public:
  struct Cell {
    std::array<i16, 4> regs{};
    i16 output = 0;
  };

  /// Executes one SIMD array cycle under `ctx`. Frame-buffer operands are
  /// streamed from `fb_base + cell linear index`; results with write_fb set
  /// are stored to the same layout. `step_index` is added to the streaming
  /// base so consecutive cycles walk the buffer.
  void step(const Context& ctx, BroadcastMode mode, FrameBuffer& fb,
            usize fb_base, usize step_index);

  [[nodiscard]] const Cell& cell(usize row, usize col) const {
    return cells_[row * kArrayDim + col];
  }
  [[nodiscard]] Cell& cell(usize row, usize col) {
    return cells_[row * kArrayDim + col];
  }

  [[nodiscard]] u64 cycles_executed() const noexcept { return cycles_; }
  /// Non-NOP cell-operations executed (utilization numerator).
  [[nodiscard]] u64 active_cell_ops() const noexcept { return active_ops_; }

 private:
  [[nodiscard]] i16 operand(const Cell& c, MuxSel sel, i16 imm, usize row,
                            usize col, const FrameBuffer& fb, usize fb_base,
                            usize step_index,
                            const std::array<i16, kArrayCells>& prev) const;

  std::array<Cell, kArrayCells> cells_{};
  u64 cycles_ = 0;
  u64 active_ops_ = 0;
};

}  // namespace adriatic::morphosys
