#include "morphosys/rc_array.hpp"

#include <algorithm>
#include <cstdlib>

namespace adriatic::morphosys {

namespace {
[[nodiscard]] i16 sat16(i32 v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<i16>(v);
}
}  // namespace

i16 RcArray::operand(const Cell& c, MuxSel sel, i16 imm, usize row, usize col,
                     const FrameBuffer& fb, usize fb_base, usize step_index,
                     const std::array<i16, kArrayCells>& prev) const {
  auto prev_of = [&](usize r, usize cc) { return prev[r * kArrayDim + cc]; };
  switch (sel) {
    case MuxSel::kReg0:
      return c.regs[0];
    case MuxSel::kReg1:
      return c.regs[1];
    case MuxSel::kReg2:
      return c.regs[2];
    case MuxSel::kReg3:
      return c.regs[3];
    case MuxSel::kImm:
      return imm;
    // Layer 1: 2D mesh, nearest-neighbour, torus wrap at the edges.
    case MuxSel::kNorth:
      return prev_of((row + kArrayDim - 1) % kArrayDim, col);
    case MuxSel::kSouth:
      return prev_of((row + 1) % kArrayDim, col);
    case MuxSel::kEast:
      return prev_of(row, (col + 1) % kArrayDim);
    case MuxSel::kWest:
      return prev_of(row, (col + kArrayDim - 1) % kArrayDim);
    // Layer 2: complete row/column connectivity within the 4x4 quadrant.
    case MuxSel::kRowQuad: {
      const usize quad_base = (col / kQuadDim) * kQuadDim;
      const usize lane = quad_base + (static_cast<usize>(imm) & (kQuadDim - 1));
      return prev_of(row, lane);
    }
    case MuxSel::kColQuad: {
      const usize quad_base = (row / kQuadDim) * kQuadDim;
      const usize lane = quad_base + (static_cast<usize>(imm) & (kQuadDim - 1));
      return prev_of(lane, col);
    }
    // Layer 3: same-position cell in the horizontally adjacent quadrant.
    case MuxSel::kXQuad: {
      const usize other_col = (col + kQuadDim) % kArrayDim;
      return prev_of(row, other_col);
    }
    case MuxSel::kFrameBuf:
      return fb.read(fb_base + step_index * kArrayCells +
                     row * kArrayDim + col);
  }
  return 0;
}

void RcArray::step(const Context& ctx, BroadcastMode mode, FrameBuffer& fb,
                   usize fb_base, usize step_index) {
  // Interconnect reads see the previous cycle's outputs (registered).
  std::array<i16, kArrayCells> prev{};
  for (usize i = 0; i < kArrayCells; ++i) prev[i] = cells_[i].output;

  for (usize row = 0; row < kArrayDim; ++row) {
    for (usize col = 0; col < kArrayDim; ++col) {
      const ContextWord& w =
          mode == BroadcastMode::kRow ? ctx.rows[row] : ctx.rows[col];
      Cell& c = cells_[row * kArrayDim + col];
      if (w.op == RcOp::kNop) continue;
      const i16 a = operand(c, w.src_a, w.imm, row, col, fb, fb_base,
                            step_index, prev);
      const i16 b = operand(c, w.src_b, w.imm, row, col, fb, fb_base,
                            step_index, prev);
      i16 result = 0;
      switch (w.op) {
        case RcOp::kNop:
          break;
        case RcOp::kAdd:
          result = sat16(static_cast<i32>(a) + b);
          break;
        case RcOp::kSub:
          result = sat16(static_cast<i32>(a) - b);
          break;
        case RcOp::kMul:
          result = sat16(static_cast<i32>(a) * b);
          break;
        case RcOp::kMac:
          result = sat16(static_cast<i32>(c.regs[3]) +
                         static_cast<i32>(a) * b);
          break;
        case RcOp::kAnd:
          result = static_cast<i16>(a & b);
          break;
        case RcOp::kOr:
          result = static_cast<i16>(a | b);
          break;
        case RcOp::kXor:
          result = static_cast<i16>(a ^ b);
          break;
        case RcOp::kShl:
          result = static_cast<i16>(
              static_cast<u16>(a) << (static_cast<u16>(b) & 15));
          break;
        case RcOp::kShr:
          result = static_cast<i16>(a >> (static_cast<u16>(b) & 15));
          break;
        case RcOp::kMin:
          result = std::min(a, b);
          break;
        case RcOp::kMax:
          result = std::max(a, b);
          break;
        case RcOp::kAbsDiff:
          result = sat16(std::abs(static_cast<i32>(a) - b));
          break;
        case RcOp::kMov:
          result = a;
          break;
      }
      c.regs[w.dst_reg & 3] = result;
      c.output = result;
      if (w.write_fb)
        fb.write(fb_base + step_index * kArrayCells + row * kArrayDim + col,
                 result);
      ++active_ops_;
    }
  }
  ++cycles_;
}

}  // namespace adriatic::morphosys
