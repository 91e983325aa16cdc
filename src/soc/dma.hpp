// DMA controller: a bus slave programmed with (src, dst, len) that moves
// data as a bus master — Fig. 1's DMA block, and the agent that loads DRCF
// contexts in architectures with a hardware configuration loader.
//
// Register map (word offsets from base):
//   +0 CTRL    write 1 = start
//   +1 STATUS  0 idle / 1 busy / 2 done (write 0 clears)
//   +2 SRC     +3 DST    +4 LEN
#pragma once

#include <string>
#include <vector>

#include "bus/interfaces.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/port.hpp"
#include "util/stats.hpp"

namespace adriatic::soc {

struct DmaStats {
  u64 transfers = 0;     ///< Completed descriptor runs.
  u64 words_moved = 0;
};

class Dma : public kern::Module, public bus::BusSlaveIf {
 public:
  static constexpr u32 kRegWindow = 8;
  enum Reg : u32 { kCtrl = 0, kStatus = 1, kSrc = 2, kDst = 3, kLen = 4 };
  enum Status : bus::word { kIdle = 0, kBusy = 1, kDone = 2 };

  Dma(kern::Object& parent, std::string name, bus::addr_t base,
      usize chunk_words = 16);

  kern::Port<bus::BusMasterIf> mst_port;

  [[nodiscard]] bus::addr_t get_low_add() const override { return base_; }
  [[nodiscard]] bus::addr_t get_high_add() const override {
    return base_ + kRegWindow - 1;
  }
  bool read(bus::addr_t add, bus::word* data) override;
  bool write(bus::addr_t add, bus::word* data) override;

  [[nodiscard]] kern::Event& done_event() noexcept { return done_event_; }
  [[nodiscard]] const DmaStats& stats() const noexcept { return stats_; }

 private:
  void worker();

  bus::addr_t base_;
  usize chunk_words_;
  bus::word status_ = kIdle;
  bus::word src_ = 0;
  bus::word dst_ = 0;
  bus::word len_ = 0;
  kern::Event start_event_;
  kern::Event done_event_;
  DmaStats stats_;
  /// worker()'s transfer buffer; a member so it is freed with the Dma even
  /// though the endless worker process never returns.
  std::vector<bus::word> buffer_;
};

}  // namespace adriatic::soc
