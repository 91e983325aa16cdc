// Arbitrated system bus at the bus-cycle-accurate abstraction of the ADRIATIC
// flow: address decoding over registered slaves, per-beat cycle costs,
// pluggable arbitration, and the split-vs-blocking transaction distinction
// that drives the paper's Sec. 5.4 deadlock discussion.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/interfaces.hpp"
#include "kernel/module.hpp"
#include "kernel/time.hpp"
#include "util/stats.hpp"

namespace adriatic::bus {

struct BusConfig {
  kern::Time cycle_time = kern::Time::ns(10);  ///< 100 MHz default.
  u32 data_width_bits = 32;   ///< Bus width; sets beats per context word.
  u32 address_cycles = 1;     ///< Cycles for the address phase.
  u32 data_cycles = 1;        ///< Cycles per data beat.
  ArbPolicy arbitration = ArbPolicy::kPriority;
  /// Split transactions: the bus is released while a slave processes a
  /// request, so other masters (and the DRCF context loader) can use it.
  /// Non-split (blocking): the bus is held for the whole slave call —
  /// the configuration the paper warns deadlocks a self-loading DRCF.
  bool split_transactions = true;
  u32 max_burst = 16;         ///< Longest single arbitration burst.
  /// Arbitration waits beyond this flag the master as starved (see
  /// Arbiter::set_starvation_threshold). Zero disables flagging.
  kern::Time starvation_threshold;
};

struct BusStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 beats = 0;           ///< Data beats moved.
  u64 bursts = 0;          ///< Burst transactions.
  u64 unmapped = 0;        ///< Accesses that decoded to no slave.
  u64 slave_errors = 0;
  u64 direct_calls = 0;    ///< Loose-mode transactions that skipped the
                           ///< arbiter (cost charged to the caller's local
                           ///< offset; see docs/timing_modes.md).
  u64 dmi_words = 0;       ///< Words moved through a DMI pointer instead of
                           ///< per-word slave calls (subset of direct_calls
                           ///< traffic; slave-side stats do not see them).
  u64 dmi_regrants = 0;    ///< Valid cached DMI regions replaced because an
                           ///< access fell outside them — page-granular
                           ///< providers (paged memory) regrant per page.
  kern::Time busy_time;    ///< Time the bus was occupied.
  kern::Time wait_time;    ///< Total master arbitration wait.
};

class Bus : public kern::Module, public BusMasterIf {
 public:
  Bus(kern::Object& parent, std::string name, BusConfig cfg = {});

  /// Registers a slave; its address range comes from get_low_add/high_add.
  /// Ranges are checked for overlap at elaboration.
  void bind_slave(BusSlaveIf& slave);

  // BusMasterIf --------------------------------------------------------------
  BusStatus read(addr_t add, word* data, u32 priority) override;
  BusStatus write(addr_t add, word* data, u32 priority) override;
  BusStatus burst_read(addr_t add, std::span<word> data,
                       u32 priority) override;
  BusStatus burst_write(addr_t add, std::span<const word> data,
                        u32 priority) override;
  using BusMasterIf::read;
  using BusMasterIf::write;

  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const BusConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const Arbiter& arbiter() const noexcept { return arbiter_; }
  /// Fraction of elapsed simulated time the bus carried a transaction.
  [[nodiscard]] double utilization() const;
  [[nodiscard]] usize slave_count() const noexcept { return slaves_.size(); }

 private:
  void check_address_map() const;
  [[nodiscard]] BusSlaveIf* decode(addr_t add) const;
  /// One arbitrated transaction, clamped at the decoded slave's upper
  /// boundary: at most `len` words, never crossing get_high_add(). The
  /// words actually moved are reported via `words_done` (burst loops use it
  /// to continue into the next slave with a fresh address phase).
  BusStatus transfer(addr_t add, word* data, usize len, bool is_read,
                     u32 priority, std::span<const word> wdata,
                     usize* words_done = nullptr);
  /// Loose-mode direct path: no arbitration, occupancy charged to the
  /// caller's local offset; uses DMI when the slave granted it.
  BusStatus transfer_direct(BusSlaveIf& slave, addr_t add, word* data,
                            usize len, bool is_read,
                            std::span<const word> wdata,
                            kern::Time occupancy);
  /// This bus's grant from `slave`, made on first use.
  [[nodiscard]] DmiGrant& dmi_grant(BusSlaveIf& slave);

  BusConfig cfg_;
  Arbiter arbiter_;
  std::vector<BusSlaveIf*> slaves_;
  std::deque<DmiGrant> dmi_grants_;  ///< A deque: grants never move.
  BusStats stats_;
};

}  // namespace adriatic::bus
