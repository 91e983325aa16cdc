// Zero-contention point-to-point connection implementing BusMasterIf.
// Models a dedicated port (e.g. a private configuration-memory bus for the
// DRCF — the memory-organisation alternative of paper Sec. 5.3/5.4 that
// avoids the shared-bus deadlock).
#pragma once

#include <deque>
#include <span>
#include <string>

#include "bus/interfaces.hpp"
#include "kernel/module.hpp"
#include "kernel/simulation.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace adriatic::bus {

class DirectLink : public kern::Module, public BusMasterIf {
 public:
  DirectLink(kern::Object& parent, std::string name,
             kern::Time word_time = kern::Time::ns(10))
      : Module(parent, std::move(name)), word_time_(word_time) {}

  void bind_slave(BusSlaveIf& slave) { slave_ = &slave; }

  BusStatus read(addr_t add, word* data, u32 /*priority*/) override {
    return one(add, data, true);
  }
  BusStatus write(addr_t add, word* data, u32 /*priority*/) override {
    return one(add, data, false);
  }
  BusStatus burst_read(addr_t add, std::span<word> data,
                       u32 /*priority*/) override {
    if (dmi_burst(add, data.data(), data.size(), /*is_read=*/true, {}) ||
        batch_read(add, data))
      return BusStatus::kOk;
    for (usize i = 0; i < data.size(); ++i) {
      const BusStatus st = one(add + static_cast<addr_t>(i), &data[i], true);
      if (st != BusStatus::kOk) return st;
    }
    return BusStatus::kOk;
  }
  BusStatus burst_write(addr_t add, std::span<const word> data,
                        u32 /*priority*/) override {
    if (dmi_burst(add, nullptr, data.size(), /*is_read=*/false, data))
      return BusStatus::kOk;
    for (usize i = 0; i < data.size(); ++i) {
      word w = data[i];
      const BusStatus st = one(add + static_cast<addr_t>(i), &w, false);
      if (st != BusStatus::kOk) return st;
    }
    return BusStatus::kOk;
  }

  [[nodiscard]] u64 transfers() const noexcept { return transfers_; }
  /// Words moved through a DMI pointer (loose mode only).
  [[nodiscard]] u64 dmi_words() const noexcept { return dmi_words_; }

 private:
  BusStatus one(addr_t add, word* data, bool is_read) {
    if (slave_ == nullptr || add < slave_->get_low_add() ||
        add > slave_->get_high_add())
      return BusStatus::kUnmapped;
    if (!word_time_.is_zero()) kern::wait(word_time_);
    ++transfers_;
    const bool ok = is_read ? slave_->read(add, data) : slave_->write(add, data);
    return ok ? BusStatus::kOk : BusStatus::kSlaveError;
  }

  /// Timed burst over a slave whose reads do not depend on time: the words'
  /// waits go in place as one kernel batch, then one read_burst fetches
  /// them. Counts, clock, trace records, data and slave stats are those of
  /// the per-word path, since nothing else runs between the words. Returns
  /// false, having done nothing, when the slave declines or anything else
  /// is due before the burst ends; the caller then takes the per-word path.
  bool batch_read(addr_t add, std::span<word> data) {
    // A link without word time never waits, so it may serve callers that
    // cannot (method processes, elaboration): keep it off the kernel.
    if (word_time_.is_zero() || slave_ == nullptr ||
        !slave_->reads_untimed(add, data.size()) ||
        !kern::wait_in_place(word_time_, data.size()))
      return false;
    transfers_ += data.size();
    [[maybe_unused]] const bool ok =
        slave_->read_burst(add, data.data(), data.size());
    ADRIATIC_CHECK(ok, "a slave failed a burst it promised to read untimed");
    return true;
  }

  /// Loose-mode DMI burst: moves the whole span through the slave's direct
  /// pointer, charging link word time plus the slave's per-word latency to
  /// the caller's local offset. Returns false (caller takes the per-word
  /// path) outside loose mode or without a covering grant.
  bool dmi_burst(addr_t add, word* out, usize len, bool is_read,
                 std::span<const word> wdata) {
    if (len == 0 || slave_ == nullptr || !sim().loose() ||
        sim().current_process() == nullptr)
      return false;
    if (dmi_.empty() || dmi_.back().slave() != slave_)
      dmi_.emplace_back(*slave_);
    if (!dmi_.back().transfer(add, out, wdata.data(), len, is_read,
                              word_time_ * static_cast<u64>(len)))
      return false;
    transfers_ += len;
    dmi_words_ += len;
    return true;
  }

  kern::Time word_time_;
  BusSlaveIf* slave_ = nullptr;
  u64 transfers_ = 0;
  u64 dmi_words_ = 0;
  /// Grants from the bound slave, made on its first loose burst. A deque,
  /// so a grant outlives a rebind: its provider's listener still holds it.
  std::deque<DmiGrant> dmi_;
};

}  // namespace adriatic::bus
