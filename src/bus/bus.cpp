#include "bus/bus.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernel/simulation.hpp"
#include "util/types.hpp"

namespace adriatic::bus {

namespace {

/// The slave side of a write transaction: one write() per word. A read
/// burst is one read_burst() call instead (the occupancy was already paid
/// once for the whole burst).
bool write_words(BusSlaveIf& slave, addr_t add, std::span<const word> wdata) {
  for (usize i = 0; i < wdata.size(); ++i) {
    word w = wdata[i];
    if (!slave.write(add + static_cast<addr_t>(i), &w)) return false;
  }
  return true;
}

}  // namespace

Bus::Bus(kern::Object& parent, std::string name, BusConfig cfg)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      arbiter_(*this, cfg.arbitration) {
  arbiter_.set_starvation_threshold(cfg.starvation_threshold);
  sim().at_elaboration([this] { check_address_map(); });
}

void Bus::bind_slave(BusSlaveIf& slave) { slaves_.push_back(&slave); }

void Bus::check_address_map() const {
  for (usize i = 0; i < slaves_.size(); ++i) {
    const addr_t lo_i = slaves_[i]->get_low_add();
    const addr_t hi_i = slaves_[i]->get_high_add();
    if (lo_i > hi_i)
      throw std::logic_error(name() + ": slave with inverted address range");
    for (usize j = i + 1; j < slaves_.size(); ++j) {
      const addr_t lo_j = slaves_[j]->get_low_add();
      const addr_t hi_j = slaves_[j]->get_high_add();
      if (lo_i <= hi_j && lo_j <= hi_i)
        throw std::logic_error(name() + ": overlapping slave address ranges");
    }
  }
}

BusSlaveIf* Bus::decode(addr_t add) const {
  for (BusSlaveIf* s : slaves_)
    if (add >= s->get_low_add() && add <= s->get_high_add()) return s;
  return nullptr;
}

DmiGrant::DmiGrant(BusSlaveIf& slave)
    : slave_(&slave), provider_(dynamic_cast<DmiProvider*>(&slave)) {
  // The provider (a sibling module) shares the initiator's lifetime, and
  // invalidations only fire from explicit re-arming during simulation.
  if (provider_ != nullptr)
    provider_->add_dmi_listener([this] { valid_ = false; });
}

bool DmiGrant::transfer(addr_t add, word* out, const word* in, usize len,
                        bool is_read, kern::Time lead, u64* regrants) {
  if (provider_ == nullptr) return false;
  const auto usable = [&] {
    return valid_ && region_.covers(add, len) &&
           (is_read || region_.allow_write);
  };
  if (!usable()) {
    if (valid_ && regrants != nullptr) ++*regrants;
    valid_ = provider_->get_dmi(add, &region_);
    if (!usable()) return false;
  }
  if (!lead.is_zero()) kern::wait(lead);
  const kern::Time lat = is_read ? region_.read_latency : region_.write_latency;
  if (!lat.is_zero()) kern::wait(lat * static_cast<u64>(len));
  if (is_read)
    std::copy_n(region_.at(add), len, out);
  else
    std::copy_n(in, len, region_.at(add));
  return true;
}

DmiGrant& Bus::dmi_grant(BusSlaveIf& slave) {
  for (DmiGrant& g : dmi_grants_)
    if (g.slave() == &slave) return g;
  return dmi_grants_.emplace_back(slave);
}

BusStatus Bus::transfer(addr_t add, word* data, usize len, bool is_read,
                        u32 priority, std::span<const word> wdata,
                        usize* words_done) {
  if (words_done != nullptr) *words_done = 0;
  BusSlaveIf* slave = decode(add);
  if (slave == nullptr) {
    ++stats_.unmapped;
    return BusStatus::kUnmapped;
  }
  // Clamp at the slave's upper boundary: a burst chunk that would cross
  // get_high_add() moves only the mapped prefix (reported via words_done);
  // the burst loop re-decodes the remainder — landing in the next slave
  // with a fresh address phase, or in unmapped space.
  const u64 avail = static_cast<u64>(slave->get_high_add()) - add + 1;
  const usize n = static_cast<usize>(std::min<u64>(len, avail));

  const u32 beats_per_word = ceil_div<u32>(32, cfg_.data_width_bits);
  const kern::Time occupancy =
      cfg_.cycle_time *
      (cfg_.address_cycles +
       static_cast<u64>(n) * beats_per_word * cfg_.data_cycles);

  // Loose-mode direct path (b_transport style): with the bus idle and
  // transactions split — the slave call happens with the bus released
  // either way — arbitration is a foregone conclusion, so skip it and
  // charge the occupancy to the caller's local offset. Non-split configs
  // keep the arbitrated path even in loose mode: holding the bus across a
  // suspending slave call is the paper's Sec. 5.4 deadlock semantics, and
  // the fast path must not mask it.
  BusStatus st;
  if (sim().loose() && cfg_.split_transactions && arbiter_.idle() &&
      sim().current_process() != nullptr) {
    st = transfer_direct(*slave, add, data, n, is_read, wdata, occupancy);
  } else {
    stats_.wait_time += arbiter_.acquire(priority);
    kern::wait(occupancy);
    stats_.busy_time += occupancy;
    stats_.beats += n * beats_per_word;
    if (is_read)
      ++stats_.reads;
    else
      ++stats_.writes;
    if (n > 1) ++stats_.bursts;

    // Split: the bus is free again while the slave services the request.
    // Blocking: the bus is held for the entire slave call — if the slave
    // suspends (DRCF context switch), every other master is locked out.
    if (cfg_.split_transactions) arbiter_.release();
    const bool ok = is_read ? slave->read_burst(add, data, n)
                            : write_words(*slave, add, wdata.first(n));
    if (!cfg_.split_transactions) arbiter_.release();
    if (!ok) {
      ++stats_.slave_errors;
      st = BusStatus::kSlaveError;
    } else {
      st = BusStatus::kOk;
    }
  }
  if (st == BusStatus::kOk && words_done != nullptr) *words_done = n;
  return st;
}

BusStatus Bus::transfer_direct(BusSlaveIf& slave, addr_t add, word* data,
                               usize len, bool is_read,
                               std::span<const word> wdata,
                               kern::Time occupancy) {
  const u32 beats_per_word = ceil_div<u32>(32, cfg_.data_width_bits);
  ++stats_.direct_calls;
  kern::wait(occupancy);  // accumulates on the caller's local offset
  stats_.busy_time += occupancy;
  stats_.beats += len * beats_per_word;
  if (is_read)
    ++stats_.reads;
  else
    ++stats_.writes;
  if (len > 1) ++stats_.bursts;

  // DMI: when the slave granted a pointer over the whole span, move the
  // words directly and charge the slave-side per-word latency in one go.
  // Grants are re-requested lazily after invalidation, so an armed fault
  // interposer (which declines) regains sight of every access.
  if (dmi_grant(slave).transfer(add, data, wdata.data(), len, is_read,
                                kern::Time::zero(), &stats_.dmi_regrants)) {
    stats_.dmi_words += len;
    return BusStatus::kOk;
  }

  const bool ok = is_read ? slave.read_burst(add, data, len)
                          : write_words(slave, add, wdata.first(len));
  if (!ok) {
    ++stats_.slave_errors;
    return BusStatus::kSlaveError;
  }
  return BusStatus::kOk;
}

BusStatus Bus::read(addr_t add, word* data, u32 priority) {
  return transfer(add, data, 1, true, priority, {});
}

BusStatus Bus::write(addr_t add, word* data, u32 priority) {
  return transfer(add, nullptr, 1, false, priority, std::span<const word>(data, 1));
}

BusStatus Bus::burst_read(addr_t add, std::span<word> data, u32 priority) {
  usize done = 0;
  while (done < data.size()) {
    const usize chunk = std::min<usize>(cfg_.max_burst, data.size() - done);
    usize moved = 0;
    const BusStatus st =
        transfer(add + static_cast<addr_t>(done), data.data() + done, chunk,
                 true, priority, {}, &moved);
    if (st != BusStatus::kOk) return st;
    done += moved;  // may be < chunk when the chunk hit a slave boundary
  }
  return BusStatus::kOk;
}

BusStatus Bus::burst_write(addr_t add, std::span<const word> data,
                           u32 priority) {
  usize done = 0;
  while (done < data.size()) {
    const usize chunk = std::min<usize>(cfg_.max_burst, data.size() - done);
    usize moved = 0;
    const BusStatus st =
        transfer(add + static_cast<addr_t>(done), nullptr, chunk, false,
                 priority, data.subspan(done, chunk), &moved);
    if (st != BusStatus::kOk) return st;
    done += moved;  // may be < chunk when the chunk hit a slave boundary
  }
  return BusStatus::kOk;
}

double Bus::utilization() const {
  const auto elapsed = sim().now().picoseconds();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(stats_.busy_time.picoseconds()) /
         static_cast<double>(elapsed);
}

}  // namespace adriatic::bus
