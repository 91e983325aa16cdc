#include "memory/memory.hpp"

#include <algorithm>
#include <stdexcept>

#include "kernel/sched_trace.hpp"
#include "util/check.hpp"

namespace adriatic::mem {

Memory::Memory(kern::Object& parent, std::string name, bus::addr_t low,
               usize size_words, kern::Time read_latency,
               kern::Time write_latency)
    : Module(parent, std::move(name)),
      low_(low),
      store_(size_words == 0 ? 1 : size_words, this->name()),
      read_latency_(read_latency),
      write_latency_(write_latency),
      site_(kern::sched_name_hash(this->name())) {
  if (size_words == 0) throw std::invalid_argument(this->name() + ": empty");
  // A COW split or golden restore frees the page a cached DMI grant points
  // into; the store's pin revocation must reach every initiator holding one.
  store_.set_revoke_listener([this] { invalidate_dmi(); });
}

bool Memory::read(bus::addr_t add, bus::word* data) {
  if (!in_range(add) || data == nullptr) {
    ++stats_.errors;
    return false;
  }
  if (!read_latency_.is_zero()) kern::wait(read_latency_);
  const usize idx = add - low_;
  // First-read integrity gate: a page whose stored checksum no longer
  // matches (torn attach, unnoticed storage corruption) fails detectably
  // instead of serving bad words — and keeps failing until scrubbed.
  if (!store_.check_page_on_read(PagedStore::page_of(idx))) {
    ++stats_.errors;
    if (ledger_ != nullptr)
      ledger_->append(fault::FaultEventKind::kEccUncorrectable,
                      sim().now().picoseconds(), site_, add, 0);
    return false;
  }
  *data = store_.read(idx);
  if (ecc_ != nullptr &&
      ecc_->on_read(sim().now(), add, data) ==
          EccModel::ReadOutcome::kUncorrectable &&
      ecc_->config().signal_uncorrectable) {
    ++stats_.errors;
    return false;
  }
  ++stats_.reads;
  return true;
}

bool Memory::read_burst(bus::addr_t add, bus::word* data, usize len) {
  const usize first = add - low_;
  if (!read_latency_.is_zero() || ecc_ != nullptr || data == nullptr ||
      add < low_ || first + len > store_.size_words())
    return BusSlaveIf::read_burst(add, data, len);
  for (usize done = 0; done < len;) {
    const usize idx = first + done;
    const usize n = std::min(len - done, kPageWords - idx % kPageWords);
    // The gate read() applies to every word, once per page: a failing page
    // fails the burst at its first word, after the words before it.
    if (!store_.check_page_on_read(PagedStore::page_of(idx))) {
      stats_.reads += done;
      ++stats_.errors;
      if (ledger_ != nullptr)
        ledger_->append(fault::FaultEventKind::kEccUncorrectable,
                        sim().now().picoseconds(), site_, low_ + idx, 0);
      return false;
    }
    store_.read_run(idx, data + done, n);
    if constexpr (kCheckedBuild) {
      for (usize i = 0; i < n; ++i)
        ADRIATIC_CHECK(data[done + i] == store_.peek(idx + i),
                       "burst read returned a word the store does not hold");
    }
    done += n;
  }
  stats_.reads += len;
  return true;
}

bool Memory::reads_untimed(bus::addr_t add, usize len) const {
  if (!read_latency_.is_zero() || ecc_ != nullptr || len == 0 ||
      add < low_ || add - low_ + len > store_.size_words())
    return false;
  const usize first = add - low_;
  for (usize p = PagedStore::page_of(first);
       p <= PagedStore::page_of(first + len - 1); ++p)
    if (!store_.read_gate_passes(p)) return false;
  return true;
}

bool Memory::write(bus::addr_t add, bus::word* data) {
  if (!in_range(add) || data == nullptr) {
    ++stats_.errors;
    return false;
  }
  if (!write_latency_.is_zero()) kern::wait(write_latency_);
  store_.write(add - low_, *data);
  ++stats_.writes;
  return true;
}

bool Memory::get_dmi(bus::addr_t add, bus::DmiRegion* out) {
  if (!dmi_enabled_ || out == nullptr || !in_range(add)) return false;
  if (ecc_ != nullptr && ecc_->active()) return false;
  const usize page = PagedStore::page_of(add - low_);
  const bus::word* ro = store_.page_data(page);
  if (ro == nullptr) return false;  // Zero page: stay lazy, slave serves 0s.
  bus::word* rw = store_.page_data_mutable(page);
  // Read-only grants into a shared page hand out a const view; allow_write
  // is the contract that keeps the fast path from writing through it.
  out->data = rw != nullptr ? rw : const_cast<bus::word*>(ro);
  out->low = low_ + static_cast<bus::addr_t>(page * kPageWords);
  out->high = std::min<bus::addr_t>(
      get_high_add(),
      out->low + static_cast<bus::addr_t>(kPageWords) - 1);
  out->read_latency = read_latency_;
  out->write_latency = write_latency_;
  out->allow_write = rw != nullptr;
  store_.pin_page(page);
  return true;
}

void Memory::set_dmi_enabled(bool enabled) {
  const bool was = dmi_enabled_;
  dmi_enabled_ = enabled;
  if (was && !enabled) invalidate_dmi();
}

void Memory::load(bus::addr_t add, std::span<const bus::word> data) {
  if (!in_range(add) || add + data.size() - 1 > get_high_add())
    throw std::out_of_range(name() + ": load outside memory");
  store_.load(add - low_, data);
}

bus::word Memory::peek(bus::addr_t add) const {
  if (!in_range(add)) throw std::out_of_range(name() + ": peek outside memory");
  return store_.peek(add - low_);
}

void Memory::poke(bus::addr_t add, bus::word value) {
  if (!in_range(add)) throw std::out_of_range(name() + ": poke outside memory");
  store_.write(add - low_, value);
}

void Memory::attach_image(const SharedImageRef& image, bus::addr_t at) {
  if (!in_range(at))
    throw std::out_of_range(name() + ": attach outside memory");
  store_.attach_image(image, at - low_);
}

void Memory::set_ecc(EccConfig cfg) {
  const kern::Time period = cfg.scrub_period;
  ecc_ = std::make_unique<EccModel>(std::move(cfg), site_, &store_, low_);
  ecc_->set_ledger(ledger_);
  if (!period.is_zero() && !scrubber_spawned_) {
    // Daemon: the periodic scrubber is an idle server, excluded from
    // deadlock/starvation reports (same pattern as Clock). Like a Clock it
    // keeps the timed queue populated, so scrubbed models need a bounded
    // run() or an explicit stop.
    auto& proc = spawn_thread("scrubber", [this, period] {
      for (;;) {
        kern::wait(period);
        scrub_now();
      }
    });
    proc.set_daemon();
    scrubber_spawned_ = true;
  }
}

void Memory::set_fault_ledger(fault::FaultLedger* ledger) {
  ledger_ = ledger;
  if (ecc_ != nullptr) ecc_->set_ledger(ledger);
}

usize Memory::scrub_now() {
  if (ecc_ != nullptr) return ecc_->scrub_resident(sim().now());
  usize repaired = 0;
  for (usize p = 0; p < store_.page_count(); ++p) {
    if (!store_.page_resident(p) || store_.verify_page(p)) continue;
    if (store_.scrub_page(p)) {
      ++repaired;
      if (ledger_ != nullptr)
        ledger_->append(fault::FaultEventKind::kEccScrub,
                        sim().now().picoseconds(), site_,
                        low_ + static_cast<u64>(p * kPageWords));
    }
  }
  return repaired;
}

}  // namespace adriatic::mem
