// Bus interfaces. BusSlaveIf reproduces the paper's `bus_slv_if` verbatim
// (Sec. 5.2): address-range discovery via get_low_add()/get_high_add() is
// what lets the DRCF transformation build its routing multiplexer — the
// paper's Sec. 5.4 limitation 2 makes this pair mandatory. Its two additions,
// the defaulted read_burst() hook and reads_untimed() query, change no
// slave's behaviour.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "kernel/channel.hpp"
#include "kernel/time.hpp"
#include "util/types.hpp"

namespace adriatic::bus {

/// Word type carried by the bus (the paper's sc_int<DATAW> with DATAW=32).
using word = i32;
/// Address type (the paper's sc_uint<ADDW>).
using addr_t = u32;

class BusSlaveIf : public virtual kern::Interface {
 public:
  [[nodiscard]] virtual addr_t get_low_add() const = 0;
  [[nodiscard]] virtual addr_t get_high_add() const = 0;
  /// Word read/write; returns false on error. May block (split transaction)
  /// when called from a thread process.
  virtual bool read(addr_t add, word* data) = 0;
  virtual bool write(addr_t add, word* data) = 0;
  /// Reads `len` consecutive words: the bus makes one such call per read
  /// burst. Stops at the first failing word, keeping the words before it,
  /// and returns false. The default is read() per word; a slave that can
  /// serve a run at once (paged memory) overrides it.
  virtual bool read_burst(addr_t add, word* data, usize len) {
    for (usize i = 0; i < len; ++i)
      if (!read(add + static_cast<addr_t>(i), data + i)) return false;
    return true;
  }
  /// True when read_burst(add, data, len) would deliver every word without
  /// waiting, without failing and whatever the time it is called at, so an
  /// initiator that models the words' timing itself may fetch them all in
  /// one call. Const and free of side effects. The default declines: each
  /// word then reaches read() at its own time.
  [[nodiscard]] virtual bool reads_untimed(addr_t /*add*/,
                                           usize /*len*/) const {
    return false;
  }
};

enum class BusStatus : u8 {
  kOk,
  kUnmapped,    ///< No slave decodes the address.
  kSlaveError,  ///< Slave returned false.
};

/// DMI-style direct-memory descriptor (TLM-2 get_direct_mem_ptr analogue):
/// a bounds-checked host pointer into a slave's backing store plus the
/// per-word latencies the fast path must still charge. Only consulted in
/// TimingMode::kLoose — the bus-cycle-accurate path never uses it, so
/// golden traces are unaffected by grants.
struct DmiRegion {
  word* data = nullptr;  ///< Host pointer to the word at address `low`.
  addr_t low = 0;        ///< Inclusive granted range.
  addr_t high = 0;
  kern::Time read_latency;   ///< Slave-side cost per word read.
  kern::Time write_latency;  ///< Slave-side cost per word written.
  bool allow_write = true;   ///< False for read-only views: writes go slow.

  /// True when [add, add+len) lies inside the granted range.
  [[nodiscard]] bool covers(addr_t add, usize len) const noexcept {
    return data != nullptr && len > 0 && add >= low && add <= high &&
           static_cast<u64>(high) - add + 1 >= len;
  }
  [[nodiscard]] word* at(addr_t add) const noexcept {
    return data + (add - low);
  }
};

/// Optional capability of a BusSlaveIf implementation: grants DmiRegions to
/// initiators (discovered by the bus via dynamic_cast) and notifies them
/// when every outstanding grant becomes invalid — on remap, or when a fault
/// interposer arms so injection sees every access again.
class DmiProvider {
 public:
  virtual ~DmiProvider() = default;

  /// Requests a region containing `add`. Returns false (leaving `out`
  /// untouched) when the slave declines — not backed by plain storage, or
  /// interposed by an armed fault plan.
  virtual bool get_dmi(addr_t add, DmiRegion* out) = 0;

  /// Registers a callback invoked by invalidate_dmi(). Listeners are never
  /// unregistered: callers must outlive the provider or arrange teardown so
  /// no invalidation fires after they die (module trees are destroyed
  /// together, and invalidations only happen during explicit re-arming).
  void add_dmi_listener(std::function<void()> cb) {
    dmi_listeners_.push_back(std::move(cb));
  }

  /// Revokes every grant handed out so far: all cached descriptors must be
  /// dropped and re-requested.
  void invalidate_dmi() {
    for (auto& cb : dmi_listeners_) cb();
  }

 private:
  std::vector<std::function<void()>> dmi_listeners_;
};

/// One initiator's cached DMI grant from one slave, shared by Bus and
/// DirectLink. It probes the slave for DmiProvider once, drops its region
/// when the provider revokes its grants, and re-requests a region that does
/// not cover an access (page-granular providers grant a page at a time).
/// The invalidation listener captures `this`, so a grant must never move.
class DmiGrant {
 public:
  explicit DmiGrant(BusSlaveIf& slave);
  DmiGrant(const DmiGrant&) = delete;
  DmiGrant& operator=(const DmiGrant&) = delete;

  [[nodiscard]] BusSlaveIf* slave() const noexcept { return slave_; }

  /// Moves [add, add+len) through the slave's pointer: waits `lead`, then
  /// the region's per-word latency times len, then copies. Returns false,
  /// having waited and moved nothing, when the slave is no provider or
  /// declines. Replacing a valid region that does not cover the access
  /// counts one regrant in `*regrants`.
  bool transfer(addr_t add, word* out, const word* in, usize len,
                bool is_read, kern::Time lead, u64* regrants = nullptr);

 private:
  BusSlaveIf* slave_;
  DmiProvider* provider_;
  bool valid_ = false;
  DmiRegion region_;
};

/// Master-side interface: what a module's `mst_port` sees. Implemented by
/// arbitrated buses and by zero-contention direct links.
class BusMasterIf : public virtual kern::Interface {
 public:
  virtual BusStatus read(addr_t add, word* data, u32 priority) = 0;
  virtual BusStatus write(addr_t add, word* data, u32 priority) = 0;
  /// Burst transfers move len consecutive words; the bus is arbitrated once.
  virtual BusStatus burst_read(addr_t add, std::span<word> data,
                               u32 priority) = 0;
  virtual BusStatus burst_write(addr_t add, std::span<const word> data,
                                u32 priority) = 0;

  // Convenience overloads with default priority.
  BusStatus read(addr_t add, word* data) { return read(add, data, 0); }
  BusStatus write(addr_t add, word* data) { return write(add, data, 0); }
};

}  // namespace adriatic::bus
