// Timing-parameterised memory slave: RAM, and the configuration (context)
// memory that stores DRCF bitstreams. Word-addressed: each bus address
// holds one 32-bit word.
//
// Since PR 9 the backing is a sparse copy-on-write PagedStore: untouched
// pages cost nothing, identical images are attached from the process-wide
// ImageRegistry and shared until written, and every materialized page charges
// the MemoryBudget. An optional ECC fault model (set_ecc) injects seeded
// upsets on reads — corrected, or detected-uncorrectable into the
// FaultLedger — and a background scrubber can sweep resident pages on a
// sim-time period. With ECC off the bus-visible behavior is byte- and
// timing-identical to the old flat vector backing.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "bus/interfaces.hpp"
#include "kernel/module.hpp"
#include "kernel/simulation.hpp"
#include "memory/ecc.hpp"
#include "memory/paged_store.hpp"
#include "util/stats.hpp"

namespace adriatic::mem {

struct MemoryStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 errors = 0;  ///< Out-of-range, read-only, or integrity violations.
};

class Memory : public kern::Module,
               public bus::BusSlaveIf,
               public bus::DmiProvider {
 public:
  Memory(kern::Object& parent, std::string name, bus::addr_t low,
         usize size_words, kern::Time read_latency = kern::Time::zero(),
         kern::Time write_latency = kern::Time::zero());

  // BusSlaveIf ----------------------------------------------------------------
  [[nodiscard]] bus::addr_t get_low_add() const override { return low_; }
  [[nodiscard]] bus::addr_t get_high_add() const override {
    return low_ + static_cast<bus::addr_t>(store_.size_words()) - 1;
  }
  bool read(bus::addr_t add, bus::word* data) override;
  bool write(bus::addr_t add, bus::word* data) override;
  /// Serves a burst a page run at a time: one integrity gate and one copy
  /// per page, with exactly the data, stats and ledger entries of read()
  /// per word. A non-zero read latency (its per-word waits set the
  /// schedule), an installed ECC model (it draws per word) or a range not
  /// fully mapped take read() per word instead.
  bool read_burst(bus::addr_t add, bus::word* data, usize len) override;
  /// True with a zero read latency, no ECC model, the range fully mapped
  /// and every page of it passing its read gate (checked without side
  /// effects): read_burst then serves the range a page run at a time and
  /// cannot fail or look at the clock.
  [[nodiscard]] bool reads_untimed(bus::addr_t add, usize len) const override;

  // bus::DmiProvider ----------------------------------------------------------
  /// Grants direct access to the *page* containing `add`, with this memory's
  /// word latencies — page-granular so a COW split or scrub of one page only
  /// revokes pointers into that store. Writable only when the page is
  /// private (a writable pointer to a shared page would bypass COW); shared
  /// pages get read-only grants and zero pages decline, so the slave path
  /// keeps serving zeros without materializing. Declines entirely while the
  /// ECC model is active: a direct pointer would bypass injection and
  /// detection. Loose-mode fast paths bypass read()/write() through the
  /// pointer, so MemoryStats do not see DMI traffic (the usual TLM-2
  /// trade-off).
  bool get_dmi(bus::addr_t add, bus::DmiRegion* out) override;
  /// Withdraws DMI for this memory: pending grants are invalidated and
  /// future requests declined, forcing every access back through
  /// read()/write(). Used by fault interposition and tests.
  void set_dmi_enabled(bool enabled);

  // Backdoor access (no timing, no stats) — loaders and checkers only.
  void load(bus::addr_t add, std::span<const bus::word> data);
  [[nodiscard]] bus::word peek(bus::addr_t add) const;
  void poke(bus::addr_t add, bus::word value);

  // Paged backing -------------------------------------------------------------
  /// Attaches a shared image at bus address `at` (store-relative offset must
  /// be page-aligned and the target pages untouched — see
  /// PagedStore::attach_image). Jobs attaching the same interned image share
  /// its resident pages until they diverge.
  void attach_image(const SharedImageRef& image, bus::addr_t at);
  [[nodiscard]] PagedStore& backing() noexcept { return store_; }
  [[nodiscard]] const PagedStore& backing() const noexcept { return store_; }

  // Integrity / ECC -----------------------------------------------------------
  /// Installs the ECC fault model (replacing any previous one) and, when
  /// cfg.scrub_period is nonzero, spawns the background scrubber process.
  void set_ecc(EccConfig cfg);
  /// Ledger for integrity events (checksum failures, uncorrectable upsets,
  /// scrub repairs); forwarded to the ECC model.
  void set_fault_ledger(fault::FaultLedger* ledger);
  [[nodiscard]] EccModel* ecc() noexcept { return ecc_.get(); }
  [[nodiscard]] const EccModel* ecc() const noexcept { return ecc_.get(); }
  /// One synchronous scrub pass over resident pages; returns pages repaired.
  usize scrub_now();

  [[nodiscard]] const MemoryStats& stats() const noexcept { return stats_; }
  [[nodiscard]] usize size_words() const noexcept {
    return store_.size_words();
  }

 protected:
  [[nodiscard]] bool in_range(bus::addr_t add) const {
    return add >= low_ && add <= get_high_add();
  }

  bus::addr_t low_;
  PagedStore store_;
  kern::Time read_latency_;
  kern::Time write_latency_;
  MemoryStats stats_;
  bool dmi_enabled_ = true;
  u64 site_;  ///< sched_name_hash(name()) — ledger site id.
  fault::FaultLedger* ledger_ = nullptr;
  std::unique_ptr<EccModel> ecc_;
  bool scrubber_spawned_ = false;
};

}  // namespace adriatic::mem
