// ECC fault model for the paged memory subsystem: a SECDED-style ladder
// layered over the deterministic fault-plan machinery.
//
// Upsets are drawn from a fault::FaultPlan whose kCorrupt rules/scripts give
// the per-read upset probability and weight: `corrupt_bits == 1` is a
// correctable single-event upset (silently corrected and counted when
// correction is enabled), `corrupt_bits >= 2` is beyond single-error
// correction — the read is *detected* as bad (SECDED detects double errors),
// counted, and recorded in the FaultLedger as kEccUncorrectable. In storage
// mode the flipped bits land in the backing PagedStore (bypassing checksum
// maintenance, so scrubbing finds them); the poisoned word keeps failing
// reads until a scrub or repair-on-detect restores its page from the golden
// image — which is exactly the retry/scrub shape the DRCF RecoveryPolicy
// ladder expects from a config fetch. kDelay/kError rules in the plan are
// ignored here: bus-level errors stay the bus interposer's job.
#pragma once

#include <unordered_map>

#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "kernel/time.hpp"
#include "memory/paged_store.hpp"

namespace adriatic::mem {

struct EccConfig {
  /// kCorrupt rules/scripts drive upsets; other kinds are ignored.
  fault::FaultPlan upsets;
  /// Correct single-bit upsets (count only). When false the model degrades
  /// to raw payload corruption.
  bool correct_single = true;
  /// Flip bits in the backing store (persistent, scrubbable) rather than
  /// only in the returned payload (transient, per-read).
  bool storage_upsets = true;
  /// On a detected uncorrectable read, immediately restore the page from
  /// its golden image so the caller's retry converges.
  bool repair_on_detect = true;
  /// Fail the bus read (slave error) on a detected-uncorrectable word —
  /// what feeds the DRCF recovery ladder. When false the corrupted payload
  /// is delivered as data, for a downstream check (a CRC) to catch.
  bool signal_uncorrectable = true;
  /// Background scrubber sweep period; zero disables the scrubber process.
  kern::Time scrub_period = kern::Time::zero();

  [[nodiscard]] bool enabled() const noexcept { return !upsets.empty(); }
};

struct EccStats {
  u64 upsets = 0;          ///< Total upset events drawn from the plan.
  u64 corrected = 0;       ///< Single-bit upsets silently corrected.
  u64 uncorrectable = 0;   ///< Multi-bit (or uncorrected) upsets.
  u64 detected_reads = 0;  ///< Reads that hit an already-poisoned word.
  u64 repairs = 0;         ///< Pages restored on detection (repair_on_detect).
  u64 scrub_sweeps = 0;    ///< Full resident-set scrub passes.
  u64 scrub_repairs = 0;   ///< Pages the scrubber restored.
};

class EccModel {
 public:
  /// `store`/`low` map bus addresses onto the backing pages for storage
  /// upsets and repair; `site` identifies this memory in the ledger (use
  /// kern::sched_name_hash of the memory's name).
  EccModel(EccConfig cfg, u64 site, PagedStore* store, bus::addr_t low);

  void set_ledger(fault::FaultLedger* ledger) noexcept { ledger_ = ledger; }

  enum class ReadOutcome : u8 {
    kClean,          ///< No upset (or a kind this model ignores).
    kCorrected,      ///< Single-bit upset corrected; payload untouched.
    kUncorrectable,  ///< Detected-uncorrectable; payload/storage corrupted.
  };

  /// Consults the model for one word read. `*data` holds the stored value
  /// and is corrupted in place for uncorrectable/uncorrected upsets.
  ReadOutcome on_read(kern::Time now, bus::addr_t addr, bus::word* data);

  /// One scrub pass over every resident page of the backing store: verifies
  /// checksums, restores corrupted pages from their golden image, clears
  /// their poison. Returns the number of pages repaired.
  usize scrub_resident(kern::Time now);

  [[nodiscard]] bool poisoned(bus::addr_t addr) const {
    return poisoned_.count(addr) != 0;
  }
  [[nodiscard]] const EccStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const EccConfig& config() const noexcept { return cfg_; }
  /// True when the plan can fire — memories must decline DMI then, or the
  /// fast path would bypass injection and detection entirely.
  [[nodiscard]] bool active() const noexcept { return cfg_.enabled(); }

 private:
  void clear_poison_in_page(usize page);
  bool repair_page(kern::Time now, usize page);

  EccConfig cfg_;
  fault::FaultInjector injector_;
  u64 site_;
  PagedStore* store_;
  bus::addr_t low_;
  fault::FaultLedger* ledger_ = nullptr;
  /// Storage-mode words known corrupted beyond correction: addr -> bits.
  std::unordered_map<bus::addr_t, u32> poisoned_;
  EccStats stats_;
};

}  // namespace adriatic::mem
