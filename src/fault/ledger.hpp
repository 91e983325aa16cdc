// The fault ledger: a structured, append-only record of every injected and
// observed fault in a simulation. Sites are identified by the same stable
// FNV-1a name hash the scheduler trace uses (kernel/sched_trace.hpp), so
// ledger entries — like scheduler records — compare bit-exactly between two
// runs of the same seeded model. `digest()` folds the whole ledger into one
// comparable value.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace adriatic::fault {

enum class FaultEventKind : u8 {
  // Injection-side events (recorded by interposers when a plan fires).
  kInjectedError = 1,
  kInjectedDelay = 2,
  kInjectedCorrupt = 3,
  // Observation/recovery-side events (recorded by fault-aware components,
  // e.g. the DRCF's configuration-fetch recovery loop).
  kFetchError = 4,       ///< A configuration fetch returned a bus error.
  kDigestMismatch = 5,   ///< Fetched configuration failed its integrity check.
  kWatchdogAbort = 6,    ///< A fetch exceeded the reconfiguration watchdog.
  kRetry = 7,            ///< A recovery retry was scheduled (arg = attempt).
  kScrub = 8,            ///< A scrub re-fetch was started.
  kFallback = 9,         ///< A call degraded to the fallback context.
  kGaveUp = 10,          ///< Recovery exhausted; the load failed terminally.
  kRecovered = 11,       ///< A load succeeded after >= 1 failed attempt.
  kThrash = 12,          ///< Context-thrash detector fired (arg = switches).
  kMigrateError = 13,    ///< A task-state restore or migration transfer was
                         ///  rejected (arg = drcf::RestoreError / status).
  // Memory-integrity events (recorded by the ECC model and page scrubber,
  // see docs/memory.md).
  kEccUncorrectable = 14,  ///< A read saw an upset beyond ECC correction
                           ///  (arg = flipped bits; 0 = torn-page checksum).
  kEccScrub = 15,          ///< A scrub restored a page from its golden image
                           ///  (addr = first word of the page).
};

[[nodiscard]] const char* to_string(FaultEventKind kind);

struct FaultRecord {
  u64 seq = 0;      ///< Append order, 0-based.
  u64 time_ps = 0;  ///< Simulated time of the event.
  u64 site = 0;     ///< sched_name_hash() of the recording component.
  FaultEventKind kind = FaultEventKind::kInjectedError;
  u64 addr = 0;     ///< Bus address involved (0 when not applicable).
  u64 arg = 0;      ///< Kind-specific detail (status, attempt, context, ...).
};

class FaultLedger {
 public:
  void append(FaultEventKind kind, u64 time_ps, u64 site, u64 addr = 0,
              u64 arg = 0);

  [[nodiscard]] const std::vector<FaultRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] u64 count(FaultEventKind kind) const noexcept;
  /// Total injection-side events (kInjectedError/Delay/Corrupt).
  [[nodiscard]] u64 injected_count() const noexcept;

  /// Order-sensitive splitmix64 fold over every record — the ledger's
  /// counterpart of conformance::TraceDigest.
  [[nodiscard]] u64 digest() const noexcept;

  /// Like digest(), but excluding timestamps and collapsing consecutive
  /// identical records: folds kind/site/addr/arg of each run of equal
  /// records in append order. Comparable across timing modes, where
  /// loose-mode injection timestamps legitimately lag their timed-mode
  /// counterparts and per-call repeat counts (e.g. one kFallback per poll
  /// of a degraded context) vary with poll timing (see
  /// docs/timing_modes.md), while the event-content sequence must not
  /// change.
  [[nodiscard]] u64 functional_digest() const noexcept;

 private:
  std::vector<FaultRecord> records_;
};

}  // namespace adriatic::fault
