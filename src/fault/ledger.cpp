#include "fault/ledger.hpp"

#include "fault/plan.hpp"
#include "util/strings.hpp"

namespace adriatic::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kError:
      return "error";
    case FaultKind::kCorrupt:
      return "corrupt";
  }
  return "?";
}

const char* to_string(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kInjectedError:
      return "injected_error";
    case FaultEventKind::kInjectedDelay:
      return "injected_delay";
    case FaultEventKind::kInjectedCorrupt:
      return "injected_corrupt";
    case FaultEventKind::kFetchError:
      return "fetch_error";
    case FaultEventKind::kDigestMismatch:
      return "digest_mismatch";
    case FaultEventKind::kWatchdogAbort:
      return "watchdog_abort";
    case FaultEventKind::kRetry:
      return "retry";
    case FaultEventKind::kScrub:
      return "scrub";
    case FaultEventKind::kFallback:
      return "fallback";
    case FaultEventKind::kGaveUp:
      return "gave_up";
    case FaultEventKind::kRecovered:
      return "recovered";
    case FaultEventKind::kThrash:
      return "thrash";
    case FaultEventKind::kMigrateError:
      return "migrate_error";
    case FaultEventKind::kEccUncorrectable:
      return "ecc_uncorrectable";
    case FaultEventKind::kEccScrub:
      return "ecc_scrub";
  }
  return "?";
}

void FaultLedger::append(FaultEventKind kind, u64 time_ps, u64 site, u64 addr,
                         u64 arg) {
  FaultRecord r;
  r.seq = records_.size();
  r.time_ps = time_ps;
  r.site = site;
  r.kind = kind;
  r.addr = addr;
  r.arg = arg;
  records_.push_back(r);
}

u64 FaultLedger::count(FaultEventKind kind) const noexcept {
  u64 n = 0;
  for (const FaultRecord& r : records_)
    if (r.kind == kind) ++n;
  return n;
}

u64 FaultLedger::injected_count() const noexcept {
  u64 n = 0;
  for (const FaultRecord& r : records_)
    if (r.kind == FaultEventKind::kInjectedError ||
        r.kind == FaultEventKind::kInjectedDelay ||
        r.kind == FaultEventKind::kInjectedCorrupt)
      ++n;
  return n;
}

namespace {
// splitmix64 avalanche, same shape as conformance::TraceDigest::mix.
constexpr u64 mix(u64 z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

u64 FaultLedger::digest() const noexcept {
  u64 h = 0x9e3779b97f4a7c15ULL;
  for (const FaultRecord& r : records_) {
    h = mix(h ^ static_cast<u64>(r.kind));
    h = mix(h ^ r.time_ps);
    h = mix(h ^ r.site);
    h = mix(h ^ r.addr);
    h = mix(h ^ r.arg);
  }
  return h;
}

u64 FaultLedger::functional_digest() const noexcept {
  u64 h = 0x9e3779b97f4a7c15ULL;
  const FaultRecord* prev = nullptr;
  for (const FaultRecord& r : records_) {
    // Consecutive identical records collapse into one: per-call events like
    // kFallback repeat once per access, and the access count of a polling
    // caller is a timing artifact, not a functional outcome. Run-length is
    // the only information discarded — any change in kind, site, address or
    // payload still lands in the fold.
    if (prev != nullptr && prev->kind == r.kind && prev->site == r.site &&
        prev->addr == r.addr && prev->arg == r.arg)
      continue;
    prev = &r;
    h = mix(h ^ static_cast<u64>(r.kind));
    h = mix(h ^ r.site);
    h = mix(h ^ r.addr);
    h = mix(h ^ r.arg);
  }
  return h;
}

}  // namespace adriatic::fault
