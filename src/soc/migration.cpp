#include "soc/migration.hpp"

#include <algorithm>
#include <vector>

#include "kernel/sched_trace.hpp"
#include "kernel/simulation.hpp"
#include "util/log.hpp"

namespace adriatic::soc {

const char* to_string(MigrationStatus status) {
  switch (status) {
    case MigrationStatus::kOk:
      return "ok";
    case MigrationStatus::kCheckpointRefused:
      return "checkpoint_refused";
    case MigrationStatus::kTransferError:
      return "transfer_error";
    case MigrationStatus::kIntegrityError:
      return "integrity_error";
    case MigrationStatus::kRestoreRejected:
      return "restore_rejected";
  }
  return "?";
}

MigrationController::MigrationController(kern::Object& parent,
                                         std::string name, MigrationConfig cfg)
    : Module(parent, std::move(name)),
      mst_port(*this, "mst_port"),
      cfg_(std::move(cfg)) {
  site_id_ = kern::sched_name_hash(this->name());
  if (!cfg_.transfer_faults.empty()) {
    transfer_interposer_ = std::make_unique<fault::BusFaultInterposer>(
        *this, "transfer_faults", cfg_.transfer_faults);
    transfer_interposer_->set_ledger(&ledger_);
  }
}

bus::BusMasterIf& MigrationController::transfer_master() {
  if (transfer_interposer_ == nullptr) return mst_port[0];
  // Late binding, like the DRCF's fetch interposer: the downstream port
  // binding only exists after elaboration.
  if (!transfer_interposer_->bound()) transfer_interposer_->bind(mst_port[0]);
  return *transfer_interposer_;
}

MigrationController::TransferOutcome MigrationController::transfer_once(
    const std::vector<bus::word>& words, drcf::TaskState* out, u64* moved) {
  bus::BusMasterIf& master = transfer_master();
  const u32 burst = std::max<u32>(cfg_.burst, 1);
  // Push: serialize the snapshot into the staging buffer over the bus.
  for (usize off = 0; off < words.size(); off += burst) {
    const usize chunk = std::min<usize>(burst, words.size() - off);
    const auto st = master.burst_write(
        cfg_.staging_base + static_cast<bus::addr_t>(off),
        std::span<const bus::word>(words.data() + off, chunk), cfg_.priority);
    if (st != bus::BusStatus::kOk) {
      ledger_.append(fault::FaultEventKind::kFetchError,
                     sim().now().picoseconds(), site_id_,
                     cfg_.staging_base + static_cast<bus::addr_t>(off),
                     static_cast<u64>(st));
      return TransferOutcome::kBusError;
    }
    *moved += chunk;
  }
  return pull_and_parse(words.size(), out, moved);
}

MigrationController::TransferOutcome MigrationController::pull_and_parse(
    usize n_words, drcf::TaskState* out, u64* moved) {
  bus::BusMasterIf& master = transfer_master();
  const u32 burst = std::max<u32>(cfg_.burst, 1);
  std::vector<bus::word> buf(n_words, 0);
  for (usize off = 0; off < n_words; off += burst) {
    const usize chunk = std::min<usize>(burst, n_words - off);
    const auto st = master.burst_read(
        cfg_.staging_base + static_cast<bus::addr_t>(off),
        std::span<bus::word>(buf.data() + off, chunk), cfg_.priority);
    if (st != bus::BusStatus::kOk) {
      ledger_.append(fault::FaultEventKind::kFetchError,
                     sim().now().picoseconds(), site_id_,
                     cfg_.staging_base + static_cast<bus::addr_t>(off),
                     static_cast<u64>(st));
      return TransferOutcome::kBusError;
    }
    *moved += chunk;
  }
  // End-to-end integrity: the serialized form carries its own image digest,
  // so bits flipped anywhere on the transfer path are caught here.
  const drcf::RestoreError pe = drcf::TaskState::parse(buf, out);
  if (pe != drcf::RestoreError::kNone) {
    ledger_.append(fault::FaultEventKind::kDigestMismatch,
                   sim().now().picoseconds(), site_id_, cfg_.staging_base,
                   static_cast<u64>(pe));
    return TransferOutcome::kIntegrity;
  }
  return TransferOutcome::kOk;
}

MigrationController::TransferOutcome
MigrationController::transfer_with_recovery(
    const std::vector<bus::word>& words, const drcf::RecoveryConfig& recovery,
    drcf::TaskState* out, u64* moved) {
  u32 attempt = 1;
  u32 scrubs_left = recovery.scrub_refetches;
  kern::Time backoff = recovery.backoff;
  bool had_failed_attempt = false;
  TransferOutcome outcome = transfer_once(words, out, moved);
  for (;;) {
    if (outcome == TransferOutcome::kOk) {
      if (had_failed_attempt) {
        ledger_.append(fault::FaultEventKind::kRecovered,
                       sim().now().picoseconds(), site_id_, cfg_.staging_base,
                       attempt);
        ++stats_.transfer_faults_recovered;
      }
      return outcome;
    }
    had_failed_attempt = true;
    if (outcome == TransferOutcome::kIntegrity &&
        recovery.policy == drcf::RecoveryPolicy::kScrub && scrubs_left > 0) {
      // The staged copy is assumed good (the push completed): re-pull only.
      --scrubs_left;
      ledger_.append(fault::FaultEventKind::kScrub, sim().now().picoseconds(),
                     site_id_, cfg_.staging_base, 0);
      outcome = pull_and_parse(words.size(), out, moved);
      continue;
    }
    if (recovery.policy == drcf::RecoveryPolicy::kRetryBackoff &&
        attempt < recovery.max_attempts) {
      ++attempt;
      ledger_.append(fault::FaultEventKind::kRetry, sim().now().picoseconds(),
                     site_id_, cfg_.staging_base, attempt);
      if (!backoff.is_zero()) kern::wait(backoff);
      backoff = backoff * 2;
      outcome = transfer_once(words, out, moved);
      continue;
    }
    return outcome;  // terminal under kFailFast / kFallbackContext
  }
}

MigrationResult MigrationController::migrate(drcf::Drcf& src, usize src_ctx,
                                             drcf::Drcf& dst, usize dst_ctx) {
  auto snap = src.checkpoint_task(src_ctx);
  if (!snap.has_value()) {
    MigrationResult res;
    res.status = MigrationStatus::kCheckpointRefused;
    ++stats_.failed_migrations;
    ledger_.append(fault::FaultEventKind::kMigrateError,
                   sim().now().picoseconds(), site_id_, 0,
                   static_cast<u64>(src_ctx));
    return res;
  }
  ++stats_.checkpoints;
  return migrate_state(*snap, dst, dst_ctx);
}

MigrationResult MigrationController::migrate_state(
    const drcf::TaskState& state, drcf::Drcf& dst, usize dst_ctx) {
  MigrationResult res;
  const std::vector<bus::word> words = state.to_words();
  drcf::TaskState pulled;
  u64 moved = 0;
  const TransferOutcome outcome =
      transfer_with_recovery(words, dst.config().recovery, &pulled, &moved);
  stats_.state_words_moved += moved;
  res.words_moved = moved;
  if (outcome != TransferOutcome::kOk) {
    res.status = outcome == TransferOutcome::kBusError
                     ? MigrationStatus::kTransferError
                     : MigrationStatus::kIntegrityError;
    ++stats_.failed_migrations;
    ledger_.append(fault::FaultEventKind::kMigrateError,
                   sim().now().picoseconds(), site_id_, cfg_.staging_base,
                   static_cast<u64>(res.status));
    log::warn() << name() << ": migration of context " << state.context_id
                << " failed in transfer (" << to_string(res.status) << ")";
    return res;
  }
  const drcf::RestoreError re = dst.restore_task(dst_ctx, pulled);
  if (re != drcf::RestoreError::kNone) {
    // The destination fabric already appended its own kMigrateError entry.
    res.status = MigrationStatus::kRestoreRejected;
    res.restore_error = re;
    ++stats_.failed_migrations;
    log::warn() << name() << ": restore into context " << dst_ctx << " on "
                << dst.name() << " rejected (" << drcf::to_string(re) << ")";
    return res;
  }
  ++stats_.restores;
  ++stats_.migrations;
  return res;
}

}  // namespace adriatic::soc
