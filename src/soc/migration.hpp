// MigrationController: moves a checkpointed hardware task between two DRCF
// instances, using real bus traffic for the state transfer
// (Wicaksana et al.'s heterogeneous context-switch method on top of the
// paper's DRCF model).
//
// The transfer is the modeled cost of migration: the serialized TaskState is
// pushed to a staging buffer in memory and pulled back out in bursts, so
// arbiter statistics, fault interposers and the loose-timed direct path all
// see it. A fault injected mid-transfer triggers the *destination* fabric's
// RecoveryPolicy ladder: kRetryBackoff re-runs the transfer with exponential
// backoff, kScrub re-pulls a payload that failed its integrity check, and
// kFailFast/kFallbackContext fail the migration terminally — the checkpoint
// is non-destructive, so the task stays runnable on the source.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bus/interfaces.hpp"
#include "drcf/drcf.hpp"
#include "drcf/task_state.hpp"
#include "fault/interposer.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "kernel/module.hpp"
#include "kernel/port.hpp"

namespace adriatic::soc {

struct MigrationConfig {
  /// Word address of the staging buffer the serialized state is pushed to
  /// (and pulled from) during a transfer. Must be mapped writable memory,
  /// large enough for TaskState::kHeaderWords + the largest window.
  bus::addr_t staging_base = 0;
  /// Words per bus burst during the transfer.
  u32 burst = 16;
  /// Bus priority of state-transfer traffic.
  u32 priority = 0;
  /// Fault plan applied to the transfer path only (a master-path interposer
  /// between the controller and its mst_port binding). Empty = no injection
  /// and no interposer.
  fault::FaultPlan transfer_faults;
};

struct MigrationStats {
  u64 migrations = 0;        ///< Completed DRCF-to-DRCF migrations.
  u64 checkpoints = 0;       ///< Source checkpoints taken by this controller.
  u64 restores = 0;          ///< Destination restores that succeeded.
  u64 state_words_moved = 0; ///< Transfer words pushed + pulled (incl. retries).
  u64 transfer_faults_recovered = 0;  ///< Transfers that succeeded after
                                      ///  at least one failed attempt.
  u64 failed_migrations = 0; ///< Migrations that failed terminally.
};

enum class MigrationStatus : u8 {
  kOk = 0,
  kCheckpointRefused = 1,  ///< Source context was not quiescent.
  kTransferError = 2,      ///< Bus push/pull failed after recovery.
  kIntegrityError = 3,     ///< Pulled image failed its check after recovery.
  kRestoreRejected = 4,    ///< Destination fabric rejected the restore.
};

[[nodiscard]] const char* to_string(MigrationStatus status);

struct MigrationResult {
  MigrationStatus status = MigrationStatus::kOk;
  drcf::RestoreError restore_error = drcf::RestoreError::kNone;
  u64 words_moved = 0;  ///< Transfer words this migration put on the bus.
  [[nodiscard]] bool ok() const noexcept {
    return status == MigrationStatus::kOk;
  }
};

class MigrationController : public kern::Module {
 public:
  MigrationController(kern::Object& parent, std::string name,
                      MigrationConfig cfg = {});

  /// Master port the state transfer travels over; bind to the system bus
  /// (or a direct link) after elaboration.
  kern::Port<bus::BusMasterIf> mst_port;

  /// Checkpoint `src_ctx` on `src`, transfer the state over the bus, and
  /// restore it into `dst_ctx` on `dst`. Must be called from a simulation
  /// thread (the transfer blocks on bus arbitration).
  MigrationResult migrate(drcf::Drcf& src, usize src_ctx, drcf::Drcf& dst,
                          usize dst_ctx);

  /// Transfer + restore of an already-captured state (e.g. a snapshot the
  /// scheduler parked at preemption, via Drcf::take_parked_snapshot).
  MigrationResult migrate_state(const drcf::TaskState& state, drcf::Drcf& dst,
                                usize dst_ctx);

  [[nodiscard]] const MigrationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MigrationConfig& config() const noexcept { return cfg_; }
  /// Faults injected into and observed on the transfer path. Kept separate
  /// from the fabrics' ledgers: a clean migration leaves both untouched.
  [[nodiscard]] const fault::FaultLedger& fault_ledger() const noexcept {
    return ledger_;
  }

 private:
  /// Outcome of one complete push+pull+verify transfer attempt.
  enum class TransferOutcome : u8 { kOk = 0, kBusError = 1, kIntegrity = 2 };

  /// The master interface transfers go through: the fault interposer when a
  /// transfer_faults plan is configured, the bare mst_port binding otherwise.
  [[nodiscard]] bus::BusMasterIf& transfer_master();
  /// One transfer attempt: chunked burst-write of `words` to the staging
  /// buffer, chunked burst-read back, parse + integrity check into `out`.
  TransferOutcome transfer_once(const std::vector<bus::word>& words,
                                drcf::TaskState* out, u64* moved);
  /// Pull-only half of a transfer (the scrub re-fetch path).
  TransferOutcome pull_and_parse(usize n_words, drcf::TaskState* out,
                                 u64* moved);
  /// The full transfer with the destination's RecoveryConfig applied.
  TransferOutcome transfer_with_recovery(const std::vector<bus::word>& words,
                                         const drcf::RecoveryConfig& recovery,
                                         drcf::TaskState* out, u64* moved);

  MigrationConfig cfg_;
  MigrationStats stats_;
  fault::FaultLedger ledger_;
  std::unique_ptr<fault::BusFaultInterposer> transfer_interposer_;
  u64 site_id_ = 0;
};

}  // namespace adriatic::soc
