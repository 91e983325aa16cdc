// Differential checkpoint-equivalence suite for task migration: running a
// chunked job to completion on fabric A must be functionally identical to
// running it halfway, checkpointing, migrating the state over the bus and
// resuming on fabric B — across timing modes, loose quanta, prefetch
// policies and fault plans that interrupt the transfer. Plus table-driven
// negative restore tests (a bad state is rejected loudly and never corrupts
// a running context) and preemptive-checkpoint parking.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/accel_lib.hpp"
#include "conformance/migration_harness.hpp"
#include "conformance/scenarios.hpp"
#include "drcf/task_state.hpp"
#include "kernel/sched_trace.hpp"
#include "kernel/simulation.hpp"
#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"
#include "soc/hwacc.hpp"
#include "soc/migration.hpp"
#include "transform/transform.hpp"
#include "util/random.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using conformance::MigrationRunResult;
using conformance::MigrationSpec;
using conformance::ScenarioOptions;
using conformance::run_migration;

struct TimingPoint {
  kern::TimingMode mode;
  kern::Time quantum;
  const char* label;
};

std::vector<TimingPoint> timing_points() {
  return {{kern::TimingMode::kTimed, kern::Time::zero(), "timed"},
          {kern::TimingMode::kLoose, 10_ns, "loose_10ns"},
          {kern::TimingMode::kLoose, 100_ns, "loose_100ns"},
          {kern::TimingMode::kLoose, 10_us, "loose_10us"}};
}

/// Two scripted bus errors on the transfer path; the destination ladder
/// (retry with backoff) must absorb both.
void arm_transfer_faults(MigrationSpec* spec) {
  fault::ScriptedFault shot;
  shot.kind = fault::FaultKind::kError;
  shot.count = 2;
  spec->transfer_faults.seed = 0x516;
  spec->transfer_faults.scripted.push_back(shot);
  spec->dst_recovery.policy = drcf::RecoveryPolicy::kRetryBackoff;
  spec->dst_recovery.max_attempts = 4;
  spec->dst_recovery.backoff = 100_ns;
}

// --- the differential suite -------------------------------------------------

TEST(MigrationDifferentialTest, CheckpointEquivalenceSweep) {
  const drcf::PrefetchPolicy policies[] = {
      drcf::PrefetchPolicy::kOnDemand, drcf::PrefetchPolicy::kStaticNext,
      drcf::PrefetchPolicy::kHistory, drcf::PrefetchPolicy::kHybrid};
  for (const bool faulted : {false, true}) {
    for (const auto policy : policies) {
      std::optional<MigrationRunResult> timed_migrated;
      for (const auto& tp : timing_points()) {
        SCOPED_TRACE(std::string(faulted ? "faulted" : "clean") + " policy " +
                     std::to_string(static_cast<int>(policy)) + " " +
                     tp.label);
        ScenarioOptions opt;
        opt.timing_mode = tp.mode;
        opt.quantum = tp.quantum;

        MigrationSpec spec;
        spec.prefetch_policy = policy;
        spec.cache_slots = 2;
        if (faulted) arm_transfer_faults(&spec);

        MigrationSpec straight_spec = spec;
        straight_spec.migrate = false;
        const auto straight = run_migration(straight_spec, opt);
        const auto migrated = run_migration(spec, opt);

        ASSERT_TRUE(straight.cpu_finished);
        ASSERT_TRUE(migrated.cpu_finished);
        ASSERT_TRUE(migrated.migration.ok())
            << soc::to_string(migrated.migration.status);

        // The headline equivalence: identical functional outputs, identical
        // fabric fault-ledger functional digests.
        EXPECT_EQ(migrated.scenario.output_digest,
                  straight.scenario.output_digest);
        EXPECT_EQ(migrated.src_ledger_digest, straight.src_ledger_digest);
        EXPECT_EQ(migrated.dst_ledger_digest, straight.dst_ledger_digest);

        // Migration accounting fires exactly once — and never on the
        // straight run.
        EXPECT_EQ(straight.controller.migrations, 0u);
        EXPECT_EQ(straight.controller.state_words_moved, 0u);
        EXPECT_EQ(straight.src_stats.checkpoints, 0u);
        EXPECT_EQ(migrated.controller.migrations, 1u);
        EXPECT_EQ(migrated.controller.checkpoints, 1u);
        EXPECT_EQ(migrated.controller.restores, 1u);
        EXPECT_EQ(migrated.src_stats.checkpoints, 1u);
        EXPECT_EQ(migrated.dst_stats.restores, 1u);
        EXPECT_GT(migrated.controller.state_words_moved,
                  static_cast<u64>(drcf::TaskState::kHeaderWords));
        EXPECT_EQ(migrated.migration.words_moved,
                  migrated.controller.state_words_moved);

        if (faulted) {
          EXPECT_EQ(migrated.controller.transfer_faults_recovered, 1u);
          // The transfer faults land in the controller's own ledger, not the
          // fabrics' — and they did land.
          EXPECT_NE(migrated.controller_ledger_digest,
                    straight.controller_ledger_digest);
        } else {
          EXPECT_EQ(migrated.controller.transfer_faults_recovered, 0u);
          EXPECT_EQ(migrated.controller_ledger_digest,
                    straight.controller_ledger_digest);
        }

        // Cross-timing-mode invariance of the migrated run itself.
        if (tp.mode == kern::TimingMode::kTimed) {
          EXPECT_EQ(migrated.scenario.loose_syncs, 0u);
          timed_migrated = migrated;
        } else {
          ASSERT_TRUE(timed_migrated.has_value());
          EXPECT_GT(migrated.scenario.loose_syncs, 0u);
          EXPECT_EQ(migrated.scenario.output_digest,
                    timed_migrated->scenario.output_digest);
          EXPECT_EQ(migrated.scenario.fault_ledger_digest,
                    timed_migrated->scenario.fault_ledger_digest);
          EXPECT_EQ(migrated.controller_ledger_digest,
                    timed_migrated->controller_ledger_digest);
        }
      }
    }
  }
}

TEST(MigrationPreemptTest, ParkedSnapshotMigratesAndMatchesStraightRun) {
  MigrationSpec spec;
  spec.preempt = true;
  spec.cache_slots = 2;
  MigrationSpec straight_spec = spec;
  straight_spec.migrate = false;
  for (const auto& tp : timing_points()) {
    SCOPED_TRACE(tp.label);
    ScenarioOptions opt;
    opt.timing_mode = tp.mode;
    opt.quantum = tp.quantum;
    const auto straight = run_migration(straight_spec, opt);
    const auto migrated = run_migration(spec, opt);
    ASSERT_TRUE(straight.cpu_finished);
    ASSERT_TRUE(migrated.cpu_finished);
    ASSERT_TRUE(migrated.migration.ok())
        << soc::to_string(migrated.migration.status);
    EXPECT_EQ(migrated.scenario.output_digest,
              straight.scenario.output_digest);
    // The state came from the scheduler's eviction-time park, not from a
    // live checkpoint by the controller.
    EXPECT_GE(migrated.src_stats.preempt_parks, 1u);
    EXPECT_GE(migrated.src_stats.checkpoints, 1u);
    EXPECT_EQ(migrated.controller.checkpoints, 0u);
    EXPECT_EQ(migrated.controller.migrations, 1u);
    EXPECT_EQ(migrated.controller.restores, 1u);
    EXPECT_EQ(migrated.dst_stats.restores, 1u);
  }
}

// --- negative restore tests -------------------------------------------------

/// A minimal single-fabric rig the restore tests poke at directly (the
/// checkpoint/restore side-door needs no running simulation).
struct RestoreRig {
  kern::Simulation sim;
  std::unique_ptr<netlist::Elaborated> e;
  drcf::Drcf* fabric = nullptr;

  RestoreRig() {
    netlist::Design d;
    netlist::BusDecl bus_decl;
    bus_decl.config.cycle_time = 10_ns;
    d.add("system_bus", bus_decl);
    netlist::MemoryDecl ram;
    ram.low = 0x1000;
    ram.words = 1024;
    ram.bus = "system_bus";
    d.add("ram", ram);
    netlist::MemoryDecl cfg;
    cfg.low = 0x100000;
    cfg.words = 1u << 16;
    cfg.bus = "system_bus";
    d.add("cfg_mem", cfg);
    netlist::HwAccelDecl acc;
    acc.base = 0x100;
    acc.spec = accel::make_crc_spec();
    acc.slave_bus = acc.master_bus = "system_bus";
    d.add("acc", acc);
    transform::TransformOptions topt;
    topt.drcf_config.technology = drcf::varicore_like();
    topt.config_memory = "cfg_mem";
    const std::vector<std::string> candidates{"acc"};
    const auto report = transform::transform_to_drcf(d, candidates, topt);
    if (!report.ok) throw std::runtime_error("transform failed");
    e = std::make_unique<netlist::Elaborated>(sim, d);
    fabric = &e->get_drcf(report.drcf_name);
  }
};

TEST(MigrationRestoreNegativeTest, BadStatesAreRejectedLoudlyAndHarmlessly) {
  RestoreRig rig;
  auto base = rig.fabric->checkpoint_task(0);
  ASSERT_TRUE(base.has_value());
  ASSERT_NE(base->config_digest, 0u)
      << "elaboration should have armed the context's expected digest";

  struct Case {
    const char* name;
    usize ctx;
    std::function<void(drcf::TaskState&)> corrupt;
    drcf::RestoreError want;
  };
  const Case cases[] = {
      {"digest_mismatch", 0,
       [](drcf::TaskState& s) { s.config_digest ^= 0xDEADBEEFu; },
       drcf::RestoreError::kDigestMismatch},
      {"truncated_image", 0,
       [](drcf::TaskState& s) { s.image.pop_back(); },
       drcf::RestoreError::kTruncatedImage},
      {"geometry_mismatch", 0,
       [](drcf::TaskState& s) {
         s.window_words += 4;
         s.image.resize(s.window_words, 0);
       },
       drcf::RestoreError::kGeometryMismatch},
      {"unknown_context", 7, [](drcf::TaskState&) {},
       drcf::RestoreError::kUnknownContext},
  };

  u64 rejects = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    drcf::TaskState bad = *base;
    c.corrupt(bad);
    EXPECT_EQ(rig.fabric->restore_task(c.ctx, bad), c.want);
    ++rejects;
    // Loud: a typed error plus a ledger entry plus a stats bump.
    EXPECT_EQ(rig.fabric->stats().restore_rejects, rejects);
    EXPECT_EQ(rig.fabric->fault_ledger().count(
                  fault::FaultEventKind::kMigrateError),
              rejects);
    // Harmless: the live context is untouched by a rejected restore.
    auto after = rig.fabric->checkpoint_task(0);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->image, base->image);
  }

  // The untampered state still restores cleanly afterwards.
  EXPECT_EQ(rig.fabric->restore_task(0, *base), drcf::RestoreError::kNone);
  EXPECT_EQ(rig.fabric->stats().restores, 1u);
}

TEST(MigrationTraceTest, CheckpointAndRestoreEmitMigrateRecords) {
  struct Collector : kern::SchedulerObserver {
    u64 migrates = 0;
    void on_record(const kern::SchedRecord& r) override {
      if (r.kind == kern::SchedRecord::Kind::kMigrate) ++migrates;
    }
  };
  RestoreRig rig;
  Collector obs;
  rig.sim.set_observer(&obs);
  auto snap = rig.fabric->checkpoint_task(0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(obs.migrates, 1u);
  EXPECT_EQ(rig.fabric->restore_task(0, *snap), drcf::RestoreError::kNone);
  EXPECT_EQ(obs.migrates, 2u);
}

// --- serialized-form negatives ----------------------------------------------

TEST(TaskStateSerializationTest, RoundTripAndNegatives) {
  drcf::TaskState s;
  s.context_id = 3;
  s.config_digest = 0x1234'5678'9ABC'DEF0ULL;
  s.window_words = 8;
  s.progress_cursor = 99;
  s.image = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto words = s.to_words();
  ASSERT_EQ(words.size(), drcf::TaskState::kHeaderWords + 8);

  drcf::TaskState out;
  ASSERT_EQ(drcf::TaskState::parse(words, &out), drcf::RestoreError::kNone);
  EXPECT_EQ(out.context_id, s.context_id);
  EXPECT_EQ(out.config_digest, s.config_digest);
  EXPECT_EQ(out.window_words, s.window_words);
  EXPECT_EQ(out.progress_cursor, s.progress_cursor);
  EXPECT_EQ(out.image, s.image);

  auto bad = words;
  bad[0] ^= 1;  // wrong magic
  EXPECT_EQ(drcf::TaskState::parse(bad, &out),
            drcf::RestoreError::kBadHeader);

  const std::vector<bus::word> shorty(words.begin(), words.begin() + 4);
  EXPECT_EQ(drcf::TaskState::parse(shorty, &out),
            drcf::RestoreError::kBadHeader);

  bad = words;
  bad.pop_back();  // payload shorter than the header promises
  EXPECT_EQ(drcf::TaskState::parse(bad, &out),
            drcf::RestoreError::kTruncatedImage);

  bad = words;
  bad[drcf::TaskState::kHeaderWords] ^= 4;  // one flipped payload bit
  EXPECT_EQ(drcf::TaskState::parse(bad, &out),
            drcf::RestoreError::kDigestMismatch);
}

// --- registry wiring --------------------------------------------------------

TEST(MigrationScenarioTest, GoldenScenariosAreRegisteredAndRun) {
  const auto& names = conformance::scenario_names();
  ASSERT_GE(names.size(), 3u);
  // Appended strictly after every pre-existing scenario, so the golden
  // file's earlier lines never move.
  EXPECT_EQ(names[names.size() - 3], "migrate_clean");
  EXPECT_EQ(names[names.size() - 2], "migrate_preempt");
  EXPECT_EQ(names[names.size() - 1], "migrate_faulted_transfer");
  for (const auto& name :
       {"migrate_clean", "migrate_preempt", "migrate_faulted_transfer"}) {
    SCOPED_TRACE(name);
    const auto r = conformance::run_scenario(name);
    ASSERT_TRUE(r.has_value());
    EXPECT_GT(r->records, 0u);
    EXPECT_NE(r->output_digest, 0u);
    EXPECT_NE(r->fault_ledger_digest, 0u);
  }
}

}  // namespace
}  // namespace adriatic
