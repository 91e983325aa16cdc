// Campaign engine tests: N independent simulations across a worker pool
// must produce bit-exact the same results as running them serially on one
// thread, metrics must come back in submission order, and a throwing job
// must reach its future without harming the pool.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/worker_pool.hpp"
#include "conformance/migration_harness.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "util/random.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {
namespace {

using kern::Time;

// A seed-parameterised mini system: a producer drives a signal with random
// timed writes, an observer folds every change into a digest, and the final
// digest also covers the kernel's own counters — any scheduling divergence
// between runs of the same seed shows up bit-exactly.
std::vector<u64> run_seeded_sim(u64 seed) {
  Xoshiro256 rng(seed);
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Signal<u32> sig(top, "sig");
  std::vector<u64> digest;

  kern::SpawnOptions opts;
  opts.sensitivity = {&sig.value_changed_event()};
  opts.dont_initialize = true;
  top.spawn_method("obs", [&] {
    digest.push_back(sim.now().picoseconds() ^ (u64{sig.read()} << 32));
  }, opts);
  top.spawn_thread("producer", [&] {
    const int steps = 50 + static_cast<int>(rng.next_below(50));
    for (int i = 0; i < steps; ++i) {
      kern::wait(Time::ns(1 + rng.next_below(20)));
      sig.write(static_cast<u32>(rng.next_below(1u << 30)));
    }
  });
  // Exercise the cancel/renotify (compaction) path inside campaign jobs too.
  kern::Event scratch(sim, "scratch");
  top.spawn_thread("canceller", [&] {
    for (int i = 0; i < 200; ++i) {
      scratch.notify(Time::us(10));
      kern::wait(Time::ns(3));
      scratch.cancel();
    }
  });
  sim.run();
  digest.push_back(sim.now().picoseconds());
  digest.push_back(sim.delta_count());
  digest.push_back(sim.activations());
  return digest;
}

TEST(CampaignTest, ParallelMatchesSerialBitExact) {
  constexpr usize kJobs = 32;
  constexpr usize kThreads = 4;

  // Serial reference: same factories, main thread, in order.
  std::vector<std::vector<u64>> serial;
  for (usize j = 0; j < kJobs; ++j) serial.push_back(run_seeded_sim(j + 1));

  CampaignRunner runner(kThreads);
  ASSERT_EQ(runner.thread_count(), kThreads);
  std::vector<std::future<std::vector<u64>>> futures;
  for (usize j = 0; j < kJobs; ++j) {
    futures.push_back(runner.submit("seed" + std::to_string(j + 1),
                                    [j] { return run_seeded_sim(j + 1); }));
  }
  for (usize j = 0; j < kJobs; ++j) {
    EXPECT_EQ(futures[j].get(), serial[j]) << "job " << j << " diverged";
  }
}

TEST(CampaignTest, StatsComeBackInSubmissionOrder) {
  CampaignRunner runner(3);
  std::vector<std::future<u64>> futures;
  for (usize j = 0; j < 9; ++j) {
    futures.push_back(
        runner.submit("job" + std::to_string(j), [j](JobContext& ctx) {
          kern::Simulation sim;
          kern::Module top(sim, "top");
          top.spawn_thread("t", [&, j] {
            for (usize i = 0; i <= j; ++i) kern::wait(Time::ns(10));
          });
          sim.run();
          ctx.record(sim);
          return sim.delta_count();
        }));
  }
  for (auto& f : futures) f.get();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 9u);
  for (usize j = 0; j < 9; ++j) {
    EXPECT_EQ(stats[j].index, j);
    EXPECT_EQ(stats[j].label, "job" + std::to_string(j));
    EXPECT_TRUE(stats[j].done);
    EXPECT_FALSE(stats[j].failed);
    // Each job waited (j+1) x 10 ns of simulated time.
    EXPECT_EQ(stats[j].sim_time, Time::ns(10 * (j + 1)));
    EXPECT_GT(stats[j].delta_count, 0u);
  }
}

TEST(CampaignTest, JobFailureDoesNotTakeDownThePool) {
  CampaignRunner runner(4);
  auto bad = runner.submit("bad", []() -> int {
    throw std::runtime_error("boom at elaboration");
  });
  std::vector<std::future<int>> good;
  for (int j = 0; j < 12; ++j) {
    good.push_back(runner.submit("good" + std::to_string(j), [j] {
      kern::Simulation sim;
      kern::Module top(sim, "top");
      int wakes = 0;
      top.spawn_thread("t", [&] {
        for (int i = 0; i < 5; ++i) {
          kern::wait(Time::ns(1));
          ++wakes;
        }
      });
      sim.run();
      return wakes * (j + 1);
    }));
  }
  EXPECT_THROW(bad.get(), std::runtime_error);
  for (int j = 0; j < 12; ++j)
    EXPECT_EQ(good[static_cast<usize>(j)].get(), 5 * (j + 1));
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 13u);
  EXPECT_TRUE(stats[0].failed);
  EXPECT_EQ(stats[0].error, "boom at elaboration");
  for (usize j = 1; j < stats.size(); ++j) EXPECT_FALSE(stats[j].failed);
}

TEST(CampaignTest, ReportJsonIsBalancedAndComplete) {
  CampaignRunner runner(2);
  std::vector<std::future<int>> futures;
  for (int j = 0; j < 4; ++j)
    futures.push_back(runner.submit("j" + std::to_string(j), [j] {
      kern::Simulation sim;
      kern::Module top(sim, "top");
      top.spawn_thread("t", [] { kern::wait(Time::ns(5)); });
      sim.run();
      return j;
    }));
  for (auto& f : futures) f.get();
  runner.wait_idle();
  const std::string json =
      report_json("unit", runner.thread_count(), runner.stats());
  EXPECT_NE(json.find("\"campaign\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"j3\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  // Crude balance check: equal numbers of braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(CampaignTest, RunInlineMatchesWorkerBookkeeping) {
  // The serial path (dse_explorer --serial) must produce the same records a
  // pool worker would: label, submission index, kernel counters, done flag.
  std::vector<JobStats> records;
  const auto digest = run_inline("seeded", records, [](JobContext& ctx) {
    kern::Simulation sim;
    kern::Module top(sim, "top");
    top.spawn_thread("t", [] { kern::wait(Time::ns(7)); });
    sim.run();
    ctx.record(sim);
    return sim.now().picoseconds();
  });
  EXPECT_EQ(digest, 7'000u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 0u);
  EXPECT_EQ(records[0].label, "seeded");
  EXPECT_TRUE(records[0].done);
  EXPECT_FALSE(records[0].failed);
  EXPECT_EQ(records[0].sim_time, Time::ns(7));
  EXPECT_GT(records[0].delta_count, 0u);

  // A throwing job is recorded (done + failed) and the exception escapes.
  EXPECT_THROW(run_inline("boom", records,
                          [] { throw std::runtime_error("inline boom"); }),
               std::runtime_error);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].index, 1u);
  EXPECT_TRUE(records[1].done);
  EXPECT_TRUE(records[1].failed);
  EXPECT_EQ(records[1].error, "inline boom");
}

TEST(CampaignTest, RecordedDigestAppearsInReport) {
  // A job that records a scheduler-trace digest gets it into JobStats and
  // the JSON report (16 hex digits); jobs that record none emit no field.
  std::vector<JobStats> records;
  run_inline("traced", records, [](JobContext& ctx) {
    ctx.record_digest(0x00ab'cdef'0123'4567ull);
  });
  run_inline("untraced", records, [] {});
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].digest, 0x00ab'cdef'0123'4567ull);
  EXPECT_EQ(records[1].digest, 0u);
  const std::string json = report_json("unit", 1, records);
  EXPECT_NE(json.find("\"digest\":\"00abcdef01234567\""), std::string::npos);
  EXPECT_EQ(json.find("\"digest\""), json.rfind("\"digest\""));
}

TEST(CampaignTest, ReportFlagsUnfinishedRecords) {
  // stats() taken before wait_idle() can contain placeholder records; the
  // report must flag them instead of presenting their zeros as metrics.
  std::vector<JobStats> stats(2);
  stats[0].index = 0;
  stats[0].label = "finished";
  stats[0].done = true;
  stats[0].wall_seconds = 0.5;
  stats[0].delta_count = 10;
  stats[1].index = 1;
  stats[1].label = "queued";
  const std::string json = report_json("unit", 1, stats);
  EXPECT_NE(json.find("\"label\":\"finished\",\"done\":true"),
            std::string::npos);
  EXPECT_NE(json.find("\"label\":\"queued\",\"done\":false"),
            std::string::npos);
  // Totals count only the finished job's metrics.
  EXPECT_NE(json.find("\"jobs\":2,\"done\":1,\"failed\":0,"
                      "\"cpu_seconds\":0.5,\"delta_cycles\":10"),
            std::string::npos);
}

TEST(CampaignTest, RetrySucceedsOnLaterAttempt) {
  CampaignRunner runner(2);
  JobOptions opt;
  opt.max_attempts = 3;
  auto flaky = runner.submit("flaky", opt, [](JobContext& ctx) {
    if (ctx.attempt() < 3) throw std::runtime_error("transient");
    return 42;
  });
  EXPECT_EQ(flaky.get(), 42);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].done);
  EXPECT_FALSE(stats[0].failed);
  EXPECT_FALSE(stats[0].quarantined);
  EXPECT_EQ(stats[0].attempts, 3u);
}

TEST(CampaignTest, RetriesExhaustedReportFinalError) {
  CampaignRunner runner(1);
  JobOptions opt;
  opt.max_attempts = 2;
  auto doomed = runner.submit("doomed", opt,
                              []() -> int { throw std::runtime_error("permanent"); });
  EXPECT_THROW(doomed.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].failed);
  EXPECT_EQ(stats[0].error, "permanent");
  EXPECT_EQ(stats[0].attempts, 2u);
  EXPECT_FALSE(stats[0].quarantined);
}

TEST(CampaignTest, WatchdogQuarantinesHungJob) {
  CampaignRunner runner(2);
  JobOptions opt;
  opt.wall_timeout_seconds = 0.15;
  auto hung = runner.submit("hung", opt, [](JobContext& ctx) {
    kern::Simulation sim;
    kern::Module top(sim, "top");
    top.spawn_thread("spin", [] {
      for (;;) kern::wait(Time::us(1));  // simulates forever
    });
    auto g = ctx.guard(sim);
    sim.run();  // only the watchdog's request_stop() can end this
    return ctx.attempt_timed_out() ? -1 : 0;
  });
  // A well-behaved sibling on the same pool is unaffected.
  auto good = runner.submit("good", [] {
    kern::Simulation sim;
    kern::Module top(sim, "top");
    top.spawn_thread("t", [] { kern::wait(Time::ns(5)); });
    sim.run();
    return 7;
  });
  EXPECT_THROW(hung.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 7);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_FALSE(stats[0].done);  // quarantined records stay unfinished
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "wall-clock timeout");
  EXPECT_TRUE(stats[1].done);
  EXPECT_FALSE(stats[1].quarantined);
}

TEST(CampaignTest, ReportCarriesQuarantineAndFaultFields) {
  std::vector<JobStats> stats(2);
  stats[0].index = 0;
  stats[0].label = "clean";
  stats[0].done = true;
  stats[0].has_faults = true;
  stats[0].fetch_errors = 2;
  stats[0].faults_injected = 3;
  stats[0].fault_events = 5;
  stats[0].fault_digest = 0x0123'4567'89ab'cdefull;
  stats[1].index = 1;
  stats[1].label = "stuck";
  stats[1].attempts = 2;
  stats[1].quarantined = true;
  stats[1].quarantine_reason = "wall-clock timeout";
  const std::string json = report_json("unit", 1, stats);
  EXPECT_NE(json.find("\"faults\":{\"fetch_errors\":2,\"injected\":3,"
                      "\"events\":5,\"ledger_digest\":\"0123456789abcdef\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"attempts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\":true,"
                      "\"quarantine_reason\":\"wall-clock timeout\""),
            std::string::npos);
  EXPECT_NE(json.find("\"quarantined\":1"), std::string::npos);  // totals
  EXPECT_NE(json.find("\"fetch_errors\":2,\"faults_injected\":3"),
            std::string::npos);  // totals tail
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(CampaignTest, RequestStopIsSafeFromAnotherThread) {
  // The watchdog's only interface to a running job: request_stop() from a
  // foreign thread must end an otherwise-unbounded run().
  kern::Simulation sim;
  kern::Module top(sim, "top");
  top.spawn_thread("spin", [] {
    for (;;) kern::wait(Time::us(1));
  });
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sim.request_stop();
  });
  const auto reason = sim.run();
  stopper.join();
  EXPECT_EQ(reason, kern::StopReason::kExplicitStop);
}

/// An unbounded job body: its simulation only ends via request_stop().
int run_forever(JobContext& ctx) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  top.spawn_thread("spin", [] {
    for (;;) kern::wait(Time::us(1));
  });
  auto g = ctx.guard(sim);
  sim.run();
  return 0;
}

TEST(CampaignTest, RealSignalHandlerStopsTheSweep) {
  // End-to-end graceful shutdown: a *real* SIGINT delivered to this process
  // lands in the installed handler, the runner's watchdog observes the flag
  // and broadcasts request_stop() into every guarded simulation.
  install_stop_signal_handlers();
  clear_signal_stop();
  CampaignRunner runner(2);
  runner.enable_signal_stop();
  auto a = runner.submit("a", run_forever);
  auto b = runner.submit("b", run_forever);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_THROW(a.get(), std::runtime_error);
  EXPECT_THROW(b.get(), std::runtime_error);
  runner.wait_idle();
  EXPECT_TRUE(signal_stop_requested());
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const JobStats& s : stats) {
    EXPECT_FALSE(s.done);  // partial results never masquerade as complete
    EXPECT_TRUE(s.quarantined);
    EXPECT_EQ(s.quarantine_reason, "interrupted");
  }
  clear_signal_stop();
}

TEST(CampaignTest, RequestStopAllInterruptsRunningAndPendingJobs) {
  CampaignRunner runner(1);  // one worker: the second job stays queued
  auto running = runner.submit("running", run_forever);
  auto pending = runner.submit("pending", run_forever);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  runner.request_stop_all();
  EXPECT_THROW(running.get(), std::runtime_error);
  EXPECT_THROW(pending.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_TRUE(stats[1].quarantined);
  // The pending job was cancelled before its simulation ever ran.
  EXPECT_EQ(stats[1].sim_time, Time::zero());
}

TEST(CampaignTest, StatsIndexLetsResumedJobsKeepTheirSlot) {
  CampaignRunner runner(1);
  JobOptions opt;
  opt.stats_index = 7;  // this submission is job 7 of some earlier campaign
  auto f = runner.submit("late", opt, [] { return 1; });
  EXPECT_EQ(f.get(), 1);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].index, 7u);
  EXPECT_EQ(stats[0].label, "late");
  EXPECT_TRUE(stats[0].done);
}

TEST(CampaignTest, ReportEmitsNullTotalsWhenNothingCompleted) {
  // All-quarantined sweep: averages would be 0/0, so totals must be an
  // explicit null with a reason — not NaN and not a zero-filled object.
  std::vector<JobStats> stats(2);
  stats[0].index = 0;
  stats[0].label = "a";
  stats[0].quarantined = true;
  stats[0].quarantine_reason = "interrupted";
  stats[1].index = 1;
  stats[1].label = "b";
  stats[1].quarantined = true;
  stats[1].quarantine_reason = "wall-clock timeout";
  const std::string json = report_json("doomed", 2, stats);
  EXPECT_NE(json.find("\"totals\":null"), std::string::npos);
  EXPECT_NE(json.find("\"totals_reason\":\"no completed jobs\""),
            std::string::npos);
  EXPECT_EQ(json.find("jobs_per_cpu_second"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);

  const std::string empty = report_json("empty", 1, {});
  EXPECT_NE(empty.find("\"totals\":null"), std::string::npos);
  EXPECT_NE(empty.find("\"totals_reason\":\"no jobs submitted\""),
            std::string::npos);
}

// -- Migration sweep journaling ----------------------------------------------

/// One migration job: a clean two-fabric task handover whose controller
/// counters land in the job's stats (and therefore in the journal's D
/// record and the report's "migration" object).
u64 run_migration_job(bool faulted, JobContext& ctx) {
  conformance::MigrationSpec spec;
  if (faulted) {
    fault::ScriptedFault f;
    f.kind = fault::FaultKind::kError;
    f.count = 2;
    spec.transfer_faults.seed = 0x516;
    spec.transfer_faults.scripted.push_back(f);
    spec.dst_recovery.policy = drcf::RecoveryPolicy::kRetryBackoff;
    spec.dst_recovery.max_attempts = 4;
    spec.dst_recovery.backoff = Time::ns(100);
  }
  const auto r = conformance::run_migration(spec);
  EXPECT_TRUE(r.migration.ok());
  ctx.record_digest(r.scenario.digest);
  ctx.record_migration(r.controller.migrations, r.controller.state_words_moved,
                       r.controller.transfer_faults_recovered);
  return r.controller.state_words_moved;
}

TEST(CampaignTest, MigrationSweepSurvivesSigkillStyleResume) {
  const std::string path =
      testing::TempDir() + "adriatic_campaign_migration.wal";
  std::remove(path.c_str());
  const std::vector<std::string> labels = {"mig_clean", "mig_faulted"};
  const auto job_body = [](usize i) {
    return [i](JobContext& ctx) { return run_migration_job(i == 1, ctx); };
  };

  // The uninterrupted run: both migration jobs complete, journaled.
  std::vector<JobStats> baseline;
  {
    auto journal = CampaignJournal::create(path, "migration_sweep");
    ASSERT_NE(journal, nullptr);
    for (usize i = 0; i < labels.size(); ++i)
      journal->record_planned(i, spec_hash(labels[i]), labels[i]);
    CampaignRunner runner(2);
    runner.set_journal(journal.get());
    std::vector<std::future<u64>> futures;
    for (usize i = 0; i < labels.size(); ++i)
      futures.push_back(runner.submit(labels[i], job_body(i)));
    for (auto& f : futures) EXPECT_GT(f.get(), 0u);
    runner.wait_idle();
    baseline = runner.stats();
  }
  ASSERT_EQ(baseline.size(), 2u);
  for (const JobStats& s : baseline) {
    EXPECT_TRUE(s.has_migration);
    EXPECT_EQ(s.migrations, 1u);
    EXPECT_GT(s.state_words_moved, 0u);
  }
  EXPECT_EQ(baseline[0].transfer_faults_recovered, 0u);
  EXPECT_EQ(baseline[1].transfer_faults_recovered, 1u);

  // Simulate SIGKILL after job 0 committed: keep the journal's header,
  // plan and job-0 records, leave job 1 as a torn half-written D line (the
  // crash cut it off before its checksum).
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<std::string> keep;
    while (std::getline(in, line))
      if (line.rfind("D 1", 0) != 0) keep.push_back(line);
    in.close();
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : keep) out << l << '\n';
    out << "D 1 label=mig_faulted done=1 migrations=";  // torn mid-append
  }

  // Resume: job 0 restores verbatim from its D record, job 1 re-runs, and
  // the merged migration counters match the uninterrupted run exactly.
  const auto state = read_journal(path);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->campaign, "migration_sweep");
  EXPECT_EQ(state->torn_lines, 1u);
  ASSERT_EQ(state->completed.size(), 1u);
  ASSERT_EQ(state->completed.count(0), 1u);

  std::vector<JobStats> resumed(labels.size());
  resumed[0] = state->completed.at(0);
  {
    auto journal = CampaignJournal::append_to(path);
    ASSERT_NE(journal, nullptr);
    CampaignRunner runner(1);
    runner.set_journal(journal.get());
    JobOptions opt;
    opt.stats_index = 1;  // the re-run keeps its original campaign index
    auto f = runner.submit(labels[1], opt, job_body(1));
    EXPECT_GT(f.get(), 0u);
    runner.wait_idle();
    for (const auto& rec : runner.stats()) resumed[rec.index] = rec;
  }
  for (usize i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(resumed[i].label, baseline[i].label);
    EXPECT_TRUE(resumed[i].has_migration) << labels[i];
    EXPECT_EQ(resumed[i].migrations, baseline[i].migrations);
    EXPECT_EQ(resumed[i].state_words_moved, baseline[i].state_words_moved);
    EXPECT_EQ(resumed[i].transfer_faults_recovered,
              baseline[i].transfer_faults_recovered);
    EXPECT_EQ(resumed[i].digest, baseline[i].digest) << labels[i];
  }

  // The resumed journal now shows both jobs done with the right counters.
  const auto final_state = read_journal(path);
  ASSERT_TRUE(final_state.has_value());
  ASSERT_EQ(final_state->completed.size(), 2u);
  EXPECT_EQ(final_state->completed.at(1).state_words_moved,
            baseline[1].state_words_moved);

  // And the report carries a "migration" object for both jobs.
  const std::string json = report_json("migration_sweep", 2, resumed);
  EXPECT_NE(json.find("\"migration\":{\"migrations\":1"), std::string::npos);
  EXPECT_NE(json.find("\"transfer_faults_recovered\":1"), std::string::npos);
  std::remove(path.c_str());
}

// -- Frame codec (process-isolation wire format) -----------------------------

TEST(WorkerPoolTest, FrameCodecRoundTripsAndToleratesTornReads) {
  const std::string payload = "label=x done=1 digest=00000000000000aa";
  const std::string wire = encode_frame(kFrameResult, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());
  EXPECT_EQ(wire[0], kFrameMagic);

  // Feed byte by byte: a torn read never yields a partial frame.
  FrameDecoder dec;
  for (usize i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(&wire[i], 1);
    EXPECT_FALSE(dec.next().has_value()) << "premature frame at byte " << i;
    EXPECT_FALSE(dec.error());
  }
  dec.feed(&wire[wire.size() - 1], 1);
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, kFrameResult);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(dec.next().has_value());

  // Two frames in one buffer (heartbeat then result) decode in order.
  const std::string both =
      encode_frame(kFrameHeartbeat, "") + encode_frame(kFrameResult, "done=1");
  FrameDecoder dec2;
  dec2.feed(both.data(), both.size());
  const auto hb = dec2.next();
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->type, kFrameHeartbeat);
  EXPECT_TRUE(hb->payload.empty());
  const auto res = dec2.next();
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->payload, "done=1");
}

TEST(WorkerPoolTest, FrameDecoderLatchesErrorOnCorruption) {
  // A flipped payload byte fails the checksum: no frame, stream is dead.
  std::string wire = encode_frame(kFrameResult, "label=x done=1");
  wire[kFrameHeaderSize] ^= 0x20;
  FrameDecoder bad_payload;
  bad_payload.feed(wire.data(), wire.size());
  EXPECT_FALSE(bad_payload.next().has_value());
  EXPECT_TRUE(bad_payload.error());

  // A wrong magic byte is a protocol failure immediately.
  std::string bad_magic = encode_frame(kFrameHeartbeat, "");
  bad_magic[0] = 'Z';
  FrameDecoder dec2;
  dec2.feed(bad_magic.data(), bad_magic.size());
  EXPECT_FALSE(dec2.next().has_value());
  EXPECT_TRUE(dec2.error());

  // An absurd length field is corruption, not a pending 4 GB allocation.
  std::string huge = encode_frame(kFrameResult, "x");
  huge[2] = '\xff';
  huge[3] = '\xff';
  huge[4] = '\xff';
  huge[5] = '\xff';
  FrameDecoder dec3;
  dec3.feed(huge.data(), huge.size());
  EXPECT_FALSE(dec3.next().has_value());
  EXPECT_TRUE(dec3.error());
}

/// Restores the process-wide memory budget limit on scope exit (shared
/// singleton — a failing assertion must not leak a tiny limit into later
/// tests).
struct BudgetLimitGuard {
  u64 saved = mem::MemoryBudget::instance().limit_bytes();
  ~BudgetLimitGuard() { mem::MemoryBudget::instance().set_limit_bytes(saved); }
};

TEST(CampaignTest, OverBudgetJobIsQuarantinedNotFailed) {
  BudgetLimitGuard guard;
  auto& budget = mem::MemoryBudget::instance();
  mem::ImageRegistry::instance().drop_unused();
  // One worker: jobs run serially, so the small job cannot race the big one
  // for the shared budget headroom.
  CampaignRunner runner(1);
  budget.set_limit_bytes(budget.resident_bytes() + 4 * mem::kPageBytes);
  auto fits = runner.submit("fits", [](JobContext& ctx) {
    kern::Simulation sim;
    kern::Module top(sim, "top");
    mem::Memory m(top, "small", 0, 2 * mem::kPageWords);
    m.poke(0, 1);  // one resident page: comfortably inside the budget
    sim.run();
    ctx.record(sim);
    ctx.record_memory(m.backing().resident_pages(), 0, 0);
    return 1;
  });
  auto over = runner.submit("over", [](JobContext&) {
    kern::Simulation sim;
    kern::Module top(sim, "top");
    mem::Memory m(top, "big", 0, 64 * mem::kPageWords);
    for (usize p = 0; p < 64; ++p)
      m.poke(static_cast<bus::addr_t>(p * mem::kPageWords), 1);
    return 2;
  });
  EXPECT_EQ(fits.get(), 1);
  EXPECT_THROW(over.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].done);
  EXPECT_TRUE(stats[0].has_memory);
  EXPECT_EQ(stats[0].mem_pages_resident, 1u);
  // Over budget is a structured verdict, not a failure: the job is
  // quarantined with the reason and its high-water mark, failed stays
  // false, and only one attempt ran (a retry would allocate the same
  // pages again).
  EXPECT_FALSE(stats[1].done);
  EXPECT_FALSE(stats[1].failed);
  EXPECT_TRUE(stats[1].quarantined);
  EXPECT_EQ(stats[1].quarantine_reason, "budget-quarantined");
  EXPECT_EQ(stats[1].attempts, 1u);
  EXPECT_TRUE(stats[1].has_memory);
  EXPECT_GT(stats[1].mem_resident_peak_bytes, 0u);
}

TEST(CampaignTest, OverlappingThreadJobsReportTheirSerialPeak) {
  // Each job attaches the same two-page interned image (whichever job
  // interns it first) and materializes its own private pages. Run together
  // on two threads and held at their peak at the same moment, each job
  // still reports exactly the peak it has when run alone.
  const std::vector<bus::word> bits(2 * mem::kPageWords, 0xC0DEu);
  const auto job = [&bits](usize private_pages, std::latch* overlap) {
    return [&bits, private_pages, overlap](JobContext& ctx) {
      kern::Simulation sim;
      kern::Module top(sim, "top");
      mem::Memory m(top, "m", 0, 16 * mem::kPageWords);
      m.attach_image(mem::ImageRegistry::instance().intern(bits), 0);
      for (usize p = 0; p < private_pages; ++p)
        m.poke(static_cast<bus::addr_t>((8 + p) * mem::kPageWords), 1);
      if (overlap != nullptr) overlap->arrive_and_wait();
      ctx.record_memory(m.backing().resident_pages(), 0, 0);
    };
  };
  constexpr usize kPrivate[] = {1, 3};
  std::vector<JobStats> serial;
  for (const usize n : kPrivate)
    run_inline("serial" + std::to_string(n), serial, job(n, nullptr));
  std::latch overlap(2);
  CampaignRunner runner(2);
  for (const usize n : kPrivate)
    (void)runner.submit("overlap" + std::to_string(n), job(n, &overlap));
  runner.wait_idle();
  const auto overlapped = runner.stats();
  ASSERT_EQ(overlapped.size(), 2u);
  for (usize i = 0; i < 2; ++i) {
    EXPECT_EQ(serial[i].mem_resident_peak_bytes,
              (2 + kPrivate[i]) * mem::kPageBytes);
    EXPECT_TRUE(overlapped[i].done);
    EXPECT_EQ(overlapped[i].mem_resident_peak_bytes,
              serial[i].mem_resident_peak_bytes);
  }
}

// -- Process isolation (ExecutionMode::kProcesses) ---------------------------

#define ADRIATIC_SKIP_WITHOUT_FORK()                       \
  do {                                                     \
    if (!ProcessWorkerPool::fork_available())              \
      GTEST_SKIP() << "fork-based isolation unavailable "  \
                      "in this build/environment";         \
  } while (0)

using Body = std::function<void(JobContext&)>;

/// A resolver over fixed bodies, looked up by kind name (params unused).
KindResolver kinds_of(std::map<std::string, Body> bodies) {
  return [bodies = std::move(bodies)](const JobKind& kind,
                                      const std::string&) -> Body {
    const auto it = bodies.find(kind.name);
    return it == bodies.end() ? Body{} : it->second;
  };
}

/// A body that does nothing: the debug failure is the whole job.
const JobKind kNoop{"noop", ""};
const KindResolver kNoopKinds = kinds_of({{"noop", [](JobContext&) {}}});

TEST(CampaignTest, SegfaultingChildIsQuarantinedWithSignalReason) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  CampaignRunner runner(
      2, ExecutionMode::kProcesses,
      kinds_of({{"noop", [](JobContext&) {}},
                {"sim", [](JobContext& ctx) {
                   kern::Simulation sim;
                   kern::Module top(sim, "top");
                   top.spawn_thread("t", [] { kern::wait(Time::ns(5)); });
                   sim.run();
                   ctx.record(sim);
                 }}}));
  ASSERT_EQ(runner.mode(), ExecutionMode::kProcesses);
  JobOptions opt;
  opt.debug_failure = DebugFailure::kSegv;
  opt.max_attempts = 2;
  auto crash = runner.submit_kind("crash", opt, kNoop);
  // A well-behaved sibling in its own child is untouched by the crash.
  auto good = runner.submit_kind("good", {}, {"sim", ""});
  EXPECT_THROW(crash.get(), std::runtime_error);
  good.get();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_FALSE(stats[0].done);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "signal:SIGSEGV");
  EXPECT_EQ(stats[0].worker_deaths, 2u);  // both attempts died by signal
  EXPECT_EQ(stats[0].attempts, 2u);
  EXPECT_TRUE(stats[1].done);
  EXPECT_EQ(stats[1].sim_time, Time::ns(5));
  EXPECT_EQ(stats[1].worker_deaths, 0u);
}

TEST(CampaignTest, ProcessModeSubmitThrowsBeforeForking) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // A forked child builds its job from a kind; a function has none, so it
  // is refused before anything is queued or forked.
  CampaignRunner runner(1, ExecutionMode::kProcesses);
  EXPECT_THROW((void)runner.submit("value", [] { return 7; }),
               std::logic_error);
  JobOptions opt;
  opt.max_attempts = 3;
  EXPECT_THROW((void)runner.submit("void", opt, [](JobContext&) {}),
               std::logic_error);
  runner.wait_idle();
  EXPECT_TRUE(runner.stats().empty());
  EXPECT_EQ(runner.live_children(), 0u);
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);  // nothing was forked
  EXPECT_EQ(errno, ECHILD);
}

// Recurses until the guard page under the fiber stack stops it.
[[gnu::noinline]] u64 recurse_forever(u64 depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == ~u64{0}) return 0;  // never: the guard page hits first
  return recurse_forever(depth + 1) + static_cast<u64>(pad[0]);
}

TEST(CampaignTest, FiberStackOverflowIsQuarantinedAndNamed) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // A thread process that overflows its stack faults on the guard page: the
  // child names the process on stderr, dies by SIGSEGV, and is quarantined,
  // while the rest of the sweep runs clean in its own children.
  testing::internal::CaptureStderr();
  const KindResolver kinds = [](const JobKind& kind,
                                const std::string&) -> Body {
    if (kind.name == "overflow")
      return [](JobContext&) {
        kern::Simulation sim;
        kern::Module top(sim, "top");
        kern::SpawnOptions small;
        small.stack_bytes = 64 * 1024;
        top.spawn_thread("deep", [] { (void)recurse_forever(0); }, small);
        sim.run();
      };
    return [seed = std::stoull(kind.params)](JobContext& ctx) {
      const auto d = run_seeded_sim(seed);
      ctx.record_user_data(std::to_string(d.back()));
    };
  };
  CampaignRunner runner(2, ExecutionMode::kProcesses, kinds);
  ASSERT_EQ(runner.mode(), ExecutionMode::kProcesses);
  constexpr u64 kSeeds[] = {3, 7, 11};
  std::vector<std::future<void>> good;
  for (const u64 seed : kSeeds)
    good.push_back(runner.submit_kind("seed" + std::to_string(seed), {},
                                      {"seed", std::to_string(seed)}));
  JobOptions opt;
  opt.max_attempts = 1;
  auto overflow = runner.submit_kind("overflow", opt, {"overflow", ""});
  EXPECT_THROW(overflow.get(), std::runtime_error);
  for (auto& f : good) f.get();
  runner.wait_idle();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("SIGSEGV in simulation process top.deep"),
            std::string::npos)
      << err;
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 4u);
  for (usize i = 0; i < 3; ++i) {
    EXPECT_TRUE(stats[i].done) << stats[i].label;
    EXPECT_EQ(stats[i].worker_deaths, 0u);
    EXPECT_EQ(stats[i].user_data,
              std::to_string(run_seeded_sim(kSeeds[i]).back()));
  }
  EXPECT_FALSE(stats[3].done);
  EXPECT_TRUE(stats[3].quarantined);
  EXPECT_EQ(stats[3].quarantine_reason, "signal:SIGSEGV");
  EXPECT_EQ(stats[3].worker_deaths, 1u);
}

TEST(CampaignTest, SpinningChildIsKilledByWallDeadline) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  CampaignRunner runner(1, ExecutionMode::kProcesses, kNoopKinds);
  JobOptions opt;
  opt.debug_failure = DebugFailure::kHangCpu;  // heartbeats keep flowing
  opt.wall_timeout_seconds = 0.3;
  opt.heartbeat_timeout_seconds = 10.0;
  auto hung = runner.submit_kind("hung", opt, kNoop);
  EXPECT_THROW(hung.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].done);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "timeout");
  EXPECT_GE(stats[0].worker_deaths, 1u);
}

TEST(CampaignTest, SilentChildIsKilledByHeartbeatTimeout) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  CampaignRunner runner(1, ExecutionMode::kProcesses, kNoopKinds);
  JobOptions opt;
  opt.debug_failure = DebugFailure::kHangSleep;  // blocks its heartbeats
  opt.heartbeat_timeout_seconds = 0.3;
  auto silent = runner.submit_kind("silent", opt, kNoop);
  EXPECT_THROW(silent.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "heartbeat-lost");
}

TEST(CampaignTest, NonZeroExitChildQuarantinesWithExitReason) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  CampaignRunner runner(1, ExecutionMode::kProcesses, kNoopKinds);
  JobOptions opt;
  opt.debug_failure = DebugFailure::kExitCode;
  opt.debug_exit_code = 42;
  auto gone = runner.submit_kind("gone", opt, kNoop);
  EXPECT_THROW(gone.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "exit:42");
}

TEST(CampaignTest, RepeatCrasherSpecIsCrashQuarantined) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  CampaignRunner runner(1, ExecutionMode::kProcesses, kNoopKinds);
  JobOptions opt;
  opt.spec = spec_hash("crasher");
  opt.debug_failure = DebugFailure::kSegv;
  opt.crash_limit = 2;
  opt.max_attempts = 5;  // quarantine must trip before retries run out
  auto first = runner.submit_kind("crasher", opt, kNoop);
  EXPECT_THROW(first.get(), std::runtime_error);
  // The same spec resubmitted never forks again: instant quarantine.
  auto second = runner.submit_kind("crasher again", opt, kNoop);
  EXPECT_THROW(second.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "signal:SIGSEGV");
  EXPECT_EQ(stats[0].attempts, 2u);       // crash_limit, not max_attempts
  EXPECT_EQ(stats[0].worker_deaths, 2u);
  EXPECT_TRUE(stats[1].quarantined);
  EXPECT_EQ(stats[1].quarantine_reason, "crash-quarantined");
  EXPECT_EQ(stats[1].worker_deaths, 0u);  // no child was ever forked
}

TEST(CampaignTest, OverBudgetChildCarriesVerdictAcrossThePipe) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // Same contract as thread mode, but the typed BudgetExceededError is
  // raised inside a forked child: it must come back as the structured
  // `budget-quarantined` verdict (a clean result frame), not as a crash or
  // a worker death.
  BudgetLimitGuard guard;
  auto& budget = mem::MemoryBudget::instance();
  mem::ImageRegistry::instance().drop_unused();
  CampaignRunner runner(1, ExecutionMode::kProcesses,
                        kinds_of({{"over", [](JobContext&) {
                                     kern::Simulation sim;
                                     kern::Module top(sim, "top");
                                     mem::Memory m(top, "big", 0,
                                                   64 * mem::kPageWords);
                                     for (usize p = 0; p < 64; ++p)
                                       m.poke(static_cast<bus::addr_t>(
                                                  p * mem::kPageWords),
                                              1);
                                   }}}));
  budget.set_limit_bytes(budget.resident_bytes() + 4 * mem::kPageBytes);
  auto over = runner.submit_kind("over", {}, {"over", ""});
  EXPECT_THROW(over.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].done);
  EXPECT_FALSE(stats[0].failed);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "budget-quarantined");
  EXPECT_EQ(stats[0].worker_deaths, 0u);  // verdict, not a dead worker
  EXPECT_TRUE(stats[0].has_memory);
  EXPECT_GT(stats[0].mem_resident_peak_bytes, 0u);
}

TEST(CampaignTest, ProcessModeMatchesThreadModeBitExact) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  constexpr u64 kSeeds[] = {3, 7, 11, 13};
  const KindResolver kinds = [](const JobKind& kind, const std::string&) {
    return Body([seed = std::stoull(kind.params)](JobContext& ctx) {
      const auto digest = run_seeded_sim(seed);
      u64 fold = 1469598103934665603ull;
      for (const u64 v : digest) {
        fold ^= v;
        fold *= 1099511628211ull;
      }
      ctx.record_digest(fold);
      ctx.record_user_data(std::to_string(fold));
    });
  };
  const auto sweep = [&](ExecutionMode mode) {
    CampaignRunner runner(2, mode, kinds);
    std::vector<std::future<void>> futures;
    for (const u64 seed : kSeeds)
      futures.push_back(runner.submit_kind("seed" + std::to_string(seed), {},
                                           {"seed", std::to_string(seed)}));
    for (auto& f : futures) f.get();
    runner.wait_idle();
    return runner.stats();
  };
  const auto threads = sweep(ExecutionMode::kThreads);
  const auto processes = sweep(ExecutionMode::kProcesses);
  ASSERT_EQ(threads.size(), processes.size());
  for (usize i = 0; i < threads.size(); ++i) {
    EXPECT_TRUE(processes[i].done);
    EXPECT_EQ(processes[i].digest, threads[i].digest) << "seed job " << i;
    EXPECT_EQ(processes[i].user_data, threads[i].user_data);
    EXPECT_EQ(processes[i].label, threads[i].label);
  }
}

TEST(CampaignTest, ChildFailureReplaysThreadRetrySemantics) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // A child whose body *throws* (no crash) reports the failure over the
  // pipe; the parent replays thread-mode retry semantics on it.
  CampaignRunner runner(1, ExecutionMode::kProcesses,
                        kinds_of({{"flaky", [](JobContext& ctx) {
                                     if (ctx.attempt() < 3)
                                       throw std::runtime_error("transient");
                                   }}}));
  JobOptions opt;
  opt.max_attempts = 3;
  auto flaky = runner.submit_kind("flaky", opt, {"flaky", ""});
  flaky.get();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].done);
  EXPECT_FALSE(stats[0].failed);
  EXPECT_EQ(stats[0].attempts, 3u);
  EXPECT_EQ(stats[0].worker_deaths, 0u);  // clean exits, not crashes
}

TEST(CampaignTest, ForkUnavailableDegradesToThreads) {
  ASSERT_EQ(::setenv("ADRIATIC_NO_FORK", "1", 1), 0);
  EXPECT_FALSE(ProcessWorkerPool::fork_available());
  CampaignRunner runner(2, ExecutionMode::kProcesses);
  EXPECT_EQ(runner.mode(), ExecutionMode::kThreads);  // graceful degrade
  auto f = runner.submit("still-works", [] { return 5; });
  EXPECT_EQ(f.get(), 5);
  runner.wait_idle();
  ASSERT_EQ(::unsetenv("ADRIATIC_NO_FORK"), 0);
}

TEST(CampaignTest, StopHandlersDoNotLeakIntoChildrenAndNoZombiesRemain) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // Children must reset the parent's SIGINT/SIGTERM dispositions: a leaked
  // handler would swallow this child's self-SIGTERM (setting the global
  // stop flag and completing the job); with SIG_DFL restored the child dies
  // by the signal and the supervisor reports it.
  install_stop_signal_handlers();
  clear_signal_stop();
  CampaignRunner runner(
      1, ExecutionMode::kProcesses,
      kinds_of({{"selfterm", [](JobContext&) { std::raise(SIGTERM); }}}));
  JobOptions opt;
  opt.max_attempts = 1;
  auto f = runner.submit_kind("selfterm", opt, {"selfterm", ""});
  EXPECT_THROW(f.get(), std::runtime_error);
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].quarantined);
  EXPECT_EQ(stats[0].quarantine_reason, "signal:SIGTERM");
  EXPECT_EQ(stats[0].worker_deaths, 1u);
  EXPECT_FALSE(signal_stop_requested());  // the parent's flag stayed clear
  // Every forked child was reaped with waitpid: no zombies left behind.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  clear_signal_stop();
}

TEST(CampaignTest, WorkerDeathsLandInJournalAndReport) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  const std::string path = testing::TempDir() + "adriatic_campaign_death.wal";
  std::remove(path.c_str());
  {
    auto journal = CampaignJournal::create(path, "death_sweep");
    ASSERT_NE(journal, nullptr);
    journal->record_planned(0, spec_hash("crash"), "crash");
    CampaignRunner runner(1, ExecutionMode::kProcesses, kNoopKinds);
    runner.set_journal(journal.get());
    JobOptions opt;
    opt.debug_failure = DebugFailure::kSegv;
    opt.max_attempts = 1;
    auto f = runner.submit_kind("crash", opt, kNoop);
    EXPECT_THROW(f.get(), std::runtime_error);
    runner.wait_idle();
    const std::string json =
        report_json("death_sweep", runner.thread_count(), runner.stats());
    EXPECT_NE(json.find("\"worker_deaths\":1"), std::string::npos);
    EXPECT_NE(json.find("\"quarantine_reason\":\"signal:SIGSEGV\""),
              std::string::npos);
  }
  const auto state = read_journal(path);
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->worker_deaths.size(), 1u);
  EXPECT_EQ(state->worker_deaths[0].index, 0u);
  EXPECT_EQ(state->worker_deaths[0].reason, "signal:SIGSEGV");
  std::remove(path.c_str());
}

// -- Child reuse across a backlog of kind jobs -------------------------------

/// Which child ran each job slot, written by the children themselves into
/// memory shared with the test (mapped before any fork). The word after the
/// slots is a release gate: a gated job waits on it, so the jobs the test
/// submits after it form a backlog before the first job finishes. (Shared
/// memory, not a pipe: a child closes every descriptor it inherits.)
class PidLog {
 public:
  static constexpr usize kSlots = 256;
  PidLog() {
    void* p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    pids_ = static_cast<int*>(p);
  }
  ~PidLog() { ::munmap(pids_, kBytes); }
  PidLog(const PidLog&) = delete;
  PidLog& operator=(const PidLog&) = delete;
  void note(usize slot) { pids_[slot] = static_cast<int>(::getpid()); }
  [[nodiscard]] int operator[](usize slot) const { return pids_[slot]; }

  /// Opens the gate; call after the last submit.
  void release() { gate().store(1); }
  /// Waits until release(), polling for at most about 10 s.
  void await_release() {
    for (int i = 0; i < 10'000 && gate().load() == 0; ++i) ::usleep(1000);
  }

 private:
  static constexpr usize kBytes = sizeof(int) * (kSlots + 1);
  [[nodiscard]] std::atomic_ref<int> gate() {
    return std::atomic_ref<int>(pids_[kSlots]);
  }
  int* pids_ = nullptr;
};

/// The descriptors open in this process, "0,1,2,...", without the one the
/// listing itself uses.
std::string open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return "unreadable";
  std::vector<int> fds;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const int fd = std::atoi(e->d_name);
    if (fd != ::dirfd(dir)) fds.push_back(fd);
  }
  ::closedir(dir);
  std::sort(fds.begin(), fds.end());
  std::string out;
  for (const int fd : fds) out += (out.empty() ? "" : ",") + std::to_string(fd);
  return out;
}

/// The registry of the child-reuse tests. Every kind notes the running
/// child in slot <params> (attempt a of "flaky" in slot <params> + a - 1):
///   * "pid" does nothing else;
///   * "fds" lists the child's open descriptors in user_data;
///   * "where" records in user_data whether its body runs in the process
///     that built it ("built here");
///   * "flaky" throws on attempts 1 and 2.
/// The prefix "gated-" makes a job wait for PidLog::release() first.
KindResolver test_kinds(PidLog& log) {
  return [&log](const JobKind& kind, const std::string&) -> Body {
    const usize slot = std::stoul(kind.params);
    const bool gated = kind.name.starts_with("gated-");
    const std::string name = kind.name.substr(gated ? 6 : 0);
    if (name != "pid" && name != "fds" && name != "where" && name != "flaky")
      return {};
    return [&log, slot, gated, name, built = ::getpid()](JobContext& ctx) {
      if (gated) log.await_release();
      if (name == "flaky") {
        log.note(slot + ctx.attempt() - 1);
        if (ctx.attempt() < 3) throw std::runtime_error("transient");
        return;
      }
      log.note(slot);
      if (name == "fds") ctx.record_user_data(open_fds());
      if (name == "where")
        ctx.record_user_data(built == ::getpid() ? "built here"
                                                 : "built elsewhere");
    };
  };
}

/// Submits job <name><slot> of kind <name> with params <slot>.
std::future<void> submit_test_kind(CampaignRunner& runner, usize slot,
                                   JobOptions opt = {},
                                   const std::string& name = "pid") {
  return runner.submit_kind(name + std::to_string(slot), opt,
                            {name, std::to_string(slot)});
}

TEST(ChildReuseTest, KindJobsOfABacklogShareOneChild) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  PidLog log;
  CampaignRunner runner(1, ExecutionMode::kProcesses, test_kinds(log));
  (void)submit_test_kind(runner, 0, {}, "gated-pid");
  for (usize i = 1; i < 6; ++i) (void)submit_test_kind(runner, i);
  log.release();
  runner.wait_idle();
  for (const JobStats& s : runner.stats()) EXPECT_TRUE(s.done) << s.label;
  for (usize i = 1; i < 6; ++i) EXPECT_EQ(log[i], log[0]) << i;
  EXPECT_NE(log[0], ::getpid());
  EXPECT_EQ(runner.live_children(), 0u);
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);  // reaped, no zombie
  EXPECT_EQ(errno, ECHILD);
}

TEST(ChildReuseTest, ThrownAttemptsRetryInFreshChildren) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // The flaky job queues behind a gated one, so its first attempt is a job
  // frame to the live child; each attempt that throws retires that child,
  // and the next attempt runs in a fresh one.
  PidLog log;
  CampaignRunner runner(1, ExecutionMode::kProcesses, test_kinds(log));
  JobOptions opt;
  opt.max_attempts = 3;
  (void)submit_test_kind(runner, 0, {}, "gated-pid");
  (void)submit_test_kind(runner, 1, opt, "flaky");  // slots 1, 2, 3
  log.release();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 2u);
  for (const JobStats& s : stats) EXPECT_TRUE(s.done) << s.label;
  EXPECT_EQ(stats[1].attempts, 3u);
  EXPECT_EQ(stats[1].worker_deaths, 0u);
  EXPECT_EQ(log[1], log[0]);  // the first attempt reused the child
  EXPECT_NE(log[2], log[1]);
  EXPECT_NE(log[3], log[1]);
  EXPECT_NE(log[3], log[2]);
  EXPECT_EQ(runner.live_children(), 0u);
}

TEST(ChildReuseTest, EveryChildBuildsItsOwnBodies) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // A fresh child's first job and a reused child's later jobs alike: the
  // body is built in the child that runs it, never in the parent.
  PidLog log;
  CampaignRunner runner(1, ExecutionMode::kProcesses, test_kinds(log));
  (void)submit_test_kind(runner, 0, {}, "gated-where");
  for (usize i = 1; i < 4; ++i) (void)submit_test_kind(runner, i, {}, "where");
  log.release();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const JobStats& s : stats) {
    EXPECT_TRUE(s.done) << s.label;
    EXPECT_EQ(s.user_data, "built here") << s.label;
  }
  EXPECT_NE(log[0], ::getpid());
  for (usize i = 1; i < 4; ++i) EXPECT_EQ(log[i], log[0]) << i;
}

TEST(CampaignTest, ThreadModeBuildsKindBodiesOnTheWorkerThread) {
  const auto submitter = std::this_thread::get_id();
  const KindResolver kinds = [submitter](const JobKind&, const std::string&) {
    return Body([submitter, built = std::this_thread::get_id()](
                    JobContext& ctx) {
      const bool here =
          built == std::this_thread::get_id() && built != submitter;
      ctx.record_user_data(here ? "built here" : "built elsewhere");
    });
  };
  CampaignRunner runner(2, ExecutionMode::kThreads, kinds);
  for (usize i = 0; i < 4; ++i)
    (void)runner.submit_kind("job" + std::to_string(i), {}, {"any", ""});
  runner.wait_idle();
  for (const JobStats& s : runner.stats()) {
    EXPECT_TRUE(s.done) << s.label;
    EXPECT_EQ(s.user_data, "built here") << s.label;
  }
}

TEST(CampaignTest, ResolverFailuresMatchAcrossModes) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // "digits" builds only from numeric params; any other kind is unknown.
  const KindResolver kinds = [](const JobKind& kind,
                                const std::string&) -> Body {
    const bool digits =
        !kind.params.empty() &&
        kind.params.find_first_not_of("0123456789") == std::string::npos;
    if (kind.name != "digits" || !digits) return {};
    return [](JobContext&) {};
  };
  const auto sweep = [&](ExecutionMode mode) {
    CampaignRunner runner(1, mode, kinds);
    EXPECT_EQ(runner.mode(), mode);
    JobOptions opt;
    opt.max_attempts = 2;
    (void)runner.submit_kind("unknown", opt, {"nope", "1"});
    (void)runner.submit_kind("invalid", opt, {"digits", "x"});
    (void)runner.submit_kind("valid", opt, {"digits", "1"});
    runner.wait_idle();
    return runner.stats();
  };
  const auto threads = sweep(ExecutionMode::kThreads);
  const auto processes = sweep(ExecutionMode::kProcesses);
  ASSERT_EQ(threads.size(), 3u);
  ASSERT_EQ(processes.size(), 3u);
  const char* errors[] = {"no job builder registered for kind 'nope'",
                          "no job builder registered for kind 'digits'"};
  for (usize i = 0; i < 2; ++i) {
    for (const JobStats* s : {&threads[i], &processes[i]}) {
      EXPECT_TRUE(s->failed) << s->label;
      EXPECT_FALSE(s->quarantined) << s->label;
      EXPECT_EQ(s->error, errors[i]);
      EXPECT_EQ(s->attempts, 2u) << s->label;
      EXPECT_EQ(s->worker_deaths, 0u) << s->label;
    }
  }
  EXPECT_TRUE(threads[2].done);
  EXPECT_TRUE(processes[2].done);
}

TEST(ChildReuseTest, ChildIsReplacedAfterItsJobLimit) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  PidLog log;
  CampaignRunner runner(1, ExecutionMode::kProcesses, test_kinds(log));
  static_assert(kJobsPerChild + 2 <= PidLog::kSlots);
  (void)submit_test_kind(runner, 0, {}, "gated-pid");
  for (usize i = 1; i < kJobsPerChild + 2; ++i)
    (void)submit_test_kind(runner, i);
  log.release();
  runner.wait_idle();
  for (usize i = 1; i < kJobsPerChild; ++i) ASSERT_EQ(log[i], log[0]) << i;
  EXPECT_NE(log[kJobsPerChild], log[0]);
  EXPECT_EQ(log[kJobsPerChild + 1], log[kJobsPerChild]);
  EXPECT_EQ(runner.live_children(), 0u);
}

TEST(ChildReuseTest, DrainingJobsHookSeesNoLiveChildren) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  PidLog log;
  constexpr usize kJobs = 12;
  CampaignRunner runner(3, ExecutionMode::kProcesses, test_kinds(log));
  std::atomic<usize> completed{0};
  std::atomic<usize> live_at_drain{~usize{0}};
  runner.set_completion_hook([&](const JobStats&) {
    if (completed.fetch_add(1) + 1 == kJobs)
      live_at_drain.store(runner.live_children());
  });
  for (usize i = 0; i < kJobs; ++i) (void)submit_test_kind(runner, i);
  runner.wait_idle();
  EXPECT_EQ(completed.load(), kJobs);
  EXPECT_EQ(live_at_drain.load(), 0u);
}

TEST(ChildReuseTest, ChildFailuresKeepVerdictsThroughTheKindPath) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // Every failing job follows a clean one on the same worker, so it is
  // handed to a live child as a job frame; the job after it succeeds in a
  // fresh child.
  PidLog log;
  CampaignRunner runner(1, ExecutionMode::kProcesses, test_kinds(log));
  JobOptions segv;
  segv.debug_failure = DebugFailure::kSegv;
  JobOptions hang;
  hang.debug_failure = DebugFailure::kHangCpu;
  hang.wall_timeout_seconds = 0.3;
  JobOptions silent;
  silent.debug_failure = DebugFailure::kHangSleep;
  silent.heartbeat_timeout_seconds = 0.3;
  JobOptions exits;
  exits.debug_failure = DebugFailure::kExitCode;
  exits.debug_exit_code = 42;
  const JobOptions failing[] = {segv, hang, silent, exits};
  usize slot = 0;
  (void)submit_test_kind(runner, slot++, {}, "gated-pid");
  for (const JobOptions& opt : failing) {
    (void)submit_test_kind(runner, slot++, opt);
    (void)submit_test_kind(runner, slot++);
  }
  log.release();
  runner.wait_idle();
  const auto stats = runner.stats();
  ASSERT_EQ(stats.size(), slot);
  const char* verdicts[] = {"signal:SIGSEGV", "timeout", "heartbeat-lost",
                            "exit:42"};
  for (usize f = 0; f < 4; ++f) {
    const JobStats& bad = stats[1 + 2 * f];
    const JobStats& next = stats[2 + 2 * f];
    EXPECT_TRUE(bad.quarantined) << bad.label;
    EXPECT_EQ(bad.quarantine_reason, verdicts[f]);
    EXPECT_EQ(bad.worker_deaths, 1u) << bad.label;
    EXPECT_TRUE(next.done) << next.label;
    EXPECT_EQ(next.worker_deaths, 0u);
    EXPECT_NE(log[2 + 2 * f], log[2 * f]) << "fresh child after " << bad.label;
  }
  EXPECT_EQ(runner.live_children(), 0u);
}

TEST(ChildReuseTest, ChildClosesInheritedDescriptors) {
  ADRIATIC_SKIP_WITHOUT_FORK();
  // Descriptors the parent holds — files, pipes, and the socket of a
  // sibling worker's child — never reach a child, on its first job or on a
  // reused one: it keeps stdio and its own socket end only.
  const int file = ::open("/dev/null", O_RDONLY);
  int pipe_fds[2] = {-1, -1};
  ASSERT_GE(file, 0);
  ASSERT_EQ(::pipe(pipe_fds), 0);
  PidLog log;
  CampaignRunner runner(2, ExecutionMode::kProcesses, test_kinds(log));
  // Both workers' first jobs wait at the gate, so each worker finds the
  // rest queued when its first job ends.
  for (usize i = 0; i < 6; ++i)
    (void)submit_test_kind(runner, i, JobOptions{},
                           i < 2 ? "gated-fds" : "fds");
  log.release();
  runner.wait_idle();
  const auto stats = runner.stats();
  bool reused = false;
  for (usize i = 0; i < stats.size(); ++i) {
    ASSERT_TRUE(stats[i].done) << stats[i].label;
    const auto fds = split(stats[i].user_data, ',');
    ASSERT_EQ(fds.size(), 4u) << stats[i].user_data;
    EXPECT_EQ(fds[0], "0");
    EXPECT_EQ(fds[1], "1");
    EXPECT_EQ(fds[2], "2");
    for (usize j = 0; j < i; ++j) reused |= log[j] == log[i];
  }
  EXPECT_TRUE(reused) << "no job ran in a reused child";
  ::close(file);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

}  // namespace
}  // namespace adriatic::campaign
