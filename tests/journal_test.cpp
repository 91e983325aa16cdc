// Crash-safe campaign journal tests: append/read round trips, torn-line
// recovery, last-record-wins semantics, spec-hash identity, and concurrent
// appends through the group-commit writer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "kernel/time.hpp"
#include "util/log.hpp"

namespace adriatic::campaign {
namespace {

/// Unique temp path per test; removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "adriatic_journal_" + tag + ".wal";
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

JobStats sample_stats(usize index) {
  JobStats s;
  s.index = index;
  s.label = "policy a/r 5";  // space forces percent-encoding
  s.done = true;
  s.wall_seconds = 0.125;
  s.sim_time = kern::Time::ns(420);
  s.delta_count = 99;
  s.activations = 1234;
  s.digest = 0xdeadbeefcafef00dull;
  s.attempts = 2;
  s.has_faults = true;
  s.fetch_errors = 3;
  s.faults_injected = 4;
  s.fault_events = 7;
  s.fault_digest = 0x0123456789abcdefull;
  s.has_prefetch = true;
  s.prefetch_hits = 11;
  s.cache_hits = 17;
  s.config_words_fetched = 2048;
  s.hidden_latency = kern::Time::ns(640);
  s.has_timing = true;
  s.loose = true;
  s.quantum = kern::Time::ns(250);
  s.loose_syncs = 37;
  s.has_migration = true;
  s.migrations = 2;
  s.state_words_moved = 68;
  s.transfer_faults_recovered = 1;
  s.has_memory = true;
  s.mem_resident_peak_bytes = 5 * 4096;
  s.mem_pages_resident = 5;
  s.mem_cow_splits = 3;
  s.mem_shared_pages = 2;
  s.ecc_corrected = 9;
  s.ecc_uncorrectable = 1;
  s.worker_deaths = 2;
  s.from_cache = true;
  s.user_data = "cell a\tcell b\x1f" "1.5";  // tool payload, control chars
  return s;
}

TEST(JournalTest, RoundTripRestoresCompletedStats) {
  TempPath tmp("roundtrip");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_planned(1, spec_hash("b", 42), "b");
    j->record_begun(0, 1);
    j->record_done(sample_stats(0));
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->campaign, "unit_sweep");
  EXPECT_EQ(state->torn_lines, 0u);
  EXPECT_EQ(state->begun_records, 1u);
  ASSERT_EQ(state->planned.size(), 2u);
  EXPECT_EQ(state->planned.at(0).spec, spec_hash("a"));
  EXPECT_EQ(state->planned.at(1).spec, spec_hash("b", 42));
  EXPECT_EQ(state->planned.at(1).label, "b");

  ASSERT_EQ(state->completed.size(), 1u);
  const JobStats& s = state->completed.at(0);
  const JobStats ref = sample_stats(0);
  EXPECT_EQ(s.label, ref.label);
  EXPECT_TRUE(s.done);
  EXPECT_DOUBLE_EQ(s.wall_seconds, ref.wall_seconds);
  EXPECT_EQ(s.sim_time, ref.sim_time);
  EXPECT_EQ(s.delta_count, ref.delta_count);
  EXPECT_EQ(s.activations, ref.activations);
  EXPECT_EQ(s.digest, ref.digest);
  EXPECT_EQ(s.attempts, ref.attempts);
  EXPECT_TRUE(s.has_faults);
  EXPECT_EQ(s.fetch_errors, ref.fetch_errors);
  EXPECT_EQ(s.faults_injected, ref.faults_injected);
  EXPECT_EQ(s.fault_events, ref.fault_events);
  EXPECT_EQ(s.fault_digest, ref.fault_digest);
  EXPECT_TRUE(s.has_prefetch);
  EXPECT_EQ(s.prefetch_hits, ref.prefetch_hits);
  EXPECT_EQ(s.cache_hits, ref.cache_hits);
  EXPECT_EQ(s.config_words_fetched, ref.config_words_fetched);
  EXPECT_EQ(s.hidden_latency, ref.hidden_latency);
  EXPECT_TRUE(s.has_timing);
  EXPECT_TRUE(s.loose);
  EXPECT_EQ(s.quantum, ref.quantum);
  EXPECT_EQ(s.loose_syncs, ref.loose_syncs);
  EXPECT_TRUE(s.has_migration);
  EXPECT_EQ(s.migrations, ref.migrations);
  EXPECT_EQ(s.state_words_moved, ref.state_words_moved);
  EXPECT_EQ(s.transfer_faults_recovered, ref.transfer_faults_recovered);
  EXPECT_TRUE(s.has_memory);
  EXPECT_EQ(s.mem_resident_peak_bytes, ref.mem_resident_peak_bytes);
  EXPECT_EQ(s.mem_pages_resident, ref.mem_pages_resident);
  EXPECT_EQ(s.mem_cow_splits, ref.mem_cow_splits);
  EXPECT_EQ(s.mem_shared_pages, ref.mem_shared_pages);
  EXPECT_EQ(s.ecc_corrected, ref.ecc_corrected);
  EXPECT_EQ(s.ecc_uncorrectable, ref.ecc_uncorrectable);
  EXPECT_EQ(s.worker_deaths, ref.worker_deaths);
  EXPECT_TRUE(s.from_cache);
  EXPECT_EQ(s.user_data, ref.user_data);
}

/// A failed job without fault or prefetch counters that ran timed (not
/// loose): covers tmode=timed, the error key, and a migration block with no
/// memory block.
JobStats failed_timed_stats(usize index) {
  JobStats s;
  s.index = index;
  s.label = "broken";
  s.done = true;
  s.failed = true;
  s.error = "bad \"cfg\" word";
  s.wall_seconds = 0.5;
  s.sim_time = kern::Time::ps(1500);
  s.delta_count = 3;
  s.activations = 8;
  s.has_timing = true;
  s.quantum = kern::Time::ps(1500);
  s.has_migration = true;
  s.migrations = 1;
  s.state_words_moved = 16;
  return s;
}

// The next three tests pin the D-record tail and the report document byte
// for byte: existing journals, cache files, worker frames and reports must
// keep decoding and diffing after any change to how they are produced.
TEST(JournalTest, EncodedTailPinsEveryGroupInOrder) {
  EXPECT_EQ(encode_job_stats(sample_stats(0)),
            "label=policy%20a/r%205 done=1 failed=0 quarantined=0 attempts=2"
            " wall=0.125 sim_ps=420000 deltas=99 activations=1234"
            " digest=deadbeefcafef00d"
            " fetch_errors=3 injected=4 fault_events=7"
            " fault_digest=0123456789abcdef"
            " prefetch_hits=11 cache_hits=17 cfg_words=2048 hidden_ps=640000"
            " tmode=loose quantum_ps=250000 loose_syncs=37"
            " migrations=2 state_words=68 mig_recovered=1"
            " mem_peak=20480 mem_pages=5 mem_splits=3 mem_shared=2"
            " ecc_cor=9 ecc_unc=1"
            " deaths=2 cached=1 udata=cell%20a%09cell%20b%1F1.5");
}

TEST(JournalTest, EncodedTailPinsTimedModeAndError) {
  EXPECT_EQ(encode_job_stats(failed_timed_stats(1)),
            "label=broken done=1 failed=1 quarantined=0 attempts=1"
            " wall=0.5 sim_ps=1500 deltas=3 activations=8"
            " digest=0000000000000000 error=bad%20\"cfg\"%20word"
            " tmode=timed quantum_ps=1500 loose_syncs=0"
            " migrations=1 state_words=16 mig_recovered=0");
}

TEST(JournalTest, ReportJsonPinsPerJobBlocks) {
  JobStats plain;
  plain.index = 2;
  plain.label = "plain";
  plain.done = true;
  plain.wall_seconds = 0.25;
  const std::vector<JobStats> jobs = {sample_stats(0), failed_timed_stats(1),
                                      plain};
  // The report puts memory before migration; the D record the reverse.
  EXPECT_EQ(
      report_json("pinned", 2, jobs),
      R"({"campaign":"pinned","threads":2,"jobs":[)"
      R"({"index":0,"label":"policy a/r 5","done":true,"wall_seconds":0.125,)"
      R"("sim_time_ns":420,"delta_cycles":99,"activations":1234,)"
      R"("digest":"deadbeefcafef00d","failed":false,"attempts":2,)"
      R"("cached":true,"worker_deaths":2,)"
      R"("faults":{"fetch_errors":3,"injected":4,"events":7,)"
      R"("ledger_digest":"0123456789abcdef"},)"
      R"("prefetch":{"prefetch_hits":11,"cache_hits":17,)"
      R"("config_words_fetched":2048,"hidden_latency_ns":640},)"
      R"("timing":{"mode":"loose","quantum_ns":250,"loose_syncs":37},)"
      R"("memory":{"resident_peak_bytes":20480,"pages_resident":5,)"
      R"("cow_splits":3,"shared_pages":2,"ecc_corrected":9,)"
      R"("ecc_uncorrectable":1},)"
      R"("migration":{"migrations":2,"state_words_moved":68,)"
      R"("transfer_faults_recovered":1}},)"
      R"({"index":1,"label":"broken","done":true,"wall_seconds":0.5,)"
      R"("sim_time_ns":1.5,"delta_cycles":3,"activations":8,"failed":true,)"
      R"("error":"bad \"cfg\" word",)"
      R"("timing":{"mode":"timed","quantum_ns":1.5,"loose_syncs":0},)"
      R"("migration":{"migrations":1,"state_words_moved":16,)"
      R"("transfer_faults_recovered":0}},)"
      R"({"index":2,"label":"plain","done":true,"wall_seconds":0.25,)"
      R"("sim_time_ns":0,"delta_cycles":0,"activations":0,"failed":false}],)"
      R"("totals":{"jobs":3,"done":3,"failed":1,"cpu_seconds":0.875,)"
      R"("delta_cycles":102,"quarantined":0,"fetch_errors":3,)"
      R"("faults_injected":4,"cache_hits":1,"worker_deaths":2,)"
      R"("resident_peak_bytes":20480,"cow_splits":3,"ecc_corrected":9,)"
      R"("ecc_uncorrectable":1,"jobs_per_cpu_second":3.42857}})");
}

TEST(JournalTest, PlainStatsEmitNoProcessOrCacheKeys) {
  // Thread-mode jobs that never forked and never hit the cache must keep
  // the pre-process-isolation D-record byte format: the new keys are
  // strictly opt-in, so old readers and golden journals stay valid.
  JobStats s;
  s.index = 0;
  s.label = "plain";
  s.done = true;
  const std::string tail = encode_job_stats(s);
  EXPECT_EQ(tail.find("deaths="), std::string::npos);
  EXPECT_EQ(tail.find("cached="), std::string::npos);
  EXPECT_EQ(tail.find("udata="), std::string::npos);
  // Memory/ECC keys (new in v9) are likewise opt-in via record_memory().
  EXPECT_EQ(tail.find("mem_peak="), std::string::npos);
  EXPECT_EQ(tail.find("ecc_cor="), std::string::npos);
}

TEST(JournalTest, UnfinishedResultStaysRerunnable) {
  TempPath tmp("rerunnable");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    JobStats s;
    s.index = 0;
    s.label = "a";
    s.done = false;  // interrupted / quarantined: must re-run on resume
    s.quarantined = true;
    s.quarantine_reason = "interrupted";
    j->record_done(s);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->completed.empty());
}

TEST(JournalTest, LastRecordPerJobWins) {
  TempPath tmp("lastwins");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    JobStats first = sample_stats(0);
    first.digest = 1;
    j->record_done(first);
  }
  {
    // A resume appends; its fresh result supersedes the original one.
    auto j = CampaignJournal::append_to(tmp.str());
    ASSERT_NE(j, nullptr);
    JobStats second = sample_stats(0);
    second.digest = 2;
    j->record_done(second);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->completed.size(), 1u);
  EXPECT_EQ(state->completed.at(0).digest, 2u);
}

TEST(JournalTest, TornTailLineIsDroppedNotFatal) {
  TempPath tmp("torn");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_done(sample_stats(0));
  }
  {
    // Simulate SIGKILL mid-append: a D record cut off before its checksum.
    std::ofstream out(tmp.str(), std::ios::app);
    out << "D 1 label=b done=1 wall=0.5";  // no cks=, no newline
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 1u);
  ASSERT_EQ(state->completed.size(), 1u);  // intact records all survive
  EXPECT_EQ(state->completed.count(1), 0u);
}

TEST(JournalTest, CorruptedByteFailsTheLineChecksum) {
  TempPath tmp("flip");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
  }
  std::string content;
  {
    std::ifstream in(tmp.str());
    std::getline(in, content, '\0');
  }
  const auto pos = content.find("P 0");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 2] = '7';  // flip the index inside the checksummed region
  {
    std::ofstream out(tmp.str(), std::ios::trunc);
    out << content;
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 1u);
  EXPECT_TRUE(state->planned.empty());
}

TEST(JournalTest, MissingFileOrMissingHeaderIsNullopt) {
  EXPECT_FALSE(read_journal(testing::TempDir() + "does_not_exist.wal")
                   .has_value());
  TempPath tmp("noheader");
  {
    std::ofstream out(tmp.str());
    out << "not a journal\n";
  }
  EXPECT_FALSE(read_journal(tmp.str()).has_value());
}

TEST(JournalTest, LabelsWithSpacesAndNewlinesRoundTrip) {
  TempPath tmp("encode");
  const std::string label = "odd label\nwith newline % and percent";
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(3, spec_hash(label), label);
    JobStats s;
    s.index = 3;
    s.label = label;
    s.done = true;
    s.failed = true;
    s.error = "exception: bad thing happened";
    j->record_done(s);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->planned.count(3), 1u);
  EXPECT_EQ(state->planned.at(3).label, label);
  ASSERT_EQ(state->completed.count(3), 1u);
  EXPECT_EQ(state->completed.at(3).label, label);
  EXPECT_EQ(state->completed.at(3).error, "exception: bad thing happened");
}

TEST(JournalTest, SpecHashCoversLabelAndParams) {
  EXPECT_EQ(spec_hash("a"), spec_hash("a"));
  EXPECT_NE(spec_hash("a"), spec_hash("b"));
  EXPECT_NE(spec_hash("a", 1), spec_hash("a", 2));
  EXPECT_NE(spec_hash("a"), spec_hash("a", 1));
}

TEST(JournalTest, WorkerDeathAndCacheHitLinesRoundTrip) {
  TempPath tmp("xc");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("a"), "a");
    j->record_worker_death(0, "signal:SIGSEGV");
    j->record_worker_death(3, "exit code 42 (oom)");  // space-encoding path
    j->record_cache_hit(spec_hash("a"));
    j->record_cache_hit(0x0123456789abcdefull);
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 0u);
  ASSERT_EQ(state->worker_deaths.size(), 2u);
  EXPECT_EQ(state->worker_deaths[0].index, 0u);
  EXPECT_EQ(state->worker_deaths[0].reason, "signal:SIGSEGV");
  EXPECT_EQ(state->worker_deaths[1].index, 3u);
  EXPECT_EQ(state->worker_deaths[1].reason, "exit code 42 (oom)");
  ASSERT_EQ(state->cache_hits.size(), 2u);
  EXPECT_EQ(state->cache_hits[0], spec_hash("a"));
  EXPECT_EQ(state->cache_hits[1], 0x0123456789abcdefull);
}

TEST(JournalTest, TornWorkerDeathAndCacheLinesAreDroppedNotFatal) {
  TempPath tmp("xctorn");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    j->record_worker_death(0, "timeout");
    j->record_cache_hit(7);
  }
  {
    // SIGKILL mid-append: an X and a C record cut off before their
    // checksums must drop without losing the intact records above them.
    std::ofstream out(tmp.str(), std::ios::app);
    out << "X 1 signal:SIG\n"
        << "C 0123";  // no cks=, no newline
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 2u);
  ASSERT_EQ(state->worker_deaths.size(), 1u);
  EXPECT_EQ(state->worker_deaths[0].reason, "timeout");
  ASSERT_EQ(state->cache_hits.size(), 1u);
  EXPECT_EQ(state->cache_hits[0], 7u);
}

TEST(JournalTest, RunnerJournalsEveryJobLifecycle) {
  TempPath tmp("runner");
  {
    auto j = CampaignJournal::create(tmp.str(), "pool");
    ASSERT_NE(j, nullptr);
    j->record_planned(0, spec_hash("ok"), "ok");
    j->record_planned(1, spec_hash("boom"), "boom");
    CampaignRunner runner(2);
    runner.set_journal(j.get());
    auto ok = runner.submit("ok", [] { return 1; });
    auto boom = runner.submit("boom", [] {
      throw std::runtime_error("boom");
      return 0;
    });
    EXPECT_EQ(ok.get(), 1);
    EXPECT_THROW(boom.get(), std::runtime_error);
    runner.wait_idle();
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->begun_records, 2u);
  // Both ran to completion (one failed) — both journal as done, and the
  // failure is restored with its message.
  ASSERT_EQ(state->completed.size(), 2u);
  EXPECT_FALSE(state->completed.at(0).failed);
  EXPECT_TRUE(state->completed.at(1).failed);
  EXPECT_EQ(state->completed.at(1).error, "boom");
}

TEST(JournalTest, ConcurrentMixedAppendsReadBackWhole) {
  // Worker threads append every record kind at once: synced D/X records
  // group-commit while unsynced P/B/C records keep landing between them.
  // Every line must come back intact, none interleaved mid-line.
  constexpr usize kThreads = 8;
  constexpr usize kPerThread = 25;
  TempPath tmp("concurrent");
  {
    auto j = CampaignJournal::create(tmp.str(), "unit_sweep");
    ASSERT_NE(j, nullptr);
    std::vector<std::thread> threads;
    for (usize t = 0; t < kThreads; ++t) {
      threads.emplace_back([&j, t] {
        for (usize k = 0; k < kPerThread; ++k) {
          const usize index = t * kPerThread + k;
          const std::string label = "job " + std::to_string(index);
          j->record_planned(index, spec_hash(label), label);
          j->record_begun(index, 1);
          j->record_worker_death(index, "signal:SIGKILL");
          JobStats s = sample_stats(index);
          s.label = label;
          j->record_done(s);
          j->record_cache_hit(spec_hash(label));
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const auto state = read_journal(tmp.str());
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->torn_lines, 0u);
  constexpr usize kJobs = kThreads * kPerThread;
  EXPECT_EQ(state->planned.size(), kJobs);
  EXPECT_EQ(state->begun_records, kJobs);
  EXPECT_EQ(state->worker_deaths.size(), kJobs);
  EXPECT_EQ(state->cache_hits.size(), kJobs);
  ASSERT_EQ(state->completed.size(), kJobs);
  for (usize index = 0; index < kJobs; ++index) {
    const std::string label = "job " + std::to_string(index);
    ASSERT_EQ(state->planned.count(index), 1u) << index;
    EXPECT_EQ(state->planned.at(index).label, label);
    EXPECT_EQ(state->planned.at(index).spec, spec_hash(label));
    ASSERT_EQ(state->completed.count(index), 1u) << index;
    EXPECT_EQ(state->completed.at(index).label, label);
    EXPECT_EQ(state->completed.at(index).digest, sample_stats(0).digest);
  }
}

TEST(JournalTest, FailedFsyncIsReportedAndNeverCountsAsSynced) {
  // fsync() on a pipe fails (EINVAL): every sync must say so and log it,
  // and the failed range must stay unsynced, so the next sync retries.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<std::string> errors;
  log::set_sink([&errors](log::Level level, const std::string& msg) {
    if (level == log::Level::kError) errors.push_back(msg);
  });
  {
    LineWriter w(fds[1], "test-pipe", "test writer");
    const u64 end = w.append("P 0 0000000000000000 a").value_or(0);
    EXPECT_GT(end, 0u);
    EXPECT_FALSE(w.sync(end));
    EXPECT_FALSE(w.sync(end));
    EXPECT_FALSE(w.sync());
  }
  log::set_sink(nullptr);
  ::close(fds[0]);
  ASSERT_GE(errors.size(), 3u);
  EXPECT_NE(errors[0].find("fsync failed on test-pipe"), std::string::npos)
      << errors[0];
}

}  // namespace
}  // namespace adriatic::campaign
