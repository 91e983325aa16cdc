// Tests for the sweep session (service/sweep.hpp), the one run path behind
// fault_sweep and dse_explorer, driven with the deterministic `golden` kind:
//
//  * a journaled run then a resume restores the finished prefix verbatim
//    and re-runs only the rest; a journal from another campaign or with a
//    different plan is refused;
//  * a warm cache serves every job flagged from_cache with one journal C
//    record per hit; --verify-resume counts a digest mismatch;
//  * local-only kinds never touch the cache, and --server, --serial and
//    --resume refuse them;
//  * a kind whose body throws is reported failed and never cached, in
//    serial, thread, process and --server mode;
//  * serial, thread, process and in-process-server runs give equal stats
//    once wall clock and the cache flag are dropped;
//  * fault_point and dse_point jobs run back to back in one reused process
//    child give the stats they give in fresh children.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "campaign/worker_pool.hpp"
#include "service/jobs.hpp"
#include "service/server.hpp"
#include "service/sweep.hpp"

namespace adriatic {
namespace {

// Sockets cap at ~107 bytes, so every file lives under a short /tmp name,
// unique per process and call.
std::string temp_path(const char* tag, const char* ext) {
  static std::atomic<int> counter{0};
  return "/tmp/adriatic_sw_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ext;
}

/// Wall clock and the cache flag are the only fields a cache, journal or
/// service round trip may change.
std::string normalized(campaign::JobStats stats) {
  stats.wall_seconds = 0;
  stats.from_cache = false;
  return campaign::encode_job_stats(stats);
}

service::ServiceJob golden_job(usize index, u64 seed) {
  service::ServiceJob job;
  job.index = index;
  job.spec = service::golden_spec_hash(seed);
  job.kind = "golden";
  job.label = "golden" + std::to_string(seed);
  job.params["seed"] = std::to_string(seed);
  return job;
}

std::vector<service::ServiceJob> golden_jobs(const std::vector<u64>& seeds) {
  std::vector<service::ServiceJob> jobs;
  for (const u64 seed : seeds) jobs.push_back(golden_job(jobs.size(), seed));
  return jobs;
}

service::SweepOptions pool_options(const char* campaign) {
  service::SweepOptions opt;
  opt.campaign = campaign;
  opt.threads = 2;
  return opt;
}

/// A kind whose body always throws.
service::JobBuilder throwing_kind() {
  return [](const std::string&, const service::ParamMap&) {
    return std::optional<service::JobBody>{
        [](campaign::JobContext&) { throw std::runtime_error("boom"); }};
  };
}

/// The golden builder, to register under another (local-only) kind name.
service::JobBuilder golden_builder() {
  const auto kinds = service::builtin_kinds();
  return *service::find_kind(kinds, "golden");
}

/// Rewrites a journal without the D records of the given indices, as if the
/// sweep had been killed before those jobs finished.
void drop_done_records(const std::string& path,
                       const std::vector<usize>& indices) {
  std::ifstream in(path);
  std::stringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    bool drop = false;
    for (const usize i : indices)
      drop |= line.rfind("D " + std::to_string(i) + " ", 0) == 0;
    if (!drop) kept << line << '\n';
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << kept.str();
}

struct LiveServer {
  explicit LiveServer(service::ServerOptions opt) : server(std::move(opt)) {}
  ~LiveServer() { server.stop(); }
  service::CampaignServer server;
};

TEST(SweepTest, ResumeRestoresFinishedPrefixWithoutRerunning) {
  const auto jobs = golden_jobs({3, 5, 8, 13});
  const std::string wal = temp_path("resume", ".wal");
  auto opt = pool_options("sweep-test");
  opt.journal_path = wal;
  const auto first = service::run_sweep(jobs, opt);
  ASSERT_TRUE(first.started);
  ASSERT_EQ(first.exit_status(), 0);
  for (const auto& s : first.stats) ASSERT_TRUE(s.done) << s.label;

  drop_done_records(wal, {2, 3});
  const auto before = campaign::read_journal(wal);
  ASSERT_TRUE(before.has_value());
  ASSERT_EQ(before->completed.size(), 2u);

  opt.journal_path.clear();
  opt.resume_path = wal;
  const auto resumed = service::run_sweep(jobs, opt);
  ASSERT_TRUE(resumed.started);
  EXPECT_EQ(resumed.restored, 2u);
  EXPECT_EQ(resumed.cached, 0u);
  ASSERT_EQ(resumed.stats.size(), jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(resumed.stats[i].done) << i;
    EXPECT_EQ(resumed.stats[i].index, i);
    EXPECT_EQ(normalized(resumed.stats[i]), normalized(first.stats[i])) << i;
  }
  // The restored prefix comes back verbatim, wall clock included.
  for (usize i = 0; i < 2; ++i)
    EXPECT_EQ(campaign::encode_job_stats(resumed.stats[i]),
              campaign::encode_job_stats(first.stats[i]));

  // Only the two unfinished jobs began new attempts.
  const auto after = campaign::read_journal(wal);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->begun_records, before->begun_records + 2);
  EXPECT_EQ(after->completed.size(), jobs.size());
  ::unlink(wal.c_str());
}

TEST(SweepTest, ResumeRefusesAnotherCampaignOrADifferentPlan) {
  const auto jobs = golden_jobs({21, 34});
  const std::string wal = temp_path("refuse", ".wal");
  auto opt = pool_options("sweep-a");
  opt.journal_path = wal;
  ASSERT_TRUE(service::run_sweep(jobs, opt).started);

  auto other = pool_options("sweep-b");
  other.resume_path = wal;
  const auto foreign = service::run_sweep(jobs, other);
  EXPECT_FALSE(foreign.started);
  EXPECT_EQ(foreign.exit_status(), 2);

  auto same = pool_options("sweep-a");
  same.resume_path = wal;
  const auto replanned = service::run_sweep(golden_jobs({21, 55}), same);
  EXPECT_FALSE(replanned.started);
  EXPECT_EQ(replanned.exit_status(), 2);

  // The refusals appended nothing: the journal still resumes cleanly.
  const auto ok = service::run_sweep(jobs, same);
  ASSERT_TRUE(ok.started);
  EXPECT_EQ(ok.restored, jobs.size());
  ::unlink(wal.c_str());
}

TEST(SweepTest, WarmCacheServesEveryJobAndJournalsOneHitEach) {
  const auto jobs = golden_jobs({2, 7, 1, 8});
  const std::string cache = temp_path("warm", ".cache");
  const std::string wal = temp_path("warm", ".wal");
  auto opt = pool_options("sweep-cache");
  opt.cache_path = cache;
  const auto cold = service::run_sweep(jobs, opt);
  ASSERT_TRUE(cold.started);
  EXPECT_EQ(cold.cached, 0u);

  opt.journal_path = wal;
  const auto warm = service::run_sweep(jobs, opt);
  ASSERT_TRUE(warm.started);
  EXPECT_EQ(warm.cached, jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(warm.stats[i].from_cache) << i;
    EXPECT_EQ(warm.stats[i].index, i);
    EXPECT_EQ(normalized(warm.stats[i]), normalized(cold.stats[i])) << i;
  }
  const auto state = campaign::read_journal(wal);
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->cache_hits.size(), jobs.size());
  for (usize i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(state->cache_hits[i], jobs[i].spec);
  EXPECT_EQ(state->begun_records, 0u);
  ::unlink(cache.c_str());
  ::unlink(wal.c_str());
}

TEST(SweepTest, VerifyResumeCountsADigestMismatch) {
  const auto jobs = golden_jobs({4, 6, 9});
  auto opt = pool_options("sweep-verify");
  const auto truth = service::run_sweep(jobs, opt);
  ASSERT_TRUE(truth.started);

  // A journal whose job 1 claims a digest the simulation never produces.
  const std::string wal = temp_path("verify", ".wal");
  {
    auto journal = campaign::CampaignJournal::create(wal, "sweep-verify");
    ASSERT_NE(journal, nullptr);
    for (usize i = 0; i < jobs.size(); ++i)
      journal->record_planned(i, jobs[i].spec, jobs[i].label);
    for (usize i = 0; i < jobs.size(); ++i) {
      campaign::JobStats s = truth.stats[i];
      if (i == 1) s.digest ^= 0x5a5a;
      journal->record_done(s);
    }
  }

  opt.resume_path = wal;
  opt.verify_resume = true;
  const auto verified = service::run_sweep(jobs, opt);
  ASSERT_TRUE(verified.started);
  EXPECT_EQ(verified.verified, jobs.size());
  EXPECT_EQ(verified.verify_failures, 1u);
  EXPECT_EQ(verified.restored, 0u);  // verified jobs re-run
  EXPECT_EQ(verified.exit_status(), 4);
  ::unlink(wal.c_str());
}

TEST(SweepTest, LocalOnlyKindsNeverTouchTheCache) {
  auto jobs = golden_jobs({12});
  service::ServiceJob local = golden_job(1, 77);
  local.kind = "test/local";
  jobs.push_back(local);
  const std::string cache = temp_path("local", ".cache");
  {
    // A planted entry under the local job's spec: serving it would be a
    // lookup, replacing it a store.
    auto planted = campaign::ResultCache::open(cache);
    ASSERT_NE(planted, nullptr);
    campaign::JobStats s;
    s.label = "planted";
    s.done = true;
    s.user_data = "planted";
    planted->store(local.spec, s);
  }
  auto opt = pool_options("sweep-local");
  opt.cache_path = cache;
  opt.local_kinds = {{"test/local", golden_builder()}};

  for (int pass = 0; pass < 2; ++pass) {
    const auto r = service::run_sweep(jobs, opt);
    ASSERT_TRUE(r.started);
    EXPECT_TRUE(r.stats[1].done);
    EXPECT_FALSE(r.stats[1].from_cache) << "pass " << pass;
    EXPECT_NE(r.stats[1].user_data, "planted") << "pass " << pass;
    EXPECT_EQ(r.stats[0].from_cache, pass == 1);
    EXPECT_EQ(r.cached, pass == 1 ? 1u : 0u);
  }
  const auto stored = campaign::ResultCache::open(cache);
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->lookup(jobs[0].spec).has_value());
  const auto untouched = stored->lookup(local.spec);
  ASSERT_TRUE(untouched.has_value());
  EXPECT_EQ(untouched->user_data, "planted");
  ::unlink(cache.c_str());

  // --server, --serial and --resume refuse local-only kinds outright.
  for (int mode = 0; mode < 3; ++mode) {
    auto refused = pool_options("sweep-local");
    refused.local_kinds = opt.local_kinds;
    if (mode == 0) refused.server_path = temp_path("local", ".sock");
    if (mode == 1) refused.serial = true;
    if (mode == 2) refused.resume_path = temp_path("local", ".wal");
    const auto r = service::run_sweep(jobs, refused);
    EXPECT_FALSE(r.started) << mode;
    EXPECT_EQ(r.exit_status(), 2) << mode;
  }
}

TEST(SweepTest, ThrowingKindIsFailedAndNeverCachedInEveryMode) {
  auto jobs = golden_jobs({10});
  service::ServiceJob bad;
  bad.index = 1;
  bad.spec = campaign::spec_hash("throws");
  bad.kind = "test/throws";
  bad.label = "throws";
  jobs.push_back(bad);

  const auto check = [&](const service::SweepResult& r, const char* mode) {
    ASSERT_TRUE(r.started) << mode;
    ASSERT_EQ(r.stats.size(), 2u) << mode;
    EXPECT_TRUE(r.stats[0].done) << mode;
    EXPECT_FALSE(r.stats[0].failed) << mode;
    EXPECT_TRUE(r.stats[1].failed) << mode;
    EXPECT_NE(r.stats[1].error.find("boom"), std::string::npos)
        << mode << ": " << r.stats[1].error;
    EXPECT_TRUE(r.stats[1].user_data.empty()) << mode;
  };
  const auto not_cached = [&](const std::string& path, const char* mode) {
    const auto cache = campaign::ResultCache::open(path);
    ASSERT_NE(cache, nullptr) << mode;
    EXPECT_TRUE(cache->lookup(jobs[0].spec).has_value()) << mode;
    EXPECT_FALSE(cache->lookup(bad.spec).has_value()) << mode;
    ::unlink(path.c_str());
  };

  auto serial = pool_options("sweep-throw");
  serial.kinds.emplace_back("test/throws", throwing_kind());
  serial.serial = true;
  check(service::run_sweep(jobs, serial), "serial");

  for (const bool processes : {false, true}) {
    const char* mode = processes ? "processes" : "threads";
    auto opt = pool_options("sweep-throw");
    opt.kinds.emplace_back("test/throws", throwing_kind());
    opt.processes = processes;
    opt.cache_path = temp_path("throw", ".cache");
    check(service::run_sweep(jobs, opt), mode);
    not_cached(opt.cache_path, mode);
  }

  service::ServerOptions so;
  so.socket_path = temp_path("throw", ".sock");
  so.threads = 2;
  so.cache_path = temp_path("throw_srv", ".cache");
  {
    LiveServer live(so);
    live.server.register_kind("test/throws", throwing_kind());
    ASSERT_TRUE(live.server.start());
    auto opt = pool_options("sweep-throw");
    opt.kinds.emplace_back("test/throws", throwing_kind());
    opt.server_path = so.socket_path;
    check(service::run_sweep(jobs, opt), "server");
  }
  not_cached(so.cache_path, "server");
}

TEST(SweepTest, SerialThreadProcessAndServerRunsAgree) {
  const auto jobs = golden_jobs({100, 200, 300, 400});
  auto opt = pool_options("sweep-modes");
  opt.serial = true;
  const auto serial = service::run_sweep(jobs, opt);
  ASSERT_TRUE(serial.started);
  ASSERT_EQ(serial.stats.size(), jobs.size());

  std::vector<std::pair<const char*, service::SweepResult>> runs;
  opt.serial = false;
  runs.emplace_back("threads", service::run_sweep(jobs, opt));
  opt.processes = true;
  runs.emplace_back("processes", service::run_sweep(jobs, opt));

  service::ServerOptions so;
  so.socket_path = temp_path("modes", ".sock");
  so.threads = 2;
  {
    LiveServer live(so);
    ASSERT_TRUE(live.server.start());
    auto remote = pool_options("sweep-modes");
    remote.server_path = so.socket_path;
    runs.emplace_back("server", service::run_sweep(jobs, remote));
  }

  for (const auto& [mode, r] : runs) {
    ASSERT_TRUE(r.started) << mode;
    ASSERT_EQ(r.stats.size(), jobs.size()) << mode;
    for (usize i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(r.stats[i].done) << mode << ' ' << i;
      EXPECT_NE(r.stats[i].digest, 0u) << mode << ' ' << i;
      EXPECT_EQ(normalized(r.stats[i]), normalized(serial.stats[i]))
          << mode << ' ' << i;
    }
  }
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(runs.back().second.threads, 0u);
  ASSERT_TRUE(runs.back().second.service.has_value());
  EXPECT_EQ(runs.back().second.service->service_requests, jobs.size());
}

TEST(SweepTest, ReusedChildGivesFreshChildStats) {
  // A, B, A of fault points and of DSE points, all memory-recording, on
  // one process-mode worker: all six share one child. Each must report what
  // it reports alone in a fresh child, memory block included.
  if (!campaign::ProcessWorkerPool::fork_available())
    GTEST_SKIP() << "fork-based isolation unavailable in this build";
  service::FaultPointSpec fa;
  fa.label = "fault/a";
  fa.policy = 1;
  fa.rate_pct = 10;
  fa.plan_seed = 17;
  service::FaultPointSpec fb = fa;
  fb.label = "fault/b";
  fb.policy = 2;
  fb.prefetch = true;
  service::DsePointSpec da;
  da.label = "dse/a";
  da.tech = 1;
  da.slots = 1;
  service::DsePointSpec db = da;
  db.label = "dse/b";
  db.slots = 2;
  db.prefetch = true;
  std::vector<service::ServiceJob> jobs;
  const auto add_fault = [&](const service::FaultPointSpec& spec) {
    jobs.push_back({jobs.size(), service::fault_point_spec_hash(spec),
                    "fault_point", spec.label,
                    service::fault_point_params(spec)});
  };
  const auto add_dse = [&](const service::DsePointSpec& spec) {
    jobs.push_back({jobs.size(),
                    service::dse_spec_hash(spec.label, spec.loose,
                                           spec.quantum_ns),
                    "dse_point", spec.label, service::dse_point_params(spec)});
  };
  add_fault(fa);
  add_fault(fb);
  add_fault(fa);
  add_dse(da);
  add_dse(db);
  add_dse(da);

  // The builtin kinds, each body also noting the child that ran it in
  // memory shared with the test.
  struct Ran {
    std::atomic<int> count;
    int pid[16];
  };
  void* shared = ::mmap(nullptr, sizeof(Ran), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(shared, MAP_FAILED);
  Ran* ran = new (shared) Ran{};
  service::SweepOptions opt = pool_options("sweep-reuse");
  opt.threads = 1;
  opt.processes = true;
  opt.kinds.clear();
  for (const auto& [name, builder] : service::builtin_kinds())
    opt.kinds.emplace_back(
        name, [builder, ran](const std::string& label,
                             const service::ParamMap& params)
                  -> std::optional<service::JobBody> {
          auto body = builder(label, params);
          if (!body.has_value()) return std::nullopt;
          return service::JobBody{
              [b = std::move(*body), ran](campaign::JobContext& ctx) {
                ran->pid[ran->count.fetch_add(1) % 16] = ::getpid();
                b(ctx);
              }};
        });
  const auto reused = service::run_sweep(jobs, opt);
  ASSERT_TRUE(reused.started);
  ASSERT_EQ(reused.stats.size(), jobs.size());
  ASSERT_EQ(ran->count.load(), static_cast<int>(jobs.size()));
  for (usize i = 1; i < jobs.size(); ++i)
    EXPECT_EQ(ran->pid[i], ran->pid[0]) << "job " << i << " forked afresh";
  EXPECT_NE(ran->pid[0], ::getpid());
  ::munmap(shared, sizeof(Ran));

  for (usize i = 0; i < jobs.size(); ++i) {
    service::ServiceJob alone = jobs[i];
    alone.index = 0;
    auto fresh_opt = pool_options("sweep-reuse");
    fresh_opt.threads = 1;
    fresh_opt.processes = true;
    const auto fresh = service::run_sweep({alone}, fresh_opt);
    ASSERT_TRUE(fresh.started);
    campaign::JobStats got = reused.stats[i];
    ASSERT_TRUE(got.done) << got.label;
    got.index = 0;
    EXPECT_EQ(normalized(got), normalized(fresh.stats[0])) << got.label;
    EXPECT_TRUE(got.has_memory) << got.label;
  }
}

}  // namespace
}  // namespace adriatic
