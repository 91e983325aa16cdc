// Fault-injection sweep: recovery policy x configuration-fetch error rate
// x context-scheduler policy (on-demand vs hybrid prefetch) for a
// two-context DRCF, measuring availability (transactions that complete)
// and the recovery work each policy performs. Demonstrates the robustness
// story end to end: a seeded FaultPlan on the fabric's fetch path, the
// recovery policies reacting to it, and the fault ledger surfacing in the
// campaign report.
//
// The model is built by hand (no netlist CPU — the driver must observe bus
// errors rather than abort on them): a split-transaction bus, a configuration
// memory holding the synthetic bitstreams, and two small data memories
// wrapped as DRCF contexts. A driver thread ping-pongs between the contexts
// so every step forces a reconfiguration, maximising exposure to fetch
// faults.
//
// Build & run:  ./build/examples/fault_sweep [--seed N] [--serial]
//               [--jobs N] [--report FILE.json] [--journal FILE.wal]
//               [--resume FILE.wal [--verify-resume]] [--throttle-ms N]
//               [--processes] [--cache FILE] [--inject-failures]
//               [--mem-budget-mb N] [--inject-oversized]
//               [--server SOCKET]
//
// With --journal every planned job, begun attempt and finished result is a
// write-ahead record: the plan is fsync'd once, a finished result before the
// sweep acts on it, and begun records ride along with the next sync. A
// sweep killed mid-run (SIGKILL included) restarts with --resume,
// re-running only the jobs the journal does not show as done. SIGINT/SIGTERM
// stop the sweep gracefully: running simulations get request_stop(), the
// journal is flushed, and --report still emits a valid partial report (exit
// status 130). --verify-resume re-runs completed jobs too and checks their
// scheduler-trace digests against the journaled ones.
//
// --processes runs every job in a forked child (crash containment: a
// segfaulting or spinning job is quarantined with a structured reason, the
// sweep completes). --cache keeps a digest-keyed result cache across runs:
// jobs whose spec hash is already cached are served without re-simulating
// and flagged "cached" in the report. --inject-failures appends two
// deliberately broken jobs (a segfault and a CPU spin) to exercise the
// containment path — see docs/campaign.md.
//
// --mem-budget-mb caps the process-wide paged-store budget (also settable
// via ADRIATIC_MEM_BUDGET_MB); --inject-oversized appends a job whose model
// cannot fit that budget, demonstrating graceful degradation: the job is
// quarantined "budget-quarantined" while the rest of the sweep completes —
// see docs/memory.md. The two contexts' bitstreams land on page-aligned
// offsets, so every job attaches the same two interned images instead of
// materialising private configuration pages.
//
// --server SOCKET runs the sweep as a thin client of campaignd
// (docs/service.md): the same 24 job specs are submitted over the socket,
// the daemon schedules them on its own pool (consulting its result cache
// first) and streams back per-job results; the table and --report are
// byte-identical to a local run modulo timing fields.
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/result_cache.hpp"
#include "conformance/digest.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kSteps = 24;  // driver steps per point (see service/jobs.cpp)

/// One sweep point; the simulation body lives in service/jobs.cpp
/// (run_fault_point), shared verbatim with campaignd so a --server run is
/// the same code executing in another process.
using SweepConfig = service::FaultPointSpec;

/// Journal identity of one sweep point: the label plus every parameter that
/// shapes the simulation, so --resume refuses a journal written for a
/// different --seed or policy/rate grid.
u64 point_spec(const SweepConfig& cfg) {
  return service::fault_point_spec_hash(cfg);
}

/// Rebuilds a run_point() table row from a JobStats, whichever path the
/// stats took (fresh run, forked child, journal restore, cache hit).
std::vector<std::string> row_from_stats(const campaign::JobStats& s) {
  if (!s.done || s.user_data.empty()) return {};
  return split(s.user_data, '\t');
}

}  // namespace

int main(int argc, char** argv) {
  bool serial = false;
  bool verify_resume = false;
  bool processes = false;
  bool inject_failures = false;
  bool inject_oversized = false;
  u64 mem_budget_mb = 0;
  usize jobs = 0;
  u64 seed = 1;
  unsigned throttle_ms = 0;
  std::string report_path;
  std::string journal_path;
  std::string resume_path;
  std::string cache_path;
  std::string server_path;
  const auto usage = [] {
    std::cerr << "usage: fault_sweep [--seed N] [--serial] [--jobs N] "
                 "[--report FILE.json]\n"
                 "                   [--journal FILE.wal | --resume FILE.wal "
                 "[--verify-resume]]\n"
                 "                   [--throttle-ms N] [--processes] "
                 "[--cache FILE] [--inject-failures]\n"
                 "                   [--mem-budget-mb N] [--inject-oversized]\n"
                 "                   [--server SOCKET]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serial") == 0) {
      serial = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<usize>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify-resume") == 0) {
      verify_resume = true;
    } else if (std::strcmp(argv[i], "--throttle-ms") == 0 && i + 1 < argc) {
      throttle_ms =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      processes = true;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--inject-failures") == 0) {
      inject_failures = true;
    } else if (std::strcmp(argv[i], "--inject-oversized") == 0) {
      inject_oversized = true;
    } else if (std::strcmp(argv[i], "--mem-budget-mb") == 0 && i + 1 < argc) {
      mem_budget_mb = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      server_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!journal_path.empty() && !resume_path.empty()) return usage();
  if (!server_path.empty() &&
      (serial || processes || !journal_path.empty() || !resume_path.empty() ||
       !cache_path.empty() || inject_failures || inject_oversized)) {
    std::cerr << "fault_sweep: --server delegates execution to campaignd; "
                 "drop the local runner flags\n";
    return 2;
  }
  if (verify_resume && resume_path.empty()) return usage();
  if (serial && (!journal_path.empty() || !resume_path.empty())) {
    std::cerr << "fault_sweep: journaling requires the pool runner "
                 "(drop --serial)\n";
    return 2;
  }
  if (serial && (processes || !cache_path.empty())) {
    std::cerr << "fault_sweep: --processes/--cache require the pool runner "
                 "(drop --serial)\n";
    return 2;
  }
  if ((inject_failures || inject_oversized) && !resume_path.empty()) {
    std::cerr << "fault_sweep: --inject-failures/--inject-oversized cannot "
                 "be combined with --resume\n";
    return 2;
  }
  if (mem_budget_mb > 0)
    mem::MemoryBudget::instance().set_limit_bytes(mem_budget_mb * 1024 *
                                                  1024);

  // Policy indices are drcf::RecoveryPolicy values (fail_fast=0,
  // retry_backoff=1, fallback=2); jobs.cpp casts them back.
  const std::pair<const char*, u32> policies[] = {
      {"fail_fast", 0},
      {"retry_backoff", 1},
      {"fallback", 2},
  };
  const u32 rates[] = {0, 2, 5, 10};

  std::vector<SweepConfig> configs;
  for (const auto& [pname, policy] : policies)
    for (const u32 rate : rates)
      for (const bool prefetch : {false, true})
        configs.push_back({std::string(pname) + "/r" + std::to_string(rate) +
                               (prefetch ? "/hybrid" : "/demand"),
                           policy, rate, seed * 1000 + configs.size(),
                           prefetch, throttle_ms});

  // --server: hand the whole grid to a running campaignd and stream results
  // back. The daemon runs the same run_fault_point() bodies, consults its
  // result cache before simulating anything, and dedups concurrent
  // submissions of the same spec — so a warm pass reports dedup_ratio 1.0.
  if (!server_path.empty()) {
    std::vector<service::ServiceJob> sjobs;
    for (usize i = 0; i < configs.size(); ++i)
      sjobs.push_back({i, point_spec(configs[i]), "fault_point",
                       configs[i].label,
                       service::fault_point_params(configs[i])});
    const auto run = service::run_jobs_over_service(server_path, sjobs);
    if (!run.ok && run.stats.empty()) {
      std::cerr << "fault_sweep: " << run.error << '\n';
      return 2;
    }
    if (!run.error.empty())
      std::cerr << "fault_sweep: " << run.error << '\n';
    std::vector<campaign::JobStats> remote_stats(configs.size());
    for (usize i = 0; i < configs.size(); ++i) {
      remote_stats[i].index = i;
      remote_stats[i].label = configs[i].label;
    }
    for (const auto& [idx, s] : run.stats)
      if (idx < remote_stats.size()) remote_stats[idx] = s;

    Table t("Fault sweep: recovery policy x fetch error rate x scheduler (" +
            std::to_string(kSteps) + " steps, seed " + std::to_string(seed) +
            ", via " + server_path + ")");
    t.header({"policy/rate/sched", "steps ok", "fetch errs", "retries",
              "fallbacks", "injected", "cache hits", "availability"});
    for (const auto& s : remote_stats) {
      const auto row = row_from_stats(s);
      if (!row.empty()) t.row(row);
    }
    t.print(std::cout);
    if (run.totals.dedup_hits > 0)
      std::cout << run.totals.dedup_hits
                << " job(s) served from the service cache (not "
                   "re-simulated)\n";
    if (run.interrupted)
      std::cerr << "fault_sweep: server interrupted — partial results\n";
    if (!report_path.empty())
      campaign::write_report_file(report_path, "fault_sweep", 0, remote_stats,
                                  &run.totals);
    if (run.interrupted) return 130;
    return run.ok ? 0 : 3;
  }

  // --inject-failures appends two deliberately broken jobs AFTER the sweep
  // grid, so the 24 real points stay comparable with a clean run: a child
  // that segfaults (quarantined "signal:SIGSEGV" after its retries) and one
  // that spins forever (the supervisor's wall deadline kills it, reason
  // "timeout"). In thread mode the hooks are inert no-op jobs.
  struct DebugJob {
    std::string label;
    campaign::DebugFailure failure;
  };
  std::vector<DebugJob> debug_jobs;
  if (inject_failures)
    debug_jobs = {{"debug/segv", campaign::DebugFailure::kSegv},
                  {"debug/hang-cpu", campaign::DebugFailure::kHangCpu}};
  // --inject-oversized appends one more: a job whose model cannot fit the
  // paged-store budget. Materialising its pages throws BudgetExceededError
  // on the plain call stack (no simulation is ever run), which the runner
  // turns into a "budget-quarantined" verdict in both thread and process
  // mode while every other job completes normally.
  const char* kOversizedLabel = "debug/oversized";
  const usize n_jobs =
      configs.size() + debug_jobs.size() + (inject_oversized ? 1 : 0);

  // Journal / resume setup. Resume validates the journal's identity first:
  // same campaign, same planned job set (spec hashes cover every simulation
  // parameter), otherwise it refuses rather than merge unrelated results.
  std::unique_ptr<campaign::CampaignJournal> journal;
  std::map<usize, campaign::JobStats> restored;
  std::vector<bool> rerun(n_jobs, true);
  if (!resume_path.empty()) {
    const auto state = campaign::read_journal(resume_path);
    if (!state.has_value()) {
      std::cerr << "fault_sweep: cannot read journal '" << resume_path
                << "'\n";
      return 2;
    }
    if (state->campaign != "fault_sweep") {
      std::cerr << "fault_sweep: journal belongs to campaign '"
                << state->campaign << "', refusing to resume\n";
      return 2;
    }
    for (usize i = 0; i < configs.size(); ++i) {
      const auto it = state->planned.find(i);
      if (it == state->planned.end() ||
          it->second.spec != point_spec(configs[i])) {
        std::cerr << "fault_sweep: journal job " << i
                  << " does not match this sweep (different --seed or "
                     "grid?), refusing to resume\n";
        return 2;
      }
    }
    if (state->torn_lines > 0)
      std::cerr << "fault_sweep: dropped " << state->torn_lines
                << " torn journal line(s) (crash mid-append)\n";
    for (const auto& [idx, stats] : state->completed) {
      if (idx >= configs.size()) continue;
      restored.emplace(idx, stats);
      // --verify-resume re-runs finished jobs too, to check their digests.
      if (!verify_resume) rerun[idx] = false;
    }
    journal = campaign::CampaignJournal::append_to(resume_path);
    if (journal == nullptr) {
      std::cerr << "fault_sweep: cannot append to journal '" << resume_path
                << "'\n";
      return 2;
    }
  } else if (!journal_path.empty()) {
    journal = campaign::CampaignJournal::create(journal_path, "fault_sweep");
    if (journal == nullptr) {
      std::cerr << "fault_sweep: cannot create journal '" << journal_path
                << "'\n";
      return 2;
    }
    for (usize i = 0; i < configs.size(); ++i)
      journal->record_planned(i, point_spec(configs[i]), configs[i].label);
    for (usize d = 0; d < debug_jobs.size(); ++d)
      journal->record_planned(configs.size() + d,
                              campaign::spec_hash(debug_jobs[d].label),
                              debug_jobs[d].label);
    if (inject_oversized)
      journal->record_planned(configs.size() + debug_jobs.size(),
                              campaign::spec_hash(kOversizedLabel),
                              kOversizedLabel);
    journal->flush();  // one fsync for the whole plan
  }

  // Digest-keyed cross-run cache: a planned job whose spec hash already has
  // a cleanly finished entry is served from the cache instead of
  // re-simulated; every fresh result is stored back after the sweep.
  std::unique_ptr<campaign::ResultCache> cache;
  std::map<usize, campaign::JobStats> cached_results;
  if (!cache_path.empty()) {
    cache = campaign::ResultCache::open(cache_path);
    if (cache == nullptr) {
      std::cerr << "fault_sweep: cannot open cache '" << cache_path << "'\n";
      return 2;
    }
    for (usize i = 0; !verify_resume && i < configs.size(); ++i) {
      if (!rerun[i]) continue;  // journal-restored already
      auto hit = cache->lookup(point_spec(configs[i]));
      if (!hit.has_value()) continue;
      hit->index = i;
      hit->label = configs[i].label;
      hit->from_cache = true;
      cached_results.emplace(i, std::move(*hit));
      rerun[i] = false;
      if (journal != nullptr) journal->record_cache_hit(point_spec(configs[i]));
    }
  }

  // Each policy/rate point is one campaign job; jobs get a generous
  // wall-clock budget and one retry so a wedged run is quarantined instead
  // of hanging the sweep. In process mode the heartbeat timeout also kills
  // children that die without exiting.
  campaign::JobOptions opt;
  opt.max_attempts = 2;
  opt.wall_timeout_seconds = 60.0;
  opt.heartbeat_timeout_seconds = 10.0;

  std::vector<campaign::JobStats> job_stats;
  usize threads_used = 1;
  bool interrupted = false;
  if (serial) {
    for (usize i = 0; i < configs.size(); ++i)
      campaign::run_inline(configs[i].label, job_stats,
                           [&](campaign::JobContext& ctx) {
                             return service::run_fault_point(configs[i], &ctx);
                           });
  } else {
    campaign::CampaignRunner runner(
        jobs != 0 ? jobs : campaign::default_thread_count(),
        processes ? campaign::ExecutionMode::kProcesses
                  : campaign::ExecutionMode::kThreads);
    threads_used = runner.thread_count();
    if (processes && runner.mode() != campaign::ExecutionMode::kProcesses)
      std::cerr << "fault_sweep: process isolation unavailable here, "
                   "running in thread mode\n";
    // SIGINT/SIGTERM land in an atomic flag; the runner's watchdog polls it
    // and broadcasts request_stop() to every guarded simulation, so the
    // sweep winds down with journaled, reportable partial results.
    campaign::install_stop_signal_handlers();
    runner.enable_signal_stop();
    if (journal != nullptr) runner.set_journal(journal.get());
    const auto job_label = [&](usize i) -> std::string {
      if (i < configs.size()) return configs[i].label;
      if (i < configs.size() + debug_jobs.size())
        return debug_jobs[i - configs.size()].label;
      return kOversizedLabel;
    };
    std::vector<std::pair<usize, std::future<service::FaultPointOutcome>>>
        futures;
    for (usize i = 0; i < n_jobs; ++i) {
      if (!rerun[i]) continue;
      campaign::JobOptions o = opt;
      o.stats_index = i;  // resumed jobs keep their original indices
      if (i < configs.size()) {
        o.spec = point_spec(configs[i]);
        const SweepConfig cfg = configs[i];
        futures.emplace_back(
            i, runner.submit(cfg.label, o, [cfg](campaign::JobContext& ctx) {
              return service::run_fault_point(cfg, &ctx);
            }));
      } else if (i < configs.size() + debug_jobs.size()) {
        const DebugJob& dbg = debug_jobs[i - configs.size()];
        o.spec = campaign::spec_hash(dbg.label);
        o.debug_failure = dbg.failure;
        if (dbg.failure == campaign::DebugFailure::kHangCpu) {
          // The spin never finishes; give the supervisor a short deadline
          // and do not retry what can only time out again.
          o.wall_timeout_seconds = 2.0;
          o.max_attempts = 1;
        }
        futures.emplace_back(
            i, runner.submit(dbg.label, o, [](campaign::JobContext&) {
              return service::FaultPointOutcome{};  // inert in thread mode
            }));
      } else {
        o.spec = campaign::spec_hash(kOversizedLabel);
        o.max_attempts = 1;  // a retry can only blow the budget again
        futures.emplace_back(
            i, runner.submit(kOversizedLabel, o, [](campaign::JobContext&) {
              kern::Simulation sim;
              kern::Module top(sim, "top");
              // 64 MiB of pages, far past any sensible sweep budget; touch
              // each page so the sparse store actually materialises them.
              constexpr usize kHugeWords = usize{16} << 20;
              mem::Memory big(top, "oversized_mem", 0, kHugeWords);
              for (usize w = 0; w < kHugeWords; w += mem::kPageWords)
                big.poke(static_cast<bus::addr_t>(w), 1);
              return service::FaultPointOutcome{};
            }));
      }
    }
    for (auto& [i, f] : futures) {
      try {
        (void)f.get();
      } catch (const std::exception& e) {
        std::cerr << job_label(i) << ": " << e.what() << '\n';
      }
    }
    runner.wait_idle();
    if (journal != nullptr) journal->flush();
    interrupted = campaign::signal_stop_requested();

    // Merge: placeholders for every point, journal-restored results under
    // them, cache-served results beside them, fresh results (keyed by their
    // original indices) on top.
    job_stats.resize(n_jobs);
    for (usize i = 0; i < n_jobs; ++i) {
      job_stats[i].index = i;
      job_stats[i].label = job_label(i);
    }
    for (const auto& [idx, stats] : restored) job_stats[idx] = stats;
    for (const auto& [idx, stats] : cached_results) job_stats[idx] = stats;
    for (const auto& rec : runner.stats())
      if (rec.index < job_stats.size() && rerun[rec.index])
        job_stats[rec.index] = rec;

    // Feed the cache with every cleanly finished fresh result (store()
    // ignores failed/quarantined/cache-served stats itself).
    if (cache != nullptr) {
      for (usize i = 0; i < configs.size(); ++i)
        cache->store(point_spec(configs[i]), job_stats[i]);
      cache->flush();
    }
  }

  Table t("Fault sweep: recovery policy x fetch error rate x scheduler (" +
          std::to_string(kSteps) + " steps, seed " + std::to_string(seed) +
          ")");
  t.header({"policy/rate/sched", "steps ok", "fetch errs", "retries",
            "fallbacks", "injected", "cache hits", "availability"});
  // Rows come from the stats' user_data payload, so journal-restored,
  // cache-served and process-mode jobs all print alongside fresh ones.
  for (const auto& s : job_stats) {
    const auto row = row_from_stats(s);
    if (!row.empty()) t.row(row);
  }
  t.print(std::cout);
  if (!resume_path.empty() && !verify_resume && !restored.empty())
    std::cout << restored.size()
              << " job(s) restored from the journal (not re-run)\n";
  if (!cached_results.empty())
    std::cout << cached_results.size()
              << " job(s) served from the result cache (not re-simulated)\n";
  if (interrupted)
    std::cerr << "fault_sweep: interrupted — report/journal hold partial "
                 "results; resume with --resume\n";

  int verify_failures = 0;
  if (verify_resume) {
    for (const auto& [idx, stats] : restored) {
      const campaign::JobStats& fresh = job_stats[idx];
      if (!fresh.done || fresh.digest != stats.digest) {
        std::cerr << "verify-resume: job " << idx << " (" << stats.label
                  << ") digest mismatch: journal "
                  << conformance::digest_str(stats.digest) << ", re-run "
                  << conformance::digest_str(fresh.digest) << '\n';
        ++verify_failures;
      }
    }
    if (verify_failures == 0 && !restored.empty())
      std::cout << restored.size()
                << " journaled digest(s) verified against re-runs\n";
  }

  if (!report_path.empty())
    campaign::write_report_file(report_path, "fault_sweep", threads_used,
                                job_stats);
  if (verify_failures > 0) return 4;
  if (interrupted) return 130;
  return 0;
}
