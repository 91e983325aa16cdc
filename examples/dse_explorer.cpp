// Design-space explorer: sweeps reconfigurable technology x slot count x
// memory organisation x context-scheduler policy for the WLAN-style
// three-kernel application, collects (latency, area, reconfig energy,
// inflexibility, fetched config bytes) for every point, and prints the
// Pareto front — the "true design space exploration at the system level"
// the paper positions the methodology for.
//
// Every design point is an independent simulation, so the sweep runs through
// the campaign engine: one Simulation per worker thread, results printed in
// submission order (output is byte-identical for any thread count).
//
// Build & run:  ./build/examples/dse_explorer [--serial] [--jobs N]
//                                             [--report FILE.json]
//                                             [--journal FILE.wal |
//                                              --resume FILE.wal]
//                                             [--processes] [--cache FILE]
//
// --journal write-ahead-logs every job so a killed sweep restarts with
// --resume, re-running only the design points the journal does not show as
// done. SIGINT/SIGTERM stop the sweep gracefully: running simulations get
// request_stop() and --report still emits a valid partial report (exit 130);
// the Pareto front is only printed when every point completed.
//
// --processes forks one child per design point (a crashing point is
// quarantined with a structured reason instead of killing the sweep);
// --cache serves points whose spec hash already has a cached result without
// re-simulating. The spec hash folds the timing mode and quantum, so
// --loose/--quantum variants of a grid point never alias in the journal or
// the cache.
//
// --server SOCKET runs the sweep as a thin client of campaignd
// (docs/service.md): the same design points are submitted over the socket
// as dse_point/dse_hardwired/dse_migration_probe jobs, the daemon schedules
// them on its own pool (consulting its result cache first) and streams back
// per-job results; table, Pareto front and --report match a local run
// modulo timing fields.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/result_cache.hpp"
#include "dse/pareto.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kFrames = 4;  // frames the synthetic app processes (jobs.cpp)

/// One design point; the simulation body lives in service/jobs.cpp
/// (run_dse_point and friends), shared verbatim with campaignd so a
/// --server run executes the same code in another process.
using Config = service::DsePointSpec;
using SweepOutcome = service::DseOutcome;

}  // namespace

int main(int argc, char** argv) {
  bool serial = false;
  bool loose = false;
  bool processes = false;
  u32 quantum_ns = 0;
  usize jobs = 0;  // 0 = default_thread_count()
  std::string report_path;
  std::string journal_path;
  std::string resume_path;
  std::string cache_path;
  std::string server_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serial") == 0) {
      serial = true;
    } else if (std::strcmp(argv[i], "--loose") == 0) {
      loose = true;
    } else if (std::strcmp(argv[i], "--quantum") == 0 && i + 1 < argc) {
      char* end = nullptr;
      quantum_ns = static_cast<u32>(std::strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || quantum_ns == 0) {
        std::cerr << "dse_explorer: --quantum expects a nonzero ns count, "
                     "got '" << argv[i] << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      jobs = static_cast<usize>(std::strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0') {
        std::cerr << "dse_explorer: --jobs expects a number, got '" << argv[i]
                  << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      processes = true;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      server_path = argv[++i];
    } else {
      std::cerr << "usage: dse_explorer [--serial] [--jobs N] "
                   "[--loose] [--quantum NS] "
                   "[--report FILE.json] [--journal FILE.wal | "
                   "--resume FILE.wal] [--processes] [--cache FILE] "
                   "[--server SOCKET]\n";
      return 2;
    }
  }
  if (!journal_path.empty() && !resume_path.empty()) {
    std::cerr << "dse_explorer: --journal and --resume are exclusive\n";
    return 2;
  }
  if (serial && (!journal_path.empty() || !resume_path.empty())) {
    std::cerr << "dse_explorer: journaling requires the pool runner "
                 "(drop --serial)\n";
    return 2;
  }
  if (serial && (processes || !cache_path.empty())) {
    std::cerr << "dse_explorer: --processes/--cache require the pool runner "
                 "(drop --serial)\n";
    return 2;
  }
  if (quantum_ns != 0 && !loose) {
    std::cerr << "dse_explorer: --quantum only applies with --loose\n";
    return 2;
  }
  if (!server_path.empty() &&
      (serial || processes || !journal_path.empty() || !resume_path.empty() ||
       !cache_path.empty())) {
    std::cerr << "dse_explorer: --server delegates execution to campaignd; "
                 "drop the local runner flags\n";
    return 2;
  }

  std::vector<Config> configs;
  for (u32 tech = 0; tech < 3; ++tech) {
    for (const u32 slots : {1u, 2u}) {
      for (const bool link : {false, true}) {
        for (const bool prefetch : {false, true}) {
          Config c;
          c.label = std::string(service::dse_tech_name(tech)) + "/s" +
                    std::to_string(slots) + (link ? "/link" : "/shared") +
                    (prefetch ? "/hybrid" : "/demand");
          c.tech = tech;
          c.slots = slots;
          c.dedicated_link = link;
          c.prefetch = prefetch;
          c.loose = loose;
          c.quantum_ns = quantum_ns;
          configs.push_back(c);
        }
      }
    }
  }

  // The sweep's job list: every design point, the hardwired reference, and
  // the task-migration probe.
  const usize n_jobs = configs.size() + 2;
  const usize hw_index = configs.size();
  const usize probe_index = configs.size() + 1;
  const auto job_label = [&](usize i) {
    if (i < configs.size()) return configs[i].label;
    return std::string(i == hw_index ? "hardwired" : "migration_probe");
  };
  // Spec hash per job: folds the timing axis (mode + quantum) on top of the
  // label, so --loose/--quantum variants of the same grid point never alias
  // in the journal or the result cache (see the ResultCache reuse caveat).
  const auto point_spec = [&](usize i) {
    return service::dse_spec_hash(job_label(i), loose, quantum_ns);
  };

  // Journal / resume setup; --resume refuses a journal whose planned job
  // set does not match this sweep.
  std::unique_ptr<campaign::CampaignJournal> journal;
  std::map<usize, campaign::JobStats> restored;
  std::vector<bool> rerun(n_jobs, true);
  if (!resume_path.empty()) {
    const auto state = campaign::read_journal(resume_path);
    if (!state.has_value()) {
      std::cerr << "dse_explorer: cannot read journal '" << resume_path
                << "'\n";
      return 2;
    }
    if (state->campaign != "dse_explorer") {
      std::cerr << "dse_explorer: journal belongs to campaign '"
                << state->campaign << "', refusing to resume\n";
      return 2;
    }
    for (usize i = 0; i < n_jobs; ++i) {
      const auto it = state->planned.find(i);
      if (it == state->planned.end() ||
          it->second.spec != point_spec(i)) {
        std::cerr << "dse_explorer: journal job " << i
                  << " does not match this sweep, refusing to resume\n";
        return 2;
      }
    }
    if (state->torn_lines > 0)
      std::cerr << "dse_explorer: dropped " << state->torn_lines
                << " torn journal line(s) (crash mid-append)\n";
    for (const auto& [idx, stats] : state->completed) {
      if (idx >= n_jobs) continue;
      restored.emplace(idx, stats);
      rerun[idx] = false;
    }
    journal = campaign::CampaignJournal::append_to(resume_path);
    if (journal == nullptr) {
      std::cerr << "dse_explorer: cannot append to journal '" << resume_path
                << "'\n";
      return 2;
    }
  } else if (!journal_path.empty()) {
    journal = campaign::CampaignJournal::create(journal_path, "dse_explorer");
    if (journal == nullptr) {
      std::cerr << "dse_explorer: cannot create journal '" << journal_path
                << "'\n";
      return 2;
    }
    for (usize i = 0; i < n_jobs; ++i)
      journal->record_planned(i, point_spec(i), job_label(i));
    journal->flush();  // one fsync for the whole plan
  }

  // Digest-keyed cross-run cache: a planned job whose spec hash already has
  // a cleanly finished entry is served verbatim instead of re-simulated.
  std::unique_ptr<campaign::ResultCache> cache;
  std::map<usize, campaign::JobStats> cached_results;
  if (!cache_path.empty()) {
    cache = campaign::ResultCache::open(cache_path);
    if (cache == nullptr) {
      std::cerr << "dse_explorer: cannot open cache '" << cache_path << "'\n";
      return 2;
    }
    for (usize i = 0; i < n_jobs; ++i) {
      if (!rerun[i]) continue;
      auto hit = cache->lookup(point_spec(i));
      if (!hit.has_value()) continue;
      hit->index = i;
      hit->label = job_label(i);
      hit->from_cache = true;
      cached_results.emplace(i, std::move(*hit));
      rerun[i] = false;
      if (journal != nullptr) journal->record_cache_hit(point_spec(i));
    }
  }

  // Run every design point; `outcomes` ends up in submission order either
  // way, so all downstream output is byte-identical between modes, and both
  // modes record the JobStats that --report serialises.
  std::vector<SweepOutcome> outcomes(n_jobs);
  std::vector<campaign::JobStats> job_stats;
  campaign::ServiceTotals service_totals;
  usize threads_used = 1;
  bool interrupted = false;
  if (!server_path.empty()) {
    // Thin-client mode: ship every job spec to campaignd, stream RESULT
    // frames back, and rebuild the print-ready outcomes from the stats'
    // packed user_data — the same decode path process-mode children and
    // cache hits already use.
    std::vector<service::ServiceJob> sjobs;
    for (usize i = 0; i < configs.size(); ++i)
      sjobs.push_back({i, point_spec(i), "dse_point", configs[i].label,
                       service::dse_point_params(configs[i])});
    service::ParamMap timing_params;
    timing_params["loose"] = loose ? "1" : "0";
    timing_params["quantum_ns"] = std::to_string(quantum_ns);
    sjobs.push_back({hw_index, point_spec(hw_index), "dse_hardwired",
                     "hardwired", timing_params});
    sjobs.push_back({probe_index, point_spec(probe_index),
                     "dse_migration_probe", "migration_probe", timing_params});
    const auto run = service::run_jobs_over_service(server_path, sjobs);
    if (!run.ok && run.stats.empty()) {
      std::cerr << "dse_explorer: " << run.error << '\n';
      return 2;
    }
    if (!run.error.empty())
      std::cerr << "dse_explorer: " << run.error << '\n';
    job_stats.resize(n_jobs);
    for (usize i = 0; i < n_jobs; ++i) {
      job_stats[i].index = i;
      job_stats[i].label = job_label(i);
    }
    for (const auto& [idx, s] : run.stats)
      if (idx < n_jobs) job_stats[idx] = s;
    for (usize i = 0; i < n_jobs; ++i)
      outcomes[i] = service::unpack_dse_outcome(job_stats[i]);
    service_totals = run.totals;
    threads_used = 0;  // the daemon's pool, not ours
    interrupted = run.interrupted;
    if (run.totals.dedup_hits > 0)
      std::cout << run.totals.dedup_hits
                << " job(s) served from the service cache (not "
                   "re-simulated)\n";
  } else if (serial) {
    for (usize i = 0; i < configs.size(); ++i)
      outcomes[i] = campaign::run_inline(
          configs[i].label, job_stats, [&](campaign::JobContext& ctx) {
            return service::run_dse_point(configs[i], &ctx);
          });
    outcomes[hw_index] =
        campaign::run_inline("hardwired", job_stats,
                             [&](campaign::JobContext& ctx) {
                               return service::run_dse_hardwired(
                                   loose, quantum_ns, &ctx);
                             });
    outcomes[probe_index] =
        campaign::run_inline("migration_probe", job_stats,
                             [&](campaign::JobContext& ctx) {
                               return service::run_dse_migration_probe(
                                   loose, quantum_ns, &ctx);
                             });
  } else {
    campaign::CampaignRunner runner(
        jobs != 0 ? jobs : campaign::default_thread_count(),
        processes ? campaign::ExecutionMode::kProcesses
                  : campaign::ExecutionMode::kThreads);
    if (processes && runner.mode() != campaign::ExecutionMode::kProcesses)
      std::cerr << "dse_explorer: fork unavailable, degrading to thread "
                   "workers\n";
    threads_used = runner.thread_count();
    // SIGINT/SIGTERM wind the sweep down gracefully: running simulations
    // are stopped via their guards, pending jobs quarantine as
    // "interrupted", and the partial report stays valid.
    campaign::install_stop_signal_handlers();
    runner.enable_signal_stop();
    if (journal != nullptr) runner.set_journal(journal.get());
    std::vector<std::pair<usize, std::future<SweepOutcome>>> futures;
    for (usize i = 0; i < configs.size(); ++i) {
      if (!rerun[i]) continue;
      campaign::JobOptions o;
      o.stats_index = i;  // resumed jobs keep their original indices
      o.spec = point_spec(i);
      o.heartbeat_timeout_seconds = 10.0;
      const Config cfg = configs[i];
      futures.emplace_back(
          i, runner.submit(cfg.label, o, [cfg](campaign::JobContext& ctx) {
            return service::run_dse_point(cfg, &ctx);
          }));
    }
    if (rerun[hw_index]) {
      campaign::JobOptions o;
      o.stats_index = hw_index;
      o.spec = point_spec(hw_index);
      o.heartbeat_timeout_seconds = 10.0;
      futures.emplace_back(hw_index,
                           runner.submit("hardwired", o,
                                         [&](campaign::JobContext& ctx) {
                                           return service::run_dse_hardwired(
                                               loose, quantum_ns, &ctx);
                                         }));
    }
    if (rerun[probe_index]) {
      campaign::JobOptions o;
      o.stats_index = probe_index;
      o.spec = point_spec(probe_index);
      o.heartbeat_timeout_seconds = 10.0;
      futures.emplace_back(
          probe_index,
          runner.submit("migration_probe", o, [&](campaign::JobContext& ctx) {
            return service::run_dse_migration_probe(loose, quantum_ns, &ctx);
          }));
    }
    for (auto& [i, f] : futures) {
      try {
        outcomes[i] = f.get();
      } catch (const std::exception& e) {
        outcomes[i].error = e.what();
      }
    }
    // A future resolves before its worker commits the job's record, so
    // wait_idle() is still required for a fully-populated stats() view.
    runner.wait_idle();
    if (journal != nullptr) journal->flush();
    interrupted = campaign::signal_stop_requested();

    // Merge: placeholders for every job, journal-restored records under
    // them, cache-served results beside them, fresh records (keyed by their
    // original indices) on top.
    job_stats.resize(n_jobs);
    for (usize i = 0; i < n_jobs; ++i) {
      job_stats[i].index = i;
      job_stats[i].label = job_label(i);
    }
    for (const auto& [idx, stats] : restored) job_stats[idx] = stats;
    for (const auto& [idx, stats] : cached_results) job_stats[idx] = stats;
    for (const auto& rec : runner.stats())
      if (rec.index < job_stats.size()) job_stats[rec.index] = rec;
    // Feed the cache with every cleanly finished fresh result (store()
    // itself ignores failed/quarantined/cache-served stats).
    if (cache != nullptr) {
      for (usize i = 0; i < n_jobs; ++i)
        cache->store(point_spec(i), job_stats[i]);
      cache->flush();
    }
    // Rebuild print-ready outcomes for jobs that did not run in this
    // address space: process-mode children, cache hits and journal
    // restores all carry their SweepOutcome packed in user_data.
    for (usize i = 0; i < n_jobs; ++i)
      if (!outcomes[i].ok)
        outcomes[i] = service::unpack_dse_outcome(job_stats[i]);
  }

  Table t("DSE sweep: technology x slots x config-memory x scheduler policy (" +
          std::to_string(kFrames) + " frames)");
  t.header({"configuration", "time [us]", "switches", "cfg words",
            "hidden [us]", "hide %", "area [gate-eq]", "reconf energy [uJ]"});
  std::vector<dse::DesignPoint> points;
  usize missing = 0;
  for (usize i = 0; i < configs.size(); ++i) {
    const auto& out = outcomes[i];
    if (!out.ok) {
      if (restored.count(i) != 0) {
        ++missing;  // finished in a previous run; only its stats survive
      } else {
        std::cerr << configs[i].label << ": "
                  << (out.error.empty() ? "interrupted" : out.error) << '\n';
      }
      continue;
    }
    t.row(out.row);
    points.push_back(out.point);
  }
  t.print(std::cout);
  if (missing > 0)
    std::cout << missing
              << " design point(s) restored from the journal (metrics in "
                 "--report; not re-run)\n";
  if (!cached_results.empty())
    std::cout << cached_results.size()
              << " job(s) served from the result cache (not re-simulated)\n";

  const auto& hw = outcomes[hw_index];
  if (hw.ok) {
    std::cout << "\nhardwired reference: " << hw.row[0] << " us, "
              << (hw.point.objectives.size() > 1
                      ? static_cast<u64>(hw.point.objectives[1])
                      : 0)
              << " gates, 0 uJ reconfig\n";
    points.push_back(hw.point);
  }

  const auto& probe = outcomes[probe_index];
  if (probe.ok) {
    std::cout << "migration probe: " << probe.row[0] << " migration(s), "
              << probe.row[1] << " state words over the bus, " << probe.row[2]
              << " transfer fault(s) recovered\n";
  } else if (restored.count(probe_index) == 0) {
    std::cerr << "migration_probe: "
              << (probe.error.empty() ? "interrupted" : probe.error) << '\n';
  }

  // The Pareto front is only meaningful over the complete design space
  // (every design point plus the hardwired reference; the migration probe
  // contributes no point): skip it when points are missing (interrupted or
  // journal-restored runs).
  if (points.size() == configs.size() + 1) {
    const auto front = dse::pareto_front(points);
    std::cout
        << "\nPareto-optimal configurations (time, area, energy, "
           "inflexibility, cfg bytes):\n";
    for (const usize idx : front)
      std::cout << "  * " << points[idx].label << '\n';
  } else {
    std::cout << "\nPareto front skipped: only " << points.size() << " of "
              << n_jobs << " design points evaluated in this run\n";
  }

  if (interrupted)
    std::cerr << "dse_explorer: interrupted — report/journal hold partial "
                 "results; resume with --resume\n";
  if (!report_path.empty())
    campaign::write_report_file(
        report_path, "dse_explorer", threads_used, job_stats,
        server_path.empty() ? nullptr : &service_totals);
  return interrupted ? 130 : 0;
}
