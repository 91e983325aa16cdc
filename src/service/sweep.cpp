#include "service/sweep.hpp"

#include <iostream>
#include <map>
#include <utility>

#include "campaign/result_cache.hpp"
#include "conformance/digest.hpp"

namespace adriatic::service {

using campaign::JobStats;

namespace {

/// Flag conflicts, checked before anything runs; empty when consistent.
/// `local_kind` names a local-only kind among the jobs (empty: none).
std::string conflict(const SweepOptions& opt, const std::string& local_kind) {
  const bool journaled = !opt.journal_path.empty() || !opt.resume_path.empty();
  if (!opt.journal_path.empty() && !opt.resume_path.empty())
    return "--journal and --resume are exclusive";
  if (!opt.server_path.empty() &&
      (opt.serial || opt.processes || journaled || !opt.cache_path.empty() ||
       !local_kind.empty()))
    return "--server delegates execution to campaignd; drop the local "
           "runner flags";
  if (opt.verify_resume && opt.resume_path.empty())
    return "--verify-resume requires --resume";
  if (opt.serial && journaled)
    return "journaling requires the pool runner (drop --serial)";
  if (opt.serial && (opt.processes || !opt.cache_path.empty()))
    return "--processes/--cache require the pool runner (drop --serial)";
  if (opt.serial && !local_kind.empty())
    return "local-only kind '" + local_kind +
           "' requires the pool runner (drop --serial)";
  if (!local_kind.empty() && !opt.resume_path.empty())
    return "local-only kind '" + local_kind +
           "' cannot be combined with --resume";
  return {};
}

class Session {
 public:
  Session(const std::vector<ServiceJob>& jobs, const SweepOptions& opt)
      : jobs_(jobs), opt_(opt), local_(jobs.size(), nullptr) {}

  SweepResult run() {
    // Resolve every kind first: served kinds may use the cache and the
    // server, local-only ones never do.
    std::string local_kind;
    for (usize i = 0; i < jobs_.size(); ++i) {
      if (find_kind(opt_.kinds, jobs_[i].kind) != nullptr) continue;
      for (const auto& lk : opt_.local_kinds)
        if (lk.name == jobs_[i].kind) local_[i] = &lk;
      if (local_[i] == nullptr)
        return refuse("no job builder registered for kind '" +
                      jobs_[i].kind + "'");
      if (local_kind.empty()) local_kind = jobs_[i].kind;
    }
    if (const std::string c = conflict(opt_, local_kind); !c.empty())
      return refuse(c);

    r_.stats.resize(jobs_.size());
    for (usize i = 0; i < jobs_.size(); ++i) {
      r_.stats[i].index = i;
      r_.stats[i].label = jobs_[i].label;
    }
    const bool ran = !opt_.server_path.empty() ? run_remote()
                     : opt_.serial             ? run_serial()
                                               : run_pool();
    if (!ran) return r_;
    r_.started = true;

    for (const JobStats& s : r_.stats) {
      if (s.failed)
        note(s.label, s.error);
      else if (s.quarantined)
        note(s.label, "job quarantined: " + s.quarantine_reason);
    }
    if (r_.interrupted)
      note(opt_.campaign, opt_.server_path.empty()
                              ? "interrupted — report/journal hold partial "
                                "results; resume with --resume"
                              : "server interrupted — partial results");
    if (!opt_.report_path.empty())
      campaign::write_report_file(opt_.report_path, opt_.campaign,
                                  r_.threads, r_.stats,
                                  r_.service ? &*r_.service : nullptr);
    return r_;
  }

 private:
  static void note(const std::string& who, const std::string& what) {
    std::cerr << who << ": " << what << '\n';
  }

  SweepResult refuse(const std::string& why) {
    note(opt_.campaign, why);
    return r_;
  }

  /// Builds job i's body from its kind's registry entry.
  std::optional<JobBody> body(usize i) {
    const ServiceJob& job = jobs_[i];
    const JobBuilder* builder = local_[i] != nullptr
                                    ? &local_[i]->build
                                    : find_kind(opt_.kinds, job.kind);
    auto b = (*builder)(job.label, job.params);
    if (!b.has_value())
      note(opt_.campaign,
           "invalid params for '" + job.label + "' (kind " + job.kind + ")");
    return b;
  }

  bool run_remote() {
    const auto run = run_jobs_over_service(opt_.server_path, jobs_);
    if (!run.ok && run.stats.empty()) {
      note(opt_.campaign, run.error);
      return false;
    }
    if (!run.error.empty()) note(opt_.campaign, run.error);
    for (const auto& [idx, s] : run.stats)
      if (idx < r_.stats.size()) r_.stats[idx] = s;
    r_.threads = 0;  // the daemon's pool, not ours
    r_.service = run.totals;
    r_.service_incomplete = !run.ok;
    r_.interrupted = run.interrupted;
    return true;
  }

  bool run_serial() {
    std::vector<JobStats> records;
    for (usize i = 0; i < jobs_.size(); ++i) {
      auto b = body(i);
      if (!b.has_value()) return false;
      try {
        campaign::run_inline(jobs_[i].label, records, std::move(*b));
      } catch (...) {
        // run_inline recorded the failure; the sweep goes on.
      }
    }
    r_.stats = std::move(records);
    r_.threads = 1;
    return true;
  }

  bool run_pool() {
    const usize n = jobs_.size();
    std::vector<bool> rerun(n, true);
    std::map<usize, JobStats> restored;
    std::unique_ptr<campaign::CampaignJournal> journal;
    if (!opt_.journal_path.empty() || !opt_.resume_path.empty()) {
      const bool resume = !opt_.resume_path.empty();
      auto opened =
          open_journal(resume ? opt_.resume_path : opt_.journal_path,
                       opt_.campaign, resume);
      if (opened.journal == nullptr) {
        note(opt_.campaign, opened.error);
        return false;
      }
      if (resume) {
        // Same campaign, same planned job set (spec hashes cover every
        // simulation parameter), or refuse rather than merge unrelated
        // results.
        const campaign::JournalState& state = opened.resumed;
        if (state.campaign != opt_.campaign) {
          note(opt_.campaign, "journal belongs to campaign '" +
                                  state.campaign + "', refusing to resume");
          return false;
        }
        for (usize i = 0; i < n; ++i) {
          const auto it = state.planned.find(i);
          if (it == state.planned.end() || it->second.spec != jobs_[i].spec) {
            note(opt_.campaign,
                 "journal job " + std::to_string(i) +
                     " does not match this sweep (different flags or "
                     "grid?), refusing to resume");
            return false;
          }
        }
        if (state.torn_lines > 0)
          note(opt_.campaign, "dropped " + std::to_string(state.torn_lines) +
                                  " torn journal line(s) (crash mid-append)");
        for (const auto& [idx, stats] : state.completed) {
          if (idx >= n) continue;
          restored.emplace(idx, stats);
          r_.stats[idx] = stats;
          // --verify-resume re-runs finished jobs too, to check digests.
          if (!opt_.verify_resume) rerun[idx] = false;
        }
      } else {
        for (usize i = 0; i < n; ++i)
          opened.journal->record_planned(i, jobs_[i].spec, jobs_[i].label);
        opened.journal->flush();  // one fsync for the whole plan
      }
      journal = std::move(opened.journal);
    }

    std::unique_ptr<campaign::ResultCache> cache;
    if (!opt_.cache_path.empty()) {
      cache = campaign::ResultCache::open(opt_.cache_path);
      if (cache == nullptr) {
        note(opt_.campaign, "cannot open cache '" + opt_.cache_path + "'");
        return false;
      }
      for (usize i = 0; !opt_.verify_resume && i < n; ++i) {
        if (!rerun[i] || local_[i] != nullptr) continue;
        auto hit = cache->lookup(jobs_[i].spec);
        if (!hit.has_value()) continue;
        r_.stats[i] = serve_hit(std::move(*hit), i, jobs_[i].label,
                                jobs_[i].spec, journal.get());
        rerun[i] = false;
        ++r_.cached;
      }
    }

    // Invalid params refuse the sweep before anything runs; the runner
    // builds each body again where the job runs.
    for (usize i = 0; i < n; ++i)
      if (rerun[i] && !body(i).has_value()) return false;

    // The runner builds bodies from the same kinds as body() does.
    KindRegistry kinds = opt_.kinds;
    for (const LocalKind& lk : opt_.local_kinds)
      kinds.emplace_back(lk.name, lk.build);
    campaign::CampaignRunner runner(
        opt_.threads != 0 ? opt_.threads : campaign::default_thread_count(),
        opt_.processes ? campaign::ExecutionMode::kProcesses
                       : campaign::ExecutionMode::kThreads,
        kind_resolver(std::move(kinds)));
    r_.threads = runner.thread_count();
    if (opt_.processes && runner.mode() != campaign::ExecutionMode::kProcesses)
      note(opt_.campaign,
           "process isolation unavailable here, running in thread mode");
    // SIGINT/SIGTERM land in an atomic flag; the runner's watchdog polls it
    // and stops every guarded simulation, so the sweep winds down with
    // journaled, reportable partial results.
    campaign::install_stop_signal_handlers();
    runner.enable_signal_stop();
    if (journal != nullptr) runner.set_journal(journal.get());
    for (usize i = 0; i < n; ++i) {
      if (!rerun[i]) continue;
      campaign::JobOptions o =
          local_[i] != nullptr ? local_[i]->options : job_policy();
      o.stats_index = i;  // resumed jobs keep their original indices
      o.spec = jobs_[i].spec;
      // Outcomes come back through runner.stats(), in every mode.
      (void)runner.submit_kind(
          jobs_[i].label, o, {jobs_[i].kind, encode_params(jobs_[i].params)});
    }
    runner.wait_idle();
    if (journal != nullptr) journal->flush();
    r_.interrupted = campaign::signal_stop_requested();
    for (const auto& rec : runner.stats())
      if (rec.index < n && rerun[rec.index]) r_.stats[rec.index] = rec;

    // store() itself skips failed, quarantined and cache-served records.
    if (cache != nullptr) {
      for (usize i = 0; i < n; ++i)
        if (local_[i] == nullptr) cache->store(jobs_[i].spec, r_.stats[i]);
      cache->flush();
    }

    if (!opt_.verify_resume) {
      r_.restored = restored.size();
      return true;
    }
    r_.verified = restored.size();
    for (const auto& [idx, journaled] : restored) {
      const JobStats& fresh = r_.stats[idx];
      if (fresh.done && fresh.digest == journaled.digest) continue;
      note("verify-resume",
           "job " + std::to_string(idx) + " (" + journaled.label +
               ") digest mismatch: journal " +
               conformance::digest_str(journaled.digest) + ", re-run " +
               conformance::digest_str(fresh.digest));
      ++r_.verify_failures;
    }
    return true;
  }

  const std::vector<ServiceJob>& jobs_;
  const SweepOptions& opt_;
  /// Per job: its local-only kind, or null for a kind campaignd serves.
  std::vector<const LocalKind*> local_;
  SweepResult r_;
};

}  // namespace

int SweepResult::exit_status() const {
  if (!started) return 2;
  if (verify_failures > 0) return 4;
  if (interrupted) return 130;
  return service_incomplete ? 3 : 0;
}

SweepResult run_sweep(const std::vector<ServiceJob>& jobs,
                      const SweepOptions& opt) {
  return Session(jobs, opt).run();
}

OpenedJournal open_journal(const std::string& path, const std::string& name,
                           bool resume) {
  OpenedJournal out;
  if (!resume) {
    out.journal = campaign::CampaignJournal::create(path, name);
    if (out.journal == nullptr)
      out.error = "cannot create journal '" + path + "'";
    return out;
  }
  auto state = campaign::read_journal(path);
  if (!state.has_value()) {
    out.error = "cannot read journal '" + path + "'";
    return out;
  }
  out.resumed = std::move(*state);
  out.journal = campaign::CampaignJournal::append_to(path);
  if (out.journal == nullptr)
    out.error = "cannot append to journal '" + path + "'";
  return out;
}

JobStats serve_hit(JobStats hit, usize index, const std::string& label,
                   u64 spec, campaign::CampaignJournal* journal) {
  hit.index = index;
  hit.label = label;
  hit.from_cache = true;
  if (journal != nullptr) journal->record_cache_hit(spec);
  return hit;
}

}  // namespace adriatic::service
