// The sweep session: one way to run a list of (kind, params) jobs, shared by
// fault_sweep and dse_explorer, with the journal and cache helpers campaignd
// uses too.
//
// run_sweep() takes the tool's jobs as ServiceJobs and runs them on the
// calling thread (--serial), on a thread or process CampaignRunner, or
// through a running campaignd (--server). Local bodies come from the same
// JobBuilder registry the daemon serves (builtin_kinds()), under the same
// job_policy(), so every mode executes the same code. It checks the flag
// conflicts, opens or resumes the write-ahead journal, serves cache hits,
// runs the rest, merges everything into index-ordered JobStats, stores fresh
// results in the cache, verifies resumed digests and writes the report. The
// tools are left with flag parsing, the grid and printing: every row they
// print comes from JobStats::user_data, whichever path the stats took.
//
// A kind the daemon does not serve (SweepOptions::local_kinds, e.g.
// fault_sweep's injected debug jobs) is local-only: its jobs are never
// looked up in or stored to the result cache, and --server, --serial and
// --resume refuse them.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"

namespace adriatic::service {

/// A kind only this process runs. `options` replaces job_policy() for its
/// jobs (index and spec are filled in per job).
struct LocalKind {
  std::string name;
  JobBuilder build;
  campaign::JobOptions options = job_policy();
};

struct SweepOptions {
  /// Journal header name; also prefixes every message the session prints.
  std::string campaign;
  bool serial = false;     ///< Run on the calling thread via run_inline.
  usize threads = 0;       ///< 0 = campaign::default_thread_count().
  bool processes = false;  ///< Run jobs in forked worker children.
  std::string journal_path;
  std::string resume_path;
  bool verify_resume = false;  ///< Re-run restored jobs, compare digests.
  std::string cache_path;
  std::string server_path;  ///< Non-empty: run every job on campaignd.
  std::string report_path;  ///< Non-empty: write the JSON report here.
  /// Kinds campaignd serves; their jobs may use the cache and --server.
  KindRegistry kinds = builtin_kinds();
  std::vector<LocalKind> local_kinds;
};

struct SweepResult {
  /// False when the session refused to start (flag conflict, unreadable
  /// journal or cache, unreachable server); the reason is already printed.
  bool started = false;
  /// One record per job, in job order; a job that never ran keeps a
  /// placeholder (done == false) with its index and label.
  std::vector<campaign::JobStats> stats;
  usize threads = 0;        ///< What the report records: 1 serial, 0 server.
  usize restored = 0;       ///< Restored from the journal, not re-run.
  usize cached = 0;         ///< Served from the local result cache.
  usize verified = 0;       ///< Journaled digests re-run by --verify-resume.
  usize verify_failures = 0;
  bool interrupted = false;  ///< SIGINT/SIGTERM, or the server was stopped.
  /// --server only: requests sent and results served without simulating.
  std::optional<campaign::ServiceTotals> service;
  bool service_incomplete = false;  ///< The server failed some job.

  /// The tools' exit status: 2 refused, 4 digest mismatch, 130
  /// interrupted, 3 incomplete server run, else 0.
  [[nodiscard]] int exit_status() const;
};

/// Runs `jobs` (jobs[i].index must be i) as `opt` says; see the file
/// comment.
[[nodiscard]] SweepResult run_sweep(const std::vector<ServiceJob>& jobs,
                                    const SweepOptions& opt);

// -- Helpers shared with campaignd -------------------------------------------

struct OpenedJournal {
  std::unique_ptr<campaign::CampaignJournal> journal;  ///< Null on error.
  campaign::JournalState resumed;  ///< What the file held (resume only).
  std::string error;
};

/// Creates the journal at `path` for campaign `name`, or with `resume`
/// reads it back and reopens it for appending. The one place a journal is
/// read for resume.
[[nodiscard]] OpenedJournal open_journal(const std::string& path,
                                         const std::string& name,
                                         bool resume);

/// The one way a result is served without simulating (a result-cache hit,
/// or the daemon's session dedup): `hit` becomes job `index` / `label`
/// flagged from_cache, and `journal` (when attached) gets a C record.
[[nodiscard]] campaign::JobStats serve_hit(campaign::JobStats hit,
                                           usize index,
                                           const std::string& label, u64 spec,
                                           campaign::CampaignJournal* journal);

}  // namespace adriatic::service
