// Shared vocabulary of the perfbench program: run options, the per-window
// tally every workload fills, and what a workload hands back to main().
//
// A *point* is one result delivered to the benchmark (a completion hook for
// the DSE sweeps, a RESULT frame for the service workload). A *fresh* point
// is one that was simulated in this run rather than served by dedup; the
// kernel/DRCF/memory per-point counts divide by fresh points only.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "expected.hpp"
#include "util/types.hpp"

namespace perfbench {

using adriatic::i64;
using adriatic::u32;
using adriatic::u64;
using adriatic::usize;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_path;  ///< Expected-results file (may be empty).
  std::string work_dir;       ///< Scratch space for sockets/journals/traces.
  /// When set, the run records every outcome it sees into this file (in
  /// the expected-results format) instead of checking against one.
  std::string record_path;
};

/// Monotonic host clock in nanoseconds; comparable across forked processes.
[[nodiscard]] i64 now_ns();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// User and system CPU seconds of this process plus its reaped children.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
[[nodiscard]] CpuTimes cpu_times();

/// Runs `first_use` in a forked copy of this process and returns the seconds
/// it reports. Called before this process has set anything up, so every copy
/// starts cold and pays the one-time work (thread start, image interning,
/// fiber stack pools, socket bind, journal and cache open) again. The copy
/// must be single-threaded when forked. Throws when the copy fails.
[[nodiscard]] double time_in_child(const std::function<double()>& first_use);

/// Everything one measurement window observed. Filled concurrently by the
/// threads that receive results, so every mutation goes through add_*().
class Tally {
 public:
  /// One delivered result. `latency_ns` is submit -> result; `body_ns`,
  /// `queue_ns` and `commit_ns` are the traced decomposition (0 untraced).
  struct Point {
    bool fresh = true;
    i64 latency_ns = 0;
    i64 queue_ns = 0;
    i64 body_ns = 0;
    i64 commit_ns = 0;
    usize frame_bytes = 0;  ///< RESULT frame size (service, traced only).
  };

  void add_point(const Point& p, const adriatic::campaign::JobStats& stats);
  /// A result that failed, quarantined or did not match its reference.
  void add_failure(const std::string& why);
  void add_attempt();

  /// One repetition of the workload's unit of work (a drained sweep, a
  /// cold+warm batch). The rate and CPU metrics are quantiles over these,
  /// which keeps a slow stretch of a shared host from moving them.
  struct Rep {
    double points_per_s = 0;
    double cpu_ms_per_point = 0;
    double sim_events_per_cpu_s = 0;
  };
  /// Closes the current repetition (called between rounds, with nothing in
  /// flight): turns what was added since the previous call into a Rep.
  void end_rep(double wall_s, double cpu_s);

  std::mutex mu;
  usize attempted = 0;
  usize failed = 0;
  std::vector<std::string> failure_notes;  ///< First few, for the log.
  usize points = 0;
  usize fresh = 0;
  /// Submit -> result of every point. Latency percentiles pool these over
  /// the window: each sweep holds only 26 results, and its median would
  /// move with the order the seed gave it.
  std::vector<double> fresh_latency_ms, cached_latency_ms;
  double queue_ms = 0, body_ms = 0, commit_ms = 0, span_ms = 0;
  usize frame_bytes = 0, frames = 0;
  // Sums over fresh points of the simulated statistics.
  u64 activations = 0, delta_cycles = 0, loose_syncs = 0;
  u64 config_words = 0, cache_hits = 0, prefetch_hits = 0, fetch_errors = 0;
  double hidden_latency_us = 0;
  u64 mem_pages = 0, mem_cow_splits = 0, mem_shared_pages = 0;
  u64 mem_peak_bytes = 0;  ///< Max over fresh points (child peaks).
  u64 attempts = 0, worker_deaths = 0;
  std::vector<Rep> reps;
  /// Host peak RSS is sampled after this many repetitions, so every run
  /// samples it after the same amount of work, however fast it went.
  usize rss_after_reps = 0;
  double peak_rss_mb = 0;  ///< 0 until sampled.

 private:
  // Since the last end_rep().
  usize rep_points_ = 0;
  u64 rep_activations_ = 0;
};

/// Host-side figures that are not per result, summed over repetitions.
struct WindowHost {
  CpuTimes cpu;
  u64 fsyncs = 0, forks = 0;
  // Traced repetitions only: fsyncs attributed by file.
  u64 journal_fsyncs = 0, cache_fsyncs = 0;
  double journal_fsync_ms = 0, cache_fsync_ms = 0;
  u64 journal_bytes = 0, cache_bytes = 0;
  // Service workload only.
  u64 service_errors = 0;
  u64 warm_requests = 0, warm_dedup_hits = 0;
};

/// What a workload hands back to main(). A traced run alternates
/// untraced and traced repetitions in one window, so both halves see the
/// same host and the same server state; their difference is the tracing
/// overhead.
struct WorkloadResult {
  std::vector<double> setup_s;  ///< One entry per fresh-process set-up.
  Tally untraced;               ///< The end-to-end figures.
  WindowHost untraced_host;
  Tally traced;                 ///< Traced repetitions (trace runs only).
  WindowHost traced_host;
  bool has_traced = false;

  /// Where repetition `n` (0-based) of the window goes.
  [[nodiscard]] bool traced_rep(usize n, bool trace_run) const {
    return trace_run && n % 2 == 1;
  }
  /// A window ends at its deadline, but a trace run needs at least one
  /// repetition of each kind.
  [[nodiscard]] bool window_done(i64 deadline_ns, bool trace_run) const {
    return now_ns() >= deadline_ns && !untraced.reps.empty() &&
           (!trace_run || !traced.reps.empty());
  }
};

/// Wall, CPU, fsync and fork counts around one repetition.
class RepClock {
 public:
  RepClock();
  /// Closes the repetition into `tally` and adds its host figures to `host`.
  void finish(Tally& tally, WindowHost& host) const;

 private:
  i64 t0_;
  CpuTimes cpu0_;
  u64 fsyncs0_, forks0_;
};

/// The run-wide checker: reference outcomes for the default seed, plus a
/// recorder used to (re)generate them.
class Checker {
 public:
  explicit Checker(const Options& opt);
  /// Verifies `got` against the reference for (workload, key) when one is
  /// known; records it instead when recording. Returns false on mismatch
  /// and fills `why`. `must_exist` makes a missing reference a mismatch.
  bool check(const Outcome& got, bool must_exist, std::string* why);
  /// Writes recorded outcomes (recording mode only).
  bool flush() const;

 private:
  Options opt_;
  ExpectedResults ref_;
  std::mutex mu_;
  std::map<std::string, Outcome> recorded_;
};

/// Run one workload (set-ups, then the window or windows) into `r`.
void run_dse(const Options& opt, bool loose, Checker& checker,
             WorkloadResult& r);
void run_fault_service(const Options& opt, Checker& checker,
                       WorkloadResult& r);

}  // namespace perfbench
