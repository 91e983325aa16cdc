// Parallel simulation campaign engine: runs N independent Simulation
// instances across a pool of worker threads. The kernel keeps all of its
// cross-cutting state (`t_running`, the fiber bookkeeping, the stack pool)
// in thread_local variables, so one simulation per worker thread needs no
// locking at all — the pool only synchronises on the job queue and on the
// per-job result records.
//
// Threading model (see docs/campaign.md):
//   * a job is a factory: it constructs, runs and tears down its own
//     Simulation entirely on the worker thread that picked it up;
//   * nothing simulation-related is shared between jobs — results travel
//     back through the returned std::future;
//   * job metrics (wall time, simulated time, delta cycles) are recorded in
//     submission order, so reports are deterministic for any thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/ledger.hpp"
#include "kernel/simulation.hpp"
#include "kernel/time.hpp"
#include "memory/budget.hpp"
#include "util/types.hpp"

namespace adriatic::campaign {

class CampaignJournal;
class ProcessWorkerPool;

/// How the runner executes job bodies.
///
///  * kThreads — in-process, one job per worker thread (the historical
///    mode). A job that segfaults, exhausts memory or spins without ever
///    reaching a delta boundary takes the whole campaign with it.
///  * kProcesses — kind jobs (submit_kind) run in forked children, which
///    build each body from its JobKind; their JobStats come back over a
///    socket (worker_pool.hpp) and the parent's supervisor SIGKILLs hung or
///    runaway children. A worker keeps its child across a backlog and
///    retires it once its queue is empty or the child failed. Crashes
///    become structured quarantine reasons ("signal:SIGSEGV", "timeout",
///    "exit:N") instead of campaign deaths. submit() with a function
///    throws std::logic_error in this mode. Falls back to kThreads where
///    fork is unusable (ThreadSanitizer builds, ADRIATIC_NO_FORK=1) — check
///    mode() after construction.
enum class ExecutionMode { kThreads, kProcesses };

/// Deliberate failure injected into a forked job child *before* its body
/// runs, so crash containment is testable deterministically. Honoured only
/// in kProcesses mode (in kThreads mode a segfault would be the very
/// containment failure this exists to test for).
enum class DebugFailure {
  kNone,
  kSegv,      ///< Die by SIGSEGV (default disposition restored first).
  kAbort,     ///< Die by SIGABRT.
  kHangCpu,   ///< Spin forever burning CPU; heartbeats keep flowing, so
              ///< only the wall deadline catches it ("timeout").
  kHangSleep, ///< Block heartbeats and sleep forever; caught by the
              ///< heartbeat timeout ("heartbeat-lost") or wall deadline.
  kExitCode,  ///< _exit(JobOptions::debug_exit_code) without a result.
};

/// Structured decode of a worker child's death: what the supervisor or
/// waitpid() learned, normalised into the retry/quarantine machinery's
/// vocabulary. reason() is the string that lands in quarantine_reason and
/// the journal's X record.
struct WorkerFailure {
  enum class Kind {
    kNone,
    kSignal,         ///< Child died by signal `code` (crash class).
    kExitCode,       ///< Child exited with status `code` != 0 (crash class).
    kTimeout,        ///< Supervisor SIGKILLed it at the wall deadline.
    kHeartbeatLost,  ///< Supervisor SIGKILLed it after heartbeat silence.
    kInterrupted,    ///< Killed by a campaign-wide stop broadcast.
    kProtocol,       ///< Pipe closed mid-frame / bad checksum / fork error.
  };
  Kind kind = Kind::kNone;
  int code = 0;  ///< Signal number or exit status, by kind.
  /// "signal:SIGSEGV", "timeout", "exit:3", "heartbeat-lost",
  /// "interrupted", "protocol".
  [[nodiscard]] std::string reason() const;
};

/// Thrown inside the runner's attempt loop when a forked worker dies
/// without delivering a result; carries the structured failure so the
/// retry machinery can distinguish timeouts from crashes.
class WorkerDeathError : public std::runtime_error {
 public:
  explicit WorkerDeathError(WorkerFailure f)
      : std::runtime_error("worker died: " + f.reason()), failure(f) {}
  WorkerFailure failure;
};

// -- Process-wide graceful-stop signal plumbing ------------------------------
// install_stop_signal_handlers() routes SIGINT/SIGTERM into a lock-free
// atomic flag (the only async-signal-safe action taken); a runner with
// enable_signal_stop() polls the flag and broadcasts request_stop() to every
// guarded Simulation, so sweeps shut down gracefully with a valid partial
// report and a resumable journal.
void install_stop_signal_handlers();
[[nodiscard]] bool signal_stop_requested() noexcept;
void clear_signal_stop() noexcept;

/// Names a job by its registered kind: the runner's KindResolver builds the
/// body from it where the job runs — on the worker thread in kThreads mode,
/// in the worker's child (sent over its socket) in kProcesses mode.
struct JobKind {
  std::string name;    ///< Registry name.
  std::string params;  ///< Encoded parameters the registry builds from.
};

class JobContext;

/// Builds the body of a kind job from its kind and label; an empty function
/// when the kind is unknown or its params are invalid. Called once per
/// attempt, concurrently from every worker thread in kThreads mode.
using KindResolver = std::function<std::function<void(JobContext&)>(
    const JobKind& kind, const std::string& label)>;

/// The body `kinds` builds for `kind`; throws std::runtime_error ("no job
/// builder registered for kind '<name>'") when there is none. The one
/// place a kind job's body is built, in either mode.
[[nodiscard]] std::function<void(JobContext&)> build_kind_body(
    const KindResolver& kinds, const JobKind& kind, const std::string& label);

/// Robustness knobs for one submitted job.
struct JobOptions {
  /// Total attempts before the job gives up (1 = no retries). A failed
  /// attempt is one that threw or was stopped by the wall-clock watchdog.
  u32 max_attempts = 1;
  /// Wall-clock budget per attempt, enforced while the job holds a
  /// JobContext::guard() on its Simulation: the runner's watchdog thread
  /// calls Simulation::request_stop() when the budget expires. Jobs that
  /// exceed the budget without recovering are quarantined. 0 disables it.
  double wall_timeout_seconds = 0;
  /// Index recorded in JobStats::index and in the campaign journal
  /// (defaults to the submission index). Resume paths set it so re-run jobs
  /// keep their original campaign indices.
  std::optional<usize> stats_index;
  /// Identity of the job's simulation parameters (spec_hash(label, params)),
  /// shared with the journal's P records and the result cache. Keys the
  /// runner's per-spec crash quarantine; 0 falls back to spec_hash(label).
  u64 spec = 0;
  /// Process mode: a spec whose children crashed (signal / nonzero exit /
  /// heartbeat loss) this many times is quarantined instead of retried —
  /// a deterministic segfault must not burn every retry of every resume.
  /// 0 disables crash quarantine.
  u32 crash_limit = 3;
  /// Base delay before retry attempt 2; doubles per further attempt
  /// (capped at 30 s). Sleeps in small interruptible slices so a stop
  /// broadcast still cancels a backing-off job promptly. 0 disables it.
  double retry_backoff_seconds = 0;
  /// Process mode: SIGKILL a child whose socket has been silent (no result,
  /// no heartbeat frame) for this long — catches workers that die without
  /// exiting. Heartbeats tick ~10x per second while the child is alive,
  /// so legitimate long simulations never trip this. 0 disables it.
  double heartbeat_timeout_seconds = 0;
  /// Deliberate child failure for crash-containment tests (process mode
  /// only; see DebugFailure).
  DebugFailure debug_failure = DebugFailure::kNone;
  int debug_exit_code = 0;  ///< Exit status used by DebugFailure::kExitCode.
};

/// Per-job record, reported in submission order regardless of which worker
/// ran the job or when it finished. kStatsGroups (journal.hpp) is the one
/// list of the optional counter groups' D-record and report keys.
struct JobStats {
  usize index = 0;          ///< Submission index (0-based).
  std::string label;
  double wall_seconds = 0;  ///< Host wall-clock time spent inside the job.
  kern::Time sim_time;      ///< Simulated time reached (via JobContext).
  u64 delta_count = 0;
  u64 activations = 0;
  u64 digest = 0;           ///< Scheduler-trace digest, if the job recorded
                            ///< one (0 = not recorded); lets campaign reports
                            ///< be diffed for determinism across runs.
  bool done = false;        ///< Job ran to completion (or failed) already.
  bool failed = false;      ///< Job body threw; `error` holds the message.
  std::string error;
  u32 attempts = 1;         ///< Attempts actually made (retries + 1).
  bool quarantined = false; ///< Gave up (timeout / retries exhausted); the
                            ///< record stays done == false with a reason.
  std::string quarantine_reason;
  bool has_faults = false;  ///< record_faults() was called.
  u64 fetch_errors = 0;       ///< Failed configuration fetches (DRCF).
  u64 faults_injected = 0;    ///< Injection-side ledger events.
  u64 fault_events = 0;       ///< Total ledger events.
  u64 fault_digest = 0;       ///< FaultLedger::digest() of the job's ledger.
  bool has_prefetch = false;  ///< record_prefetch() was called.
  u64 prefetch_hits = 0;      ///< Demand switches/calls covered by a prefetch.
  u64 cache_hits = 0;         ///< Switches installed from the context cache.
  u64 config_words_fetched = 0;  ///< Configuration words moved over the bus.
  kern::Time hidden_latency;  ///< Fetch latency kept off the demand path.
  bool has_timing = false;    ///< record_timing() was called.
  bool loose = false;         ///< Job ran under kern::TimingMode::kLoose.
  kern::Time quantum;         ///< Loose-mode quantum the job ran under.
  u64 loose_syncs = 0;        ///< Loose-mode synchronisation points.
  bool has_migration = false;  ///< record_migration() was called.
  u64 migrations = 0;          ///< Completed task migrations.
  u64 state_words_moved = 0;   ///< Transfer words moved over the bus.
  u64 transfer_faults_recovered = 0;  ///< Mid-transfer faults recovered from.
  bool has_memory = false;  ///< record_memory() was called (or the job was
                            ///< budget-quarantined with a high-water mark).
  u64 mem_resident_peak_bytes = 0;  ///< Peak of the job's own resident
                                    ///< pages (mem::JobMemory), any mode.
  u64 mem_pages_resident = 0;  ///< Resident pages in the job's stores.
  u64 mem_cow_splits = 0;      ///< Shared pages copied on first write.
  u64 mem_shared_pages = 0;    ///< Pages still shared with an image at end.
  u64 ecc_corrected = 0;       ///< Single-bit upsets silently corrected.
  u64 ecc_uncorrectable = 0;   ///< Detected-uncorrectable upsets.
  bool from_cache = false;  ///< Served from a ResultCache, not re-simulated.
  u64 worker_deaths = 0;    ///< Forked children lost while running this job
                            ///< (crash, timeout kill, heartbeat kill).
  std::string user_data;    ///< Opaque tool payload (record_user_data):
                            ///< rides the journal, the worker socket and the
                            ///< result cache, so a cache-served job can
                            ///< reproduce its tool-side output (e.g. a
                            ///< table row) without re-simulating.
};

/// Message for the exception currently in flight; call only inside `catch`.
[[nodiscard]] std::string describe_current_exception();

class CampaignRunner;
struct WorkerChild;

/// RAII registration of one Simulation with the runner's wall-clock
/// watchdog; created via JobContext::guard(). On destruction the watch is
/// removed, and if the watchdog fired during its lifetime the owning
/// attempt is flagged as timed out.
class WatchdogGuard {
 public:
  WatchdogGuard(const WatchdogGuard&) = delete;
  WatchdogGuard& operator=(const WatchdogGuard&) = delete;
  ~WatchdogGuard();

 private:
  friend class JobContext;
  WatchdogGuard(JobContext* ctx, u64 id) : ctx_(ctx), id_(id) {}
  JobContext* ctx_;
  u64 id_;  ///< 0 = no watch registered (timeouts disabled).
};

/// Handed to job bodies that want their kernel counters in the campaign
/// report; call record(sim) after sim.run().
class JobContext {
 public:
  void record(const kern::Simulation& sim) {
    stats_->sim_time = sim.now();
    stats_->delta_count = sim.delta_count();
    stats_->activations = sim.activations();
  }

  /// Stores a scheduler-trace digest (e.g. conformance::TraceDigest::value())
  /// in the job's stats; report_json() emits it so two campaign reports can
  /// be diffed for scheduling determinism, job by job.
  void record_digest(u64 digest) { stats_->digest = digest; }

  /// Stores fault counters and the ledger summary (counts + digest) in the
  /// job's stats; report_json() emits them as the job's "faults" object.
  void record_faults(u64 fetch_errors, const fault::FaultLedger& ledger) {
    stats_->has_faults = true;
    stats_->fetch_errors = fetch_errors;
    stats_->faults_injected = ledger.injected_count();
    stats_->fault_events = static_cast<u64>(ledger.records().size());
    stats_->fault_digest = ledger.digest();
  }

  /// Stores prefetch/cache effectiveness counters in the job's stats;
  /// report_json() emits them as the job's "prefetch" object. Scalars (not
  /// a DrcfStats reference) so the campaign layer stays DRCF-agnostic.
  void record_prefetch(u64 prefetch_hits, u64 cache_hits,
                       u64 config_words_fetched, kern::Time hidden_latency) {
    stats_->has_prefetch = true;
    stats_->prefetch_hits = prefetch_hits;
    stats_->cache_hits = cache_hits;
    stats_->config_words_fetched = config_words_fetched;
    stats_->hidden_latency = hidden_latency;
  }

  /// Stores task-migration counters in the job's stats; report_json() emits
  /// them as the job's "migration" object. Scalars (not a MigrationStats
  /// reference) so the campaign layer stays migration-controller-agnostic.
  void record_migration(u64 migrations, u64 state_words_moved,
                        u64 transfer_faults_recovered) {
    stats_->has_migration = true;
    stats_->migrations = migrations;
    stats_->state_words_moved = state_words_moved;
    stats_->transfer_faults_recovered = transfer_faults_recovered;
  }

  /// Stores an opaque tool payload in the job's stats. It travels with the
  /// JobStats through the journal, the process-worker socket and the result
  /// cache, so tools can reconstruct per-job output (table rows, packed
  /// metrics) for jobs that ran in a child process or were served from
  /// cache without re-simulating.
  void record_user_data(std::string data) {
    stats_->user_data = std::move(data);
  }

  /// Stores resident-set and ECC counters in the job's stats; report_json()
  /// emits them as the job's "memory" object. Scalars (not PagedStore/
  /// EccModel references) so the campaign layer stays backing-agnostic.
  /// The peak is this attempt's own: the high-water of the pages held by
  /// the stores it built (see mem::JobMemory).
  void record_memory(u64 pages_resident, u64 cow_splits, u64 shared_pages,
                     u64 ecc_corrected = 0, u64 ecc_uncorrectable = 0) {
    stats_->has_memory = true;
    stats_->mem_resident_peak_bytes = memory_->peak_bytes();
    stats_->mem_pages_resident = pages_resident;
    stats_->mem_cow_splits = cow_splits;
    stats_->mem_shared_pages = shared_pages;
    stats_->ecc_corrected = ecc_corrected;
    stats_->ecc_uncorrectable = ecc_uncorrectable;
  }

  /// Converts a typed over-budget failure into the structured
  /// `budget-quarantined` verdict: reason + the job's peak in the record,
  /// never a bad_alloc crash. Called by the attempt loop (run_attempts) and by
  /// the forked child's top-level handler; idempotent.
  void mark_budget_quarantined() {
    stats_->has_memory = true;
    stats_->mem_resident_peak_bytes =
        std::max(stats_->mem_resident_peak_bytes, memory_->peak_bytes());
    stats_->failed = false;
    stats_->error.clear();
    mark_quarantined("budget-quarantined");
  }

  /// Stores the job's timing abstraction (mode, quantum, sync count) in its
  /// stats; report_json() emits them as the job's "timing" object. Call
  /// after sim.run() so loose_syncs() is final.
  void record_timing(const kern::Simulation& sim) {
    stats_->has_timing = true;
    stats_->loose = sim.loose();
    stats_->quantum = sim.quantum();
    stats_->loose_syncs = sim.loose_syncs();
  }

  /// 1-based attempt currently running (grows with JobOptions::max_attempts).
  [[nodiscard]] u32 attempt() const noexcept { return stats_->attempts; }
  /// True once the wall-clock watchdog stopped this attempt's Simulation.
  [[nodiscard]] bool attempt_timed_out() const noexcept { return timed_out_; }
  /// True once the runner broadcast a stop (SIGINT/SIGTERM or
  /// request_stop_all()): the job's result is partial and must not be
  /// recorded as done; the attempt loop quarantines it as "interrupted"
  /// so a journal resume re-runs it.
  [[nodiscard]] bool interrupted() const noexcept;

  /// Arms the job's wall-clock timeout against `sim` for the lifetime of
  /// the returned guard (typically wrapped around sim.run()). No-op when
  /// the job has no timeout or runs outside a pool — including inside a
  /// forked worker child, where the parent's supervisor (not an in-process
  /// watchdog) enforces the deadline by SIGKILL.
  [[nodiscard]] WatchdogGuard guard(kern::Simulation& sim);

 private:
  friend class CampaignRunner;
  friend class ProcessWorkerPool;
  friend class WatchdogGuard;
  template <typename F>
  friend auto run_inline(std::string label, std::vector<JobStats>& records,
                         F fn);
  explicit JobContext(JobStats* stats) : stats_(stats) {}
  /// The attempt loop of every submitted job, in either mode: retries and
  /// backs off per JobOptions, and throws once the job fails, is
  /// quarantined or is interrupted. Thread mode runs `body` per attempt;
  /// process mode runs the job's kind in this worker's child instead.
  void run_attempts(const std::function<void(JobContext&)>& body);
  /// One attempt in this worker's child; its JobStats replace this job's
  /// record. Throws WorkerDeathError if the child dies without a result, or
  /// the child's error if its body threw.
  void run_attempt_in_child();
  /// run_inline()'s bookkeeping: runs `body` once on this thread and
  /// appends its record to `records`.
  static void run_inline_job(std::string label, std::vector<JobStats>& records,
                             const std::function<void(JobContext&)>& body);
  void mark_failed(std::string msg) {
    stats_->failed = true;
    stats_->error = std::move(msg);
  }
  void mark_quarantined(std::string reason) {
    stats_->quarantined = true;
    stats_->quarantine_reason = std::move(reason);
  }
  /// Resets per-attempt state, journals the attempt, observes cancellation.
  void begin_attempt(u32 attempt);
  /// Crash-quarantine key: JobOptions::spec, else spec_hash(label).
  [[nodiscard]] u64 crash_key() const;
  JobStats* stats_;
  CampaignRunner* runner_ = nullptr;
  JobOptions opt_;
  /// Pages of the stores this job builds (charged while it is current).
  std::shared_ptr<mem::JobMemory> memory_ = std::make_shared<mem::JobMemory>();
  const JobKind* kind_ = nullptr;  ///< Set by the worker for every job.
  WorkerChild* child_ = nullptr;   ///< The worker's child (process mode).
  bool timed_out_ = false;
  bool interrupted_ = false;
};

namespace detail {

/// Calls a job function: `fn` is R() or R(JobContext&).
template <typename F>
decltype(auto) call_job(F& fn, JobContext& ctx) {
  if constexpr (std::is_invocable_v<F&, JobContext&>) {
    return fn(ctx);
  } else {
    return fn();
  }
}

template <typename F>
using job_result_t =
    decltype(call_job(std::declval<F&>(), std::declval<JobContext&>()));

/// Hands `run` a void(JobContext&) body that calls `fn`, and returns the
/// value `fn` produced.
template <typename F, typename Run>
auto run_capturing(F& fn, Run run) {
  using R = job_result_t<F>;
  if constexpr (std::is_void_v<R>) {
    run([&fn](JobContext& ctx) { call_job(fn, ctx); });
  } else {
    std::optional<R> value;
    run([&](JobContext& ctx) { value.emplace(call_job(fn, ctx)); });
    return std::move(*value);
  }
}

}  // namespace detail

class CampaignRunner {
 public:
  /// threads == 0 picks the hardware concurrency (at least 1). With
  /// ExecutionMode::kProcesses each worker thread runs its jobs in a forked
  /// child, kept across a backlog (see worker_pool.hpp); where fork is
  /// unusable (ThreadSanitizer builds, ADRIATIC_NO_FORK=1) the runner logs
  /// a warning and degrades to kThreads — check mode() to see what it
  /// actually runs. `kinds` builds the bodies of submit_kind() jobs.
  explicit CampaignRunner(usize threads = 0,
                          ExecutionMode mode = ExecutionMode::kThreads,
                          KindResolver kinds = {});
  ~CampaignRunner();

  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  [[nodiscard]] usize thread_count() const noexcept {
    return workers_.size();
  }

  /// Effective execution mode (kProcesses only when fork is usable).
  [[nodiscard]] ExecutionMode mode() const noexcept { return mode_; }

  /// Submits a job. `fn` is either `R()` or `R(JobContext&)`; it runs on a
  /// worker thread and must build its own Simulation (never share kernel
  /// objects across jobs). An exception thrown by `fn` is delivered through
  /// the returned future and flagged in the job's stats; it does not affect
  /// the pool or other jobs. Thread mode only: in kProcesses mode it throws
  /// std::logic_error before anything is queued or forked.
  template <typename F>
  auto submit(std::string label, F fn) {
    return submit(std::move(label), JobOptions{}, std::move(fn));
  }

  /// submit() with robustness options: a failing attempt (exception or
  /// wall-clock timeout) is retried up to opt.max_attempts times; a job
  /// whose final attempt still fails on timeout — or that exhausts its
  /// retries on timeouts — is quarantined: its record keeps done == false
  /// with a reason, and the future carries a std::runtime_error.
  template <typename F>
  auto submit(std::string label, JobOptions opt, F fn) {
    if (pool_ != nullptr)
      throw std::logic_error(
          "CampaignRunner: process mode runs kind jobs only (submit_kind)");
    return submit_job(std::move(label), std::move(opt), std::move(fn), {});
  }

  /// submit() for a job of a registered kind, in either mode: the resolver
  /// given at construction builds the body from (kind, label) once per
  /// attempt, where the attempt runs — on the worker thread in kThreads
  /// mode, in the worker's child in kProcesses mode (build_kind_body()).
  ///
  /// In kProcesses mode a child's JobStats come back over a socket and
  /// replace this job's record; process-mode campaigns read runner.stats() /
  /// JobStats::user_data. A worker whose child finished its last job
  /// cleanly sends it the next one as a job frame. Child deaths (signal,
  /// nonzero exit, heartbeat loss) feed the retry machinery as structured
  /// WorkerFailures and, after JobOptions::crash_limit crashes of the same
  /// spec, quarantine the job with the failure's reason().
  std::future<void> submit_kind(std::string label, JobOptions opt,
                                JobKind kind);

  /// Blocks until every submitted job has finished.
  void wait_idle();

  /// Attaches a write-ahead journal: every attempt logs a `B` record as it
  /// begins and every finished job a `D` record with its full JobStats (see
  /// campaign/journal.hpp). The journal must outlive all submitted jobs.
  void set_journal(CampaignJournal* journal) noexcept { journal_ = journal; }

  /// Registers a hook invoked on the worker thread right after a job's final
  /// record is committed (visible to stats()). Unlike the job's future —
  /// which resolves *before* the commit — the hook always sees the complete
  /// JobStats, so streaming consumers (the campaign service) can forward
  /// results as they land; wait_idle() returns only after every hook call
  /// has returned. Set it before the first submit(); it runs outside the
  /// runner's locks and must not call back into this runner. In process
  /// mode the worker has already taken its next job, or retired its child,
  /// when the hook runs.
  void set_completion_hook(std::function<void(const JobStats&)> hook) {
    completion_hook_ = std::move(hook);
  }

  /// Makes the watchdog thread poll the process-wide signal-stop flag (see
  /// install_stop_signal_handlers); when it fires, pending jobs are
  /// cancelled and every guarded Simulation gets request_stop().
  void enable_signal_stop() noexcept {
    signal_stop_enabled_.store(true, std::memory_order_relaxed);
    wcv_.notify_all();
  }
  [[nodiscard]] bool signal_stop_enabled() const noexcept {
    return signal_stop_enabled_.load(std::memory_order_relaxed);
  }

  /// Cancels jobs that have not started an attempt yet: they resolve their
  /// futures with "job interrupted" and are quarantined, never run.
  void cancel_pending() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Broadcast stop: cancels pending jobs and request_stop()s every
  /// currently guarded Simulation, marking those attempts interrupted (they
  /// quarantine instead of committing partial results). Thread-safe; also
  /// invoked by the watchdog when the signal-stop flag fires.
  void request_stop_all();

  /// Snapshot of per-job metrics in submission order. Call after wait_idle()
  /// for a complete view — a job's future resolves before its worker commits
  /// the record, so resolved futures alone do not guarantee completeness.
  /// Records of jobs still queued or running carry done == false and
  /// placeholder metrics (report_json() flags them and keeps them out of
  /// the totals).
  [[nodiscard]] std::vector<JobStats> stats() const;

  /// Live worker children (process mode): 0 whenever the runner is idle.
  [[nodiscard]] usize live_children() const;

 private:
  friend class JobContext;
  friend class WatchdogGuard;

  template <typename F>
  auto submit_job(std::string label, JobOptions opt, F fn, JobKind kind) {
    using R = detail::job_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R(JobContext&)>>(
        [f = std::move(fn)](JobContext& ctx) mutable {
          return detail::run_capturing(
              f, [&ctx](const auto& body) { ctx.run_attempts(body); });
        });
    std::future<R> fut = task->get_future();
    enqueue(std::move(label), opt, std::move(kind),
            [task](JobContext& ctx) { (*task)(ctx); });
    return fut;
  }

  struct Job {
    usize index = 0;
    std::string label;
    JobOptions opt;
    JobKind kind;
    std::function<void(JobContext&)> body;
  };

  /// One armed wall-clock watch; lives until its guard is destroyed.
  struct Watch {
    u64 id = 0;
    kern::Simulation* sim = nullptr;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;  ///< False: registered for broadcast stop only.
    bool fired = false;
    bool interrupted = false;  ///< A broadcast stop hit this watch.
  };
  struct WatchResult {
    bool fired = false;
    bool interrupted = false;
  };

  void enqueue(std::string label, JobOptions opt, JobKind kind,
               std::function<void(JobContext&)> body);
  void worker_loop();
  void watchdog_loop();
  /// Registers `sim` with the watchdog (timeout <= 0: broadcast-stop only);
  /// returns the watch id.
  u64 watch(kern::Simulation& sim, double timeout_seconds);
  /// Removes a watch; reports what happened while it was armed.
  WatchResult unwatch(u64 id);
  /// Journal hooks (no-ops without a journal).
  void journal_begun(usize index, u32 attempt);
  void journal_done(const JobStats& stats);
  void journal_worker_death(usize index, const std::string& reason);

  /// Per-spec crash accounting (process mode), guarded by cmu_. Returns
  /// the new count.
  u32 note_crash(u64 spec);
  [[nodiscard]] u32 crash_count(u64 spec) const;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::deque<Job> queue_;
  // Touched only under mu_: workers fill a local JobStats while running and
  // commit it here when the job ends, keeping readers race-free.
  std::vector<JobStats> records_;
  usize inflight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
  CampaignJournal* journal_ = nullptr;
  std::function<void(const JobStats&)> completion_hook_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> signal_stop_enabled_{false};
  ExecutionMode mode_ = ExecutionMode::kThreads;
  const KindResolver kinds_;                 ///< Builds kind job bodies.
  std::unique_ptr<ProcessWorkerPool> pool_;  ///< Non-null in kProcesses mode.
  mutable std::mutex cmu_;                   ///< Guards crash_counts_.
  std::map<u64, u32> crash_counts_;          ///< spec -> child crashes.

  // Watchdog state, guarded by wmu_ (separate from mu_: the watchdog must
  // never contend with the job queue).
  std::mutex wmu_;
  std::condition_variable wcv_;
  std::vector<Watch> watches_;
  u64 next_watch_id_ = 1;
  bool watchdog_shutdown_ = false;
  std::thread watchdog_;
};

/// Runs one job inline on the calling thread with the same bookkeeping a
/// pool worker applies — wall-clock timing, JobContext counters, done/failed
/// flags — and appends the record to `records`. Serial reference paths (e.g.
/// `dse_explorer --serial`) use this so `--report` carries the same data in
/// both modes. `fn` is `R()` or `R(JobContext&)`, as with submit(); a
/// throwing `fn` is recorded (failed = true) and the exception rethrown.
template <typename F>
auto run_inline(std::string label, std::vector<JobStats>& records, F fn) {
  return detail::run_capturing(fn, [&](const auto& body) {
    JobContext::run_inline_job(std::move(label), records, body);
  });
}

/// Worker count for tools: the ADRIATIC_CAMPAIGN_THREADS environment
/// variable if set (0 or unset => hardware concurrency).
[[nodiscard]] usize default_thread_count();

}  // namespace adriatic::campaign
