#include "campaign/campaign.hpp"

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cstdlib>

#include "campaign/journal.hpp"
#include "campaign/worker_pool.hpp"
#include "util/log.hpp"

namespace adriatic::campaign {

namespace {
// Set from the signal handler; read by runner watchdog threads and tools.
std::atomic<bool> g_signal_stop{false};

// The handler body is a single lock-free atomic store — the only action
// that is async-signal-safe here. Everything else (journal flush, stop
// broadcast, report writing) happens on normal threads that poll the flag.
void stop_signal_handler(int) noexcept {
  g_signal_stop.store(true, std::memory_order_relaxed);
}
}  // namespace

void install_stop_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

bool signal_stop_requested() noexcept {
  return g_signal_stop.load(std::memory_order_relaxed);
}

void clear_signal_stop() noexcept {
  g_signal_stop.store(false, std::memory_order_relaxed);
}

CampaignRunner::CampaignRunner(usize threads, ExecutionMode mode,
                               KindResolver kinds)
    : kinds_(std::move(kinds)) {
  if (mode == ExecutionMode::kProcesses) {
    if (ProcessWorkerPool::fork_available()) {
      mode_ = ExecutionMode::kProcesses;
      pool_ = std::make_unique<ProcessWorkerPool>(kinds_);
    } else {
      // Graceful degrade, not an error: the campaign still runs, it just
      // loses crash containment. mode() tells callers what they got.
      log::warn() << "campaign: fork unavailable (sanitizer build or "
                     "ADRIATIC_NO_FORK=1); degrading to thread mode";
    }
  }
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (usize i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

CampaignRunner::~CampaignRunner() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
  {
    std::lock_guard<std::mutex> lk(wmu_);
    watchdog_shutdown_ = true;
  }
  wcv_.notify_all();
  watchdog_.join();
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

std::function<void(JobContext&)> build_kind_body(const KindResolver& kinds,
                                                 const JobKind& kind,
                                                 const std::string& label) {
  std::function<void(JobContext&)> body;
  if (kinds) body = kinds(kind, label);
  if (!body)
    throw std::runtime_error("no job builder registered for kind '" +
                             kind.name + "'");
  return body;
}

std::future<void> CampaignRunner::submit_kind(std::string label,
                                              JobOptions opt, JobKind kind) {
  // The body below is thread mode's; process mode sends the kind to the
  // worker's child instead (run_attempt_in_child).
  return submit_job(
      std::move(label), std::move(opt),
      [this](JobContext& ctx) {
        build_kind_body(kinds_, *ctx.kind_, ctx.stats_->label)(ctx);
      },
      std::move(kind));
}

usize CampaignRunner::live_children() const {
  return pool_ != nullptr ? pool_->live_children() : 0;
}

void CampaignRunner::enqueue(std::string label, JobOptions opt, JobKind kind,
                             std::function<void(JobContext&)> body) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (shutdown_)
      throw std::logic_error("CampaignRunner: submit after shutdown");
    Job job;
    job.index = records_.size();
    job.label = label;
    job.opt = opt;
    job.kind = std::move(kind);
    job.body = std::move(body);
    JobStats placeholder;
    placeholder.index = opt.stats_index.value_or(job.index);
    placeholder.label = std::move(label);
    records_.push_back(std::move(placeholder));
    queue_.push_back(std::move(job));
  }
  cv_work_.notify_one();
}

void CampaignRunner::worker_loop() {
  // This worker's child in process mode: alive only while the worker holds
  // a job, so it is retired whenever the queue runs dry (worker_pool.hpp).
  WorkerChild child;
  std::optional<Job> next;
  for (;;) {
    Job job;
    if (next.has_value()) {
      job = std::move(*next);
      next.reset();
    } else {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }

    JobStats local;
    local.index = job.opt.stats_index.value_or(job.index);
    local.label = job.label;
    JobContext ctx(&local);
    ctx.runner_ = this;
    ctx.opt_ = job.opt;
    ctx.kind_ = &job.kind;
    ctx.child_ = &child;
    const auto t0 = std::chrono::steady_clock::now();
    {
      const mem::JobMemory::Scope memory(ctx.memory_);
      job.body(ctx);  // a packaged_task: exceptions land in the future
    }
    local.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // A job that ran past its whole wall budget (all attempts combined)
    // without the in-simulation watchdog catching it — e.g. it never armed a
    // guard — is still recorded truthfully as over budget.
    if (job.opt.wall_timeout_seconds > 0 && !local.quarantined &&
        local.wall_seconds > job.opt.wall_timeout_seconds *
                                 std::max<u32>(1u, job.opt.max_attempts)) {
      local.quarantined = true;
      local.quarantine_reason = "wall-clock budget exceeded";
    }
    local.done = !local.quarantined;

    // Journal before commit: the fsync'd D record is on disk before the
    // result becomes visible to stats()/futures' consumers, so a crash
    // between the two at worst re-runs a finished job (idempotent), never
    // trusts an unjournaled one.
    journal_done(local);
    {
      std::lock_guard<std::mutex> lk(mu_);
      records_[job.index] = local;
      // Process mode takes the next job before the hook, so the child
      // stays busy; with nothing queued the child is retired before the
      // hook instead.
      if (pool_ != nullptr && !queue_.empty()) {
        next = std::move(queue_.front());
        queue_.pop_front();
        ++inflight_;
      }
    }
    if (pool_ != nullptr && !next.has_value()) pool_->retire(child);
    // After the commit and outside the lock: the hook observes the same
    // record stats() now serves, and may block (socket writes) without
    // stalling other workers' commits. The job stays in flight until the
    // hook returns, so wait_idle() also waits for its result to stream out
    // (the service closes its connections right after wait_idle()).
    if (completion_hook_) completion_hook_(local);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;
      if (queue_.empty() && inflight_ == 0) cv_idle_.notify_all();
    }
  }
}

void CampaignRunner::journal_begun(usize index, u32 attempt) {
  if (journal_ != nullptr) journal_->record_begun(index, attempt);
}

void CampaignRunner::journal_done(const JobStats& stats) {
  if (journal_ != nullptr) journal_->record_done(stats);
}

void CampaignRunner::journal_worker_death(usize index,
                                          const std::string& reason) {
  if (journal_ != nullptr) journal_->record_worker_death(index, reason);
}

u32 CampaignRunner::note_crash(u64 spec) {
  std::lock_guard<std::mutex> lk(cmu_);
  return ++crash_counts_[spec];
}

u32 CampaignRunner::crash_count(u64 spec) const {
  std::lock_guard<std::mutex> lk(cmu_);
  const auto it = crash_counts_.find(spec);
  return it == crash_counts_.end() ? 0 : it->second;
}

void CampaignRunner::watchdog_loop() {
  std::unique_lock<std::mutex> lk(wmu_);
  for (;;) {
    if (watchdog_shutdown_) return;
    // Sleep until the earliest armed deadline (or a new watch / shutdown).
    bool have_deadline = false;
    std::chrono::steady_clock::time_point next{};
    for (const Watch& w : watches_) {
      if (w.fired || !w.has_deadline) continue;
      if (!have_deadline || w.deadline < next) {
        next = w.deadline;
        have_deadline = true;
      }
    }
    // With signal-stop enabled the wait is capped so the signal flag is
    // observed within ~100ms even when no deadline is near.
    if (signal_stop_enabled()) {
      const auto cap =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
      wcv_.wait_until(lk, have_deadline && next < cap ? next : cap);
    } else if (have_deadline) {
      wcv_.wait_until(lk, next);
    } else {
      wcv_.wait(lk);
    }
    if (watchdog_shutdown_) return;
    if (signal_stop_enabled() && signal_stop_requested()) {
      // Broadcast every poll (not once): a job that armed its guard after
      // the first broadcast still has to be stopped.
      cancelled_.store(true, std::memory_order_relaxed);
      for (Watch& w : watches_) {
        w.interrupted = true;
        w.sim->request_stop();
      }
      // Forked workers can't observe the stop flag — kill them; their
      // run_job calls return an "interrupted" verdict.
      if (pool_ != nullptr) pool_->kill_all();
    }
    const auto now = std::chrono::steady_clock::now();
    for (Watch& w : watches_) {
      if (w.fired || !w.has_deadline || now < w.deadline) continue;
      w.fired = true;
      // request_stop() is the one Simulation entry point that is safe from
      // another OS thread; the job observes kExplicitStop and its guard
      // reports the timeout.
      w.sim->request_stop();
    }
  }
}

void CampaignRunner::request_stop_all() {
  cancelled_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(wmu_);
    for (Watch& w : watches_) {
      w.interrupted = true;
      w.sim->request_stop();
    }
  }
  if (pool_ != nullptr) pool_->kill_all();
}

u64 CampaignRunner::watch(kern::Simulation& sim, double timeout_seconds) {
  Watch w;
  w.sim = &sim;
  w.has_deadline = timeout_seconds > 0;
  if (w.has_deadline)
    w.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
  {
    std::lock_guard<std::mutex> lk(wmu_);
    w.id = next_watch_id_++;
    // A guard armed after a broadcast stop is stopped immediately — the
    // sweep is shutting down.
    if (cancelled_.load(std::memory_order_relaxed)) {
      w.interrupted = true;
      sim.request_stop();
    }
    watches_.push_back(w);
  }
  wcv_.notify_all();
  return w.id;
}

CampaignRunner::WatchResult CampaignRunner::unwatch(u64 id) {
  std::lock_guard<std::mutex> lk(wmu_);
  for (usize i = 0; i < watches_.size(); ++i) {
    if (watches_[i].id != id) continue;
    const WatchResult r{watches_[i].fired, watches_[i].interrupted};
    watches_.erase(watches_.begin() + static_cast<std::ptrdiff_t>(i));
    return r;
  }
  return {};
}

WatchdogGuard JobContext::guard(kern::Simulation& sim) {
  // runner_ == nullptr covers both out-of-pool contexts (run_inline) and
  // forked worker children: the child's deadline is the parent supervisor's
  // SIGKILL, not an in-process watchdog.
  if (runner_ == nullptr) return WatchdogGuard(this, 0);
  // Register even without a wall timeout: the watch is the only path by
  // which request_stop_all() or a SIGINT/SIGTERM broadcast can reach this
  // job's kernel while it simulates.
  return WatchdogGuard(this, runner_->watch(sim, opt_.wall_timeout_seconds));
}

WatchdogGuard::~WatchdogGuard() {
  if (id_ == 0) return;
  const CampaignRunner::WatchResult r = ctx_->runner_->unwatch(id_);
  if (r.fired) ctx_->timed_out_ = true;
  if (r.interrupted) ctx_->interrupted_ = true;
}

void JobContext::begin_attempt(u32 attempt) {
  timed_out_ = false;
  memory_->reset_peak();
  stats_->attempts = attempt;
  if (runner_ != nullptr) {
    if (runner_->cancelled()) interrupted_ = true;
    runner_->journal_begun(stats_->index, attempt);
  }
}

bool JobContext::interrupted() const noexcept {
  return interrupted_ || (runner_ != nullptr && runner_->cancelled());
}

u64 JobContext::crash_key() const {
  return opt_.spec != 0 ? opt_.spec : spec_hash(stats_->label);
}

void JobContext::run_attempts(const std::function<void(JobContext&)>& body) {
  const bool process_mode = runner_->pool_ != nullptr;
  const auto quarantine = [this](std::string reason) {
    mark_quarantined(std::move(reason));
    return std::runtime_error("job quarantined: " + stats_->quarantine_reason);
  };
  // An interrupted job never retries: its simulation was stopped mid-flight,
  // so the result is partial by design, and a journal resume re-runs it.
  const auto interrupt = [this] {
    if (!stats_->quarantined) mark_quarantined("interrupted");
    return std::runtime_error("job interrupted");
  };
  // A spec whose children crashed crash_limit times (across submissions of
  // this runner) never forks again: resumes and repeat submissions fail fast
  // instead of burning retries on a deterministic segfault.
  const auto crash_quarantined = [this] {
    return opt_.crash_limit > 0 &&
           runner_->crash_count(crash_key()) >= opt_.crash_limit;
  };
  const u32 max_attempts = std::max<u32>(1u, opt_.max_attempts);
  for (u32 attempt = 1;; ++attempt) {
    begin_attempt(attempt);
    // A runner-wide stop (signal) cancels queued work up front.
    if (interrupted()) throw interrupt();
    if (process_mode && crash_quarantined())
      throw quarantine("crash-quarantined");
    try {
      if (process_mode) {
        run_attempt_in_child();
      } else {
        body(*this);
      }
      if (interrupted()) throw interrupt();
      if (!timed_out_) return;
    } catch (const mem::BudgetExceededError&) {
      if (interrupted()) throw interrupt();
      // Over-budget is deterministic: retrying would allocate the same pages
      // again, so quarantine immediately — the rest of the sweep keeps its
      // budget headroom.
      mark_budget_quarantined();
      throw std::runtime_error("job quarantined: budget-quarantined");
    } catch (const WorkerDeathError& death) {
      using Kind = WorkerFailure::Kind;
      if (interrupted() || death.failure.kind == Kind::kInterrupted)
        throw interrupt();
      if (death.failure.kind == Kind::kTimeout) {
        // Rides the shared timeout tail below, like a watchdog stop.
        timed_out_ = true;
      } else if (crash_quarantined() || attempt >= max_attempts) {
        throw quarantine(death.failure.reason());
      }
    } catch (...) {
      if (interrupted()) {
        if (!stats_->quarantined) mark_quarantined("interrupted");
        throw;
      }
      // A timed-out attempt often surfaces as a secondary exception (the
      // stopped Simulation violates the job's expectations); route it
      // through the timeout/retry path below instead of reporting the
      // symptom.
      if (!timed_out_ && attempt >= max_attempts) {
        mark_failed(describe_current_exception());
        throw;
      }
    }
    if (attempt >= max_attempts) {
      if (!timed_out_) throw quarantine("retries exhausted");
      // The supervisor's verdict is "timeout"; the in-thread watchdog's is
      // "wall-clock timeout" (kept for report/journal compatibility).
      throw quarantine(process_mode ? "timeout" : "wall-clock timeout");
    }
    // Exponential backoff before the next attempt, slept in small slices
    // so a stop broadcast still cancels a backing-off job promptly.
    if (opt_.retry_backoff_seconds > 0) {
      double delay = opt_.retry_backoff_seconds;
      for (u32 a = 1; a < attempt; ++a) delay = std::min(delay * 2, 30.0);
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(delay);
      while (std::chrono::steady_clock::now() < until && !interrupted())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void JobContext::run_attempt_in_child() {
  ChildRequest req;
  req.index = stats_->index;
  req.label = stats_->label;
  req.attempt = stats_->attempts;
  req.opt = opt_;
  req.kind = *kind_;
  const ChildResult r = runner_->pool_->run_job(*child_, req);

  if (r.has_stats) {
    JobStats fresh = r.stats;
    // Parent-side identity and attempt bookkeeping stay authoritative —
    // the child only knows about its own single attempt.
    fresh.index = stats_->index;
    fresh.label = stats_->label;
    fresh.attempts = stats_->attempts;
    fresh.worker_deaths = stats_->worker_deaths;
    const bool child_failed = fresh.failed;
    std::string child_error = fresh.error;
    if (child_failed) {
      fresh.failed = false;
      fresh.error.clear();
    }
    *stats_ = std::move(fresh);
    // A body that threw inside the child replays as an exception here, so
    // the retry loop treats thread-mode and process-mode failures alike.
    // Budget exhaustion keeps its type across the socket: the child ships a
    // structured `budget-quarantined` verdict (not a crash), and the parent
    // re-raises it typed so the attempt loop's handler applies uniformly.
    if (stats_->quarantined && stats_->quarantine_reason == "budget-quarantined")
      throw mem::BudgetExceededError(
          0, 0, mem::MemoryBudget::instance().limit_bytes(),
          stats_->mem_resident_peak_bytes);
    if (child_failed) throw std::runtime_error(std::move(child_error));
    return;
  }

  ++stats_->worker_deaths;
  runner_->journal_worker_death(stats_->index, r.failure.reason());
  using Kind = WorkerFailure::Kind;
  const bool crash = r.failure.kind == Kind::kSignal ||
                     r.failure.kind == Kind::kExitCode ||
                     r.failure.kind == Kind::kHeartbeatLost ||
                     r.failure.kind == Kind::kProtocol;
  if (crash) runner_->note_crash(crash_key());
  throw WorkerDeathError(r.failure);
}

void JobContext::run_inline_job(std::string label,
                                std::vector<JobStats>& records,
                                const std::function<void(JobContext&)>& body) {
  JobStats local;
  local.index = records.size();
  local.label = std::move(label);
  JobContext ctx(&local);
  const mem::JobMemory::Scope memory(ctx.memory_);
  const auto t0 = std::chrono::steady_clock::now();
  const auto commit = [&] {
    local.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    local.done = true;
    records.push_back(std::move(local));
  };
  try {
    body(ctx);
  } catch (...) {
    ctx.mark_failed(describe_current_exception());
    commit();
    throw;
  }
  commit();
}

void CampaignRunner::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && inflight_ == 0; });
}

std::vector<JobStats> CampaignRunner::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

usize default_thread_count() {
  if (const char* env = std::getenv("ADRIATIC_CAMPAIGN_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<usize>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace adriatic::campaign
