#include "campaign/worker_pool.hpp"

#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/journal.hpp"
#include "kernel/process.hpp"
#include "kernel/simulation.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {

namespace {

// fork() is serialised process-wide, and the parent closes its copy of the
// child's write fd before releasing the lock. Without this, a concurrently
// forked sibling would inherit the write end and keep the pipe open after
// the owning child died — the parent would never see EOF and a crashed
// child would look like a hang until its sibling exited too.
std::mutex g_fork_mu;

// Child-side heartbeat state for the async-signal-safe SIGALRM handler:
// a precomputed frame and the raw fd, nothing that allocates.
int g_heartbeat_fd = -1;
char g_heartbeat_frame[kFrameHeaderSize];

void heartbeat_handler(int) noexcept {
  if (g_heartbeat_fd < 0) return;
  // Best-effort: a full pipe just drops a beat (the parent reads eagerly).
  [[maybe_unused]] const ssize_t n =
      ::write(g_heartbeat_fd, g_heartbeat_frame, sizeof g_heartbeat_frame);
}

// Child-side crash report. A fiber stack overflow faults on the stack's
// guard page with no stack left to run a handler on, so SIGSEGV is taken on
// an alternate stack. The handler names the simulation process that was
// running, using only write(2), then restores the default action and
// re-raises: the parent still sees death by SIGSEGV and quarantines it.
alignas(16) char g_crash_stack[64 * 1024];

void write_stderr(const char* s, usize n) noexcept {
  [[maybe_unused]] const ssize_t w = ::write(STDERR_FILENO, s, n);
}

void crash_handler(int sig) noexcept {
  static constexpr char kHead[] = "campaign worker: SIGSEGV in ";
  write_stderr(kHead, sizeof kHead - 1);
  if (const kern::Process* p = kern::Simulation::running_process()) {
    static constexpr char kProc[] = "simulation process ";
    write_stderr(kProc, sizeof kProc - 1);
    write_stderr(p->name().data(), p->name().size());
    static constexpr char kHint[] = " (fiber stack overflow?)\n";
    write_stderr(kHint, sizeof kHint - 1);
  } else {
    static constexpr char kNone[] = "no simulation process\n";
    write_stderr(kNone, sizeof kNone - 1);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);  // delivered, with the default action, once we return
}

void install_crash_handler() noexcept {
  stack_t ss = {};
  ss.ss_sp = g_crash_stack;
  ss.ss_size = sizeof g_crash_stack;
  ::sigaltstack(&ss, nullptr);
  struct sigaction sa = {};
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_ONSTACK;
  ::sigaction(SIGSEGV, &sa, nullptr);
}

[[nodiscard]] const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return nullptr;
  }
}

void put_u32_le(std::string& out, u32 v) {
  for (int i = 0; i < 4; ++i)
    out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

[[nodiscard]] u32 get_u32_le(const std::string& s, usize at) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<u32>(static_cast<u8>(s[at + static_cast<usize>(i)]))
         << (8 * i);
  return v;
}

/// Full write with EINTR retry; false on hard error (parent gone).
bool write_all(int fd, const char* data, usize n) {
  usize off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<usize>(w);
  }
  return true;
}

}  // namespace

std::string WorkerFailure::reason() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kSignal:
      if (const char* name = signal_name(code))
        return std::string("signal:") + name;
      return strfmt("signal:%d", code);
    case Kind::kExitCode:
      return strfmt("exit:%d", code);
    case Kind::kTimeout:
      return "timeout";
    case Kind::kHeartbeatLost:
      return "heartbeat-lost";
    case Kind::kInterrupted:
      return "interrupted";
    case Kind::kProtocol:
      return "protocol";
  }
  return "unknown";
}

// -- Frame codec -------------------------------------------------------------

std::string encode_frame(char type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out += kFrameMagic;
  out += type;
  put_u32_le(out, static_cast<u32>(payload.size()));
  put_u32_le(out, static_cast<u32>(fnv1a(payload)));
  out += payload;
  return out;
}

std::optional<Frame> FrameDecoder::next() {
  if (error_ || buf_.size() < kFrameHeaderSize) return std::nullopt;
  if (buf_[0] != kFrameMagic) {
    error_ = true;
    return std::nullopt;
  }
  const u32 len = get_u32_le(buf_, 2);
  if (len > kFrameMaxPayload) {
    error_ = true;
    return std::nullopt;
  }
  if (buf_.size() < kFrameHeaderSize + len) return std::nullopt;
  Frame f;
  f.type = buf_[1];
  f.payload = buf_.substr(kFrameHeaderSize, len);
  if (static_cast<u32>(fnv1a(f.payload)) != get_u32_le(buf_, 6)) {
    error_ = true;
    return std::nullopt;
  }
  buf_.erase(0, kFrameHeaderSize + len);
  return f;
}

// -- Pool --------------------------------------------------------------------

bool ProcessWorkerPool::fork_available() noexcept {
#if defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return false;
#endif
#endif
  const char* env = std::getenv("ADRIATIC_NO_FORK");
  if (env != nullptr && env[0] == '1') return false;
  return true;
}

ProcessWorkerPool::ProcessWorkerPool() {
  supervisor_ = std::thread([this] { supervisor_loop(); });
}

ProcessWorkerPool::~ProcessWorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  supervisor_.join();
}

usize ProcessWorkerPool::live_children() const {
  std::lock_guard<std::mutex> lk(mu_);
  return children_.size();
}

u64 ProcessWorkerPool::register_child(int pid, const JobOptions& opt) {
  const auto now = std::chrono::steady_clock::now();
  ChildWatch w;
  w.pid = pid;
  w.has_deadline = opt.wall_timeout_seconds > 0;
  if (w.has_deadline)
    w.deadline =
        now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(opt.wall_timeout_seconds));
  w.heartbeat_timeout = opt.heartbeat_timeout_seconds;
  w.last_heartbeat = now;
  u64 token = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    token = next_token_++;
    children_[token] = w;
  }
  cv_.notify_all();
  return token;
}

void ProcessWorkerPool::note_heartbeat(u64 token) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = children_.find(token);
  if (it != children_.end())
    it->second.last_heartbeat = std::chrono::steady_clock::now();
}

WorkerFailure ProcessWorkerPool::unregister_child(u64 token) {
  // Removing the entry *before* waitpid() guarantees the supervisor never
  // signals a pid that has been reaped (and possibly recycled).
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = children_.find(token);
  if (it == children_.end()) return {};
  const WorkerFailure verdict = it->second.verdict;
  children_.erase(it);
  return verdict;
}

void ProcessWorkerPool::kill_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [token, w] : children_) {
    if (w.verdict.kind != WorkerFailure::Kind::kNone) continue;
    w.verdict.kind = WorkerFailure::Kind::kInterrupted;
    ::kill(w.pid, SIGKILL);
  }
}

void ProcessWorkerPool::supervisor_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (shutdown_) return;
    cv_.wait_for(lk, std::chrono::milliseconds(50));
    if (shutdown_) return;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [token, w] : children_) {
      if (w.verdict.kind != WorkerFailure::Kind::kNone) continue;
      if (w.has_deadline && now >= w.deadline) {
        w.verdict.kind = WorkerFailure::Kind::kTimeout;
        ::kill(w.pid, SIGKILL);
      } else if (w.heartbeat_timeout > 0 &&
                 std::chrono::duration<double>(now - w.last_heartbeat)
                         .count() > w.heartbeat_timeout) {
        w.verdict.kind = WorkerFailure::Kind::kHeartbeatLost;
        ::kill(w.pid, SIGKILL);
      }
    }
  }
}

void ProcessWorkerPool::child_main(const ChildRequest& req, int write_fd) {
  // The parent's SIGINT/SIGTERM dispositions (install_stop_signal_handlers)
  // must not leak into workers: a Ctrl-C would otherwise set the inherited
  // stop flag in every child instead of letting the parent's broadcast
  // SIGKILL them with a clean "interrupted" verdict.
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  ::sigaction(SIGINT, &dfl, nullptr);
  ::sigaction(SIGTERM, &dfl, nullptr);
  install_crash_handler();

  // Heartbeats: ~10/s via SIGALRM, written straight from the handler. The
  // child stays single-threaded on purpose — a helper thread after a
  // multithreaded fork is exactly what sanitizers (rightly) reject.
  g_heartbeat_fd = write_fd;
  {
    const std::string hb = encode_frame(kFrameHeartbeat, "");
    std::memcpy(g_heartbeat_frame, hb.data(), kFrameHeaderSize);
  }
  struct sigaction alarm_sa = {};
  alarm_sa.sa_handler = heartbeat_handler;
  sigemptyset(&alarm_sa.sa_mask);
  alarm_sa.sa_flags = SA_RESTART;
  ::sigaction(SIGALRM, &alarm_sa, nullptr);
  itimerval tv = {};
  tv.it_interval.tv_usec = 100 * 1000;
  tv.it_value.tv_usec = 100 * 1000;
  ::setitimer(ITIMER_REAL, &tv, nullptr);

  // Deliberate failures for crash-containment tests, injected before the
  // body so containment (not the simulation) is what gets exercised.
  switch (req.opt.debug_failure) {
    case DebugFailure::kNone:
      break;
    case DebugFailure::kSegv:
      // ASan intercepts SIGSEGV and turns it into exit(1); restoring the
      // default disposition first makes the child genuinely die by signal
      // in every build flavour.
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      ::_exit(97);  // unreachable
    case DebugFailure::kAbort:
      ::signal(SIGABRT, SIG_DFL);
      ::abort();
    case DebugFailure::kHangCpu:
      // Heartbeats keep flowing while this spins, so only the wall
      // deadline catches it — the "runaway but alive" failure mode.
      for (volatile u64 spin = 0;;) {
        spin = spin + 1;
      }
    case DebugFailure::kHangSleep: {
      // Block SIGALRM so heartbeats stop too: the "wedged in the kernel /
      // swapped out" failure mode the heartbeat timeout exists for.
      sigset_t block;
      sigemptyset(&block);
      sigaddset(&block, SIGALRM);
      ::sigprocmask(SIG_BLOCK, &block, nullptr);
      for (;;) {
        timespec ts{3600, 0};
        ::nanosleep(&ts, nullptr);
      }
    }
    case DebugFailure::kExitCode:
      ::_exit(req.opt.debug_exit_code);
  }

  JobStats local;
  local.index = req.index;
  local.label = req.label;
  local.attempts = req.attempt;
  JobContext ctx(&local);  // runner_ stays null: guard() is a no-op here —
                           // the parent's supervisor is the watchdog.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    req.body(ctx);
  } catch (const mem::BudgetExceededError& over) {
    // A structured verdict, not a crash: the child exits cleanly with a
    // `budget-quarantined` result frame instead of dying to the OOM killer.
    ctx.mark_budget_quarantined(over);
  } catch (...) {
    ctx.mark_failed(describe_current_exception());
  }
  local.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Quiesce the heartbeat before the result frame so the two writes cannot
  // interleave mid-frame.
  itimerval off = {};
  ::setitimer(ITIMER_REAL, &off, nullptr);
  sigset_t block;
  sigemptyset(&block);
  sigaddset(&block, SIGALRM);
  ::sigprocmask(SIG_BLOCK, &block, nullptr);

  const std::string frame =
      encode_frame(kFrameResult, encode_job_stats(local));
  write_all(write_fd, frame.data(), frame.size());
  ::close(write_fd);
  // _exit, not exit: atexit handlers and static destructors belong to the
  // parent image and must run exactly once, in the parent.
  ::_exit(0);
}

ChildResult ProcessWorkerPool::run_child(const ChildRequest& req) {
  int fds[2] = {-1, -1};
  int pid = -1;
  {
    std::lock_guard<std::mutex> fork_lk(g_fork_mu);
    if (::pipe(fds) != 0) {
      ChildResult r;
      r.failure.kind = WorkerFailure::Kind::kProtocol;
      return r;
    }
    pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      child_main(req, fds[1]);  // never returns
    }
    // Parent: drop the write end before any sibling can fork and inherit
    // it, so child death == EOF on the read end.
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      ChildResult r;
      r.failure.kind = WorkerFailure::Kind::kProtocol;
      return r;
    }
  }

  const u64 token = register_child(pid, req.opt);
  FrameDecoder decoder;
  std::optional<std::string> result_payload;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF: the child exited or was SIGKILLed.
    decoder.feed(chunk, static_cast<usize>(n));
    while (auto f = decoder.next()) {
      if (f->type == kFrameHeartbeat) {
        note_heartbeat(token);
      } else if (f->type == kFrameResult) {
        result_payload = std::move(f->payload);
      }
    }
    if (decoder.error()) break;
  }
  const WorkerFailure verdict = unregister_child(token);
  ::close(fds[0]);

  // Blocking reap — EOF means the child is gone or going; this cannot hang
  // and it keeps the process table zombie-free.
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  ChildResult r;
  if (result_payload.has_value()) {
    // A complete, checksummed result outranks everything else: even if the
    // supervisor's SIGKILL raced the child's _exit, the job itself finished.
    r.has_stats = true;
    r.stats = decode_job_stats(*result_payload);
    return r;
  }
  if (verdict.kind != WorkerFailure::Kind::kNone) {
    r.failure = verdict;
    return r;
  }
  if (WIFSIGNALED(status)) {
    r.failure.kind = WorkerFailure::Kind::kSignal;
    r.failure.code = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    r.failure.kind = WorkerFailure::Kind::kExitCode;
    r.failure.code = WEXITSTATUS(status);
  } else {
    // Exited 0 without delivering a result (or corrupted the stream).
    r.failure.kind = WorkerFailure::Kind::kProtocol;
  }
  return r;
}

}  // namespace adriatic::campaign
