#include "campaign/worker_pool.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
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
// child's socket end before releasing the lock, so a concurrently forked
// sibling never inherits it even for the moment before the sibling closes
// its inherited descriptors: a crashed child's EOF is never delayed.
std::mutex g_fork_mu;

// Child-side heartbeat state for the async-signal-safe SIGALRM handler:
// a precomputed frame and the raw fd, nothing that allocates.
int g_heartbeat_fd = -1;
char g_heartbeat_frame[kFrameHeaderSize];

void heartbeat_handler(int) noexcept {
  if (g_heartbeat_fd < 0) return;
  // Best-effort: a full socket buffer just drops a beat (the parent reads eagerly).
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

/// Full send with EINTR retry; false on hard error (peer gone). With
/// MSG_NOSIGNAL a peer that died costs a failed send, not a SIGPIPE.
bool write_all(int fd, const char* data, usize n) {
  usize off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<usize>(w);
  }
  return true;
}

/// Reads from `fd` into `dec` until a frame of `type` arrives. Heartbeats
/// go to `on_heartbeat`, other frames are dropped. nullopt on EOF, a read
/// error or a corrupt stream.
template <typename OnHeartbeat>
std::optional<Frame> read_until(int fd, FrameDecoder& dec, char type,
                                OnHeartbeat on_heartbeat) {
  char chunk[4096];
  for (;;) {
    while (auto f = dec.next()) {
      if (f->type == type) return f;
      if (f->type == kFrameHeartbeat) on_heartbeat();
    }
    if (dec.error()) return std::nullopt;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    dec.feed(chunk, static_cast<usize>(n));
  }
}

/// Child side: closes every descriptor but stdio and `keep`.
void close_inherited_fds(int keep) {
  const auto close_from = [](unsigned lo, unsigned hi) {
    if (lo > hi || ::close_range(lo, hi, 0) == 0) return;
    // Kernels before 5.9 lack close_range: one by one, up to the fd limit.
    const long top = std::min<long>(hi, ::sysconf(_SC_OPEN_MAX) - 1);
    for (long fd = lo; fd <= top; ++fd) ::close(static_cast<int>(fd));
  };
  const auto k = static_cast<unsigned>(keep);
  close_from(3, k - 1);
  close_from(k + 1, ~0U);
}

/// Child side: SIGALRM heartbeats on for one job, or off (and blocked, so a
/// heartbeat never lands inside the result frame).
void set_heartbeats(bool on) {
  itimerval tv = {};
  if (on) tv.it_interval.tv_usec = tv.it_value.tv_usec = 100 * 1000;
  sigset_t alarm;
  sigemptyset(&alarm);
  sigaddset(&alarm, SIGALRM);
  if (on) ::sigprocmask(SIG_UNBLOCK, &alarm, nullptr);
  ::setitimer(ITIMER_REAL, &tv, nullptr);
  if (!on) ::sigprocmask(SIG_BLOCK, &alarm, nullptr);
}

/// The job frame payload: kind, label, params, index, attempt and the debug
/// failure options (the parent enforces the other JobOptions itself).
std::string encode_job_request(const ChildRequest& req) {
  return strfmt("kind=%s params=%s label=%s index=%zu attempt=%u dfail=%d "
                "dexit=%d",
                encode_field(req.kind.name).c_str(),
                encode_field(req.kind.params).c_str(),
                encode_field(req.label).c_str(), req.index, req.attempt,
                static_cast<int>(req.opt.debug_failure),
                req.opt.debug_exit_code);
}

/// Inverse of encode_job_request(); nullopt on garbage.
std::optional<ChildRequest> decode_job_request(const std::string& payload) {
  ChildRequest req;
  for (const std::string& t : split(payload, ' ')) {
    const usize eq = t.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = t.substr(0, eq);
    const std::string val = t.substr(eq + 1);
    const auto num = [&val] { return std::strtoull(val.c_str(), nullptr, 10); };
    if (key == "kind") req.kind.name = decode_field(val);
    else if (key == "params") req.kind.params = decode_field(val);
    else if (key == "label") req.label = decode_field(val);
    else if (key == "index") req.index = static_cast<usize>(num());
    else if (key == "attempt") req.attempt = static_cast<u32>(num());
    else if (key == "dfail") req.opt.debug_failure = static_cast<DebugFailure>(num());
    else if (key == "dexit") req.opt.debug_exit_code = static_cast<int>(num());
  }
  return req;
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

ProcessWorkerPool::ProcessWorkerPool(KindResolver kinds)
    : kinds_(std::move(kinds)) {
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

void ProcessWorkerPool::arm(u64 token, const JobOptions& opt) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ChildWatch& w = children_.at(token);
    w.busy = true;
    w.has_deadline = opt.wall_timeout_seconds > 0;
    if (w.has_deadline)
      w.deadline =
          now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(opt.wall_timeout_seconds));
    w.heartbeat_timeout = opt.heartbeat_timeout_seconds;
    w.last_heartbeat = now;
    w.verdict = {};
  }
  cv_.notify_all();
}

void ProcessWorkerPool::note_heartbeat(u64 token) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = children_.find(token);
  if (it != children_.end())
    it->second.last_heartbeat = std::chrono::steady_clock::now();
}

WorkerFailure ProcessWorkerPool::disarm(u64 token) {
  std::lock_guard<std::mutex> lk(mu_);
  ChildWatch& w = children_.at(token);
  w.busy = false;
  return w.verdict;
}

void ProcessWorkerPool::kill_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [token, w] : children_) {
    if (!w.busy || w.verdict.kind != WorkerFailure::Kind::kNone) continue;
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
      if (!w.busy || w.verdict.kind != WorkerFailure::Kind::kNone) continue;
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

void ProcessWorkerPool::serve_job(const ChildRequest& req, int fd) const {
  set_heartbeats(true);
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
    const mem::JobMemory::Scope memory(ctx.memory_);
    build_kind_body(kinds_, req.kind, req.label)(ctx);
  } catch (const mem::BudgetExceededError&) {
    // A structured verdict, not a crash: the child reports a
    // `budget-quarantined` result instead of dying to the OOM killer.
    ctx.mark_budget_quarantined();
  } catch (...) {
    ctx.mark_failed(describe_current_exception());
  }
  local.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  set_heartbeats(false);
  const std::string frame =
      encode_frame(kFrameResult, encode_job_stats(local));
  write_all(fd, frame.data(), frame.size());
}

void ProcessWorkerPool::child_main(const ChildRequest& first, int fd) {
  close_inherited_fds(fd);
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

  // Heartbeats: ~10/s via SIGALRM while a job runs, written straight from
  // the handler. The child stays single-threaded on purpose — a helper
  // thread after a multithreaded fork is exactly what sanitizers (rightly)
  // reject.
  g_heartbeat_fd = fd;
  {
    const std::string hb = encode_frame(kFrameHeartbeat, "");
    std::memcpy(g_heartbeat_frame, hb.data(), kFrameHeaderSize);
  }
  struct sigaction alarm_sa = {};
  alarm_sa.sa_handler = heartbeat_handler;
  sigemptyset(&alarm_sa.sa_mask);
  alarm_sa.sa_flags = SA_RESTART;
  ::sigaction(SIGALRM, &alarm_sa, nullptr);

  serve_job(first, fd);
  FrameDecoder decoder;
  for (;;) {
    // EOF is the parent retiring this child (or gone); garbage is fatal.
    const auto frame = read_until(fd, decoder, kFrameJob, [] {});
    auto req = frame ? decode_job_request(frame->payload) : std::nullopt;
    if (!req) break;
    serve_job(*req, fd);
  }
  // _exit, not exit: atexit handlers and static destructors belong to the
  // parent image and must run exactly once, in the parent.
  ::_exit(0);
}

bool ProcessWorkerPool::spawn(WorkerChild& child, const ChildRequest& req) {
  int sv[2] = {-1, -1};
  int pid = -1;
  {
    std::lock_guard<std::mutex> fork_lk(g_fork_mu);
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
    pid = ::fork();
    if (pid == 0) {
      ::close(sv[0]);
      child_main(req, sv[1]);  // never returns
    }
    ::close(sv[1]);
    if (pid < 0) {
      ::close(sv[0]);
      return false;
    }
  }
  child.pid = pid;
  child.fd = sv[0];
  child.jobs = 0;
  child.decoder = FrameDecoder{};
  std::lock_guard<std::mutex> lk(mu_);
  child.token = next_token_++;
  children_[child.token].pid = pid;
  return true;
}

int ProcessWorkerPool::reap(WorkerChild& child) {
  {
    // Removing the entry *before* waitpid() guarantees the supervisor never
    // signals a pid that has been reaped (and possibly recycled).
    std::lock_guard<std::mutex> lk(mu_);
    children_.erase(child.token);
  }
  ::close(child.fd);
  // Blocking reap: the child has died, was killed, or saw EOF and exits.
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  child = WorkerChild{};
  return status;
}

void ProcessWorkerPool::retire(WorkerChild& child) {
  if (!child.alive()) return;
  // shutdown(), unlike close(), reaches the child even while a sibling
  // forked a moment ago still holds a copy of this descriptor.
  ::shutdown(child.fd, SHUT_WR);
  (void)reap(child);
}

ChildResult ProcessWorkerPool::run_job(WorkerChild& child,
                                       const ChildRequest& req) {
  if (child.alive()) {
    const std::string frame =
        encode_frame(kFrameJob, encode_job_request(req));
    // A child that died while idle costs this job nothing: fork afresh.
    if (!write_all(child.fd, frame.data(), frame.size())) retire(child);
  }
  ChildResult r;
  if (!child.alive() && !spawn(child, req)) {
    r.failure.kind = WorkerFailure::Kind::kProtocol;
    return r;
  }
  ++child.jobs;
  arm(child.token, req.opt);
  const u64 token = child.token;
  const auto result = read_until(child.fd, child.decoder, kFrameResult,
                                 [&] { note_heartbeat(token); });
  const WorkerFailure verdict = disarm(token);

  if (result.has_value()) {
    // A complete, checksummed result outranks everything else: even if the
    // supervisor's SIGKILL raced the child's reply, the job itself finished.
    r.has_stats = true;
    r.stats = decode_job_stats(result->payload);
    const bool clean = verdict.kind == WorkerFailure::Kind::kNone &&
                       !r.stats.failed && !r.stats.quarantined;
    if (!clean || child.jobs >= kJobsPerChild) retire(child);
    return r;
  }
  // EOF: the child is gone or going. A corrupt stream is a protocol
  // failure whatever the child does next, so it is killed before the reap.
  const bool child_corrupt = child.decoder.error();
  if (child_corrupt) ::kill(child.pid, SIGKILL);
  const int status = reap(child);
  if (verdict.kind != WorkerFailure::Kind::kNone) {
    r.failure = verdict;
  } else if (child_corrupt) {
    r.failure.kind = WorkerFailure::Kind::kProtocol;
  } else if (WIFSIGNALED(status)) {
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
