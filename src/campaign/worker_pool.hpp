// Fork-based process isolation for campaign jobs (ExecutionMode::kProcesses).
//
// Jobs run in forked children. The worker thread forks a child for a job,
// the child runs the body against a child-local JobContext and streams the
// resulting JobStats back as a length-prefixed, checksummed frame over a
// socketpair. While a job runs, a SIGALRM-driven timer inside the child
// writes heartbeat frames (~10/s) — the child stays single-threaded, which
// keeps fork()-from-a-threaded-parent on the well-trodden glibc path and
// works under sanitizers that veto threads after fork.
//
// Every job names a registered kind (JobKind), and the child builds its
// body from the kind with the pool's KindResolver (build_kind_body()): a
// fresh child's first job as it arrives through fork(), every later job as
// it arrives in a job frame (kind, label, encoded params, index, attempt,
// debug options).
//
// Child lifetime. A worker keeps its child only while it holds a job: when
// a job ends cleanly and the worker has another one queued, that job goes
// to the same child as a job frame. A child is retired — EOF on its
// socket, then reaped — when its worker finds the queue empty, after any
// outcome other than a clean result (thrown body, budget quarantine,
// signal, timeout, lost heartbeat, protocol error), and after
// kJobsPerChild jobs. So live_children() is 0 whenever the pool is idle, a
// child's copy of parent state is never older than one backlog, and
// RUSAGE_CHILDREN charges each child's CPU to the backlog that used it.
//
// A child closes every inherited descriptor except stdio and its own
// socket end: listen and client sockets, journal and cache files, and the
// parent ends of sibling children's sockets would otherwise stay open for
// as long as the child lives.
//
// A single supervisor thread in the parent scans every child that is
// running a job: past the job's wall deadline it SIGKILLs the child with
// verdict kTimeout; after heartbeat silence past the job's timeout, with
// verdict kHeartbeatLost; on a campaign-wide stop broadcast (kill_all),
// with verdict kInterrupted. Deadlines and heartbeats are armed per job, not
// per child. The worker thread that owns a child reads its socket until the
// job's result frame or EOF, takes the supervisor's verdict, and reaps a
// dead or retired child with a blocking waitpid() — children are
// unregistered before the reap, so the supervisor can never signal a
// recycled pid, and no zombies accumulate.
//
// Wire format (frames, both directions):
//   [0] magic 'A'   [1] type   [2..5] payload length (u32 LE)
//   [6..9] FNV-1a checksum of the payload (u32 LE)   [10..] payload
// Child to parent: 'H' heartbeat (empty payload), 'R' result (payload is
// the journal's encode_job_stats() tail, so socket, journal and result cache
// all share one JobStats serialisation). Parent to child: 'J' job
// (encode_job_request()).
#pragma once

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "campaign/campaign.hpp"
#include "util/types.hpp"

namespace adriatic::campaign {

// -- Frame codec -------------------------------------------------------------

inline constexpr char kFrameMagic = 'A';
inline constexpr char kFrameHeartbeat = 'H';
inline constexpr char kFrameResult = 'R';
inline constexpr char kFrameJob = 'J';
inline constexpr usize kFrameHeaderSize = 10;
/// Upper bound on one frame's payload; a length field beyond it means the
/// stream is corrupt, not that a 4 GB allocation is pending.
inline constexpr u32 kFrameMaxPayload = 16u << 20;

/// One wire frame: header + checksummed payload.
[[nodiscard]] std::string encode_frame(char type, const std::string& payload);

struct Frame {
  char type = 0;
  std::string payload;
};

/// Incremental frame parser fed from read() chunks. next() yields complete
/// frames; a magic/length/checksum violation latches error() — the stream
/// is unrecoverable past that point (treated as a protocol failure).
class FrameDecoder {
 public:
  void feed(const char* data, usize n) { buf_.append(data, n); }
  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] bool error() const noexcept { return error_; }

 private:
  std::string buf_;
  bool error_ = false;
};

// -- Process worker pool -----------------------------------------------------

/// Jobs one child runs before it is replaced by a fresh fork, however long
/// the backlog.
inline constexpr u32 kJobsPerChild = 64;

/// Everything one attempt needs: a fresh child inherits it through fork(),
/// a reused one receives it as a job frame; either builds the body from
/// `kind`.
struct ChildRequest {
  usize index = 0;
  std::string label;
  u32 attempt = 1;  ///< Parent's attempt counter, so the child's
                    ///< JobContext::attempt() matches thread mode.
  JobOptions opt;
  JobKind kind;
};

/// What came back from one attempt: a decoded JobStats when the child
/// delivered a checksummed result frame and nothing killed it first,
/// otherwise the structured failure for the retry machinery.
struct ChildResult {
  bool has_stats = false;
  JobStats stats;
  WorkerFailure failure;
};

/// One worker thread's child, kept between the jobs of a backlog.
struct WorkerChild {
  int pid = -1;
  int fd = -1;    ///< Parent end of the child's socketpair.
  u64 token = 0;  ///< Supervisor registration.
  u32 jobs = 0;   ///< Jobs handed to this child so far.
  FrameDecoder decoder;
  [[nodiscard]] bool alive() const noexcept { return pid >= 0; }
};

class ProcessWorkerPool {
 public:
  /// `kinds` is how children build job bodies; each child keeps the copy
  /// it was forked with.
  explicit ProcessWorkerPool(KindResolver kinds);
  ~ProcessWorkerPool();

  ProcessWorkerPool(const ProcessWorkerPool&) = delete;
  ProcessWorkerPool& operator=(const ProcessWorkerPool&) = delete;

  /// False where fork-based isolation cannot work: ThreadSanitizer builds
  /// (TSan forbids new threads after a multithreaded fork) and
  /// ADRIATIC_NO_FORK=1 (deterministic degrade-path test hook).
  /// CampaignRunner consults this and falls back to kThreads.
  [[nodiscard]] static bool fork_available() noexcept;

  /// Runs one attempt in `child`, blocking the calling worker thread until
  /// the child delivers a result or dies. A live child gets the job as a
  /// frame; otherwise a fresh one is forked for it. Afterwards `child` is
  /// still alive only if the job had a clean result and the child has jobs
  /// left. Thread-safe: one concurrent call per worker thread (each with
  /// its own child).
  [[nodiscard]] ChildResult run_job(WorkerChild& child,
                                    const ChildRequest& req);

  /// Ends `child` if it is alive: EOF on its socket, then a blocking reap.
  void retire(WorkerChild& child);

  /// SIGKILLs every child that is running a job (campaign-wide stop
  /// broadcast); their pending run_job() calls return
  /// WorkerFailure::Kind::kInterrupted.
  void kill_all();

  /// Live (forked, unreaped) children — 0 once the pool is idle.
  [[nodiscard]] usize live_children() const;

 private:
  struct ChildWatch {
    int pid = -1;
    bool busy = false;  ///< Running a job: the checks below apply.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    double heartbeat_timeout = 0;  ///< Seconds; 0 disables the check.
    std::chrono::steady_clock::time_point last_heartbeat;
    WorkerFailure verdict;  ///< kind != kNone once the supervisor acted.
  };

  /// Child side: builds and runs one job and writes its result frame.
  void serve_job(const ChildRequest& req, int fd) const;
  /// Serves jobs in the forked child, starting with `first`; never returns.
  [[noreturn]] void child_main(const ChildRequest& first, int fd);
  /// Forks a child for `req` into `child`; false if socketpair or fork failed.
  bool spawn(WorkerChild& child, const ChildRequest& req);
  /// Unregisters and reaps `child`, returning its wait status.
  int reap(WorkerChild& child);

  void supervisor_loop();
  void arm(u64 token, const JobOptions& opt);
  void note_heartbeat(u64 token);
  /// Ends the job's checks and returns the supervisor's verdict on it.
  WorkerFailure disarm(u64 token);

  const KindResolver kinds_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<u64, ChildWatch> children_;
  u64 next_token_ = 1;
  bool shutdown_ = false;
  std::thread supervisor_;
};

}  // namespace adriatic::campaign
