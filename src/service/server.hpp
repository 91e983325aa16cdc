// campaignd: a single-daemon campaign server on a Unix-domain socket.
//
// One process owns the CampaignRunner, the write-ahead journal and the
// digest-keyed result cache; any number of clients connect, SUBMIT job specs
// (kind + ParamMap, see service/jobs.hpp) and stream back per-job RESULT
// frames as workers finish them. Deduplication happens server-side before
// any simulation: a spec already in the result cache — or already finished
// this session, or currently in flight — is served without touching a
// worker, so N clients sweeping the same grid cost one simulation per
// point.
//
// Concurrency model: one accept thread, one reader thread per connection,
// results pushed from the runner's completion hook (worker threads). Every
// frame is sent with one write under the connection's write mutex, so
// concurrent pushes never interleave mid-frame. Framing violations close
// the connection after one structured ERROR frame; semantic errors are
// answered and the connection keeps serving (see service/protocol.hpp).
//
// Graceful stop: SIGINT/SIGTERM (via campaign::install_stop_signal_handlers
// + serve()) broadcast request_stop() to every guarded simulation through
// the runner's watchdog; in-flight jobs are journaled as interrupted, their
// RESULT frames still stream out, and serve() returns 130.
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "service/jobs.hpp"
#include "service/protocol.hpp"

namespace adriatic::service {

struct ServerOptions {
  std::string socket_path;
  /// Worker threads; 0 = campaign::default_thread_count().
  usize threads = 0;
  /// Fork one child per job attempt (crash containment); degrades to
  /// threads where fork is unusable, like the sweep tools.
  bool processes = false;
  /// Campaign name written into the journal header and STATS replies.
  std::string campaign_name = "campaignd";
  std::string journal_path;  ///< Empty = no journal.
  bool resume = false;       ///< Append to an existing journal.
  std::string cache_path;    ///< Empty = no cross-run result cache.
  /// Per-job robustness knobs, applied to every SUBMIT.
  u32 max_attempts = 2;
  double wall_timeout_seconds = 60.0;
  double heartbeat_timeout_seconds = 10.0;
};

/// Monotonic server counters, surfaced by STATS frames and counters().
struct ServerCounters {
  u64 connections = 0;  ///< Connections accepted over the lifetime.
  u64 requests = 0;     ///< SUBMITs accepted (dedup-served ones included).
  u64 dedup_hits = 0;   ///< SUBMITs served without a fresh simulation.
  u64 jobs_done = 0;    ///< Fresh jobs that committed a done record.
  u64 jobs_failed = 0;  ///< Fresh jobs that failed or quarantined.
  u64 errors = 0;       ///< ERROR frames sent.
};

class CampaignServer {
 public:
  explicit CampaignServer(ServerOptions opt);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Registers a job kind; must be called before start(). Later
  /// registrations of the same name win.
  void register_kind(const std::string& name, JobBuilder builder);

  /// Binds the socket, spins up the runner and the accept thread. False
  /// (with a log line) on bind/journal/cache errors.
  [[nodiscard]] bool start();

  /// Graceful stop: refuse new SUBMITs, drain the runner (in-flight jobs
  /// finish or quarantine as interrupted), flush the journal, close every
  /// connection and remove the socket. Idempotent.
  void stop();

  /// start() + block until request_shutdown() or a SIGINT/SIGTERM stop
  /// (campaign::install_stop_signal_handlers must be installed by the
  /// caller), then stop(). Returns 0 on a requested shutdown, 130 on a
  /// signal stop, 2 when start() fails.
  int serve();

  /// Unblocks serve() for a clean exit (tests, DRAIN-then-quit tooling).
  void request_shutdown();

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return opt_.socket_path;
  }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;        ///< One frame per write_all(), never torn.
    std::set<u64> seen_ids;     ///< Duplicate-id detection, per connection.
    std::atomic<bool> watching{false};
    std::atomic<bool> open{true};
  };

  /// Who to notify when job `index` commits.
  struct Subscriber {
    std::shared_ptr<Connection> conn;
    u64 request_id = 0;
  };
  struct PendingJob {
    u64 spec = 0;
    std::string label;
    std::vector<Subscriber> subscribers;
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const Request& req);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const Request& req);
  /// Runner completion hook (worker thread, after the job's D record is
  /// durable): retire the pending slot, stream RESULT frames to the
  /// submitters and watchers, then cache the record outside mu_ and flush
  /// the cache once the pending set drains.
  void on_job_complete(const campaign::JobStats& stats);
  /// Sends one frame under the connection's write lock; a failed write
  /// marks the connection closed (the reader notices on its next read).
  void send_frame(const std::shared_ptr<Connection>& conn,
                  const std::string& frame);
  void send_error(const std::shared_ptr<Connection>& conn, u64 id,
                  ErrorCode code, const std::string& detail);
  /// RESULT to every WATCHing connection (submitters excluded — they get
  /// their own frame keyed by their request id).
  void broadcast_result(u64 spec, const campaign::JobStats& stats,
                        const Connection* except);

  ServerOptions opt_;
  std::vector<std::pair<std::string, JobBuilder>> kinds_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> stopped_{false};

  std::unique_ptr<campaign::CampaignJournal> journal_;
  std::unique_ptr<campaign::ResultCache> cache_;
  std::unique_ptr<campaign::CampaignRunner> runner_;

  mutable std::mutex mu_;  ///< Guards jobs state + counters.
  std::condition_variable cv_drain_;
  usize next_index_ = 0;
  std::map<usize, PendingJob> pending_;      ///< In-flight, by index.
  std::map<u64, usize> pending_by_spec_;     ///< Spec -> in-flight index.
  std::map<u64, campaign::JobStats> finished_by_spec_;  ///< Session dedup.
  ServerCounters counters_;

  std::mutex cmu_;  ///< Guards conns_.
  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex smu_;  ///< serve() wakeup.
  std::condition_variable scv_;
  bool shutdown_requested_ = false;
};

}  // namespace adriatic::service
