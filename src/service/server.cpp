#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "service/sweep.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::service {

using campaign::JobStats;

CampaignServer::CampaignServer(ServerOptions opt) : opt_(std::move(opt)) {
  kinds_ = builtin_kinds();
}

CampaignServer::~CampaignServer() {
  if (running_.load() || !stopped_.load()) stop();
}

void CampaignServer::register_kind(const std::string& name,
                                   JobBuilder builder) {
  for (auto& [existing, b] : kinds_) {
    if (existing == name) {
      b = std::move(builder);
      return;
    }
  }
  kinds_.emplace_back(name, std::move(builder));
}

bool CampaignServer::start() {
  if (running_.load()) return true;
  if (opt_.socket_path.empty()) {
    log::error() << "campaignd: no socket path configured";
    return false;
  }

  // Journal: resume pre-populates the session dedup map from the journal's
  // completed records, so a restarted server keeps serving the finished
  // prefix without re-simulating even with no result cache attached.
  if (!opt_.journal_path.empty()) {
    auto opened =
        open_journal(opt_.journal_path, opt_.campaign_name, opt_.resume);
    if (opened.journal == nullptr) {
      log::error() << "campaignd: " << opened.error;
      return false;
    }
    const campaign::JournalState& state = opened.resumed;
    for (const auto& [idx, planned] : state.planned)
      if (idx >= next_index_) next_index_ = idx + 1;
    for (const auto& [idx, stats] : state.completed) {
      const auto it = state.planned.find(idx);
      if (it != state.planned.end()) finished_by_spec_[it->second.spec] = stats;
    }
    journal_ = std::move(opened.journal);
  }

  if (!opt_.cache_path.empty()) {
    cache_ = campaign::ResultCache::open(opt_.cache_path);
    if (cache_ == nullptr) {
      log::error() << "campaignd: cannot open cache '" << opt_.cache_path
                   << "'";
      return false;
    }
  }

  // kinds_ is final from here on (register_kind() precedes start()).
  runner_ = std::make_unique<campaign::CampaignRunner>(
      opt_.threads != 0 ? opt_.threads : campaign::default_thread_count(),
      opt_.processes ? campaign::ExecutionMode::kProcesses
                     : campaign::ExecutionMode::kThreads,
      kind_resolver(kinds_));
  // The hook is the streaming point: it fires after the record commit
  // (futures resolve before it), on the worker thread, outside the runner's
  // locks — exactly what a push to a socket needs.
  runner_->set_completion_hook(
      [this](const JobStats& stats) { on_job_complete(stats); });
  runner_->enable_signal_stop();
  if (journal_ != nullptr) runner_->set_journal(journal_.get());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    log::error() << "campaignd: socket path too long: " << opt_.socket_path;
    return false;
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    log::error() << "campaignd: socket(): " << std::strerror(errno);
    return false;
  }
  ::unlink(opt_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    log::error() << "campaignd: cannot listen on '" << opt_.socket_path
                 << "': " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  stopped_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void CampaignServer::accept_loop() {
  while (running_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    if (r < 0 && errno != EINTR) break;
    if (r <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++counters_.connections;
    }
    {
      std::lock_guard<std::mutex> lk(cmu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void CampaignServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  LineParser parser;
  char buf[4096];
  bool fatal = false;
  while (!fatal) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed
    parser.feed(buf, static_cast<usize>(n));
    while (auto ev = parser.next()) {
      if (ev->error.has_value()) {
        // One structured ERROR frame per violation; framing violations
        // additionally end the connection (the stream past them is
        // untrustworthy — see protocol.hpp).
        send_error(conn, 0, ev->error->code, ev->error->detail);
        if (is_fatal(ev->error->code)) {
          fatal = true;
          break;
        }
        continue;
      }
      const RequestEvent rev = to_request(*ev->line);
      if (rev.error.has_value()) {
        // Best-effort id echo so the client can correlate the error.
        u64 id = 0;
        if (const auto raw = ev->line->get("id"); raw.has_value())
          id = std::strtoull(raw->c_str(), nullptr, 10);
        send_error(conn, id, rev.error->code, rev.error->detail);
        continue;
      }
      handle_request(conn, *rev.request);
    }
  }
  // Closing under the write lock keeps the completion hook from racing a
  // push onto a recycled fd number.
  std::lock_guard<std::mutex> lk(conn->write_mu);
  conn->open.store(false);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void CampaignServer::handle_request(const std::shared_ptr<Connection>& conn,
                                    const Request& req) {
  // Request ids are the client's correlation handles; reusing one would
  // make its response stream ambiguous, so the reuse itself is the error.
  if (!conn->seen_ids.insert(req.id).second) {
    send_error(conn, req.id, ErrorCode::kDuplicateId,
               strfmt("request id %llu already used on this connection",
                      static_cast<unsigned long long>(req.id)));
    return;
  }
  switch (req.verb) {
    case Verb::kSubmit:
      handle_submit(conn, req);
      return;
    case Verb::kWatch:
      conn->watching.store(true);
      send_frame(conn, encode_ok(req.id, 0, false));
      return;
    case Verb::kStats: {
      ServerCounters c;
      usize threads = 0;
      bool processes = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        c = counters_;
      }
      if (runner_ != nullptr) {
        threads = runner_->thread_count();
        processes = runner_->mode() == campaign::ExecutionMode::kProcesses;
      }
      std::vector<std::pair<std::string, std::string>> fields;
      fields.emplace_back("campaign", opt_.campaign_name);
      fields.emplace_back("threads", std::to_string(threads));
      fields.emplace_back("mode", processes ? "processes" : "threads");
      fields.emplace_back("connections", std::to_string(c.connections));
      fields.emplace_back("requests", std::to_string(c.requests));
      fields.emplace_back("dedup_hits", std::to_string(c.dedup_hits));
      fields.emplace_back("jobs_done", std::to_string(c.jobs_done));
      fields.emplace_back("jobs_failed", std::to_string(c.jobs_failed));
      fields.emplace_back("errors", std::to_string(c.errors));
      send_frame(conn, encode_stats_reply(req.id, fields));
      return;
    }
    case Verb::kDrain: {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_drain_.wait(lk, [this] {
          return pending_.empty() || shutting_down_.load();
        });
      }
      send_frame(conn, encode_drained(req.id));
      return;
    }
  }
}

void CampaignServer::handle_submit(const std::shared_ptr<Connection>& conn,
                                   const Request& req) {
  if (shutting_down_.load()) {
    send_error(conn, req.id, ErrorCode::kShutdown,
               "server is stopping; job not accepted");
    return;
  }
  const JobBuilder* builder = find_kind(kinds_, req.kind);
  if (builder == nullptr) {
    send_error(conn, req.id, ErrorCode::kUnknownKind,
               "no job builder registered for kind '" + req.kind + "'");
    return;
  }
  // Built once here only to validate; the runner builds the body it runs.
  if (!(*builder)(req.label, decode_params(req.params)).has_value()) {
    send_error(conn, req.id, ErrorCode::kBadRequest,
               "invalid params for kind '" + req.kind + "'");
    return;
  }

  std::optional<JobStats> served;
  usize index = 0;
  bool fresh = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (shutting_down_.load()) {
      lk.unlock();
      send_error(conn, req.id, ErrorCode::kShutdown,
                 "server is stopping; job not accepted");
      return;
    }
    ++counters_.requests;
    // Dedup before any simulation: session-finished results first, then the
    // cross-run cache, then attach to an identical in-flight job.
    std::optional<JobStats> hit;
    const auto fin = finished_by_spec_.find(req.spec);
    if (fin != finished_by_spec_.end()) {
      hit = fin->second;
    } else if (cache_ != nullptr) {
      hit = cache_->lookup(req.spec);
    }
    if (hit.has_value()) {
      index = next_index_++;
      served = serve_hit(std::move(*hit), index, req.label, req.spec,
                         journal_.get());
      ++counters_.dedup_hits;
    } else if (const auto inflight = pending_by_spec_.find(req.spec);
               inflight != pending_by_spec_.end()) {
      // Same spec already simulating: subscribe this client to that job's
      // completion rather than running it twice.
      index = inflight->second;
      pending_[index].subscribers.push_back({conn, req.id});
      ++counters_.dedup_hits;
      if (journal_ != nullptr) journal_->record_cache_hit(req.spec);
      lk.unlock();
      send_frame(conn, encode_ok(req.id, static_cast<u64>(index), true));
      return;
    } else {
      fresh = true;
      index = next_index_++;
      pending_[index] = PendingJob{req.spec, req.label, {{conn, req.id}}};
      pending_by_spec_[req.spec] = index;
      if (journal_ != nullptr)
        journal_->record_planned(index, req.spec, req.label);
    }
  }

  if (served.has_value()) {
    // Cache hit: OK + RESULT immediately, no worker involved.
    send_frame(conn, encode_ok(req.id, static_cast<u64>(index), true));
    send_frame(conn, encode_result(req.id, req.spec, *served));
    broadcast_result(req.spec, *served, conn.get());
    return;
  }
  if (fresh) {
    campaign::JobOptions o = job_policy();
    o.stats_index = index;
    o.spec = req.spec;
    // The future is deliberately dropped: failures come back through the
    // committed JobStats (failed/quarantined) and stream out via the
    // completion hook like any other result.
    (void)runner_->submit_kind(req.label, o, {req.kind, req.params});
    send_frame(conn, encode_ok(req.id, static_cast<u64>(index), false));
  }
}

void CampaignServer::on_job_complete(const JobStats& stats) {
  std::vector<Subscriber> subs;
  u64 spec = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = pending_.find(stats.index);
    if (it != pending_.end()) {
      spec = it->second.spec;
      subs = std::move(it->second.subscribers);
      pending_by_spec_.erase(it->second.spec);
      pending_.erase(it);
    }
    if (stats.done && !stats.failed) {
      ++counters_.jobs_done;
      finished_by_spec_[spec] = stats;
    } else {
      ++counters_.jobs_failed;
    }
  }
  const Connection* first = nullptr;
  for (const auto& sub : subs) {
    send_frame(sub.conn, encode_result(sub.request_id, spec, stats));
    if (first == nullptr) first = sub.conn.get();
  }
  broadcast_result(spec, stats, first);
  // Cache I/O stays outside mu_, so no SUBMIT's dedup check waits on it.
  // The runner made the job's D record durable before calling this hook;
  // store() itself refuses unfinished/failed/quarantined records.
  if (cache_ != nullptr) cache_->store(spec, stats);
  bool drained = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    drained = pending_.empty();
  }
  if (drained) {
    // Every completion re-checks after its own store, so the last store of
    // a drain is always followed by a flush (one fsync for the batch).
    if (cache_ != nullptr) cache_->flush();
    cv_drain_.notify_all();
  }
}

void CampaignServer::send_frame(const std::shared_ptr<Connection>& conn,
                                const std::string& frame) {
  std::lock_guard<std::mutex> lk(conn->write_mu);
  if (!conn->open.load() || conn->fd < 0) return;
  if (!write_all(conn->fd, frame)) conn->open.store(false);
}

void CampaignServer::send_error(const std::shared_ptr<Connection>& conn,
                                u64 id, ErrorCode code,
                                const std::string& detail) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counters_.errors;
  }
  send_frame(conn, encode_error(id, code, detail));
}

void CampaignServer::broadcast_result(u64 spec, const JobStats& stats,
                                      const Connection* except) {
  std::vector<std::shared_ptr<Connection>> watchers;
  {
    std::lock_guard<std::mutex> lk(cmu_);
    for (const auto& conn : conns_)
      if (conn->watching.load() && conn->open.load() && conn.get() != except)
        watchers.push_back(conn);
  }
  // Watcher frames reuse id=0: a watcher subscribed to everything, so per-
  // request correlation does not apply.
  for (const auto& conn : watchers)
    send_frame(conn, encode_result(0, spec, stats));
}

void CampaignServer::stop() {
  if (stopped_.exchange(true)) return;
  shutting_down_.store(true);
  {
    // Barrier: any SUBMIT that saw shutting_down_ == false has finished its
    // dedup/enqueue critical section once we pass this lock.
    std::lock_guard<std::mutex> lk(mu_);
    cv_drain_.notify_all();
  }
  running_.store(false);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain while connections are still up, so in-flight results (including
  // signal-stop "interrupted" quarantines) stream out to their clients.
  if (runner_ != nullptr) runner_->wait_idle();
  if (journal_ != nullptr) journal_->flush();
  {
    std::lock_guard<std::mutex> lk(cmu_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlk(conn->write_mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lk(cmu_);
    conns.swap(conns_);
  }
  for (const auto& conn : conns)
    if (conn->reader.joinable()) conn->reader.join();
  // A reader may have raced one last SUBMIT past the first drain; with all
  // readers joined this second pass is definitive.
  if (runner_ != nullptr) runner_->wait_idle();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(opt_.socket_path.c_str());
  runner_.reset();
  if (journal_ != nullptr) journal_->flush();
  if (cache_ != nullptr) cache_->flush();
}

int CampaignServer::serve() {
  if (!start()) return 2;
  while (!campaign::signal_stop_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop();
  return 130;
}

ServerCounters CampaignServer::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

}  // namespace adriatic::service
