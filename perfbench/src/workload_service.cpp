// fault_service: fault_point jobs submitted over the Unix socket to an
// in-process CampaignServer in process mode, with a journal and a result
// cache on local disk, over kClients connections. Each connection sends
// requests the way run_jobs_over_service (the client of fault_sweep --server
// and dse_explorer --server) does: its whole share of a batch, then it reads
// the results. The loop is closed at batch level.
//
// The run goes in batches of the 24-point fault_sweep grid. Every batch
// draws fresh fault-plan seeds from the run seed, so every spec is new: the
// cold phase simulates each one (fork, pipe, fsync, protocol), then the warm
// phase resubmits the same specs, which the server serves by dedup. The
// server keeps every result for dedup, so it grows with the work done, and
// every fork copies its page tables; it is replaced by a fresh one every
// kBatchesPerServer batches, between repetitions, so every repetition sees
// a server of the same size however fast the batches go.
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "campaign/journal.hpp"
#include "io_hooks.hpp"
#include "service/client.hpp"
#include "service/jobs.hpp"
#include "service/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace service = adriatic::service;
using adriatic::campaign::JobContext;
using adriatic::campaign::JobStats;

constexpr usize kServerWorkers = 4;  // at most nproc on the reference host
constexpr usize kClients = 2;
constexpr int kSetups = 15;  // fresh-process set-ups; setup_s is their median
constexpr usize kBatchesPerServer = 25;
constexpr usize kRssReps = 100;  // batches before the peak-RSS sample
/// Batches of the default seed whose outcomes the expected-results file
/// holds; every batch is also checked against its warm twins and, in part,
/// against an in-process re-simulation.
constexpr u64 kCheckedBatches = 4;
constexpr u64 kDefaultSeed = 1;
constexpr const char* kWorkload = "fault_service";

/// Body start/end stamps written by the forked job children into memory
/// shared with the benchmark process (MAP_SHARED, mapped before the server
/// forks anything). A child claims a free slot near its tag with a CAS; the
/// benchmark frees the slot when it takes the stamp. Only a handful of jobs
/// are in flight at once, so a short probe always finds one.
class BodyStamps {
 public:
  static constexpr usize kSlots = 4096;
  static constexpr usize kProbe = 64;
  struct Slot {
    std::atomic<u64> tag;  ///< 0 = free.
    std::atomic<i64> t0;
    std::atomic<i64> t1;
    std::atomic<bool> ready;
  };
  static_assert(std::atomic<u64>::is_always_lock_free &&
                    std::atomic<bool>::is_always_lock_free,
                "atomics shared across processes must be lock-free");

  /// Nonzero key of a job's stamp.
  static u64 tag_of(const std::string& label) {
    return adriatic::campaign::fnv1a(label) | 1;
  }

  BodyStamps() {
    void* p = ::mmap(nullptr, sizeof(Slot) * kSlots, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of body stamps failed");
    slots_ = static_cast<Slot*>(p);
  }
  ~BodyStamps() { ::munmap(slots_, sizeof(Slot) * kSlots); }
  BodyStamps(const BodyStamps&) = delete;
  BodyStamps& operator=(const BodyStamps&) = delete;

  void put(u64 tag, i64 t0, i64 t1) {
    for (usize i = 0; i < kProbe; ++i) {
      Slot& s = slots_[(tag + i) % kSlots];
      u64 free = 0;
      if (!s.tag.compare_exchange_strong(free, tag, std::memory_order_acq_rel))
        continue;
      s.t0.store(t0, std::memory_order_relaxed);
      s.t1.store(t1, std::memory_order_relaxed);
      s.ready.store(true, std::memory_order_release);
      return;
    }
  }

  std::optional<std::pair<i64, i64>> take(u64 tag) {
    for (usize i = 0; i < kProbe; ++i) {
      Slot& s = slots_[(tag + i) % kSlots];
      if (s.tag.load(std::memory_order_acquire) != tag ||
          !s.ready.load(std::memory_order_acquire))
        continue;
      const auto stamp = std::make_pair(s.t0.load(std::memory_order_relaxed),
                                        s.t1.load(std::memory_order_relaxed));
      s.ready.store(false, std::memory_order_relaxed);
      s.tag.store(0, std::memory_order_release);
      return stamp;
    }
    return std::nullopt;
  }

 private:
  Slot* slots_ = nullptr;
};

struct BatchSpec {
  service::FaultPointSpec spec;
  u64 hash = 0;
  service::ParamMap params;
  bool checked = false;  ///< Must match an expected-results entry.
};

/// The 24-point fault_sweep grid (policy x rate x scheduler) of one batch.
std::vector<BatchSpec> make_batch(u64 seed, u64 batch, bool warmup) {
  static const std::pair<const char*, u32> kPolicies[] = {
      {"fail_fast", 0}, {"retry_backoff", 1}, {"fallback", 2}};
  static const u32 kRates[] = {0, 2, 5, 10};
  std::vector<BatchSpec> out;
  for (const auto& [pname, policy] : kPolicies)
    for (const u32 rate : kRates)
      for (const bool prefetch : {false, true}) {
        BatchSpec b;
        std::string tag = warmup ? "w" : "s";
        tag += std::to_string(seed);
        tag += 'b';
        tag += std::to_string(batch);
        b.spec.label = std::string(pname) + "/r" + std::to_string(rate) +
                       (prefetch ? "/hybrid/" : "/demand/") + tag;
        b.spec.policy = policy;
        b.spec.rate_pct = rate;
        b.spec.plan_seed =
            adriatic::campaign::fnv1a(b.spec.label, 0x5eed0000ULL + seed);
        b.spec.prefetch = prefetch;
        b.hash = service::fault_point_spec_hash(b.spec);
        b.params = service::fault_point_params(b.spec);
        b.checked = !warmup && seed == kDefaultSeed && batch < kCheckedBatches;
        out.push_back(std::move(b));
      }
  return out;
}

class FaultService {
 public:
  FaultService(const Options& opt, Checker& checker)
      : opt_(opt), checker_(checker) {}
  ~FaultService() { teardown(); }
  FaultService(const FaultService&) = delete;
  FaultService& operator=(const FaultService&) = delete;

  /// The one-time work of a fresh process, timed: open journal and cache,
  /// bind the socket, connect the clients, and push one job through each
  /// client cold (fork, pipe, fsync) and warm (dedup).
  double first_use() {
    const i64 t0 = now_ns();
    start_server("first" + std::to_string(::getpid()));
    auto batch = make_batch(opt_.seed, 0, /*warmup=*/true);
    batch.resize(kClients);
    Tally scratch;
    run_phase(batch, true, false, scratch);
    run_phase(batch, false, false, scratch);
    if (scratch.failed != 0)
      throw std::runtime_error(scratch.failure_notes.front());
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    teardown();
    return s;
  }

  /// Untimed: replaces the server by a new one with an empty journal, cache
  /// and dedup map, and pushes one warm-up batch through it.
  void restart() {
    teardown();
    start_server("svc" + std::to_string(++servers_));
    Tally scratch;
    const auto batch = make_batch(opt_.seed, servers_, /*warmup=*/true);
    run_phase(batch, true, false, scratch);
    run_phase(batch, false, false, scratch);
    if (scratch.failed != 0)
      throw std::runtime_error("warm-up failed: " +
                               scratch.failure_notes.front());
    std::lock_guard<std::mutex> lk(mu_);
    cold_.clear();
  }

  /// Runs cold+warm batches until `seconds` have passed.
  void window(double seconds, WorkloadResult& r) {
    const auto size_of = [](const std::string& p) {
      std::error_code ec;
      const auto n = fs::file_size(p, ec);
      return ec ? u64{0} : static_cast<u64>(n);
    };
    r.untraced.rss_after_reps = r.traced.rss_after_reps = kRssReps;
    const i64 deadline = now_ns() + static_cast<i64>(seconds * 1e9);
    for (usize n = 0; !r.window_done(deadline, opt_.trace); ++n) {
      // Between repetitions, so no repetition pays for it.
      if (n != 0 && n % kBatchesPerServer == 0) restart();
      const bool traced = r.traced_rep(n, opt_.trace);
      Tally& tally = traced ? r.traced : r.untraced;
      WindowHost& host = traced ? r.traced_host : r.untraced_host;
      const auto batch = make_batch(opt_.seed, batches_++, false);
      const std::string journal = dir_ + "/journal.wal";
      const std::string cache = dir_ + "/results.cache";
      const u64 journal0 = size_of(journal);
      const u64 cache0 = size_of(cache);
      const u64 errors0 = server_->counters().errors;
      // Job children inherit the trace flag when they fork; none is alive
      // between batches.
      trace::set_enabled(traced);
      if (traced) io::begin_attribution(journal, cache);
      const RepClock rep;
      run_phase(batch, true, traced, tally);
      const auto c0 = server_->counters();
      run_phase(batch, false, traced, tally);
      const auto c1 = server_->counters();
      rep.finish(tally, host);
      if (traced) {
        const io::FsyncSplit split = io::end_attribution();
        host.journal_fsyncs += split.journal;
        host.cache_fsyncs += split.cache;
        host.journal_fsync_ms += static_cast<double>(split.journal_ns) / 1e6;
        host.cache_fsync_ms += static_cast<double>(split.cache_ns) / 1e6;
      }
      trace::set_enabled(false);
      host.warm_requests += c1.requests - c0.requests;
      host.warm_dedup_hits += c1.dedup_hits - c0.dedup_hits;
      host.journal_bytes += size_of(journal) - journal0;
      host.cache_bytes += size_of(cache) - cache0;
      host.service_errors += c1.errors - errors0;
      std::lock_guard<std::mutex> lk(mu_);
      const BatchSpec& pick = batch[n % batch.size()];
      const auto served = cold_.find(pick.spec.label);
      if (served != cold_.end())
        samples_.push_back({pick.spec, served->second});
      last_batch_ = batch;
      last_outcomes_.swap(cold_);
      cold_.clear();
    }
    r.has_traced = opt_.trace;
  }

  /// Re-simulates in this process (thread context, no service) one spec of
  /// every batch, spec n mod 24 of batch n, and the whole last batch, and
  /// compares with what the server returned for them. Results that already
  /// failed were counted when they arrived.
  void verify(Tally& tally) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const BatchSpec& b : last_batch_) {
      const auto it = last_outcomes_.find(b.spec.label);
      if (it != last_outcomes_.end()) samples_.push_back({b.spec, it->second});
    }
    std::vector<JobStats> records;
    for (const Sample& s : samples_) {
      adriatic::campaign::run_inline(s.spec.label, records,
                                     [&](JobContext& ctx) {
                                       (void)service::run_fault_point(s.spec,
                                                                      &ctx);
                                     });
      const Outcome local = outcome_of(kWorkload, s.spec.label, records.back());
      if (!(s.served == local))
        tally.add_failure(s.spec.label + ": server vs in-process " +
                          describe_mismatch(local, s.served));
    }
  }

 private:
  struct Sample {
    service::FaultPointSpec spec;
    Outcome served;  ///< What the server returned for it, cold.
  };

  void start_server(const std::string& name) {
    dir_ = opt_.work_dir + "/" + name;
    fs::create_directories(dir_);
    service::ServerOptions so;
    so.socket_path = dir_ + "/s.sock";
    so.threads = kServerWorkers;
    so.processes = true;
    so.campaign_name = "perfbench";
    so.journal_path = dir_ + "/journal.wal";
    so.cache_path = dir_ + "/results.cache";
    server_ = std::make_unique<service::CampaignServer>(so);
    wrap_builtin_kind();
    if (!server_->start()) throw std::runtime_error("server start failed");
    for (usize c = 0; c < kClients; ++c) {
      auto client = service::ServiceClient::connect(so.socket_path);
      if (client == nullptr) throw std::runtime_error("client connect failed");
      clients_.push_back(std::move(client));
    }
  }

  void wrap_builtin_kind() {
    service::JobBuilder builtin;
    for (auto& [name, b] : service::builtin_kinds())
      if (name == "fault_point") builtin = b;
    BodyStamps* stamps = &stamps_;
    server_->register_kind(
        "fault_point",
        [builtin, stamps](const std::string& label,
                          const service::ParamMap& params)
            -> std::optional<service::JobBody> {
          auto body = builtin(label, params);
          if (!body.has_value()) return std::nullopt;
          const u64 tag = BodyStamps::tag_of(label);
          // Runs in the forked child; trace::enabled() is the benchmark's
          // flag as of the fork.
          return service::JobBody{
              [b = std::move(*body), tag, stamps](JobContext& ctx) {
                if (!trace::enabled()) {
                  b(ctx);
                  return;
                }
                const i64 t0 = now_ns();
                b(ctx);
                stamps->put(tag, t0, now_ns());
              }};
        });
  }

  void teardown() {
    clients_.clear();
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
      dir_.clear();
    }
  }

  /// One pass of `batch` split across the clients; cold or warm.
  void run_phase(const std::vector<BatchSpec>& batch, bool cold, bool traced,
                 Tally& tally) {
    std::vector<std::thread> threads;
    for (usize c = 0; c < kClients; ++c)
      threads.emplace_back(
          [&, c] { client_pass(c, batch, cold, traced, tally); });
    for (auto& t : threads) t.join();
  }

  /// Like run_jobs_over_service: submit this connection's share of the batch
  /// (every kClients-th spec), then read the results as they stream back.
  void client_pass(usize c, const std::vector<BatchSpec>& batch, bool cold,
                   bool traced, Tally& tally) {
    service::ServiceClient& client = *clients_[c];
    std::map<u64, std::pair<usize, i64>> out;  // id -> (spec, submit time)
    for (usize i = c; i < batch.size(); i += kClients) {
      const BatchSpec& b = batch[i];
      const u64 id = ++next_id_[c];
      out[id] = {i, now_ns()};
      tally.add_attempt();
      if (!client.submit(id, b.hash, "fault_point", b.spec.label, b.params)) {
        tally.add_failure("connection lost while submitting");
        return;
      }
    }
    while (!out.empty()) {
      const auto resp = client.next_response();
      if (!resp.has_value()) {
        tally.add_failure("connection closed with requests outstanding");
        return;
      }
      const i64 t_done = now_ns();
      const auto it = out.find(resp->id);
      if (it == out.end()) continue;
      const auto [spec, t_submit] = it->second;
      if (resp->type == service::ResponseType::kError) {
        tally.add_failure(batch[spec].spec.label + ": server error " +
                          resp->detail);
        out.erase(it);
        continue;
      }
      if (resp->type != service::ResponseType::kResult) continue;
      handle_result(batch[spec], *resp, t_submit, t_done, cold, traced, tally);
      out.erase(it);
    }
  }

  void handle_result(const BatchSpec& b, const service::Response& resp,
                     i64 t_submit, i64 t_done, bool cold, bool traced,
                     Tally& tally) {
    const JobStats& st = resp.stats;
    const std::string& label = b.spec.label;
    if (!st.done || st.failed || st.quarantined) {
      tally.add_failure(label + ": " +
                        (st.failed ? st.error : st.quarantine_reason));
      return;
    }
    if (st.from_cache == cold) {
      tally.add_failure(label + (cold ? ": cold result served from cache"
                                      : ": warm result was re-simulated"));
      return;
    }
    const Outcome got = outcome_of(kWorkload, label, st);
    std::string why;
    if (cold) {
      if (!checker_.check(got, b.checked, &why)) {
        tally.add_failure(label + ": " + why);
        return;
      }
      std::lock_guard<std::mutex> lk(mu_);
      cold_[label] = got;
    } else {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = cold_.find(label);
      if (it == cold_.end() || !(it->second == got)) {
        tally.add_failure(label + ": warm result differs from its cold twin" +
                          (it == cold_.end()
                               ? std::string()
                               : ": " + describe_mismatch(it->second, got)));
        return;
      }
    }
    Tally::Point pt;
    pt.fresh = cold;
    pt.latency_ns = t_done - t_submit;
    if (traced) {
      pt.frame_bytes = service::encode_result(resp.id, resp.spec, st).size();
      const u64 id = adriatic::campaign::fnv1a(label) ^ (cold ? 0 : 1);
      const u32 tid = trace::thread_tag();
      const char* request = cold ? "service.request" : "service.cached_request";
      trace::record({request, nullptr, id, t_submit, t_done, tid});
      const auto stamps =
          cold ? stamps_.take(BodyStamps::tag_of(label)) : std::nullopt;
      if (stamps.has_value()) {
        const auto [t0, t1] = *stamps;
        pt.queue_ns = t0 - t_submit;
        pt.body_ns = t1 - t0;
        pt.commit_ns = t_done - t1;
        trace::record({"campaign.queue", request, id, t_submit, t0, tid});
        trace::record({"service.server_body", request, id, t0, t1, tid});
        trace::record({"campaign.commit", request, id, t1, t_done, tid});
      } else if (cold) {
        tally.add_failure(label + ": no body stamp from the job child");
        return;
      }
    }
    tally.add_point(pt, st);
  }

  const Options& opt_;
  Checker& checker_;
  BodyStamps stamps_;
  u64 servers_ = 0;
  u64 batches_ = 0;
  std::string dir_;  ///< The current server's socket, journal and cache.
  u64 next_id_[kClients] = {};

  std::mutex mu_;  ///< Guards the four members below.
  std::map<std::string, Outcome> cold_;  ///< This batch's cold outcomes.
  std::vector<Sample> samples_;          ///< To re-simulate after the window.
  std::vector<BatchSpec> last_batch_;    ///< The window's last batch and
  std::map<std::string, Outcome> last_outcomes_;  ///< what the server said.

  std::unique_ptr<service::CampaignServer> server_;
  std::vector<std::unique_ptr<service::ServiceClient>> clients_;
};

}  // namespace

void run_fault_service(const Options& opt, Checker& checker,
                       WorkloadResult& r) {
  FaultService svc(opt, checker);
  for (int s = 0; s < kSetups; ++s)
    r.setup_s.push_back(time_in_child([&] { return svc.first_use(); }));
  svc.restart();
  svc.window(opt.seconds, r);
  svc.verify(r.untraced);
}

}  // namespace perfbench
