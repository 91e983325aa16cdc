// dse_timed / dse_loose: the 26-job dse_explorer grid (24 design points,
// the hardwired reference, the migration probe), repeated, on a thread-mode
// CampaignRunner with no journal and no cache. Closed loop: at most
// kWorkers jobs are in flight, and the next job is submitted when one
// completes. dse_explorer submits the whole grid to a runner of the same
// width, whose FIFO queue runs the jobs in the same order and on the same
// schedule; the cap only keeps queue wait out of each result's latency, so
// campaign.overhead_share measures the campaign layer, not the queue. The
// seed only sets the submission order within each sweep.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "service/jobs.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace {

using adriatic::campaign::CampaignRunner;
using adriatic::campaign::JobContext;
using adriatic::campaign::JobOptions;
using adriatic::campaign::JobStats;
namespace service = adriatic::service;

constexpr usize kWorkers = 4;  // at most nproc on the reference host
constexpr int kSetups = 15;  // fresh-process set-ups; setup_s is their median
constexpr usize kRssReps = 3;  // sweeps before the peak-RSS sample
constexpr usize kPointsPerTech = 8;  // slots x link x prefetch
constexpr usize kDesignPoints = 3 * kPointsPerTech;  // then hardwired, probe

struct DseJob {
  enum class Kind { kPoint, kHardwired, kProbe };
  Kind kind = Kind::kPoint;
  service::DsePointSpec spec;
};

/// The dse_explorer grid, in its submission order.
std::vector<DseJob> sweep_jobs(bool loose) {
  std::vector<DseJob> jobs;
  for (u32 tech = 0; tech < 3; ++tech)
    for (const u32 slots : {1u, 2u})
      for (const bool link : {false, true})
        for (const bool prefetch : {false, true}) {
          DseJob j;
          j.spec.label = std::string(service::dse_tech_name(tech)) + "/s" +
                         std::to_string(slots) + (link ? "/link" : "/shared") +
                         (prefetch ? "/hybrid" : "/demand");
          j.spec.tech = tech;
          j.spec.slots = slots;
          j.spec.dedicated_link = link;
          j.spec.prefetch = prefetch;
          j.spec.loose = loose;
          jobs.push_back(j);
        }
  DseJob hw;
  hw.kind = DseJob::Kind::kHardwired;
  hw.spec.label = "hardwired";
  hw.spec.loose = loose;
  jobs.push_back(hw);
  DseJob probe;
  probe.kind = DseJob::Kind::kProbe;
  probe.spec.label = "migration_probe";
  probe.spec.loose = loose;
  jobs.push_back(probe);
  return jobs;
}

void run_job(const DseJob& job, JobContext& ctx) {
  service::DseOutcome out;
  switch (job.kind) {
    case DseJob::Kind::kPoint:
      out = service::run_dse_point(job.spec, &ctx);
      break;
    case DseJob::Kind::kHardwired:
      out = service::run_dse_hardwired(job.spec.loose, 0, &ctx);
      break;
    case DseJob::Kind::kProbe:
      out = service::run_dse_migration_probe(job.spec.loose, 0, &ctx);
      break;
  }
  if (!out.ok) throw std::runtime_error(job.spec.label + ": " + out.error);
}

class DseSweep {
 public:
  DseSweep(const Options& opt, bool loose, Checker& checker)
      : opt_(opt),
        workload_(loose ? "dse_loose" : "dse_timed"),
        jobs_(sweep_jobs(loose)),
        checker_(checker) {}

  DseSweep(const DseSweep&) = delete;
  DseSweep& operator=(const DseSweep&) = delete;

  /// The one-time work of a fresh process, timed: start the runner's
  /// workers and run the first job of each kind (a design point of every
  /// technology, the hardwired reference, the migration probe) together,
  /// which interns the images and fills fiber stack pools.
  double first_use() {
    const i64 t0 = now_ns();
    start_runner();
    for (usize j = 0; j < jobs_.size(); ++j)
      if (j % kPointsPerTech == 0 || j >= kDesignPoints)
        submit(j, /*warmup=*/true);
    wait_inflight(0);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    runner_.reset();
    return s;
  }

  /// Untimed: builds the runner and warms it with one whole sweep, so every
  /// worker thread has filled its fiber stack pool before the window.
  void warm_up() {
    start_runner();
    for (usize j = 0; j < jobs_.size(); ++j) {
      wait_inflight(kWorkers - 1);
      submit(j, /*warmup=*/true);
    }
    wait_inflight(0);
  }

  /// Runs whole sweeps until `seconds` have passed. Each sweep is drained
  /// before the next starts, so every repetition is the same 26 jobs and
  /// the metrics can be quantiles over repetitions.
  void window(double seconds, WorkloadResult& r) {
    r.untraced.rss_after_reps = r.traced.rss_after_reps = kRssReps;
    const i64 deadline = now_ns() + static_cast<i64>(seconds * 1e9);
    for (usize n = 0; !r.window_done(deadline, opt_.trace); ++n) {
      const bool traced = r.traced_rep(n, opt_.trace);
      std::vector<usize> order(jobs_.size());
      for (usize i = 0; i < order.size(); ++i) order[i] = i;
      adriatic::Xoshiro256 rng(opt_.seed * 0x9E3779B97F4A7C15ULL + n);
      for (usize i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.next_below(i)]);
      // Nothing is in flight between sweeps, so the flags below change
      // only while no job can read them.
      tally_ = traced ? &r.traced : &r.untraced;
      traced_ = traced;
      trace::set_enabled(traced);
      const RepClock rep;
      for (const usize j : order) {
        wait_inflight(kWorkers - 1);
        submit(j, /*warmup=*/false);
      }
      wait_inflight(0);
      rep.finish(*tally_, traced ? r.traced_host : r.untraced_host);
    }
    trace::set_enabled(false);
    tally_ = nullptr;
    r.has_traced = opt_.trace;
  }

 private:
  struct Pending {
    usize job = 0;
    i64 t_submit = 0;
    i64 t_body0 = 0;
    i64 t_body1 = 0;
    bool warmup = false;
  };

  void start_runner() {
    runner_ = std::make_unique<CampaignRunner>(
        kWorkers, adriatic::campaign::ExecutionMode::kThreads);
    runner_->set_completion_hook(
        [this](const JobStats& stats) { on_complete(stats); });
  }

  void submit(usize j, bool warmup) {
    const u64 id = ++next_id_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      pending_[id] = Pending{j, now_ns(), 0, 0, warmup};
      ++inflight_;
    }
    if (tally_ != nullptr && !warmup) tally_->add_attempt();
    JobOptions o;
    o.stats_index = id;
    o.spec =
        service::dse_spec_hash(jobs_[j].spec.label, jobs_[j].spec.loose, 0);
    // The future is dropped: failures come back in the committed JobStats
    // that the completion hook sees.
    (void)runner_->submit(
        jobs_[j].spec.label, o, [this, j, id](JobContext& ctx) {
          const bool timed = traced_;
          const i64 t0 = timed ? now_ns() : 0;
          run_job(jobs_[j], ctx);
          if (timed) {
            const i64 t1 = now_ns();
            std::lock_guard<std::mutex> lk(mu_);
            Pending& p = pending_[id];
            p.t_body0 = t0;
            p.t_body1 = t1;
          }
        });
  }

  void wait_inflight(usize at_most) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return inflight_ <= at_most; });
  }

  void on_complete(const JobStats& stats) {
    const i64 t_done = now_ns();
    Pending p;
    {
      std::lock_guard<std::mutex> lk(mu_);
      const auto it = pending_.find(stats.index);
      if (it != pending_.end()) {
        p = it->second;
        pending_.erase(it);
      }
    }
    if (!p.warmup && tally_ != nullptr) record(stats, p, stats.index, t_done);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;
    }
    cv_.notify_all();
  }

  void record(const JobStats& stats, const Pending& p, u64 id, i64 t_done) {
    const std::string& label = jobs_[p.job].spec.label;
    if (!stats.done || stats.failed || stats.quarantined) {
      const std::string& why =
          stats.failed ? stats.error : stats.quarantine_reason;
      tally_->add_failure(label + ": " + why);
      return;
    }
    std::string why;
    if (!checker_.check(outcome_of(workload_, label, stats), true, &why)) {
      tally_->add_failure(label + ": " + why);
      return;
    }
    Tally::Point pt;
    pt.latency_ns = t_done - p.t_submit;
    if (traced_ && p.t_body1 != 0) {
      pt.queue_ns = p.t_body0 - p.t_submit;
      pt.body_ns = p.t_body1 - p.t_body0;
      pt.commit_ns = t_done - p.t_body1;
      const u32 tid = trace::thread_tag();
      trace::record({"campaign.point", nullptr, id, p.t_submit, t_done, tid});
      trace::record(
          {"campaign.queue", "campaign.point", id, p.t_submit, p.t_body0, tid});
      trace::record(
          {"campaign.body", "campaign.point", id, p.t_body0, p.t_body1, tid});
      trace::record(
          {"campaign.commit", "campaign.point", id, p.t_body1, t_done, tid});
    }
    tally_->add_point(pt, stats);
  }

  const Options& opt_;
  std::string workload_;
  std::vector<DseJob> jobs_;
  Checker& checker_;
  Tally* tally_ = nullptr;
  std::atomic<bool> traced_{false};
  u64 next_id_ = 0;

  std::mutex mu_;  ///< Guards pending_ and inflight_.
  std::condition_variable cv_;
  std::unordered_map<u64, Pending> pending_;
  usize inflight_ = 0;

  // Last: its worker threads call back into the members above.
  std::unique_ptr<CampaignRunner> runner_;
};

}  // namespace

void run_dse(const Options& opt, bool loose, Checker& checker,
             WorkloadResult& r) {
  DseSweep sweep(opt, loose, checker);
  for (int s = 0; s < kSetups; ++s)
    r.setup_s.push_back(time_in_child([&] { return sweep.first_use(); }));
  sweep.warm_up();
  sweep.window(opt.seconds, r);
}

}  // namespace perfbench
