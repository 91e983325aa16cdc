#include "campaign/report.hpp"

#include <fstream>

#include "campaign/journal.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace adriatic::campaign {

std::string report_json(const std::string& name, usize threads,
                        const std::vector<JobStats>& stats,
                        const ServiceTotals* service) {
  JsonWriter w;
  w.begin_object();
  w.field("campaign", name);
  w.field("threads", static_cast<u64>(threads));
  w.key("jobs").begin_array();
  double total_wall = 0;
  u64 total_deltas = 0;
  u64 done = 0;
  u64 failed = 0;
  u64 quarantined = 0;
  u64 total_fetch_errors = 0;
  u64 total_injected = 0;
  u64 total_cache_hits = 0;
  u64 total_worker_deaths = 0;
  u64 peak_resident = 0;
  u64 total_cow_splits = 0;
  u64 total_ecc_corrected = 0;
  u64 total_ecc_uncorrectable = 0;
  u64 budget_quarantined = 0;
  for (const JobStats& s : stats) {
    // A record with done == false is a still-queued/running placeholder
    // (stats() taken before wait_idle()): its metrics are zeros, not
    // measurements, so flag it per job and keep it out of the totals.
    if (s.done) {
      ++done;
      total_wall += s.wall_seconds;
      total_deltas += s.delta_count;
    }
    if (s.failed) ++failed;
    if (s.quarantined) ++quarantined;
    total_fetch_errors += s.fetch_errors;
    total_injected += s.faults_injected;
    if (s.from_cache) ++total_cache_hits;
    total_worker_deaths += s.worker_deaths;
    if (s.has_memory) {
      if (s.mem_resident_peak_bytes > peak_resident)
        peak_resident = s.mem_resident_peak_bytes;
      total_cow_splits += s.mem_cow_splits;
      total_ecc_corrected += s.ecc_corrected;
      total_ecc_uncorrectable += s.ecc_uncorrectable;
    }
    if (s.quarantined && s.quarantine_reason == "budget-quarantined")
      ++budget_quarantined;
    w.begin_object();
    w.field("index", static_cast<u64>(s.index));
    w.field("label", s.label);
    w.field("done", s.done);
    w.field("wall_seconds", s.wall_seconds);
    w.field("sim_time_ns", s.sim_time.to_ns());
    w.field("delta_cycles", s.delta_count);
    w.field("activations", s.activations);
    if (s.digest != 0)
      w.field("digest",
              strfmt("%016llx", static_cast<unsigned long long>(s.digest)));
    w.field("failed", s.failed);
    if (s.failed) w.field("error", s.error);
    if (s.attempts > 1) w.field("attempts", static_cast<u64>(s.attempts));
    if (s.quarantined) {
      w.field("quarantined", true);
      w.field("quarantine_reason", s.quarantine_reason);
    }
    // Cross-run dedup / crash-containment markers (process mode + cache).
    if (s.from_cache) w.field("cached", true);
    if (s.worker_deaths > 0) w.field("worker_deaths", s.worker_deaths);
    // Per-job counter groups: availability, latency-hiding, speed/accuracy,
    // resident-set and state-transfer curves come from plotting these
    // against the jobs' sweep parameters. The report has always put memory
    // (kStatsGroups[4]) before migration, the reverse of the D record.
    for (const usize g : {0, 1, 2, 4, 3}) {
      const StatsGroup& group = kStatsGroups[g];
      if (!(s.*group.has)) continue;
      w.key(group.report_key).begin_object();
      for (const StatsField& f : group.fields) {
        w.key(f.report_key);
        switch (f.kind) {
          case StatsKind::kCount: w.value(f.of<u64>(s)); break;
          case StatsKind::kTime: w.value(f.of<kern::Time>(s).to_ns()); break;
          default: w.value(journal_value(s, f));  // digest, mode
        }
      }
      w.end();
    }
    w.end();
  }
  w.end();
  if (done == 0) {
    // No job completed (e.g. every job quarantined, or the sweep was
    // interrupted at the start): aggregates would be all-zero placeholders
    // or NaN rates, so emit an explicit null with the reason instead.
    w.field("totals", nullptr);
    w.field("totals_reason",
            stats.empty() ? "no jobs submitted" : "no completed jobs");
  } else {
    w.key("totals").begin_object();
    w.field("jobs", static_cast<u64>(stats.size()));
    w.field("done", done);
    w.field("failed", failed);
    w.field("cpu_seconds", total_wall);
    w.field("delta_cycles", total_deltas);
    w.field("quarantined", quarantined);
    w.field("fetch_errors", total_fetch_errors);
    w.field("faults_injected", total_injected);
    w.field("cache_hits", total_cache_hits);
    w.field("worker_deaths", total_worker_deaths);
    if (peak_resident > 0) w.field("resident_peak_bytes", peak_resident);
    if (total_cow_splits > 0) w.field("cow_splits", total_cow_splits);
    if (total_ecc_corrected > 0)
      w.field("ecc_corrected", total_ecc_corrected);
    if (total_ecc_uncorrectable > 0)
      w.field("ecc_uncorrectable", total_ecc_uncorrectable);
    if (budget_quarantined > 0)
      w.field("budget_quarantined", budget_quarantined);
    if (service != nullptr) {
      w.field("service_requests", service->service_requests);
      w.field("dedup_hits", service->dedup_hits);
      w.field("dedup_ratio",
              service->service_requests > 0
                  ? static_cast<double>(service->dedup_hits) /
                        static_cast<double>(service->service_requests)
                  : 0.0);
    }
    if (total_wall > 0)
      w.field("jobs_per_cpu_second", static_cast<double>(done) / total_wall);
    w.end();
  }
  w.end();
  return w.str();
}

bool write_report_file(const std::string& path, const std::string& name,
                       usize threads, const std::vector<JobStats>& stats,
                       const ServiceTotals* service) {
  std::ofstream out(path);
  if (!out) {
    log::error() << "campaign report: cannot open " << path;
    return false;
  }
  out << report_json(name, threads, stats, service) << '\n';
  return static_cast<bool>(out);
}

}  // namespace adriatic::campaign
