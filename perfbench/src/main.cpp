// perfbench: the repository benchmark program. Runs one workload for a fixed
// time against the simulator's public API, checks every result, and prints
// the metrics named in BENCHMARK.json. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload dse_timed|dse_loose|fault_service --seed N
//             --seconds S --trace 0|1 [--expected FILE] [--work-dir DIR]
//             [--record FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced repetitions and prints the per-layer metrics (from the traced ones),
// a self-time table, and writes a Chrome trace next to the work directory.
// --record writes the outcomes the run saw in the expected-results format
// instead of checking them (used to regenerate expected_results.txt). See
// METHODS.md.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "io_hooks.hpp"
#include "memory/budget.hpp"
#include "trace.hpp"
#include "util/log.hpp"

namespace perfbench {

i64 now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<i64>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest-rank: the smallest sample with at least q of the data at or
  // below it.
  const auto rank =
      static_cast<usize>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<usize>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double peak_rss_mb() {
  // VmHWM, the high-water mark of this address space. Not ru_maxrss: Linux
  // carries the maximum over exec, so that would never read below the RSS
  // of the process that launched this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
  return 0;
}

CpuTimes cpu_times() {
  CpuTimes t;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    t.user_s += static_cast<double>(ru.ru_utime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    t.sys_s += static_cast<double>(ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  }
  return t;
}

double time_in_child(const std::function<double()>& first_use) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double s = -1;
    try {
      s = first_use();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    }
    const bool ok = s >= 0 && ::write(fds[1], &s, sizeof s) == sizeof s;
    // No exit handlers: the copy shares stdio buffers and the work
    // directory with this process.
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  double s = -1;
  const ssize_t n = ::read(fds[0], &s, sizeof s);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (n != static_cast<ssize_t>(sizeof s) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up in a fresh process failed");
  return s;
}

void Tally::add_point(const Point& p,
                      const adriatic::campaign::JobStats& s) {
  std::lock_guard<std::mutex> lk(mu);
  ++points;
  const double latency_ms = static_cast<double>(p.latency_ns) / 1e6;
  if (p.frame_bytes != 0) {
    frame_bytes += p.frame_bytes;
    ++frames;
  }
  if (!p.fresh) {
    cached_latency_ms.push_back(latency_ms);
    ++rep_points_;
    return;
  }
  ++fresh;
  ++rep_points_;
  rep_activations_ += s.activations;
  fresh_latency_ms.push_back(latency_ms);
  if (p.body_ns != 0) {
    queue_ms += static_cast<double>(p.queue_ns) / 1e6;
    body_ms += static_cast<double>(p.body_ns) / 1e6;
    commit_ms += static_cast<double>(p.commit_ns) / 1e6;
    span_ms += latency_ms;
  }
  activations += s.activations;
  delta_cycles += s.delta_count;
  loose_syncs += s.loose_syncs;
  config_words += s.config_words_fetched;
  cache_hits += s.cache_hits;
  prefetch_hits += s.prefetch_hits;
  fetch_errors += s.fetch_errors;
  hidden_latency_us += s.hidden_latency.to_us();
  mem_pages += s.mem_pages_resident;
  mem_cow_splits += s.mem_cow_splits;
  mem_shared_pages += s.mem_shared_pages;
  mem_peak_bytes = std::max(mem_peak_bytes, s.mem_resident_peak_bytes);
  attempts += s.attempts;
  worker_deaths += s.worker_deaths;
}

void Tally::end_rep(double wall_s, double cpu_s) {
  std::lock_guard<std::mutex> lk(mu);
  const auto n = static_cast<double>(rep_points_);
  Rep r;
  r.points_per_s = ratio(n, wall_s);
  r.cpu_ms_per_point = ratio(cpu_s * 1e3, n);
  r.sim_events_per_cpu_s = ratio(static_cast<double>(rep_activations_), cpu_s);
  if (rep_points_ != 0) reps.push_back(r);
  if (reps.size() == rss_after_reps) peak_rss_mb = perfbench::peak_rss_mb();
  rep_points_ = 0;
  rep_activations_ = 0;
}

RepClock::RepClock()
    : t0_(now_ns()),
      cpu0_(cpu_times()),
      fsyncs0_(io::fsync_count()),
      forks0_(io::fork_count()) {}

void RepClock::finish(Tally& tally, WindowHost& host) const {
  const CpuTimes cpu = cpu_times();
  const double user_s = cpu.user_s - cpu0_.user_s;
  const double sys_s = cpu.sys_s - cpu0_.sys_s;
  tally.end_rep(static_cast<double>(now_ns() - t0_) / 1e9, user_s + sys_s);
  host.cpu.user_s += user_s;
  host.cpu.sys_s += sys_s;
  host.fsyncs += io::fsync_count() - fsyncs0_;
  host.forks += io::fork_count() - forks0_;
}

void Tally::add_failure(const std::string& why) {
  std::lock_guard<std::mutex> lk(mu);
  ++failed;
  if (failure_notes.size() < 8) failure_notes.push_back(why);
}

void Tally::add_attempt() {
  std::lock_guard<std::mutex> lk(mu);
  ++attempted;
}

Checker::Checker(const Options& opt) : opt_(opt) {
  if (!opt_.record_path.empty() || opt_.expected_path.empty()) return;
  std::string error;
  if (!ref_.load(opt_.expected_path, &error))
    throw std::runtime_error(error);
}

bool Checker::check(const Outcome& got, bool must_exist, std::string* why) {
  if (!opt_.record_path.empty()) {
    if (must_exist) {
      std::lock_guard<std::mutex> lk(mu_);
      recorded_[got.workload + ' ' + got.key] = got;
    }
    return true;
  }
  const Outcome* want = ref_.find(got.workload, got.key);
  if (want == nullptr) {
    if (must_exist) *why = "no expected-results entry";
    return !must_exist;
  }
  if (*want == got) return true;
  *why = describe_mismatch(*want, got);
  return false;
}

bool Checker::flush() const {
  if (opt_.record_path.empty()) return true;
  std::ofstream out(opt_.record_path, std::ios::app);
  for (const auto& [k, o] : recorded_) out << to_line(o) << '\n';
  return static_cast<bool>(out);
}

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The fast-side quartile of a per-repetition figure: the 25th percentile
/// of a cost, the 75th of a rate. Contention from other tenants of a shared
/// host only ever slows a repetition down, and it comes in episodes of
/// seconds; the fast quartile ignores episodes covering up to three
/// quarters of the window, where a median ignores only half.
double fast_quartile(const Tally& t, double Tally::Rep::*field, bool rate) {
  std::vector<double> v;
  for (const auto& rep : t.reps) v.push_back(rep.*field);
  return percentile(v, rate ? 0.75 : 0.25);
}

/// points_per_s of the last quarter of repetitions over that of the first
/// quarter, minus 1, each taken as the fast-side quartile like the metrics:
/// how much the workload slows down (< 0) or speeds up as a run goes on.
/// 0 with fewer than eight repetitions.
double drift(const Tally& t) {
  const usize q = t.reps.size() / 4;
  if (q < 2) return 0;
  std::vector<double> first, last;
  for (usize i = 0; i < q; ++i) {
    first.push_back(t.reps[i].points_per_s);
    last.push_back(t.reps[t.reps.size() - q + i].points_per_s);
  }
  const double f = percentile(first, 0.75);
  return f > 0 ? percentile(last, 0.75) / f - 1.0 : 0;
}

std::vector<Metric> end_to_end(const WorkloadResult& r) {
  const Tally& t = r.untraced;
  using R = Tally::Rep;
  return {
      {"setup_s", percentile(r.setup_s, 0.5), "s"},
      {"points_per_s", fast_quartile(t, &R::points_per_s, true), "1/s"},
      {"cpu_ms_per_point", fast_quartile(t, &R::cpu_ms_per_point, false),
       "ms"},
      {"sim_events_per_cpu_s",
       fast_quartile(t, &R::sim_events_per_cpu_s, true), "1/s"},
      {"result_latency_p50_ms", percentile(t.fresh_latency_ms, 0.5), "ms"},
      {"result_latency_p90_ms", percentile(t.fresh_latency_ms, 0.9), "ms"},
      {"peak_rss_mb", t.peak_rss_mb > 0 ? t.peak_rss_mb : peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const WorkloadResult& r) {
  const Tally& t = r.traced;
  const WindowHost& h = r.traced_host;
  const auto d = [](u64 v) { return static_cast<double>(v); };
  const double cpu_s = h.cpu.user_s + h.cpu.sys_s;
  // Simulated statistics divide by freshly simulated points; host I/O by
  // every delivered point (dedup-served ones included).
  const auto per_fresh = [&](double v) { return ratio(v, d(t.fresh)); };
  const auto per_point = [&](double v) { return ratio(v, d(t.points)); };
  const bool service = h.warm_requests > 0;
  const double round_trip = service ? per_fresh(t.span_ms) : 0;
  const double server_body = service ? per_fresh(t.body_ms) : 0;
  const double mem_peak = d(std::max<u64>(
      t.mem_peak_bytes,
      adriatic::mem::MemoryBudget::instance().high_water_bytes()));
  const double untraced_cpu =
      fast_quartile(r.untraced, &Tally::Rep::cpu_ms_per_point, false);
  const double traced_cpu =
      fast_quartile(t, &Tally::Rep::cpu_ms_per_point, false);
  return {
      {"kernel.activations_per_point", per_fresh(d(t.activations)), "count"},
      {"kernel.delta_cycles_per_point", per_fresh(d(t.delta_cycles)), "count"},
      {"kernel.loose_syncs_per_point", per_fresh(d(t.loose_syncs)), "count"},
      {"kernel.cpu_ns_per_activation", ratio(cpu_s * 1e9, d(t.activations)),
       "ns"},
      {"host.sys_cpu_share", ratio(h.cpu.sys_s, cpu_s), "share"},
      {"drcf.config_words_per_point", per_fresh(d(t.config_words)), "count"},
      {"drcf.cache_hits_per_point", per_fresh(d(t.cache_hits)), "count"},
      {"drcf.prefetch_hits_per_point", per_fresh(d(t.prefetch_hits)), "count"},
      {"drcf.hidden_latency_us_per_point", per_fresh(t.hidden_latency_us),
       "us"},
      {"drcf.fetch_errors_per_point", per_fresh(d(t.fetch_errors)), "count"},
      {"memory.peak_resident_mb", mem_peak / (1024.0 * 1024.0), "MB"},
      {"memory.pages_resident_per_point", per_fresh(d(t.mem_pages)), "count"},
      {"memory.cow_splits_per_point", per_fresh(d(t.mem_cow_splits)), "count"},
      {"memory.shared_pages_per_point", per_fresh(d(t.mem_shared_pages)),
       "count"},
      {"campaign.queue_wait_ms", per_fresh(t.queue_ms), "ms"},
      {"campaign.body_ms", per_fresh(t.body_ms), "ms"},
      {"campaign.commit_ms", per_fresh(t.commit_ms), "ms"},
      {"campaign.overhead_share",
       t.span_ms > 0 ? 1.0 - t.body_ms / t.span_ms : 0, "share"},
      {"campaign.attempts_per_point", per_fresh(d(t.attempts)), "count"},
      {"campaign.worker_deaths", d(t.worker_deaths), "count"},
      {"campaign.forks_per_point", per_point(d(h.forks)), "count"},
      {"campaign.fsyncs_per_point", per_point(d(h.fsyncs)), "count"},
      {"campaign.journal_fsyncs_per_point", per_point(d(h.journal_fsyncs)),
       "count"},
      {"campaign.cache_fsyncs_per_point", per_point(d(h.cache_fsyncs)),
       "count"},
      {"campaign.journal_fsync_ms_per_point", per_point(h.journal_fsync_ms),
       "ms"},
      {"campaign.cache_fsync_ms_per_point", per_point(h.cache_fsync_ms), "ms"},
      {"campaign.journal_bytes_per_point", per_point(d(h.journal_bytes)), "B"},
      {"campaign.cache_bytes_per_point", per_point(d(h.cache_bytes)), "B"},
      {"service.round_trip_ms", round_trip, "ms"},
      {"service.server_body_ms", server_body, "ms"},
      {"service.overhead_ms", round_trip - server_body, "ms"},
      {"service.dedup_ratio", ratio(d(h.warm_dedup_hits), d(h.warm_requests)),
       "share"},
      {"service.bytes_per_result", ratio(d(t.frame_bytes), d(t.frames)), "B"},
      {"service.errors", d(h.service_errors), "count"},
      {"service.cached_latency_p50_ms", percentile(t.cached_latency_ms, 0.5),
       "ms"},
      {"service.cached_latency_p90_ms", percentile(t.cached_latency_ms, 0.9),
       "ms"},
      // Traced against interleaved untraced repetitions, CPU per point.
      {"trace.overhead_share",
       untraced_cpu > 0 ? traced_cpu / untraced_cpu - 1.0 : 0, "share"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-38s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dse_timed|dse_loose|fault_service "
               "--seed N --seconds S --trace 0|1 [--expected FILE] "
               "[--work-dir DIR] [--record FILE]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  opt.work_dir = ".bench_run/" + std::to_string(::getpid());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120)
        return usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage();
      opt.trace = v == "1";
    } else if (a == "--expected") {
      opt.expected_path = v;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--record") {
      opt.record_path = v;
    } else {
      return usage();
    }
  }
  if (opt.workload != "dse_timed" && opt.workload != "dse_loose" &&
      opt.workload != "fault_service")
    return usage();

  // The fault plans make the DRCF log every injected fetch error; that is
  // expected output, and thousands of stderr lines per second would only
  // measure the terminal.
  adriatic::log::set_level(adriatic::log::Level::kOff);
  std::filesystem::create_directories(opt.work_dir);
  Checker checker(opt);
  WorkloadResult r;
  if (opt.workload == "fault_service") {
    run_fault_service(opt, checker, r);
  } else {
    run_dse(opt, opt.workload == "dse_loose", checker, r);
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  if (!checker.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opt.record_path.c_str());
    return 2;
  }

  const usize attempted = r.untraced.attempted + r.traced.attempted;
  const usize failed = r.untraced.failed + r.traced.failed;
  for (const Tally* t : {&r.untraced, &r.traced})
    for (const auto& note : t->failure_notes)
      std::fprintf(stderr, "perfbench: FAILED %s\n", note.c_str());

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  const auto e2e = end_to_end(r);
  print_table("end to end (untraced repetitions):", e2e);
  // Printed beside the gated metrics; neither can be gated as a ratio to
  // the parent's median because both are 0 on some workloads.
  std::printf("  %-38s %16.6f %s\n", "cached_latency_p50_ms",
              percentile(r.untraced.cached_latency_ms, 0.5), "ms");
  std::printf("  %-38s %16.6f %s\n", "cached_latency_p90_ms",
              percentile(r.untraced.cached_latency_ms, 0.9), "ms");
  std::printf("  %-38s %16.6f %s\n", "error_rate",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              "share");
  std::printf(
      "  samples: %zu points (%zu fresh, %zu cached) in %zu repetitions "
      "(rates and CPU: fast-side quartiles over repetitions; latencies: "
      "percentiles of all points), %zu set-ups\n",
      r.untraced.points, r.untraced.fresh,
      r.untraced.cached_latency_ms.size(), r.untraced.reps.size(),
      r.setup_s.size());
  std::printf("  drift: points_per_s (fast quartile) of the last quarter of "
              "repetitions over the first, minus 1: %+.4f\n",
              drift(r.untraced));

  std::vector<Metric> shown = e2e;
  if (r.has_traced) {
    shown = per_layer(r);
    print_table("per layer (traced repetitions):", shown);
    const auto spans = trace::take();
    std::printf("self time by span (traced repetitions, %zu spans):\n",
                spans.size());
    std::printf("  %-28s %10s %14s %14s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& row : trace::self_times(spans))
      std::printf("  %-28s %10zu %14.3f %14.3f\n", row.name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    const std::string path = std::filesystem::path(opt.work_dir)
                                 .parent_path()
                                 .append("trace_" + opt.workload + "_" +
                                         std::to_string(opt.seed) + ".json")
                                 .string();
    if (trace::write_chrome_trace(path, spans))
      std::printf("chrome trace: %s\n", path.c_str());
  }

  const bool correct = failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (usize i = 0; i < shown.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " +
            json_number(shown[i].value) + ", \"unit\": \"" + shown[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
