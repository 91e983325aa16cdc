// Fault-injection sweep: recovery policy x configuration-fetch error rate
// x context-scheduler policy (on-demand vs hybrid prefetch) for a
// two-context DRCF, measuring availability (transactions that complete)
// and the recovery work each policy performs. Demonstrates the robustness
// story end to end: a seeded FaultPlan on the fabric's fetch path, the
// recovery policies reacting to it, and the fault ledger surfacing in the
// campaign report.
//
// The model is built by hand (no netlist CPU — the driver must observe bus
// errors rather than abort on them): a split-transaction bus, a configuration
// memory holding the synthetic bitstreams, and two small data memories
// wrapped as DRCF contexts. A driver thread ping-pongs between the contexts
// so every step forces a reconfiguration, maximising exposure to fetch
// faults.
//
// Build & run:  ./build/examples/fault_sweep [--seed N] [--serial]
//               [--jobs N] [--report FILE.json] [--journal FILE.wal]
//               [--resume FILE.wal [--verify-resume]] [--throttle-ms N]
//               [--processes] [--cache FILE] [--inject-failures]
//               [--mem-budget-mb N] [--inject-oversized]
//               [--server SOCKET]
//
// With --journal every planned job, begun attempt and finished result is a
// write-ahead record: the plan is fsync'd once, a finished result before the
// sweep acts on it, and begun records ride along with the next sync. A
// sweep killed mid-run (SIGKILL included) restarts with --resume,
// re-running only the jobs the journal does not show as done. SIGINT/SIGTERM
// stop the sweep gracefully: running simulations get request_stop(), the
// journal is flushed, and --report still emits a valid partial report (exit
// status 130). --verify-resume re-runs completed jobs too and checks their
// scheduler-trace digests against the journaled ones.
//
// --processes runs every job in a forked child (crash containment: a
// segfaulting or spinning job is quarantined with a structured reason, the
// sweep completes). --cache keeps a digest-keyed result cache across runs:
// jobs whose spec hash is already cached are served without re-simulating
// and flagged "cached" in the report. --inject-failures appends two
// deliberately broken jobs (a segfault and a CPU spin) to exercise the
// containment path — see docs/campaign.md.
//
// --mem-budget-mb caps the process-wide paged-store budget (also settable
// via ADRIATIC_MEM_BUDGET_MB); --inject-oversized appends a job whose model
// cannot fit that budget, demonstrating graceful degradation: the job is
// quarantined "budget-quarantined" while the rest of the sweep completes —
// see docs/memory.md. The two contexts' bitstreams land on page-aligned
// offsets, so every job attaches the same two interned images instead of
// materialising private configuration pages.
//
// --server SOCKET runs the sweep as a thin client of campaignd
// (docs/service.md): the same 24 job specs are submitted over the socket,
// the daemon schedules them on its own pool (consulting its result cache
// first) and streams back per-job results; the table and --report are
// byte-identical to a local run modulo timing fields.
//
// This file is the grid and the printing. Running it — serial, pool,
// journal, resume, cache, --server — is service::run_sweep()
// (src/service/sweep.hpp), shared with dse_explorer; the point body is the
// `fault_point` kind campaignd serves (src/service/jobs.cpp). The injected
// jobs are local-only kinds: never cached, refused by --server, --serial
// and --resume.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "service/jobs.hpp"
#include "service/sweep.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kSteps = 24;  // driver steps per point (see service/jobs.cpp)

/// The kinds behind --inject-failures and --inject-oversized. Their jobs go
/// AFTER the sweep grid, so the 24 real points stay comparable with a clean
/// run; campaignd does not serve them, so they never touch the cache.
std::vector<service::LocalKind> debug_kinds() {
  // The failure is injected into the forked child before the body runs;
  // thread mode ignores it, so there the crash jobs are inert no-ops.
  const service::JobBuilder inert = [](const std::string&,
                                       const service::ParamMap&) {
    return std::optional<service::JobBody>{[](campaign::JobContext&) {}};
  };
  // Segfaults: quarantined "signal:SIGSEGV" after its retries.
  service::LocalKind segv{"debug/segv", inert};
  segv.options.debug_failure = campaign::DebugFailure::kSegv;
  // Spins forever: the supervisor's wall deadline kills it ("timeout"). Give
  // it a short deadline and do not retry what can only time out again.
  service::LocalKind hang{"debug/hang-cpu", inert};
  hang.options.debug_failure = campaign::DebugFailure::kHangCpu;
  hang.options.wall_timeout_seconds = 2.0;
  hang.options.max_attempts = 1;
  // A model that cannot fit the paged-store budget. Materialising its pages
  // throws BudgetExceededError on the plain call stack (no simulation is
  // ever run), which the runner turns into a "budget-quarantined" verdict
  // in both thread and process mode while every other job completes.
  service::LocalKind oversized{
      "debug/oversized",
      [](const std::string&, const service::ParamMap&) {
        return std::optional<service::JobBody>{[](campaign::JobContext&) {
          kern::Simulation sim;
          kern::Module top(sim, "top");
          // 64 MiB of pages, far past any sensible sweep budget; touch each
          // page so the sparse store actually materialises them.
          constexpr usize kHugeWords = usize{16} << 20;
          mem::Memory big(top, "oversized_mem", 0, kHugeWords);
          for (usize w = 0; w < kHugeWords; w += mem::kPageWords)
            big.poke(static_cast<bus::addr_t>(w), 1);
        }};
      }};
  oversized.options.max_attempts = 1;  // a retry can only blow the budget
  return {segv, hang, oversized};
}

}  // namespace

int main(int argc, char** argv) {
  service::SweepOptions opt;
  opt.campaign = "fault_sweep";
  bool inject_failures = false;
  bool inject_oversized = false;
  u64 mem_budget_mb = 0;
  u64 seed = 1;
  unsigned throttle_ms = 0;
  const auto usage = [] {
    std::cerr << "usage: fault_sweep [--seed N] [--serial] [--jobs N] "
                 "[--report FILE.json]\n"
                 "                   [--journal FILE.wal | --resume FILE.wal "
                 "[--verify-resume]]\n"
                 "                   [--throttle-ms N] [--processes] "
                 "[--cache FILE] [--inject-failures]\n"
                 "                   [--mem-budget-mb N] [--inject-oversized]\n"
                 "                   [--server SOCKET]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serial") == 0) {
      opt.serial = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opt.threads = static_cast<usize>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      opt.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      opt.journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      opt.resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify-resume") == 0) {
      opt.verify_resume = true;
    } else if (std::strcmp(argv[i], "--throttle-ms") == 0 && i + 1 < argc) {
      throttle_ms =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      opt.processes = true;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      opt.cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--inject-failures") == 0) {
      inject_failures = true;
    } else if (std::strcmp(argv[i], "--inject-oversized") == 0) {
      inject_oversized = true;
    } else if (std::strcmp(argv[i], "--mem-budget-mb") == 0 && i + 1 < argc) {
      mem_budget_mb = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      opt.server_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (mem_budget_mb > 0)
    mem::MemoryBudget::instance().set_limit_bytes(mem_budget_mb * 1024 *
                                                  1024);

  // Policy indices are drcf::RecoveryPolicy values (fail_fast=0,
  // retry_backoff=1, fallback=2); jobs.cpp casts them back.
  const std::pair<const char*, u32> policies[] = {
      {"fail_fast", 0},
      {"retry_backoff", 1},
      {"fallback", 2},
  };
  const u32 rates[] = {0, 2, 5, 10};

  std::vector<service::ServiceJob> jobs;
  for (const auto& [pname, policy] : policies) {
    for (const u32 rate : rates) {
      for (const bool prefetch : {false, true}) {
        const service::FaultPointSpec point{
            std::string(pname) + "/r" + std::to_string(rate) +
                (prefetch ? "/hybrid" : "/demand"),
            policy, rate, seed * 1000 + jobs.size(), prefetch, throttle_ms};
        // The spec hash folds every parameter that shapes the simulation,
        // so --resume refuses a journal written for a different --seed.
        jobs.push_back({jobs.size(), service::fault_point_spec_hash(point),
                        "fault_point", point.label,
                        service::fault_point_params(point)});
      }
    }
  }
  opt.local_kinds = debug_kinds();
  std::vector<const char*> injected;
  if (inject_failures) injected = {"debug/segv", "debug/hang-cpu"};
  if (inject_oversized) injected.push_back("debug/oversized");
  for (const char* label : injected)
    jobs.push_back({jobs.size(), campaign::spec_hash(label), label, label, {}});

  const service::SweepResult r = service::run_sweep(jobs, opt);
  if (!r.started) return r.exit_status();

  Table t("Fault sweep: recovery policy x fetch error rate x scheduler (" +
          std::to_string(kSteps) + " steps, seed " + std::to_string(seed) +
          (opt.server_path.empty() ? "" : ", via " + opt.server_path) + ")");
  t.header({"policy/rate/sched", "steps ok", "fetch errs", "retries",
            "fallbacks", "injected", "cache hits", "availability"});
  // Rows come from each job's user_data payload, whichever path its stats
  // took: fresh run, forked child, journal restore, cache hit or campaignd.
  for (const auto& s : r.stats)
    if (s.done && !s.user_data.empty()) t.row(split(s.user_data, '\t'));
  t.print(std::cout);
  if (r.restored > 0)
    std::cout << r.restored
              << " job(s) restored from the journal (not re-run)\n";
  if (r.cached > 0)
    std::cout << r.cached
              << " job(s) served from the result cache (not re-simulated)\n";
  if (r.service.has_value() && r.service->dedup_hits > 0)
    std::cout << r.service->dedup_hits
              << " job(s) served from the service cache (not "
                 "re-simulated)\n";
  if (r.verified > 0 && r.verify_failures == 0)
    std::cout << r.verified
              << " journaled digest(s) verified against re-runs\n";
  return r.exit_status();
}
