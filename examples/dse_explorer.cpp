// Design-space explorer: sweeps reconfigurable technology x slot count x
// memory organisation x context-scheduler policy for the WLAN-style
// three-kernel application, collects (latency, area, reconfig energy,
// inflexibility, fetched config bytes) for every point, and prints the
// Pareto front — the "true design space exploration at the system level"
// the paper positions the methodology for.
//
// Every design point is an independent simulation, so the sweep runs through
// the campaign engine: one Simulation per worker thread, results printed in
// submission order (output is byte-identical for any thread count). This
// file is the grid and the printing; running it — serial, pool, journal,
// resume, cache, --server — is service::run_sweep() (src/service/sweep.hpp),
// shared with fault_sweep, and the bodies are the dse_* kinds campaignd
// serves (src/service/jobs.cpp), so every mode runs the same code under the
// same retry/timeout policy.
//
// Build & run:  ./build/examples/dse_explorer [--serial] [--jobs N]
//                                             [--report FILE.json]
//                                             [--journal FILE.wal |
//                                              --resume FILE.wal]
//                                             [--processes] [--cache FILE]
//
// --journal write-ahead-logs every job so a killed sweep restarts with
// --resume, re-running only the design points the journal does not show as
// done. SIGINT/SIGTERM stop the sweep gracefully: running simulations get
// request_stop() and --report still emits a valid partial report (exit 130);
// the Pareto front is only printed when every point completed.
//
// --processes runs the design points in forked children, one per worker
// while it has queued points (a crashing point is quarantined with a
// structured reason instead of killing the sweep);
// --cache serves points whose spec hash already has a cached result without
// re-simulating. The spec hash folds the timing mode and quantum, so
// --loose/--quantum variants of a grid point never alias in the journal or
// the cache.
//
// --server SOCKET runs the sweep as a thin client of campaignd
// (docs/service.md): the same design points are submitted over the socket
// as dse_point/dse_hardwired/dse_migration_probe jobs, the daemon schedules
// them on its own pool (consulting its result cache first) and streams back
// per-job results; table, Pareto front and --report match a local run
// modulo timing fields.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dse/pareto.hpp"
#include "service/jobs.hpp"
#include "service/sweep.hpp"
#include "util/table.hpp"

using namespace adriatic;

namespace {

constexpr int kFrames = 4;  // frames the synthetic app processes (jobs.cpp)

}  // namespace

int main(int argc, char** argv) {
  service::SweepOptions opt;
  opt.campaign = "dse_explorer";
  bool loose = false;
  u32 quantum_ns = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serial") == 0) {
      opt.serial = true;
    } else if (std::strcmp(argv[i], "--loose") == 0) {
      loose = true;
    } else if (std::strcmp(argv[i], "--quantum") == 0 && i + 1 < argc) {
      char* end = nullptr;
      quantum_ns = static_cast<u32>(std::strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0' || quantum_ns == 0) {
        std::cerr << "dse_explorer: --quantum expects a nonzero ns count, "
                     "got '" << argv[i] << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      opt.threads = static_cast<usize>(std::strtoul(argv[++i], &end, 10));
      if (end == argv[i] || *end != '\0') {
        std::cerr << "dse_explorer: --jobs expects a number, got '" << argv[i]
                  << "'\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      opt.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      opt.journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      opt.resume_path = argv[++i];
    } else if (std::strcmp(argv[i], "--processes") == 0) {
      opt.processes = true;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      opt.cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      opt.server_path = argv[++i];
    } else {
      std::cerr << "usage: dse_explorer [--serial] [--jobs N] "
                   "[--loose] [--quantum NS] "
                   "[--report FILE.json] [--journal FILE.wal | "
                   "--resume FILE.wal] [--processes] [--cache FILE] "
                   "[--server SOCKET]\n";
      return 2;
    }
  }
  if (quantum_ns != 0 && !loose) {
    std::cerr << "dse_explorer: --quantum only applies with --loose\n";
    return 2;
  }

  // The sweep's job list: every design point, the hardwired reference, and
  // the task-migration probe. Each spec hash folds the timing axis (mode +
  // quantum) on top of the label, so --loose/--quantum variants of the same
  // grid point never alias in the journal or the result cache.
  std::vector<service::ServiceJob> jobs;
  for (u32 tech = 0; tech < 3; ++tech) {
    for (const u32 slots : {1u, 2u}) {
      for (const bool link : {false, true}) {
        for (const bool prefetch : {false, true}) {
          service::DsePointSpec c;
          c.label = std::string(service::dse_tech_name(tech)) + "/s" +
                    std::to_string(slots) + (link ? "/link" : "/shared") +
                    (prefetch ? "/hybrid" : "/demand");
          c.tech = tech;
          c.slots = slots;
          c.dedicated_link = link;
          c.prefetch = prefetch;
          c.loose = loose;
          c.quantum_ns = quantum_ns;
          jobs.push_back({jobs.size(),
                          service::dse_spec_hash(c.label, loose, quantum_ns),
                          "dse_point", c.label, service::dse_point_params(c)});
        }
      }
    }
  }
  const usize n_points = jobs.size();
  const service::ParamMap timing{{"loose", loose ? "1" : "0"},
                                 {"quantum_ns", std::to_string(quantum_ns)}};
  for (const auto& [kind, label] :
       {std::pair{"dse_hardwired", "hardwired"},
        std::pair{"dse_migration_probe", "migration_probe"}})
    jobs.push_back({jobs.size(),
                    service::dse_spec_hash(label, loose, quantum_ns), kind,
                    label, timing});

  const service::SweepResult r = service::run_sweep(jobs, opt);
  if (!r.started) return r.exit_status();
  if (r.service.has_value() && r.service->dedup_hits > 0)
    std::cout << r.service->dedup_hits
              << " job(s) served from the service cache (not "
                 "re-simulated)\n";

  // Outcomes come from each job's packed user_data, whichever path its
  // stats took: fresh run, forked child, journal restore, cache hit or
  // campaignd.
  std::vector<service::DseOutcome> outcomes;
  for (const auto& s : r.stats)
    outcomes.push_back(service::unpack_dse_outcome(s));

  Table t("DSE sweep: technology x slots x config-memory x scheduler policy (" +
          std::to_string(kFrames) + " frames)");
  t.header({"configuration", "time [us]", "switches", "cfg words",
            "hidden [us]", "hide %", "area [gate-eq]", "reconf energy [uJ]"});
  std::vector<dse::DesignPoint> points;
  for (usize i = 0; i < n_points; ++i) {
    if (!outcomes[i].ok) continue;
    t.row(outcomes[i].row);
    points.push_back(outcomes[i].point);
  }
  t.print(std::cout);
  if (r.cached > 0)
    std::cout << r.cached
              << " job(s) served from the result cache (not re-simulated)\n";

  const auto& hw = outcomes[n_points];
  if (hw.ok) {
    std::cout << "\nhardwired reference: " << hw.row[0] << " us, "
              << (hw.point.objectives.size() > 1
                      ? static_cast<u64>(hw.point.objectives[1])
                      : 0)
              << " gates, 0 uJ reconfig\n";
    points.push_back(hw.point);
  }

  const auto& probe = outcomes[n_points + 1];
  if (probe.ok)
    std::cout << "migration probe: " << probe.row[0] << " migration(s), "
              << probe.row[1] << " state words over the bus, " << probe.row[2]
              << " transfer fault(s) recovered\n";

  // The Pareto front is only meaningful over the complete design space
  // (every design point plus the hardwired reference; the migration probe
  // contributes no point): skip it when points are missing (interrupted or
  // failed runs).
  if (points.size() == n_points + 1) {
    const auto front = dse::pareto_front(points);
    std::cout
        << "\nPareto-optimal configurations (time, area, energy, "
           "inflexibility, cfg bytes):\n";
    for (const usize idx : front)
      std::cout << "  * " << points[idx].label << '\n';
  } else {
    std::cout << "\nPareto front skipped: only " << points.size() << " of "
              << jobs.size() << " design points evaluated in this run\n";
  }
  return r.exit_status();
}
