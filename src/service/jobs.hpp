// Shared campaign job bodies for the socket service and the sweep examples.
//
// The server cannot receive closures over a socket, so every job a client
// may SUBMIT is a named *kind* plus a ParamMap; this header holds the
// concrete bodies behind those kinds. fault_sweep and dse_explorer run the
// same registry entries in local mode (service::run_sweep), which is what
// makes a --server run's report byte-identical (modulo wall clock) to a
// local one: both paths execute this file, not parallel re-implementations.
//
// Spec-hash helpers mirror the examples' historical folds exactly, so a
// result cache or journal written by a local sweep is directly reusable by
// the server (and vice versa).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "dse/pareto.hpp"
#include "service/protocol.hpp"
#include "util/types.hpp"

namespace adriatic::service {

// -- Fault-injection sweep point (fault_sweep) -------------------------------

/// One point of the recovery-policy x fetch-error-rate x scheduler sweep.
/// `policy` is the drcf::RecoveryPolicy value (0 fail_fast, 1 retry_backoff,
/// 2 fallback); `throttle_ms` is a CI knob (widens crash/signal windows) and
/// deliberately not part of the spec hash.
struct FaultPointSpec {
  std::string label;
  u32 policy = 0;
  u32 rate_pct = 0;
  u64 plan_seed = 0;
  bool prefetch = false;
  u32 throttle_ms = 0;
};

/// Journal/cache identity; fold order matches fault_sweep's original
/// point_spec() byte for byte.
[[nodiscard]] u64 fault_point_spec_hash(const FaultPointSpec& spec);
[[nodiscard]] ParamMap fault_point_params(const FaultPointSpec& spec);
[[nodiscard]] std::optional<FaultPointSpec> fault_point_from_params(
    const std::string& label, const ParamMap& params);

struct FaultPointOutcome {
  bool ok = false;
  std::vector<std::string> row;  ///< Print-ready table cells.
};

/// Runs one sweep point (two-context DRCF under a seeded fetch-fault plan);
/// records kernel counters, fault ledger, prefetch stats, memory footprint
/// and the table row (user_data) into `ctx` when non-null.
FaultPointOutcome run_fault_point(const FaultPointSpec& spec,
                                  campaign::JobContext* ctx);

// -- DSE design point (dse_explorer) -----------------------------------------

/// One design point of the technology x slots x memory x scheduler sweep.
/// `tech` indexes the fixed technology table (0 virtex2pro_like,
/// 1 varicore_like, 2 morphosys_like).
struct DsePointSpec {
  std::string label;
  u32 tech = 0;
  u32 slots = 1;
  bool dedicated_link = false;
  bool prefetch = false;  ///< Hybrid prefetch into a 2-plane cache.
  bool loose = false;     ///< Loosely-timed mode (--loose).
  u32 quantum_ns = 0;     ///< 0 = kernel default quantum.
};

[[nodiscard]] const char* dse_tech_name(u32 tech_index);

/// Identity fold shared by every dse_explorer job (grid point, hardwired
/// reference, migration probe): label + timing axis, matching the example's
/// original point_spec() lambda.
[[nodiscard]] u64 dse_spec_hash(const std::string& label, bool loose,
                                u32 quantum_ns);
[[nodiscard]] ParamMap dse_point_params(const DsePointSpec& spec);
[[nodiscard]] std::optional<DsePointSpec> dse_point_from_params(
    const std::string& label, const ParamMap& params);

/// Outcome of any dse_explorer-style job; `row`/`point` feed the tool's
/// table and Pareto front. Travels inside JobStats::user_data via
/// pack_dse_outcome(), so results from other address spaces (forked worker,
/// cache hit, journal restore, service RESULT frame) reproduce tool output.
struct DseOutcome {
  bool ok = false;
  std::string error;
  std::vector<std::string> row;
  dse::DesignPoint point;
};

[[nodiscard]] std::string pack_dse_outcome(const DseOutcome& out);
[[nodiscard]] DseOutcome unpack_dse_outcome(const campaign::JobStats& stats);

DseOutcome run_dse_point(const DsePointSpec& spec, campaign::JobContext* ctx);
/// The all-hardwired reference architecture as its own job.
DseOutcome run_dse_hardwired(bool loose, u32 quantum_ns,
                             campaign::JobContext* ctx);
/// The two-fabric task-migration probe as its own job.
DseOutcome run_dse_migration_probe(bool loose, u32 quantum_ns,
                                   campaign::JobContext* ctx);

// -- Golden determinism job (tests) ------------------------------------------

/// The result-cache determinism job: a seeded 40-write Signal<u32> producer
/// with a trace-folding observer. Label convention "golden<seed>", spec
/// golden_spec_hash(seed). Records kernel counters, the fold digest and a
/// "fold\t<value>" user_data payload — no memory/fault blocks, so its
/// serialised stats are fully deterministic (wall clock aside).
[[nodiscard]] u64 golden_spec_hash(u64 seed);
void run_golden(u64 seed, u32 throttle_ms, campaign::JobContext& ctx);

// -- Kind registry -----------------------------------------------------------

/// A job body ready for CampaignRunner::submit.
using JobBody = std::function<void(campaign::JobContext&)>;
/// Builds a body from a SUBMIT's label + params; nullopt when the params do
/// not describe a valid job of this kind (server answers bad-request).
using JobBuilder =
    std::function<std::optional<JobBody>(const std::string& label,
                                         const ParamMap& params)>;

using KindRegistry = std::vector<std::pair<std::string, JobBuilder>>;

/// The kinds campaignd serves out of the box:
///   fault_point, dse_point, dse_hardwired, dse_migration_probe, golden.
[[nodiscard]] KindRegistry builtin_kinds();

/// The builder registered for `name`, or null.
[[nodiscard]] const JobBuilder* find_kind(const KindRegistry& kinds,
                                          const std::string& name);

/// The CampaignRunner's resolver over `kinds`: how a job's body is built
/// from its kind, label and encoded params, on the worker thread or in the
/// process-mode child that runs it.
[[nodiscard]] campaign::KindResolver kind_resolver(KindRegistry kinds);

/// The robustness policy every job runs under, on campaignd and in local
/// sweeps alike: 2 attempts, a 60 s wall-clock budget per attempt and, in
/// process mode, a 10 s heartbeat timeout.
[[nodiscard]] campaign::JobOptions job_policy();

}  // namespace adriatic::service
