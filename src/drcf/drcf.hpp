// The DRCF — Dynamically Reconfigurable Fabric component (paper Sec. 5.2/5.3).
//
// Several candidate modules ("contexts") are folded into one bus slave that
// implements the union of their interfaces. A context scheduler and
// instrumentation process (the paper's `arb_and_instr`) owns the fabric:
//
//   1. Every interface-method call is decoded to its target context.
//   2. Calls to the active (resident) context are forwarded directly.
//   3. Calls to a non-resident context trigger a context switch.
//   4. During the switch the call is suspended while arb_and_instr generates
//      real configuration reads from the context's memory region — so the
//      memory traffic of reconfiguration is visible to the whole system.
//   5. The scheduler tracks active time and reconfiguration time per context.
//
// Extensions beyond the paper's base model (its own listed future work):
// multi-slot partial reconfiguration with replacement policies, background
// prefetch (MorphoSys-style double context plane), and energy accounting.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bus/interfaces.hpp"
#include "drcf/context.hpp"
#include "drcf/context_cache.hpp"
#include "drcf/prefetch_policy.hpp"
#include "drcf/slot_table.hpp"
#include "drcf/task_state.hpp"
#include "drcf/technology.hpp"
#include "fault/interposer.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/port.hpp"
#include "kernel/signal.hpp"
#include "memory/paged_store.hpp"
#include "util/fnv.hpp"

namespace adriatic::drcf {

/// What the fabric does when a configuration fetch fails (bus error,
/// integrity-check mismatch, or watchdog expiry).
enum class RecoveryPolicy : u8 {
  /// Fail the affected transactions immediately (the historical behaviour;
  /// golden traces are recorded under this policy).
  kFailFast = 0,
  /// Re-issue the whole fetch up to `max_attempts` times, waiting an
  /// exponentially growing simulated-time backoff between attempts. Every
  /// retry generates real configuration bus traffic.
  kRetryBackoff = 1,
  /// Give up on the failing context and transparently degrade: all further
  /// calls to it are retargeted to `fallback_context` (graceful
  /// degradation, e.g. a smaller/slower implementation of the same
  /// interface).
  kFallbackContext = 2,
  /// Re-fetch the configuration when the integrity check fails (scrubbing a
  /// corrupted bitstream); bus errors still fail fast.
  kScrub = 3,
};

[[nodiscard]] const char* to_string(RecoveryPolicy policy);

struct RecoveryConfig {
  RecoveryPolicy policy = RecoveryPolicy::kFailFast;
  /// Total fetch attempts under kRetryBackoff (1 = no retries).
  u32 max_attempts = 3;
  /// Simulated-time wait before the first retry; doubles per attempt.
  kern::Time backoff = kern::Time::ns(100);
  /// Degradation target for kFallbackContext.
  std::optional<usize> fallback_context;
  /// Reconfiguration watchdog: abort a fetch whose duration exceeds this
  /// (checked at fetch-chunk granularity). Zero disables it.
  kern::Time watchdog = kern::Time::zero();
  /// Extra re-fetches allowed on digest mismatch under kScrub.
  u32 scrub_refetches = 1;
};

/// Digest of a bitstream (util/fnv.hpp): a context's expected digest (equal
/// to mem::image_digest() of its golden image) and the digest a mismatching
/// fetch reports.
[[nodiscard]] constexpr u64 config_digest(
    std::span<const bus::word> words) noexcept {
  return fnv1a_words(words);
}

struct DrcfConfig {
  ReconfigTechnology technology = varicore_like();
  /// Fabric slots that can hold contexts concurrently (1 = the paper's base
  /// single-context model; >1 models partial reconfiguration).
  u32 slots = 1;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  /// Bus priority of configuration fetches.
  u32 load_priority = 0;
  /// Fetch chunk for configuration reads (words per burst request).
  u32 fetch_burst = 64;
  /// When false, context switches cost only a fixed analytical delay and
  /// generate NO bus traffic — the OCAPI-XL-style modeling the paper
  /// criticises ("the memory traffic associated to context switching is not
  /// modeled", Sec. 4 [8]). Kept as an ablation knob to quantify the
  /// fidelity the full model buys.
  bool model_config_traffic = true;
  /// Analytical switch delay used when model_config_traffic is false:
  /// size_words / assumed_words_per_second. Zero = instantaneous switches.
  double assumed_fetch_words_per_us = 100.0;
  /// Behaviour when a configuration fetch fails.
  RecoveryConfig recovery;
  /// Fault plan applied to configuration fetches only: a master-path
  /// interposer between the fabric and its mst_port binding. Empty = no
  /// injection (and no interposer is created).
  fault::FaultPlan fetch_faults;
  /// Context-thrash detector: if `thrash_switches` context switches complete
  /// within a sliding `thrash_window` of simulated time with NO forwarded
  /// call between consecutive switches (the fabric reconfigures without
  /// doing useful work), DrcfStats::thrash_alerts increments and a kThrash
  /// event lands in the fault ledger. Zero window (the default) disables it.
  kern::Time thrash_window;
  u32 thrash_switches = 4;
  /// Context-prefetch policy and configuration cache (paper Sec. 5.4 lifts:
  /// predictive loading + MorphoSys-style context planes). The default —
  /// kOnDemand, no cache — keeps the paper-faithful behaviour and
  /// byte-identical golden scheduler digests.
  PrefetchConfig prefetch;
  /// Preemptive checkpointing: when a quiescent context is evicted by the
  /// scheduler, its task state is snapshotted first and parked — in the
  /// context cache's snapshot slot when the cache holds the context, in a
  /// fabric-side slot otherwise — so a migration controller (or the next
  /// residency) can resume it instead of restarting. Off by default: no
  /// checkpoint, no kMigrate trace records, golden digests unchanged.
  bool preempt_checkpoint = false;
};

struct DrcfStats {
  u64 switches = 0;            ///< Context loads performed.
  u64 prefetches = 0;          ///< Background loads that were hints.
  u64 hits = 0;                ///< Calls served without a switch.
  u64 misses = 0;              ///< Calls that required a switch.
  u64 config_words_fetched = 0;
  u64 fetch_errors = 0;        ///< Configuration fetch attempts that failed.
  u64 fetch_retries = 0;       ///< Retry attempts under kRetryBackoff.
  u64 digest_mismatches = 0;   ///< Fetches failing the integrity check.
  u64 scrubs = 0;              ///< Re-fetches triggered by kScrub.
  u64 watchdog_aborts = 0;     ///< Fetches aborted by the watchdog.
  u64 fallback_forwards = 0;   ///< Calls degraded to the fallback context.
  u64 load_give_ups = 0;       ///< Loads that failed terminally.
  u64 thrash_alerts = 0;       ///< Context-thrash detector firings.
  u64 prefetch_hits = 0;       ///< Demand loads/calls covered by a prefetch.
  u64 prefetch_misses = 0;     ///< Demand misses no prefetch had staged.
  u64 prefetch_aborts = 0;     ///< Prefetch loads cancelled for a demand.
  u64 cache_hits = 0;          ///< Switches installed from the context cache.
  u64 cache_evictions = 0;     ///< Context-cache planes recycled.
  u64 config_words_skipped = 0;    ///< Fetch words avoided by cache hits.
  u64 config_words_prefetched = 0; ///< Words fetched by background fills
                                   ///  (and aborted partial prefetches).
  u64 checkpoints = 0;       ///< Task states snapshotted off this fabric.
  u64 restores = 0;          ///< Task states restored into this fabric.
  u64 preempt_parks = 0;     ///< Eviction-time checkpoints parked.
  u64 restore_rejects = 0;   ///< Restores rejected by the integrity checks.
  kern::Time hidden_latency;   ///< Fetch latency kept off the demand path.
  kern::Time reconfig_busy_time;  ///< Fabric time spent reconfiguring.
  double reconfig_energy_j = 0.0;
};

class Drcf : public kern::Module, public bus::BusSlaveIf {
 public:
  Drcf(kern::Object& parent, std::string name, DrcfConfig cfg = {});

  kern::In<bool> clk;  ///< Mirrors the paper's DRCF template shape.
  /// Master port used by arb_and_instr to fetch configurations.
  kern::Port<bus::BusMasterIf> mst_port;

  /// Registers a wrapped module as context; returns its context id.
  /// If `params.size_words == 0` it is derived from `params.gates` via the
  /// technology's configuration density.
  usize add_context(bus::BusSlaveIf& inner, ContextParams params);

  // BusSlaveIf: the union of all contexts' address ranges ------------------
  [[nodiscard]] bus::addr_t get_low_add() const override;
  [[nodiscard]] bus::addr_t get_high_add() const override;
  bool read(bus::addr_t add, bus::word* data) override;
  bool write(bus::addr_t add, bus::word* data) override;

  /// Non-blocking hint: load `ctx` into a slot in the background (models
  /// MorphoSys's "reload the other 16 contexts while executing").
  void prefetch(usize ctx);

  // Introspection ------------------------------------------------------------
  [[nodiscard]] usize context_count() const noexcept {
    return contexts_.size();
  }
  [[nodiscard]] std::optional<usize> resident_in_slot(u32 slot) const {
    return slot_table_.resident(slot);
  }
  [[nodiscard]] bool is_resident(usize ctx) const {
    return slot_table_.lookup(ctx).has_value();
  }
  /// Per-context instrumentation; closes open residency periods at now().
  [[nodiscard]] ContextStats context_stats(usize ctx) const;
  [[nodiscard]] const ContextParams& context_params(usize ctx) const {
    return contexts_.at(ctx)->params;
  }
  [[nodiscard]] const DrcfStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const DrcfConfig& config() const noexcept { return cfg_; }
  /// Notified (delta) after every completed context load.
  [[nodiscard]] kern::Event& context_loaded_event() noexcept {
    return any_loaded_event_;
  }

  /// Arms the fetch integrity check for a context: every load compares the
  /// fetched words with `image` (the golden bitstream, size_words long) and
  /// fails on the first difference. The expected digest is image->digest(),
  /// the config_digest() of the bitstream. A context without a golden image
  /// (the default) is not checked.
  void set_golden_bitstream(usize ctx, mem::SharedImageRef image);

  /// Structured record of every fault injected into and observed by this
  /// fabric's configuration-fetch path (shared with the fetch interposer).
  [[nodiscard]] const fault::FaultLedger& fault_ledger() const noexcept {
    return ledger_;
  }

  // Task checkpoint/restore (drcf/task_state.hpp) ---------------------------
  /// Snapshots `ctx`'s task state at a context-switch boundary. The context
  /// must be quiescent — no pinned (in-flight) calls, no waiters, no load in
  /// flight — or the checkpoint is refused (nullopt). The capture itself is
  /// a zero-sim-time side-door read of the context's register window
  /// (modeling a dedicated scan path); moving the state somewhere costs real
  /// bus traffic, charged by the MigrationController. Emits one kMigrate
  /// scheduler-trace record.
  [[nodiscard]] std::optional<TaskState> checkpoint_task(usize ctx);

  /// Restores a checkpointed task into `ctx`. Every integrity check runs
  /// BEFORE the first register write, so a rejected restore never corrupts a
  /// running context: unknown context, truncated image, window-geometry
  /// mismatch, busy destination, and config-digest mismatch (when both the
  /// snapshot and the destination carry a nonzero expected digest) each
  /// return their typed error and append a kMigrateError ledger entry.
  /// Emits one kMigrate scheduler-trace record on success.
  RestoreError restore_task(usize ctx, const TaskState& state);

  /// Parked preemption snapshots: written by the scheduler when
  /// DrcfConfig::preempt_checkpoint is on and it evicts a quiescent context.
  /// Removes and returns the parked snapshot for `ctx`, if any.
  [[nodiscard]] std::optional<TaskState> take_parked_snapshot(usize ctx);

 private:
  struct Context {
    bus::BusSlaveIf* inner;
    ContextParams params;
    ContextStats stats;
    std::unique_ptr<kern::Event> loaded_event;
    kern::Time residency_start;  ///< Valid while resident.
    bool load_pending = false;
    /// Set when the most recent load attempt's configuration fetch failed;
    /// suspended callers observe it and fail their calls.
    bool load_failed = false;
    /// Forwarded calls currently in flight — the fabric cannot be
    /// reconfigured away underneath them.
    u32 pins = 0;
    /// Callers suspended waiting for this context to load; they must get a
    /// chance to forward before the context may be evicted again.
    u32 waiters = 0;
    /// Recovery exhausted under kFallbackContext: the context is never
    /// loaded again and calls to it degrade to the fallback context.
    bool gave_up = false;
    /// The queued/in-flight load was issued by the prefetcher, not by a
    /// suspended caller; cleared ("promoted") when a demand joins it.
    bool pending_is_prefetch = false;
    /// The load only fills the configuration cache — no slot is chosen, no
    /// victim drained, the fabric stays usable throughout.
    bool pending_fill_only = false;
    /// The resident copy was installed by a prefetch no call consumed yet;
    /// the first hit credits the fetch latency as hidden.
    bool loaded_by_prefetch = false;
    bool fetch_in_progress = false;
    kern::Time fetch_started;        ///< Valid while fetch_in_progress.
    kern::Time last_fetch_duration;  ///< Duration of the last real fetch.
    u64 trace_id = 0;  ///< sched_name_hash of the loaded event's name.
    /// Golden bitstream fetches are checked against (null = unchecked).
    mem::SharedImageRef golden;

    /// config_digest() of the golden bitstream; zero when unchecked.
    [[nodiscard]] u64 expected_digest() const noexcept {
      return golden != nullptr ? golden->digest() : 0;
    }
  };

  /// Outcome of one complete configuration-fetch attempt.
  enum class FetchOutcome : u8 {
    kOk = 0,
    kBusError = 1,
    kDigestMismatch = 2,
    kWatchdog = 3,
    /// A hybrid prefetch abandoned mid-fetch because a demand load arrived.
    kAbortedPrefetch = 4,
  };

  /// Result of a complete fetch including the recovery-policy retry loop.
  struct FetchResult {
    bool ok = false;
    bool aborted = false;  ///< kAbortedPrefetch: not a failure, not a success.
  };

  void arb_and_instr();  ///< The scheduler/instrumentation process.
  /// Thrash detection at each completed context switch: a switch with no
  /// forwarded call since the previous one joins the sliding window.
  void note_switch();
  void request_load(usize ctx);
  /// Queues a prefetcher-initiated load. With `fill_only` the load stages
  /// the configuration into the cache without touching fabric slots.
  void issue_prefetch(usize ctx, bool fill_only);
  void request_load_impl(usize ctx, bool is_prefetch, bool fill_only);
  /// Hybrid retargeting: cancels still-queued (unstarted) prefetch loads so
  /// a demand load for `demanded` reaches the bus sooner.
  void drop_queued_prefetches(usize demanded);
  /// Prefetch-attribution bookkeeping when a call first misses on `target`.
  void note_demand_miss(usize target, Context& ctx);
  /// Consults the predictor after a demand-driven switch to `current` and
  /// queues the staging load if the prediction is actionable.
  void auto_prefetch_after(usize current);
  /// Executes a fill-only prefetch: fetches `target`'s configuration into
  /// the cache while the fabric keeps running.
  void fill_cache(usize target, std::vector<bus::word>& buf);
  /// True when the cache holds a copy of `target` that passes the context's
  /// integrity expectation.
  [[nodiscard]] bool cache_covers(usize target) const;
  [[nodiscard]] std::vector<usize> resident_contexts() const;
  /// True when a demand load for a context other than `current` is queued
  /// (the hybrid policy's abort trigger).
  [[nodiscard]] bool hybrid_demand_waiting(usize current) const;
  /// Emits a kPrefetch scheduler-trace record for `target`'s load.
  void emit_sched_prefetch(usize target);
  /// Emits a kMigrate scheduler-trace record for `target`'s checkpoint or
  /// restore edge.
  void emit_sched_migrate(usize target);
  /// Eviction-time preemptive checkpoint: snapshots `victim` (already
  /// drained by the caller) and parks the state in the context cache's
  /// snapshot slot, or fabric-side when the cache does not hold it.
  void park_preempt_snapshot(usize victim);
  bool forward(bus::addr_t add, bus::word* data, bool is_read);
  [[nodiscard]] std::optional<usize> decode(bus::addr_t add) const;
  void close_residency(Context& c, kern::Time at);
  /// One complete fetch attempt for `target`'s configuration: chunked burst
  /// reads, watchdog checks, and the integrity check against the golden
  /// bitstream. Updates stats and the ledger for the failure it reports.
  FetchOutcome fetch_context(Context& ctx, usize target,
                             std::vector<bus::word>& buf);
  /// The full fetch with the configured recovery policy applied: retries
  /// under kRetryBackoff, scrubbing re-fetches, recovered-event ledgering.
  FetchResult fetch_with_recovery(Context& ctx, usize target,
                                  std::vector<bus::word>& buf);
  /// The master interface fetches go through: the fault interposer when a
  /// fetch_faults plan is configured, the bare mst_port binding otherwise.
  [[nodiscard]] bus::BusMasterIf& fetch_master();
  /// Rewrites (target, add) to the fallback context under kFallbackContext;
  /// false when no valid fallback applies (call must fail instead).
  bool retarget_to_fallback(usize& target, bus::addr_t& add);

  DrcfConfig cfg_;
  std::vector<std::unique_ptr<Context>> contexts_;
  SlotTable slot_table_;
  PrefetchPredictor predictor_;
  ContextCache config_cache_;
  /// Target of the most recent demand-driven switch (the predictor's
  /// Markov-edge source).
  std::optional<usize> last_demand_target_;
  std::vector<usize> load_queue_;
  kern::Event load_request_event_;
  kern::Event any_loaded_event_;
  kern::Event fabric_idle_event_;  ///< Single-slot: fabric usable again.
  kern::Event drain_event_;        ///< A pin or waiter count decreased.
  bool reconfiguring_ = false;
  DrcfStats stats_;
  u64 forward_count_ = 0;  ///< Calls forwarded to any resident context.
  u64 forwards_at_last_switch_ = 0;
  /// Completion times of recent fruitless switches (thrash window).
  std::deque<kern::Time> fruitless_switches_;
  /// Preemption snapshots for contexts the cache does not hold (and for
  /// cache-less fabrics); cache-held contexts park in their plane instead.
  std::map<usize, TaskState> parked_snapshots_;
  /// arb_and_instr's fetch buffer. A member, not a local of that endless
  /// process, so it is freed with the fabric: a process still suspended
  /// when its simulation is destroyed never runs its locals' destructors.
  std::vector<bus::word> fetch_buf_;
  fault::FaultLedger ledger_;
  std::unique_ptr<fault::BusFaultInterposer> fetch_interposer_;
  u64 site_id_ = 0;  ///< sched_name_hash(name()), the ledger site id.
};

}  // namespace adriatic::drcf
