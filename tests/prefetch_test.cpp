// Tests for the DRCF context-prefetch scheduler and configuration cache:
// a plain-C++ reference model (PrefetchPredictor + ContextCache + SlotTable
// replicas) replayed against the live fabric's counters for every policy,
// plus targeted edge cases — stop requests mid-prefetch, hybrid aborts,
// faulted background fills under each recovery policy, and the latency
// hiding the prefetcher exists to provide.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bus/bus_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "fault/plan.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "util/random.hpp"

namespace adriatic::drcf {
namespace {

using namespace kern::literals;
using bus::BusStatus;

constexpr u64 kCtxWords = 16;

// A trivially observable slave: reads return (base_value + offset).
class TestSlave : public kern::Module, public bus::BusSlaveIf {
 public:
  TestSlave(kern::Object& parent, std::string name, bus::addr_t low,
            bus::addr_t high, bus::word base_value)
      : Module(parent, std::move(name)),
        low_(low),
        high_(high),
        base_value_(base_value) {}

  [[nodiscard]] bus::addr_t get_low_add() const override { return low_; }
  [[nodiscard]] bus::addr_t get_high_add() const override { return high_; }

  bool read(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    *data = base_value_ + static_cast<bus::word>(add - low_);
    return true;
  }
  bool write(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    last_write_ = *data;
    return true;
  }

  bus::word last_write_ = 0;

 private:
  bus::addr_t low_;
  bus::addr_t high_;
  bus::word base_value_;
};

// N candidate slaves behind a DRCF, with a dedicated configuration bus so
// forwarded calls never contend with background fetch traffic (the caller's
// slot touch always orders ahead of a later prefetch install, which is what
// the offline replay below assumes).
struct PrefetchRig {
  PrefetchRig(DrcfConfig cfg, usize n_contexts, u64 ctx_words = kCtxWords)
      : sys_bus(top, "bus", make_bus()),
        cfg_bus(top, "cfg_bus", make_bus()),
        cfg_mem(top, "cfg_mem", 0x10000, 4096),
        fabric(top, "drcf1", std::move(cfg)) {
    for (usize i = 0; i < n_contexts; ++i) {
      const auto base = static_cast<bus::addr_t>(0x100 + i * 0x100);
      slaves.push_back(std::make_unique<TestSlave>(
          top, "s" + std::to_string(i), base, base + 0xF,
          static_cast<bus::word>(1000 * (i + 1))));
      fabric.add_context(
          *slaves.back(),
          {.config_address = static_cast<bus::addr_t>(0x10000 + i * ctx_words),
           .size_words = ctx_words});
    }
    fabric.mst_port.bind(cfg_bus);
    cfg_bus.bind_slave(cfg_mem);
    sys_bus.bind_slave(fabric);
  }

  /// Loads a synthetic bitstream per context and arms the integrity check
  /// with it as the golden copy (as elaborate.cpp does).
  void arm_digests(u64 ctx_words = kCtxWords) {
    for (usize i = 0; i < slaves.size(); ++i) {
      const auto base = static_cast<bus::addr_t>(0x10000 + i * ctx_words);
      const std::vector<bus::word> bits(
          ctx_words, static_cast<bus::word>(0xB1750000u | i));
      cfg_mem.load(base, bits);
      fabric.set_golden_bitstream(i,
                                  mem::ImageRegistry::instance().intern(bits));
    }
  }

  static DrcfConfig make_cfg() {
    DrcfConfig c;
    c.technology = varicore_like();
    c.technology.per_switch_overhead = kern::Time::zero();  // pure bus cost
    return c;
  }
  static bus::BusConfig make_bus() {
    bus::BusConfig b;
    b.cycle_time = 10_ns;
    b.split_transactions = true;
    return b;
  }

  [[nodiscard]] static bus::addr_t access_addr(usize ctx) {
    return static_cast<bus::addr_t>(0x100 + ctx * 0x100 + 5);
  }
  [[nodiscard]] static bus::word expected_value(usize ctx) {
    return static_cast<bus::word>(1000 * (ctx + 1) + 5);
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::Bus sys_bus;
  bus::Bus cfg_bus;
  mem::Memory cfg_mem;
  std::vector<std::unique_ptr<TestSlave>> slaves;
  Drcf fabric;
};

// ---------------------------------------------------------------------------
// Reference-model oracle: replay an access pattern against the scheduler's
// plain-C++ components and predict every prefetch/cache counter.

struct OracleCounters {
  u64 hits = 0;
  u64 misses = 0;
  u64 switches = 0;
  u64 prefetches = 0;
  u64 prefetch_hits = 0;
  u64 prefetch_misses = 0;
  u64 cache_hits = 0;
  u64 cache_evictions = 0;
  u64 words_fetched = 0;
  u64 words_skipped = 0;
  u64 words_prefetched = 0;
};

// Mirrors the live scheduler under one simplifying assumption the driver
// below enforces: accesses are spaced far enough apart that any background
// prefetch settles before the next access (so loads are never joined and
// hybrid never aborts). The call order per step matches the live fabric:
// the demanded install and its cache insert, then the woken caller's slot
// touch, then the prefetch decision (whose install, if any, lands last).
OracleCounters replay_reference(const PrefetchConfig& pc, u32 slots,
                                usize n_ctx, u64 ctx_words,
                                const std::vector<usize>& seq) {
  SlotTable slot_table(slots, ReplacementPolicy::kLru);
  ContextCache cache(pc.cache_slots);
  PrefetchPredictor predictor(pc.policy, pc.static_next);
  std::vector<bool> loaded_by_prefetch(n_ctx, false);
  std::optional<usize> last_demand;
  OracleCounters o;
  const auto residents = [&] {
    std::vector<usize> r;
    for (u32 s = 0; s < slot_table.slots(); ++s)
      if (slot_table.resident(s).has_value())
        r.push_back(*slot_table.resident(s));
    return r;
  };
  for (const usize c : seq) {
    if (const auto hit = slot_table.lookup(c); hit.has_value()) {
      ++o.hits;
      if (loaded_by_prefetch[c]) {
        loaded_by_prefetch[c] = false;
        ++o.prefetch_hits;
      }
      slot_table.touch(*hit);
      continue;
    }
    ++o.misses;
    const bool covered = cache.contains(c);  // expected digests unset
    if (!covered && pc.policy != PrefetchPolicy::kOnDemand)
      ++o.prefetch_misses;
    const auto victim = slot_table.choose(c);
    if (victim.evicted.has_value()) slot_table.evict(victim.slot);
    if (covered) {
      ++o.cache_hits;
      cache.touch(c);
      o.words_skipped += ctx_words;
      if (cache.was_prefetched(c)) {
        ++o.prefetch_hits;
        cache.consume_prefetched(c);
      }
    } else {
      o.words_fetched += ctx_words;
    }
    ++o.switches;
    slot_table.install(victim.slot, c);
    if (!covered && cache.enabled() &&
        cache.insert(c, 0, /*prefetched=*/false, residents())
            .evicted.has_value())
      ++o.cache_evictions;
    loaded_by_prefetch[c] = false;
    slot_table.touch(*slot_table.lookup(c));  // the woken caller forwards

    // Prediction learns from — and reacts to — demand switches only.
    if (pc.policy == PrefetchPolicy::kOnDemand) continue;
    if (last_demand.has_value()) predictor.observe_switch(*last_demand, c);
    last_demand = c;
    const auto predicted = predictor.predict(c);
    if (!predicted.has_value()) continue;
    const usize p = *predicted;
    if (p >= n_ctx || p == c || slot_table.lookup(p).has_value()) continue;
    if (cache.enabled()) {
      if (cache.contains(p)) continue;  // already staged
      ++o.prefetches;
      o.words_fetched += ctx_words;
      o.words_prefetched += ctx_words;
      if (cache.insert(p, 0, /*prefetched=*/true, residents())
              .evicted.has_value())
        ++o.cache_evictions;
    } else {
      const auto stage = slot_table.choose(p);
      if (stage.evicted.has_value()) continue;  // no free slot: skip
      ++o.prefetches;
      o.words_fetched += ctx_words;
      slot_table.install(stage.slot, p);
      ++o.switches;
      loaded_by_prefetch[p] = true;
    }
  }
  return o;
}

// Policy variants the property test sweeps (index into the Combine below):
// 0 on-demand, 1 static-next ring, 2 history, 3 hybrid with a static ring
// annotation, 4 hybrid falling back to its history predictor.
PrefetchConfig variant_config(int variant, u32 cache_slots, usize n_ctx) {
  PrefetchConfig pc;
  pc.cache_slots = cache_slots;
  std::vector<usize> ring(n_ctx);
  for (usize i = 0; i < n_ctx; ++i) ring[i] = (i + 1) % n_ctx;
  switch (variant) {
    case 0:
      pc.policy = PrefetchPolicy::kOnDemand;
      break;
    case 1:
      pc.policy = PrefetchPolicy::kStaticNext;
      pc.static_next = ring;
      break;
    case 2:
      pc.policy = PrefetchPolicy::kHistory;
      break;
    case 3:
      pc.policy = PrefetchPolicy::kHybrid;
      pc.static_next = ring;
      break;
    default:
      pc.policy = PrefetchPolicy::kHybrid;
      break;
  }
  return pc;
}

class PrefetchOracleProperty
    : public ::testing::TestWithParam<std::tuple<int, u32, u32, u64>> {};

TEST_P(PrefetchOracleProperty, CountersMatchReferenceReplay) {
  const auto [variant, slots, cache_slots, seed] = GetParam();
  constexpr usize kContexts = 4;
  constexpr int kAccesses = 40;
  const PrefetchConfig pc = variant_config(variant, cache_slots, kContexts);

  Xoshiro256 rng(seed);
  std::vector<usize> pattern;
  for (int i = 0; i < kAccesses; ++i)
    pattern.push_back(rng.next_below(kContexts));

  const OracleCounters o =
      replay_reference(pc, slots, kContexts, kCtxWords, pattern);

  DrcfConfig cfg = PrefetchRig::make_cfg();
  cfg.slots = slots;
  cfg.prefetch = pc;
  PrefetchRig rig(cfg, kContexts);
  rig.top.spawn_thread("driver", [&] {
    for (const usize ctx : pattern) {
      bus::word r = 0;
      EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(ctx), &r),
                BusStatus::kOk);
      EXPECT_EQ(r, PrefetchRig::expected_value(ctx));
      kern::wait(2_us);  // let any background prefetch settle
    }
  });
  rig.sim.run();

  const DrcfStats& s = rig.fabric.stats();
  EXPECT_EQ(s.hits, o.hits);
  EXPECT_EQ(s.misses, o.misses);
  EXPECT_EQ(s.switches, o.switches);
  EXPECT_EQ(s.prefetches, o.prefetches);
  EXPECT_EQ(s.prefetch_hits, o.prefetch_hits);
  EXPECT_EQ(s.prefetch_misses, o.prefetch_misses);
  EXPECT_EQ(s.prefetch_aborts, 0u);  // spaced accesses: nothing to abort
  EXPECT_EQ(s.cache_hits, o.cache_hits);
  EXPECT_EQ(s.cache_evictions, o.cache_evictions);
  EXPECT_EQ(s.config_words_fetched, o.words_fetched);
  EXPECT_EQ(s.config_words_skipped, o.words_skipped);
  EXPECT_EQ(s.config_words_prefetched, o.words_prefetched);
  EXPECT_EQ(s.hits + s.misses, static_cast<u64>(kAccesses));
  // Accounting closure: every installed context's words were either fetched
  // or skipped, and background fills are the only traffic beyond installs.
  EXPECT_EQ(s.config_words_fetched + s.config_words_skipped,
            s.switches * kCtxWords + s.config_words_prefetched);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PrefetchOracleProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(0u, 2u),
                       ::testing::Values(101u, 202u)));

// ---------------------------------------------------------------------------
// Manual prefetch API: redundant hints are free.

TEST(DrcfPrefetchApi, RedundantPrefetchIsNoOp) {
  PrefetchRig rig(PrefetchRig::make_cfg(), 2);
  rig.top.spawn_thread("driver", [&] {
    bus::word r = 0;
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(0), &r),
              BusStatus::kOk);
    rig.fabric.prefetch(0);  // already resident: no-op, no counter
    rig.fabric.prefetch(1);  // staged in the background
    rig.fabric.prefetch(1);  // already loading: no-op, no counter
    kern::wait(5_us);
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(1), &r),
              BusStatus::kOk);
    EXPECT_EQ(r, PrefetchRig::expected_value(1));
  });
  rig.sim.run();

  const DrcfStats& s = rig.fabric.stats();
  EXPECT_EQ(s.prefetches, 1u);  // the two redundant hints did not count
  EXPECT_EQ(s.prefetch_hits, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.switches, 2u);
  // The second context's whole fetch happened off the demand path.
  EXPECT_GT(s.hidden_latency.picoseconds(), 0u);
  EXPECT_THROW(rig.fabric.prefetch(99), std::out_of_range);
}

TEST(DrcfPrefetchApi, RequestStopMidPrefetchStopsCleanly) {
  PrefetchRig rig(PrefetchRig::make_cfg(), 2);
  rig.top.spawn_thread("driver", [&] {
    bus::word r = 0;
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(0), &r),
              BusStatus::kOk);
    rig.fabric.prefetch(1);
    kern::wait(50_ns);  // the background load is now mid-fetch
    rig.sim.request_stop();
  });
  EXPECT_EQ(rig.sim.run(), kern::StopReason::kExplicitStop);

  const DrcfStats& s = rig.fabric.stats();
  EXPECT_EQ(s.prefetches, 1u);
  EXPECT_EQ(s.switches, 1u);  // the prefetch never completed
  EXPECT_GE(s.config_words_fetched, kCtxWords);
  EXPECT_LT(s.config_words_fetched, 2 * kCtxWords);
}

// ---------------------------------------------------------------------------
// Hybrid retargeting: a demand load aborts an in-flight background fill.

class PrefetchRecordCounter : public kern::SchedulerObserver {
 public:
  void on_record(const kern::SchedRecord& r) override {
    if (r.kind == kern::SchedRecord::Kind::kPrefetch) ++records;
  }
  u64 records = 0;
};

TEST(DrcfPrefetchHybrid, DemandAbortsInFlightFill) {
  DrcfConfig cfg = PrefetchRig::make_cfg();
  cfg.slots = 1;
  cfg.fetch_burst = 4;  // several chunk boundaries to abort at
  cfg.prefetch.policy = PrefetchPolicy::kHybrid;
  cfg.prefetch.static_next = {1, 2, 0};
  cfg.prefetch.cache_slots = 2;
  PrefetchRig rig(cfg, 3);
  PrefetchRecordCounter trace;
  rig.sim.set_observer(&trace);
  rig.top.spawn_thread("driver", [&] {
    bus::word r = 0;
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(0), &r),
              BusStatus::kOk);
    // The fill of context 1 is now in flight; demanding context 2 must
    // abort it at the next chunk boundary instead of waiting it out.
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(2), &r),
              BusStatus::kOk);
    EXPECT_EQ(r, PrefetchRig::expected_value(2));
    kern::wait(5_us);
    EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(2), &r),
              BusStatus::kOk);  // still resident
  });
  rig.sim.run();

  const DrcfStats& s = rig.fabric.stats();
  EXPECT_EQ(s.prefetch_aborts, 1u);
  EXPECT_EQ(s.prefetches, 1u);  // ctx 0 stayed cached, so no second fill
  EXPECT_EQ(s.prefetch_hits, 0u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.switches, 2u);
  // The abandoned fill moved at least one chunk but never the full context.
  EXPECT_GE(s.config_words_prefetched, 4u);
  EXPECT_LE(s.config_words_prefetched, 12u);
  // Trace: one prefetch-start record and one abort record.
  EXPECT_EQ(trace.records, 2u);
}

// ---------------------------------------------------------------------------
// Faulted background fills under each recovery policy: a fill failure is
// silent (no give-up, no degraded context) unless its policy recovers it,
// in which case the later demand switch installs straight from the cache.

TEST(DrcfPrefetchFaults, FilledPrefetchFaultsUnderEachRecoveryPolicy) {
  struct FaultCase {
    const char* name;
    RecoveryPolicy policy;
    fault::FaultKind kind;
    u64 fetch_errors;
    u64 fetch_retries;
    u64 scrubs;
    u64 cache_hits;
    u64 prefetch_hits;
    u64 prefetch_misses;
  };
  const FaultCase cases[] = {
      {"fail-fast drops the fill silently", RecoveryPolicy::kFailFast,
       fault::FaultKind::kError, 1, 0, 0, 0, 0, 2},
      {"retry-backoff recovers the fill", RecoveryPolicy::kRetryBackoff,
       fault::FaultKind::kError, 1, 1, 0, 1, 1, 1},
      {"scrub refetches the corrupted fill", RecoveryPolicy::kScrub,
       fault::FaultKind::kCorrupt, 1, 0, 1, 1, 1, 1},
      {"fallback never degrades a failed fill",
       RecoveryPolicy::kFallbackContext, fault::FaultKind::kError, 1, 0, 0, 0,
       0, 2},
  };
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    DrcfConfig cfg = PrefetchRig::make_cfg();
    cfg.slots = 1;
    cfg.prefetch.policy = PrefetchPolicy::kStaticNext;
    cfg.prefetch.static_next = {1, 0};
    cfg.prefetch.cache_slots = 2;
    cfg.recovery.policy = tc.policy;
    if (tc.policy == RecoveryPolicy::kRetryBackoff) {
      cfg.recovery.max_attempts = 3;
      cfg.recovery.backoff = 100_ns;
    }
    if (tc.policy == RecoveryPolicy::kScrub) cfg.recovery.scrub_refetches = 2;
    if (tc.policy == RecoveryPolicy::kFallbackContext)
      cfg.recovery.fallback_context = 0;
    // Fault exactly one transaction of context 1's configuration — the one
    // the background fill fetches.
    fault::ScriptedFault shot;
    shot.kind = tc.kind;
    shot.window_low = static_cast<bus::addr_t>(0x10000 + kCtxWords);
    shot.window_high = static_cast<bus::addr_t>(0x10000 + 2 * kCtxWords - 1);
    cfg.fetch_faults.scripted.push_back(shot);

    PrefetchRig rig(cfg, 2);
    rig.arm_digests();  // integrity check catches the corrupted fill
    rig.top.spawn_thread("driver", [&] {
      bus::word r = 0;
      EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(0), &r),
                BusStatus::kOk);
      kern::wait(20_us);  // the faulted fill (and any recovery) runs
      EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(1), &r),
                BusStatus::kOk);
      EXPECT_EQ(r, PrefetchRig::expected_value(1));
    });
    rig.sim.run();

    const DrcfStats& s = rig.fabric.stats();
    EXPECT_EQ(s.prefetches, 1u);
    EXPECT_EQ(s.fetch_errors, tc.fetch_errors);
    EXPECT_EQ(s.fetch_retries, tc.fetch_retries);
    EXPECT_EQ(s.scrubs, tc.scrubs);
    EXPECT_EQ(s.cache_hits, tc.cache_hits);
    EXPECT_EQ(s.prefetch_hits, tc.prefetch_hits);
    EXPECT_EQ(s.prefetch_misses, tc.prefetch_misses);
    // A failed fill has no takers: nothing gives up, nothing degrades.
    EXPECT_EQ(s.load_give_ups, 0u);
    EXPECT_EQ(s.fallback_forwards, 0u);
    EXPECT_EQ(s.switches, 2u);
  }
}

// ---------------------------------------------------------------------------
// The point of the whole layer: on the paper's repeated-switch workload the
// hybrid prefetcher with a context cache keeps >= 30% of the reconfiguration
// fetch latency off the demand path.

TEST(DrcfPrefetchHybrid, HidesThirtyPercentOfFetchLatency) {
  const auto run_policy = [](PrefetchPolicy policy, u32 cache_slots,
                             DrcfStats* out) {
    DrcfConfig cfg = PrefetchRig::make_cfg();
    cfg.slots = 1;
    cfg.prefetch.policy = policy;
    if (policy != PrefetchPolicy::kOnDemand)
      cfg.prefetch.static_next = {1, 2, 0};
    cfg.prefetch.cache_slots = cache_slots;
    PrefetchRig rig(cfg, 3);
    rig.top.spawn_thread("driver", [&] {
      for (int lap = 0; lap < 6; ++lap)
        for (usize ctx = 0; ctx < 3; ++ctx) {
          bus::word r = 0;
          EXPECT_EQ(rig.sys_bus.read(PrefetchRig::access_addr(ctx), &r),
                    BusStatus::kOk);
          EXPECT_EQ(r, PrefetchRig::expected_value(ctx));
          kern::wait(2_us);
        }
    });
    rig.sim.run();
    *out = rig.fabric.stats();
  };

  DrcfStats hybrid{};
  DrcfStats on_demand{};
  run_policy(PrefetchPolicy::kHybrid, 3, &hybrid);
  run_policy(PrefetchPolicy::kOnDemand, 0, &on_demand);

  // After the first lap every switch installs from the cache: 17 of the 18
  // ring accesses miss the single-slot fabric but skip the bus fetch.
  EXPECT_EQ(hybrid.misses, 18u);
  EXPECT_EQ(hybrid.cache_hits, 17u);
  EXPECT_EQ(hybrid.prefetches, 2u);
  EXPECT_EQ(hybrid.prefetch_hits, 2u);
  EXPECT_EQ(hybrid.cache_evictions, 0u);
  EXPECT_EQ(hybrid.config_words_skipped, 17 * kCtxWords);

  const u64 hidden = hybrid.hidden_latency.picoseconds();
  const u64 busy = hybrid.reconfig_busy_time.picoseconds();
  ASSERT_GT(hidden + busy, 0u);
  // The acceptance bar: at least 30% of the total reconfiguration fetch
  // latency is hidden (the workload actually hides far more).
  EXPECT_GE(hidden * 10, (hidden + busy) * 3);
  // And the demand path is strictly cheaper than the on-demand scheduler's.
  EXPECT_LT(busy, on_demand.reconfig_busy_time.picoseconds());
  EXPECT_LT(hybrid.config_words_fetched, on_demand.config_words_fetched);
}

}  // namespace
}  // namespace adriatic::drcf
