// Tests for the DRCF core: context scheduling, configuration bus traffic,
// suspension semantics, instrumentation, and the Sec. 5.4 deadlock case.
#include <gtest/gtest.h>

#include <vector>

#include "bus/bus_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "util/random.hpp"

namespace adriatic::drcf {
namespace {

using namespace kern::literals;
using bus::BusStatus;

// A trivially observable slave: reads return (base_value + offset), writes
// are recorded.
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
    ++reads_;
    return true;
  }
  bool write(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    last_write_ = *data;
    ++writes_;
    return true;
  }

  u64 reads_ = 0;
  u64 writes_ = 0;
  bus::word last_write_ = 0;

 private:
  bus::addr_t low_;
  bus::addr_t high_;
  bus::word base_value_;
};

// Standard fixture: split-transaction bus, config memory at 0x10000,
// two candidate slaves wrapped into a DRCF.
struct DrcfFixture {
  explicit DrcfFixture(DrcfConfig cfg = make_default_cfg(),
                       bus::BusConfig bus_cfg = make_default_bus())
      : drcf_cfg(cfg),
        sys_bus(top, "bus", bus_cfg),
        cfg_mem(top, "cfg_mem", 0x10000, 4096),
        slave_a(top, "hwa", 0x100, 0x10F, 1000),
        slave_b(top, "hwb", 0x200, 0x20F, 2000),
        drcf(top, "drcf1", cfg) {
    ctx_a = drcf.add_context(slave_a, {.config_address = 0x10000,
                                       .size_words = 64,
                                       .extra_delay = kern::Time::zero(),
                                       .gates = 10'000});
    ctx_b = drcf.add_context(slave_b, {.config_address = 0x10400,
                                       .size_words = 64,
                                       .extra_delay = kern::Time::zero(),
                                       .gates = 10'000});
    drcf.mst_port.bind(sys_bus);
    sys_bus.bind_slave(cfg_mem);
    sys_bus.bind_slave(drcf);
  }

  static DrcfConfig make_default_cfg() {
    DrcfConfig c;
    c.technology = varicore_like();
    c.technology.per_switch_overhead = kern::Time::zero();  // pure bus cost
    return c;
  }
  static bus::BusConfig make_default_bus() {
    bus::BusConfig b;
    b.cycle_time = 10_ns;
    b.split_transactions = true;
    return b;
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  DrcfConfig drcf_cfg;
  bus::Bus sys_bus;
  mem::Memory cfg_mem;
  TestSlave slave_a;
  TestSlave slave_b;
  Drcf drcf;
  usize ctx_a = 0;
  usize ctx_b = 0;
};

TEST(SlotTableTest, SingleSlotReplaces) {
  SlotTable t(1, ReplacementPolicy::kLru);
  EXPECT_FALSE(t.lookup(0).has_value());
  auto v = t.choose(0);
  EXPECT_EQ(v.slot, 0u);
  EXPECT_FALSE(v.evicted.has_value());
  t.install(0, 0);
  EXPECT_EQ(t.lookup(0), 0u);
  v = t.choose(1);
  EXPECT_EQ(v.slot, 0u);
  ASSERT_TRUE(v.evicted.has_value());
  EXPECT_EQ(*v.evicted, 0u);
}

TEST(SlotTableTest, PrefersFreeSlot) {
  SlotTable t(3, ReplacementPolicy::kLru);
  t.install(0, 10);
  const auto v = t.choose(11);
  EXPECT_EQ(v.slot, 1u);
  EXPECT_FALSE(v.evicted.has_value());
}

TEST(SlotTableTest, LruEvictsColdest) {
  SlotTable t(2, ReplacementPolicy::kLru);
  t.install(0, 10);
  t.install(1, 11);
  t.touch(0);  // 10 is now warmer than 11
  const auto v = t.choose(12);
  EXPECT_EQ(v.slot, 1u);
  EXPECT_EQ(*v.evicted, 11u);
}

TEST(SlotTableTest, FifoIgnoresTouches) {
  SlotTable t(2, ReplacementPolicy::kFifo);
  t.install(0, 10);
  t.install(1, 11);
  t.touch(0);
  const auto v = t.choose(12);
  EXPECT_EQ(v.slot, 0u);  // 10 installed first, evicted despite the touch
  EXPECT_EQ(*v.evicted, 10u);
}

TEST(SlotTableTest, MruEvictsWarmest) {
  SlotTable t(2, ReplacementPolicy::kMru);
  t.install(0, 10);
  t.install(1, 11);
  t.touch(0);
  const auto v = t.choose(12);
  EXPECT_EQ(v.slot, 0u);
  EXPECT_EQ(*v.evicted, 10u);
}

TEST(SlotTableTest, EvictFreesSlot) {
  SlotTable t(1, ReplacementPolicy::kLru);
  t.install(0, 5);
  t.evict(0);
  EXPECT_FALSE(t.lookup(5).has_value());
  EXPECT_FALSE(t.resident(0).has_value());
  EXPECT_THROW(SlotTable(0, ReplacementPolicy::kLru), std::invalid_argument);
}

TEST(TechnologyTest, PresetsAreOrdered) {
  const auto fine = virtex2pro_like();
  const auto embedded = varicore_like();
  const auto coarse = morphosys_like();
  // Configuration density: coarse grained needs far fewer bits per gate.
  EXPECT_GT(fine.bits_per_gate, embedded.bits_per_gate);
  EXPECT_GT(embedded.bits_per_gate, coarse.bits_per_gate);
  // MorphoSys has the double context plane.
  EXPECT_EQ(coarse.context_planes, 2u);
  EXPECT_EQ(fine.context_planes, 1u);
  // The paper's VariCore power figure.
  EXPECT_DOUBLE_EQ(embedded.uw_per_gate_mhz, 0.075);
}

TEST(TechnologyTest, ContextWordsScaleWithGates) {
  const auto t = varicore_like();
  EXPECT_EQ(t.context_words(0), 0u);
  const u64 w1 = t.context_words(1000);
  const u64 w2 = t.context_words(2000);
  EXPECT_NEAR(static_cast<double>(w2), 2.0 * static_cast<double>(w1), 2.0);
  // 1000 gates * 24 bits / 32 = 750 words.
  EXPECT_EQ(w1, 750u);
}

// ---------------------------------------------------------------------------

TEST(DrcfTest, FirstAccessLoadsContext) {
  DrcfFixture f;
  bus::word r = 0;
  f.top.spawn_thread("master", [&] {
    EXPECT_EQ(f.sys_bus.read(0x105, &r), BusStatus::kOk);
  });
  f.sim.run();
  EXPECT_EQ(r, 1005);
  EXPECT_EQ(f.drcf.stats().switches, 1u);
  EXPECT_EQ(f.drcf.stats().misses, 1u);
  EXPECT_EQ(f.drcf.stats().config_words_fetched, 64u);
  // The configuration reads really hit the memory model.
  EXPECT_EQ(f.cfg_mem.stats().reads, 64u);
  EXPECT_TRUE(f.drcf.is_resident(f.ctx_a));
}

TEST(DrcfTest, SecondAccessIsHit) {
  DrcfFixture f;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);
    f.sys_bus.read(0x101, &r);
    f.sys_bus.read(0x102, &r);
  });
  f.sim.run();
  EXPECT_EQ(f.drcf.stats().switches, 1u);
  EXPECT_EQ(f.drcf.stats().hits, 2u);
  EXPECT_EQ(f.slave_a.reads_, 3u);
}

TEST(DrcfTest, PingPongReloadsEachTime) {
  DrcfFixture f;  // slots = 1
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    for (int i = 0; i < 3; ++i) {
      f.sys_bus.read(0x100, &r);
      EXPECT_EQ(r, 1000);
      f.sys_bus.read(0x200, &r);
      EXPECT_EQ(r, 2000);
    }
  });
  f.sim.run();
  EXPECT_EQ(f.drcf.stats().switches, 6u);
  EXPECT_EQ(f.drcf.stats().config_words_fetched, 6u * 64u);
  EXPECT_EQ(f.drcf.context_stats(f.ctx_a).activations, 3u);
  EXPECT_EQ(f.drcf.context_stats(f.ctx_b).activations, 3u);
}

TEST(DrcfTest, TwoSlotsKeepBothResident) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.slots = 2;
  DrcfFixture f(cfg);
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    for (int i = 0; i < 4; ++i) {
      f.sys_bus.read(0x100, &r);
      f.sys_bus.read(0x200, &r);
    }
  });
  f.sim.run();
  EXPECT_EQ(f.drcf.stats().switches, 2u);  // one load each, then hits
  EXPECT_EQ(f.drcf.stats().hits, 6u);
  EXPECT_TRUE(f.drcf.is_resident(f.ctx_a));
  EXPECT_TRUE(f.drcf.is_resident(f.ctx_b));
}

TEST(DrcfTest, SwitchTimeMatchesBusTraffic) {
  DrcfFixture f;
  kern::Time elapsed;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    const kern::Time t0 = f.sim.now();
    f.sys_bus.read(0x100, &r);
    elapsed = f.sim.now() - t0;
  });
  f.sim.run();
  // Master transaction: 2 cycles (addr+data) = 20ns. Context fetch: 64 words
  // in bursts of 16 (bus max_burst): 4 bursts x (1 + 16) cycles = 68 cycles
  // = 680 ns. The fetch happens inside the master's slave call window.
  EXPECT_GE(elapsed.picoseconds(), (680_ns).picoseconds());
  EXPECT_LE(elapsed.picoseconds(), (760_ns).picoseconds());
  const auto st = f.drcf.context_stats(f.ctx_a);
  EXPECT_GE(st.reconfig_time, 680_ns);
  EXPECT_GT(st.blocked_time, kern::Time::zero());
}

TEST(DrcfTest, ExtraDelayAddsToSwitch) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  DrcfFixture f(cfg);
  // Re-register a third slave with a big extra delay.
  TestSlave slow(f.top, "slow", 0x300, 0x30F, 3000);
  const usize ctx = f.drcf.add_context(
      slow, {.config_address = 0x10800, .size_words = 1,
             .extra_delay = 5_us, .gates = 1});
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x300, &r);
  });
  f.sim.run();
  EXPECT_GE(f.drcf.context_stats(ctx).reconfig_time, 5_us);
}

TEST(DrcfTest, TechnologyOverheadAddsToSwitch) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.technology.per_switch_overhead = 2_us;
  DrcfFixture f(cfg);
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);
  });
  f.sim.run();
  EXPECT_GE(f.drcf.context_stats(f.ctx_a).reconfig_time, 2_us);
  EXPECT_GT(f.drcf.stats().reconfig_energy_j, 0.0);
}

TEST(DrcfTest, ActiveTimeAccounting) {
  DrcfFixture f;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);  // load A
    kern::wait(10_us);          // A resident
    f.sys_bus.read(0x200, &r);  // load B, evict A
    kern::wait(5_us);
  });
  f.sim.run();
  const auto sa = f.drcf.context_stats(f.ctx_a);
  const auto sb = f.drcf.context_stats(f.ctx_b);
  // A was resident for ~10us plus B's load window.
  EXPECT_GE(sa.active_time, 10_us);
  EXPECT_GE(sb.active_time, 5_us);
  EXPECT_LT(sa.active_time, 12_us);
}

TEST(DrcfTest, PrefetchHidesSwitchLatency) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.slots = 2;
  DrcfFixture f(cfg);
  kern::Time access_time;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);  // A resident
    f.drcf.prefetch(f.ctx_b);   // load B in the background
    kern::wait(10_us);          // plenty of time for the prefetch
    const kern::Time t0 = f.sim.now();
    f.sys_bus.read(0x200, &r);  // should be a hit
    access_time = f.sim.now() - t0;
  });
  f.sim.run();
  EXPECT_EQ(f.drcf.stats().prefetches, 1u);
  EXPECT_EQ(f.drcf.stats().misses, 1u);  // only the first A access
  // Hit latency = plain bus transaction (2 cycles = 20 ns).
  EXPECT_EQ(access_time, 20_ns);
}

TEST(DrcfTest, ResidentContextBlockedDuringReload) {
  // Single-slot fabric: while B is loading, even calls to A (the context
  // being evicted) must wait — the fabric is physically reconfiguring.
  DrcfFixture f;
  kern::Event a_loaded(f.sim, "a_loaded");
  kern::Time b_read_start;
  kern::Time a_done_at;
  f.top.spawn_thread("m1", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);  // load A
    a_loaded.notify_delta();
    kern::wait(1_us);
    b_read_start = f.sim.now();
    f.sys_bus.read(0x200, &r);  // triggers reload with B
  });
  f.top.spawn_thread("m2", [&] {
    bus::word r = 0;
    kern::wait(a_loaded);
    kern::wait(1_us + 50_ns);   // arrive just after the B switch started
    f.sys_bus.read(0x100, &r);  // A: must wait for fabric, then reload A
    a_done_at = f.sim.now();
  });
  f.sim.run();
  // m2 completes only after B's load plus A's re-load (2 full fetches of
  // 680 ns each, fetched over a contended bus).
  EXPECT_GT(a_done_at, b_read_start + 2 * 680_ns);
  EXPECT_EQ(f.drcf.stats().switches, 3u);
}

TEST(DrcfTest, UnmappedAddressFails) {
  DrcfFixture f;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    // 0x150 is inside the DRCF's union range [0x100,0x20F] but belongs to
    // no context — the multiplexer rejects it.
    EXPECT_EQ(f.sys_bus.read(0x150, &r), BusStatus::kSlaveError);
  });
  f.sim.run();
}

TEST(DrcfTest, UnionAddressRange) {
  DrcfFixture f;
  EXPECT_EQ(f.drcf.get_low_add(), 0x100u);
  EXPECT_EQ(f.drcf.get_high_add(), 0x20Fu);
  EXPECT_EQ(f.drcf.context_count(), 2u);
}

TEST(DrcfTest, OverlappingContextsRejected) {
  DrcfFixture f;
  TestSlave overlap(f.top, "overlap", 0x10A, 0x11F, 0);
  EXPECT_THROW(f.drcf.add_context(overlap, {.config_address = 0,
                                            .size_words = 4}),
               std::logic_error);
}

TEST(DrcfTest, ContextSizeDerivedFromGates) {
  DrcfFixture f;
  TestSlave s(f.top, "derived", 0x300, 0x30F, 0);
  const usize ctx =
      f.drcf.add_context(s, {.config_address = 0x10800, .gates = 1000});
  // varicore: 1000 gates * 24 bits / 32 = 750 words.
  EXPECT_EQ(f.drcf.context_params(ctx).size_words, 750u);
  TestSlave s2(f.top, "zero", 0x400, 0x40F, 0);
  EXPECT_THROW(f.drcf.add_context(s2, {}), std::invalid_argument);
}

TEST(DrcfTest, WritesForwardToActiveContext) {
  DrcfFixture f;
  f.top.spawn_thread("master", [&] {
    bus::word w = 777;
    EXPECT_EQ(f.sys_bus.write(0x20A, &w), BusStatus::kOk);
  });
  f.sim.run();
  EXPECT_EQ(f.slave_b.writes_, 1u);
  EXPECT_EQ(f.slave_b.last_write_, 777);
  EXPECT_EQ(f.slave_a.writes_, 0u);
}

TEST(DrcfTest, FailedConfigFetchFailsCallNotDeadlocks) {
  // Context whose bitstream address decodes to nothing: the fetch fails, the
  // suspended caller's transaction errors out, the simulation stays live.
  DrcfFixture f;
  TestSlave orphan(f.top, "orphan", 0x300, 0x30F, 3000);
  const usize ctx = f.drcf.add_context(
      orphan, {.config_address = 0xDEAD0000, .size_words = 16});
  bool done = false;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    EXPECT_EQ(f.sys_bus.read(0x305, &r), BusStatus::kSlaveError);
    // The fabric is still fully usable for healthy contexts.
    EXPECT_EQ(f.sys_bus.read(0x100, &r), BusStatus::kOk);
    EXPECT_EQ(r, 1000);
    done = true;
  });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(f.sim.starved_processes().empty());
  EXPECT_EQ(f.drcf.stats().fetch_errors, 1u);
  EXPECT_FALSE(f.drcf.is_resident(ctx));
  EXPECT_EQ(f.drcf.context_stats(ctx).activations, 0u);
}

TEST(DrcfTest, AnalyticalModeGeneratesNoBusTraffic) {
  // The OCAPI-XL-style ablation (paper Sec. 4 [8]): switches cost only an
  // analytical delay and never touch the configuration memory.
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.model_config_traffic = false;
  cfg.assumed_fetch_words_per_us = 64.0;  // 64-word context -> 1 us
  DrcfFixture f(cfg);
  kern::Time elapsed;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    const kern::Time t0 = f.sim.now();
    f.sys_bus.read(0x100, &r);
    elapsed = f.sim.now() - t0;
    EXPECT_EQ(r, 1000);
  });
  f.sim.run();
  EXPECT_EQ(f.cfg_mem.stats().reads, 0u);  // no traffic at all
  EXPECT_EQ(f.drcf.stats().config_words_fetched, 0u);
  EXPECT_EQ(f.drcf.stats().switches, 1u);
  // 1 us analytical delay + the master's own 20 ns bus transaction.
  EXPECT_EQ(elapsed, 1_us + 20_ns);
}

// Property test: under any access pattern, the live DRCF's switch count and
// per-context activations must match an offline replay of the same pattern
// against a bare SlotTable (the scheduler's reference model).
class DrcfOracleProperty
    : public ::testing::TestWithParam<std::tuple<u32, ReplacementPolicy, u64>> {
};

TEST_P(DrcfOracleProperty, SwitchCountsMatchSlotTableReplay) {
  const auto [slots, policy, seed] = GetParam();
  constexpr usize kContexts = 5;
  constexpr int kAccesses = 80;

  // Generate the access pattern up front.
  Xoshiro256 rng(seed);
  std::vector<usize> pattern;
  for (int i = 0; i < kAccesses; ++i)
    pattern.push_back(rng.next_below(kContexts));

  // Offline oracle replay.
  SlotTable oracle(slots, policy);
  u64 expected_switches = 0;
  std::vector<u64> expected_activations(kContexts, 0);
  for (const usize ctx : pattern) {
    auto slot = oracle.lookup(ctx);
    if (!slot.has_value()) {
      const auto v = oracle.choose(ctx);
      if (v.evicted.has_value()) oracle.evict(v.slot);
      oracle.install(v.slot, ctx);
      ++expected_switches;
      ++expected_activations[ctx];
      slot = v.slot;
    }
    oracle.touch(*slot);
  }

  // Live system: strictly sequential accesses, so the live SlotTable sees
  // the identical request order.
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.slots = slots;
  cfg.replacement = policy;
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus sys_bus(top, "bus", DrcfFixture::make_default_bus());
  mem::Memory cfg_mem(top, "cfg_mem", 0x10000, 4096);
  Drcf fabric(top, "drcf1", cfg);
  std::vector<std::unique_ptr<TestSlave>> slaves;
  for (usize i = 0; i < kContexts; ++i) {
    const auto base = static_cast<bus::addr_t>(0x100 + i * 0x100);
    slaves.push_back(std::make_unique<TestSlave>(
        top, "s" + std::to_string(i), base, base + 0xF, 0));
    fabric.add_context(*slaves.back(),
                       {.config_address =
                            0x10000 + static_cast<bus::addr_t>(i * 16),
                        .size_words = 16});
  }
  fabric.mst_port.bind(sys_bus);
  sys_bus.bind_slave(cfg_mem);
  sys_bus.bind_slave(fabric);
  top.spawn_thread("driver", [&] {
    bus::word r = 0;
    for (const usize ctx : pattern)
      sys_bus.read(static_cast<bus::addr_t>(0x100 + ctx * 0x100), &r);
  });
  sim.run();

  EXPECT_EQ(fabric.stats().switches, expected_switches);
  for (usize i = 0; i < kContexts; ++i)
    EXPECT_EQ(fabric.context_stats(i).activations, expected_activations[i])
        << "context " << i;
  EXPECT_EQ(fabric.stats().hits + fabric.stats().misses,
            static_cast<u64>(kAccesses));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, DrcfOracleProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(ReplacementPolicy::kLru,
                                         ReplacementPolicy::kFifo,
                                         ReplacementPolicy::kMru),
                       ::testing::Values(11u, 22u, 33u)));

// ---------------------------------------------------------------------------
// Paper Sec. 5.4 limitation 3: blocking interface methods on a shared
// configuration bus deadlock the DRCF.

TEST(DrcfDeadlock, BlockingSharedBusDeadlocks) {
  bus::BusConfig bus_cfg = DrcfFixture::make_default_bus();
  bus_cfg.split_transactions = false;  // the dangerous configuration
  DrcfFixture f(DrcfFixture::make_default_cfg(), bus_cfg);
  bool completed = false;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);
    completed = true;
  });
  EXPECT_EQ(f.sim.run(), kern::StopReason::kNoActivity);
  EXPECT_FALSE(completed);
  // Both the master (suspended call) and arb_and_instr (starved of the bus)
  // are reported as deadlocked.
  ASSERT_GE(f.sim.starved_processes().size(), 1u);
  EXPECT_EQ(f.sim.starved_processes()[0]->basename(), "master");
}

TEST(DrcfDeadlock, SplitBusAvoidsDeadlock) {
  DrcfFixture f;  // split_transactions = true by default
  bool completed = false;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    f.sys_bus.read(0x100, &r);
    completed = true;
  });
  f.sim.run();
  EXPECT_TRUE(completed);
}

TEST(DrcfDeadlock, DedicatedConfigPortAvoidsDeadlock) {
  // Blocking system bus, but the DRCF fetches configurations over a private
  // link to a dedicated configuration memory: no deadlock.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::BusConfig bus_cfg;
  bus_cfg.split_transactions = false;
  bus::Bus sys_bus(top, "bus", bus_cfg);
  mem::Memory cfg_mem(top, "cfg_mem", 0x10000, 1024);
  bus::DirectLink link(top, "cfg_link", 10_ns);
  link.bind_slave(cfg_mem);
  TestSlave slave(top, "hwa", 0x100, 0x10F, 1000);
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  Drcf drcf(top, "drcf1", cfg);
  drcf.add_context(slave, {.config_address = 0x10000, .size_words = 32});
  drcf.mst_port.bind(link);
  sys_bus.bind_slave(drcf);
  bool completed = false;
  top.spawn_thread("master", [&] {
    bus::word r = 0;
    EXPECT_EQ(sys_bus.read(0x105, &r), BusStatus::kOk);
    EXPECT_EQ(r, 1005);
    completed = true;
  });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(link.transfers(), 32u);
}

// ---------------------------------------------------------------------------
// Context-thrash detector

TEST(DrcfThrashTest, FruitlessPingPongRaisesAlert) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.thrash_window = 1_ms;  // wide window: every switch below lands in it
  cfg.thrash_switches = 4;
  DrcfFixture f(cfg);
  f.top.spawn_thread("churn", [&] {
    // Reconfigure back and forth with no forwarded transaction in between:
    // pure configuration churn, zero useful work.
    for (int i = 0; i < 4; ++i) {
      f.drcf.prefetch(f.ctx_a);
      kern::wait(2_us);  // let the load finish
      f.drcf.prefetch(f.ctx_b);
      kern::wait(2_us);
    }
  });
  f.sim.run();
  EXPECT_GE(f.drcf.stats().switches, 8u);
  EXPECT_GE(f.drcf.stats().thrash_alerts, 1u);
  // The alert is also on the fault ledger, joined by kind.
  bool ledgered = false;
  for (const auto& rec : f.drcf.fault_ledger().records())
    if (rec.kind == fault::FaultEventKind::kThrash) ledgered = true;
  EXPECT_TRUE(ledgered);
}

TEST(DrcfThrashTest, UsefulWorkBetweenSwitchesSuppressesAlert) {
  DrcfConfig cfg = DrcfFixture::make_default_cfg();
  cfg.thrash_window = 1_ms;
  cfg.thrash_switches = 4;
  DrcfFixture f(cfg);
  f.top.spawn_thread("worker", [&] {
    // Same ping-pong rate, but every residency does real transactions:
    // these switches are the workload's natural behaviour, not thrash.
    for (int i = 0; i < 6; ++i) {
      bus::word r = 0;
      EXPECT_EQ(f.sys_bus.read(0x105, &r), BusStatus::kOk);
      EXPECT_EQ(f.sys_bus.read(0x205, &r), BusStatus::kOk);
    }
  });
  f.sim.run();
  EXPECT_GE(f.drcf.stats().switches, 12u);
  EXPECT_EQ(f.drcf.stats().thrash_alerts, 0u);
}

TEST(DrcfThrashTest, DisabledByDefault) {
  DrcfFixture f;  // default config: thrash_window == 0
  f.top.spawn_thread("churn", [&] {
    for (int i = 0; i < 6; ++i) {
      f.drcf.prefetch(f.ctx_a);
      kern::wait(2_us);
      f.drcf.prefetch(f.ctx_b);
      kern::wait(2_us);
    }
  });
  f.sim.run();
  EXPECT_GE(f.drcf.stats().switches, 12u);
  EXPECT_EQ(f.drcf.stats().thrash_alerts, 0u);
}

// ---------------------------------------------------------------------------
// Stopping mid-reconfiguration

TEST(DrcfTest, RequestStopDuringFetchThenResume) {
  // A 64-word fetch over a 10 ns/word bus takes ~640 ns; stop the run from
  // inside while the fetch is in flight, then resume: the fetch completes
  // and the suspended caller's transaction succeeds. This is the kernel
  // contract the campaign watchdog and SIGINT broadcast rely on.
  DrcfFixture f;
  bool call_done = false;
  f.top.spawn_thread("master", [&] {
    bus::word r = 0;
    EXPECT_EQ(f.sys_bus.read(0x105, &r), BusStatus::kOk);
    EXPECT_EQ(r, 1005);
    call_done = true;
  });
  f.top.spawn_thread("stopper", [&] {
    kern::wait(100_ns);  // well inside the configuration fetch
    f.sim.request_stop();
  });
  EXPECT_EQ(f.sim.run(), kern::StopReason::kExplicitStop);
  EXPECT_FALSE(call_done);  // stopped mid-fetch
  EXPECT_FALSE(f.drcf.is_resident(f.ctx_a));
  // Resuming the same simulation finishes the interrupted reconfiguration.
  EXPECT_EQ(f.sim.run(), kern::StopReason::kNoActivity);
  EXPECT_TRUE(call_done);
  EXPECT_TRUE(f.drcf.is_resident(f.ctx_a));
  EXPECT_EQ(f.drcf.stats().switches, 1u);
}

}  // namespace
}  // namespace adriatic::drcf
