// Failure-injection tests: read-path upsets through the ECC model and
// end-to-end fault observability — corrupted inter-stage buffers must be
// caught by the CRC stage, with or without the DRCF in the path.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "accel/accel_lib.hpp"
#include "bus/bus_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "fault/interposer.hpp"
#include "fault/plan.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "soc/soc_lib.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using bus::BusStatus;

// Read-path soft errors as an ECC-model preset: each read draws an upset
// with probability `rate` that flips `bits` distinct bits of the delivered
// word (transient: the store stays clean). Without `correct`, every upset is
// delivered as data, so downstream integrity checks (a CRC stage, config
// digests) are what must catch it.
struct ReadUpsets {
  double rate = 0.0;
  u32 bits = 1;
  u64 seed = 0xFA017;
  bus::addr_t window_low = 0;  ///< 0,0 = everywhere.
  bus::addr_t window_high = 0;
  bool correct = false;
};

mem::EccConfig read_upsets(const ReadUpsets& u) {
  mem::EccConfig cfg;
  cfg.upsets.seed = u.seed;
  fault::FaultRule rule;
  rule.rate = u.rate;
  rule.kind = fault::FaultKind::kCorrupt;
  rule.corrupt_bits = u.bits;
  rule.window_low = u.window_low;
  rule.window_high = u.window_high;
  rule.reads_only = true;
  cfg.upsets.rules.push_back(rule);
  cfg.correct_single = u.correct;
  cfg.storage_upsets = false;
  cfg.repair_on_detect = false;
  cfg.signal_uncorrectable = false;
  return cfg;
}

u64 upsets(const mem::Memory& m) { return m.ecc()->stats().upsets; }

TEST(FaultyMemory, NoErrorsAtZeroRate) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets({.rate = 0.0}));
  top.spawn_thread("t", [&] {
    bus::word w = 1234;
    m.write(5, &w);
    bus::word r = 0;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(m.read(5, &r));
      EXPECT_EQ(r, 1234);
    }
  });
  sim.run();
  EXPECT_EQ(upsets(m), 0u);
}

TEST(FaultyMemory, InjectsAtConfiguredRate) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets({.rate = 0.25, .bits = 1}));
  u64 corrupted = 0;
  top.spawn_thread("t", [&] {
    bus::word w = 0;
    m.write(3, &w);
    for (int i = 0; i < 2000; ++i) {
      bus::word r = 0;
      m.read(3, &r);
      if (r != 0) ++corrupted;
    }
  });
  sim.run();
  // ~25% +- noise; a flipped bit always changes a zero word.
  EXPECT_NEAR(static_cast<double>(corrupted), 500.0, 80.0);
  EXPECT_EQ(upsets(m), corrupted);
}

TEST(FaultyMemory, WindowRestrictsInjection) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets(
      {.rate = 1.0, .bits = 1, .window_low = 10, .window_high = 19}));
  top.spawn_thread("t", [&] {
    bus::word w = 0, r = 0;
    m.write(5, &w);
    m.write(15, &w);
    m.read(5, &r);
    EXPECT_EQ(r, 0);  // outside the window: clean
    m.read(15, &r);
    EXPECT_NE(r, 0);  // inside: always corrupted at rate 1.0
  });
  sim.run();
  EXPECT_EQ(upsets(m), 1u);
}

TEST(FaultyMemory, EccCorrectsSingleBitUpsetsSilently) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets({.rate = 0.25, .bits = 1, .correct = true}));
  top.spawn_thread("t", [&] {
    bus::word w = 0x5A5A5A5A;
    m.write(3, &w);
    for (int i = 0; i < 2000; ++i) {
      bus::word r = 0;
      ASSERT_TRUE(m.read(3, &r));
      EXPECT_EQ(r, 0x5A5A5A5Au);  // every upset corrected before delivery
    }
  });
  sim.run();
  // Upsets still happen (and are drawn from the same RNG stream as the
  // uncorrected configuration) — the ECC just masks them.
  EXPECT_NEAR(static_cast<double>(upsets(m)), 500.0, 80.0);
  EXPECT_EQ(m.ecc()->stats().corrected, upsets(m));
  EXPECT_EQ(m.ecc()->stats().uncorrectable, 0u);
}

TEST(FaultyMemory, MultiBitUpsetsAreLedgeredUncorrectable) {
  // Double-bit upsets are beyond single-error correction: the corrupted
  // payload is delivered (legacy semantics — downstream CRC must catch it)
  // but each one is detected and lands in the ledger with its bit count.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets({.rate = 1.0, .bits = 2}));
  fault::FaultLedger led;
  m.set_fault_ledger(&led);
  constexpr int kReads = 50;
  top.spawn_thread("t", [&] {
    bus::word w = 0;
    m.write(3, &w);
    for (int i = 0; i < kReads; ++i) {
      bus::word r = 0;
      ASSERT_TRUE(m.read(3, &r));  // delivered, not failed
      // Exactly two bits flipped from the stored zero word.
      EXPECT_EQ(std::popcount(static_cast<u32>(r)), 2);
    }
  });
  sim.run();
  EXPECT_EQ(upsets(m), static_cast<u64>(kReads));
  EXPECT_EQ(m.ecc()->stats().uncorrectable, static_cast<u64>(kReads));
  ASSERT_EQ(led.count(fault::FaultEventKind::kEccUncorrectable),
            static_cast<u64>(kReads));
  EXPECT_EQ(led.records()[0].arg, 2u);  // bits per upset, not a torn page
}

TEST(FaultInjection, CrcCatchesCorruptedPipelineBuffer) {
  // FIR writes into a faulty buffer; the CRC accelerator reads it back.
  // Frames whose buffer reads were corrupted must fail the CRC check
  // computed on the original data — no silent masking anywhere in the
  // bus/accelerator path.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  // Inject only in the staging buffer region.
  mem::Memory ram(top, "ram", 0x1000, 2048);
  ram.set_ecc(read_upsets({.rate = 0.02,
                           .bits = 1,
                           .seed = 7,
                           .window_low = 0x1400,
                           .window_high = 0x14FF}));
  b.bind_slave(ram);
  soc::HwAccel crc_acc(top, "crc", 0x100, accel::make_crc_spec());
  crc_acc.mst_port.bind(b);
  b.bind_slave(crc_acc);

  int frames_checked = 0;
  int crc_mismatches = 0;
  top.spawn_thread("driver", [&] {
    Xoshiro256 rng(42);
    for (int frame = 0; frame < 40; ++frame) {
      std::vector<bus::word> payload(64);
      for (auto& v : payload) v = static_cast<bus::word>(rng.next());
      const u32 golden = accel::crc32_words(payload);
      // Stage the payload in the fault window.
      b.burst_write(0x1400, payload, 0);
      // CRC accelerator reads it (possibly corrupted) and appends its CRC.
      bus::word w = 0x1400;
      b.write(0x100 + soc::HwAccel::kSrc, &w);
      w = 0x1500;
      b.write(0x100 + soc::HwAccel::kDst, &w);
      w = 64;
      b.write(0x100 + soc::HwAccel::kLen, &w);
      w = 1;
      b.write(0x100 + soc::HwAccel::kCtrl, &w);
      kern::wait(crc_acc.done_event());
      w = 0;
      b.write(0x100 + soc::HwAccel::kStatus, &w);
      bus::word crc_out = 0;
      b.read(0x1500 + 64, &crc_out, 0);
      ++frames_checked;
      if (static_cast<u32>(crc_out) != golden) ++crc_mismatches;
    }
  });
  sim.run();
  EXPECT_EQ(frames_checked, 40);
  // 64 reads/frame at 2%: virtually every frame sees >=1 corrupt word...
  // but allow for lucky clean frames. Mismatches must match injections
  // being nonzero, and a CRC mismatch requires at least one injection.
  EXPECT_GT(upsets(ram), 0u);
  EXPECT_GT(crc_mismatches, 10);
  EXPECT_LE(static_cast<u64>(crc_mismatches), upsets(ram));
}

TEST(FaultInjection, DrcfForwardingDoesNotMaskFaults) {
  // Same pipeline but the CRC accelerator lives inside a DRCF: corruption
  // still surfaces, and the DRCF's own config fetches from a clean region
  // are unaffected.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory ram(top, "ram", 0x1000, 2048);
  ram.set_ecc(read_upsets({.rate = 1.0,  // always corrupt
                           .bits = 1,
                           .window_low = 0x1400,
                           .window_high = 0x143F}));
  mem::Memory cfg_mem(top, "cfg", 0x100000, 256);
  b.bind_slave(ram);
  b.bind_slave(cfg_mem);
  soc::HwAccel crc_acc(top, "crc", 0x100, accel::make_crc_spec());
  crc_acc.mst_port.bind(b);
  drcf::Drcf fabric(top, "drcf", {});
  fabric.add_context(crc_acc, {.config_address = 0x100000, .size_words = 32});
  fabric.mst_port.bind(b);
  b.bind_slave(fabric);

  bool mismatch_detected = false;
  top.spawn_thread("driver", [&] {
    std::vector<bus::word> payload(16, 0x5A5A5A5A);
    const u32 golden = accel::crc32_words(payload);
    b.burst_write(0x1400, payload, 0);
    bus::word w = 0x1400;
    b.write(0x100 + soc::HwAccel::kSrc, &w);
    w = 0x1500;
    b.write(0x100 + soc::HwAccel::kDst, &w);
    w = 16;
    b.write(0x100 + soc::HwAccel::kLen, &w);
    w = 1;
    b.write(0x100 + soc::HwAccel::kCtrl, &w);
    kern::wait(crc_acc.done_event());
    bus::word crc_out = 0;
    b.read(0x1500 + 16, &crc_out, 0);
    mismatch_detected = static_cast<u32>(crc_out) != golden;
  });
  sim.run();
  EXPECT_TRUE(mismatch_detected);
  EXPECT_EQ(fabric.stats().fetch_errors, 0u);
  EXPECT_EQ(fabric.stats().switches, 1u);
}

// ---------------------------------------------------------------------------
// Fault-plan primitives.

TEST(FlipDistinctBits, ExactPopcountDeterministicAndClamped) {
  Xoshiro256 rng(1);
  for (u32 n = 1; n <= 8; ++n) {
    const u32 flipped = fault::flip_distinct_bits(0, n, rng);
    EXPECT_EQ(static_cast<u32>(std::popcount(flipped)), n);
  }
  // XOR with a popcount-n mask changes exactly n bits of any value.
  Xoshiro256 r1(7);
  Xoshiro256 r2(7);
  const u32 a = fault::flip_distinct_bits(0xDEADBEEFu, 5, r1);
  EXPECT_EQ(a, fault::flip_distinct_bits(0xDEADBEEFu, 5, r2));
  EXPECT_EQ(std::popcount(a ^ 0xDEADBEEFu), 5);
  Xoshiro256 r3(3);
  EXPECT_EQ(std::popcount(fault::flip_distinct_bits(0u, 0, r3)), 1);
}

TEST(FaultyMemory, MultiBitUpsetsFlipDistinctBits) {
  // Regression: the old XOR loop could draw the same position twice, turning
  // a "2-bit upset" into a 0-bit no-op. Every upset must now flip exactly
  // bits_per_error distinct positions.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  mem::Memory m(top, "fm", 0, 64);
  m.set_ecc(read_upsets({.rate = 1.0, .bits = 2}));
  top.spawn_thread("t", [&] {
    bus::word w = 0;
    m.write(3, &w);
    for (int i = 0; i < 50; ++i) {
      bus::word r = 0;
      ASSERT_TRUE(m.read(3, &r));
      EXPECT_EQ(std::popcount(static_cast<u32>(r)), 2) << "read " << i;
    }
  });
  sim.run();
  EXPECT_EQ(upsets(m), 50u);
}

TEST(FaultInjector, SiteStreamsAreDeterministicAndIndependent) {
  fault::FaultPlan plan;
  plan.seed = 99;
  fault::FaultRule rule;
  rule.rate = 0.5;
  plan.rules.push_back(rule);
  fault::FaultInjector a(plan, 1);
  fault::FaultInjector b(plan, 1);
  fault::FaultInjector c(plan, 2);
  int divergent = 0;
  for (int i = 0; i < 200; ++i) {
    const auto t = kern::Time::ns(static_cast<u64>(i));
    const auto da = a.decide(t, 0x10, true);
    const auto db = b.decide(t, 0x10, true);
    const auto dc = c.decide(t, 0x10, true);
    EXPECT_EQ(da.has_value(), db.has_value()) << i;
    if (da.has_value() != dc.has_value()) ++divergent;
  }
  // Same plan, different site id => an independent (but reproducible) stream.
  EXPECT_GT(divergent, 0);
}

TEST(FaultInjector, ScriptedShotsRespectTimeWindowAndCount) {
  fault::FaultPlan plan;
  fault::ScriptedFault shot;
  shot.at = kern::Time::ns(100);
  shot.window_low = 0x200;
  shot.window_high = 0x2FF;
  shot.count = 2;
  plan.scripted.push_back(shot);
  fault::FaultInjector inj(plan, 0);
  EXPECT_FALSE(inj.decide(kern::Time::ns(50), 0x210, true).has_value());
  EXPECT_FALSE(inj.decide(kern::Time::ns(150), 0x100, true).has_value());
  EXPECT_TRUE(inj.decide(kern::Time::ns(150), 0x210, true).has_value());
  EXPECT_TRUE(inj.decide(kern::Time::ns(160), 0x2FF, false).has_value());
  EXPECT_FALSE(inj.decide(kern::Time::ns(170), 0x210, true).has_value());
}

TEST(BusFaultInterposer, InjectsErrorDelayAndCorrupt) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory m(top, "mem", 0, 64);
  b.bind_slave(m);
  m.poke(5, 0);

  fault::FaultPlan plan;
  fault::ScriptedFault err;  // first read fails
  err.kind = fault::FaultKind::kError;
  plan.scripted.push_back(err);
  fault::ScriptedFault stall;  // second is stalled 300 ns
  stall.kind = fault::FaultKind::kDelay;
  stall.delay = 300_ns;
  plan.scripted.push_back(stall);
  fault::ScriptedFault flip;  // third returns a corrupted payload
  flip.kind = fault::FaultKind::kCorrupt;
  flip.corrupt_bits = 4;
  plan.scripted.push_back(flip);

  fault::BusFaultInterposer ip(top, "ip", plan);
  ip.bind(b);
  top.spawn_thread("t", [&] {
    bus::word r = 0;
    EXPECT_EQ(ip.read(5, &r, 0), BusStatus::kSlaveError);
    const auto t0 = sim.now();
    EXPECT_EQ(ip.read(5, &r, 0), BusStatus::kOk);
    EXPECT_GE(sim.now() - t0, 300_ns);
    EXPECT_EQ(r, 0);  // delay is timing-only
    EXPECT_EQ(ip.read(5, &r, 0), BusStatus::kOk);
    EXPECT_EQ(std::popcount(static_cast<u32>(r)), 4);  // memory itself clean
    EXPECT_EQ(ip.read(5, &r, 0), BusStatus::kOk);
    EXPECT_EQ(r, 0);  // plan exhausted; read path clean again
  });
  sim.run();
  EXPECT_EQ(ip.injected(), 3u);
  const auto& ledger = ip.ledger();
  EXPECT_EQ(ledger.count(fault::FaultEventKind::kInjectedError), 1u);
  EXPECT_EQ(ledger.count(fault::FaultEventKind::kInjectedDelay), 1u);
  EXPECT_EQ(ledger.count(fault::FaultEventKind::kInjectedCorrupt), 1u);
  EXPECT_NE(ledger.digest(), 0u);
}

// ---------------------------------------------------------------------------
// DRCF recovery policies. The fixture mirrors drcf_test's: split bus, config
// memory with synthetic bitstreams, two wrapped slaves — plus armed digests
// and a fetch-path fault plan taken from the config under test.

class EchoSlave : public kern::Module, public bus::BusSlaveIf {
 public:
  EchoSlave(kern::Object& parent, std::string name, bus::addr_t low,
            bus::addr_t high, bus::word base,
            kern::Time delay = kern::Time::zero())
      : Module(parent, std::move(name)),
        low_(low),
        high_(high),
        base_(base),
        delay_(delay) {}

  [[nodiscard]] bus::addr_t get_low_add() const override { return low_; }
  [[nodiscard]] bus::addr_t get_high_add() const override { return high_; }
  bool read(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    if (!delay_.is_zero()) kern::wait(delay_);
    *data = base_ + static_cast<bus::word>(add - low_);
    return true;
  }
  bool write(bus::addr_t add, bus::word* data) override {
    if (add < low_ || add > high_) return false;
    last_write = *data;
    return true;
  }

  bus::word last_write = 0;

 private:
  bus::addr_t low_;
  bus::addr_t high_;
  bus::word base_;
  kern::Time delay_;
};

struct RecoveryFixture {
  static constexpr bus::addr_t kCfgA = 0x10000;
  static constexpr bus::addr_t kCfgB = 0x10400;
  static constexpr u64 kWords = 64;

  explicit RecoveryFixture(drcf::DrcfConfig cfg,
                           kern::Time a_delay = kern::Time::zero())
      : sys_bus(top, "bus", make_bus()),
        cfg_mem(top, "cfg_mem", kCfgA, 4096),
        slave_a(top, "hwa", 0x100, 0x10F, 1000, a_delay),
        slave_b(top, "hwb", 0x200, 0x20F, 2000),
        drcf(top, "drcf1", std::move(cfg)) {
    ctx_a = arm(slave_a, kCfgA);
    ctx_b = arm(slave_b, kCfgB);
    drcf.mst_port.bind(sys_bus);
    sys_bus.bind_slave(cfg_mem);
    sys_bus.bind_slave(drcf);
  }

  /// Registers `inner`, loads its synthetic bitstream and arms the
  /// integrity check with it as the golden copy (as elaborate.cpp does).
  usize arm(bus::BusSlaveIf& inner, bus::addr_t base) {
    const usize id = drcf.add_context(
        inner,
        {.config_address = base, .size_words = kWords, .gates = 10'000});
    const std::vector<bus::word> bits(
        kWords, static_cast<bus::word>(0xB1750000u | id));
    cfg_mem.load(base, bits);
    drcf.set_golden_bitstream(id, mem::ImageRegistry::instance().intern(bits));
    return id;
  }

  static drcf::DrcfConfig base_cfg() {
    drcf::DrcfConfig c;
    c.technology = drcf::varicore_like();
    c.technology.per_switch_overhead = kern::Time::zero();
    return c;
  }
  static bus::BusConfig make_bus() {
    bus::BusConfig b;
    b.cycle_time = 10_ns;
    b.split_transactions = true;
    return b;
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::Bus sys_bus;
  mem::Memory cfg_mem;
  EchoSlave slave_a;
  EchoSlave slave_b;
  drcf::Drcf drcf;
  usize ctx_a = 0;
  usize ctx_b = 0;
};

TEST(DrcfRecovery, FailFastFailsAffectedTransactionOnly) {
  auto cfg = RecoveryFixture::base_cfg();
  fault::ScriptedFault shot;
  shot.kind = fault::FaultKind::kError;
  cfg.fetch_faults.scripted.push_back(shot);
  RecoveryFixture f(cfg);
  std::vector<BusStatus> st;
  bus::word r = 0;
  f.top.spawn_thread("m", [&] {
    st.push_back(f.sys_bus.read(0x105, &r));
    st.push_back(f.sys_bus.read(0x105, &r));
  });
  f.sim.run();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0], BusStatus::kSlaveError);
  EXPECT_EQ(st[1], BusStatus::kOk);  // next access reloads cleanly
  EXPECT_EQ(r, 1005);
  EXPECT_EQ(f.drcf.stats().fetch_errors, 1u);
  EXPECT_EQ(f.drcf.stats().fetch_retries, 0u);
  EXPECT_EQ(f.drcf.stats().load_give_ups, 1u);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kFetchError),
            1u);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kGaveUp), 1u);
}

TEST(DrcfRecovery, RetryBackoffRecoversWithExtraTrafficAndTime) {
  // Baseline: the same single load with no faults.
  u64 base_words = 0;
  kern::Time base_busy;
  {
    auto cfg = RecoveryFixture::base_cfg();
    cfg.fetch_burst = 16;
    RecoveryFixture f(cfg);
    f.top.spawn_thread("m", [&] {
      bus::word r = 0;
      EXPECT_EQ(f.sys_bus.read(0x105, &r), BusStatus::kOk);
    });
    f.sim.run();
    base_words = f.drcf.stats().config_words_fetched;
    base_busy = f.drcf.stats().reconfig_busy_time;
  }

  auto cfg = RecoveryFixture::base_cfg();
  cfg.fetch_burst = 16;
  cfg.recovery.policy = drcf::RecoveryPolicy::kRetryBackoff;
  cfg.recovery.max_attempts = 3;
  cfg.recovery.backoff = 100_ns;
  fault::ScriptedFault shot;  // fails the *second* chunk of attempt 1
  shot.kind = fault::FaultKind::kError;
  shot.window_low = RecoveryFixture::kCfgA + 16;
  shot.window_high = RecoveryFixture::kCfgA + 31;
  cfg.fetch_faults.scripted.push_back(shot);
  RecoveryFixture f(cfg);
  BusStatus st{};
  bus::word r = 0;
  f.top.spawn_thread("m", [&] { st = f.sys_bus.read(0x105, &r); });
  f.sim.run();
  EXPECT_EQ(st, BusStatus::kOk);
  EXPECT_EQ(r, 1005);
  EXPECT_EQ(f.drcf.stats().fetch_errors, 1u);
  EXPECT_EQ(f.drcf.stats().fetch_retries, 1u);
  EXPECT_EQ(f.drcf.stats().load_give_ups, 0u);
  // The failed attempt's partial fetch and the re-fetch are real traffic,
  // and the backoff plus the extra chunks are real reconfiguration time.
  EXPECT_GT(f.drcf.stats().config_words_fetched, base_words);
  EXPECT_GT(f.drcf.stats().reconfig_busy_time, base_busy);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kRetry), 1u);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kRecovered),
            1u);
}

TEST(DrcfRecovery, FallbackContextDegradesGracefully) {
  auto cfg = RecoveryFixture::base_cfg();
  cfg.recovery.policy = drcf::RecoveryPolicy::kFallbackContext;
  cfg.recovery.fallback_context = 0;
  fault::ScriptedFault shot;  // ctx_b's configuration is permanently broken
  shot.kind = fault::FaultKind::kError;
  shot.window_low = RecoveryFixture::kCfgB;
  shot.window_high = RecoveryFixture::kCfgB + RecoveryFixture::kWords - 1;
  shot.count = 1000;
  cfg.fetch_faults.scripted.push_back(shot);
  RecoveryFixture f(cfg);
  int ok = 0;
  std::vector<bus::word> degraded;
  f.top.spawn_thread("m", [&] {
    bus::word r = 0;
    for (int i = 0; i < 4; ++i) {
      if (f.sys_bus.read(0x100 + static_cast<bus::addr_t>(i), &r) ==
          BusStatus::kOk)
        ++ok;
      if (f.sys_bus.read(0x200 + static_cast<bus::addr_t>(i), &r) ==
          BusStatus::kOk) {
        ++ok;
        degraded.push_back(r);
      }
    }
  });
  f.sim.run();
  EXPECT_EQ(ok, 8);  // every transaction completes
  // Calls to ctx_b were served by ctx_a at the same offset.
  ASSERT_EQ(degraded.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(degraded[static_cast<usize>(i)], 1000 + i);
  EXPECT_EQ(f.drcf.stats().load_give_ups, 1u);
  EXPECT_GE(f.drcf.stats().fallback_forwards, 4u);
  EXPECT_GE(f.drcf.fault_ledger().count(fault::FaultEventKind::kFallback), 4u);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kGaveUp), 1u);
}

TEST(DrcfRecovery, ScrubRefetchesOnDigestMismatch) {
  auto cfg = RecoveryFixture::base_cfg();
  cfg.recovery.policy = drcf::RecoveryPolicy::kScrub;
  fault::ScriptedFault shot;  // one corrupted word in the first fetch
  shot.kind = fault::FaultKind::kCorrupt;
  shot.corrupt_bits = 2;
  cfg.fetch_faults.scripted.push_back(shot);
  RecoveryFixture f(cfg);
  BusStatus st{};
  bus::word r = 0;
  f.top.spawn_thread("m", [&] { st = f.sys_bus.read(0x105, &r); });
  f.sim.run();
  EXPECT_EQ(st, BusStatus::kOk);
  EXPECT_EQ(r, 1005);
  EXPECT_EQ(f.drcf.stats().digest_mismatches, 1u);
  EXPECT_EQ(f.drcf.stats().scrubs, 1u);
  EXPECT_EQ(f.drcf.stats().load_give_ups, 0u);
  EXPECT_EQ(
      f.drcf.fault_ledger().count(fault::FaultEventKind::kDigestMismatch), 1u);
  EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kScrub), 1u);
  EXPECT_EQ(
      f.drcf.fault_ledger().count(fault::FaultEventKind::kInjectedCorrupt),
      1u);
}

TEST(DrcfRecovery, WatchdogAbortsStalledFetch) {
  auto cfg = RecoveryFixture::base_cfg();
  cfg.recovery.watchdog = 1_us;
  fault::FaultRule stall;  // every fetch chunk stalls far past the deadline
  stall.rate = 1.0;
  stall.kind = fault::FaultKind::kDelay;
  stall.delay = 5_us;
  stall.reads_only = true;
  cfg.fetch_faults.rules.push_back(stall);
  RecoveryFixture f(cfg);
  BusStatus st{};
  f.top.spawn_thread("m", [&] {
    bus::word r = 0;
    st = f.sys_bus.read(0x105, &r);
  });
  f.sim.run();
  EXPECT_EQ(st, BusStatus::kSlaveError);
  EXPECT_GE(f.drcf.stats().watchdog_aborts, 1u);
  EXPECT_GE(f.drcf.fault_ledger().count(fault::FaultEventKind::kWatchdogAbort),
            1u);
}

TEST(DrcfRecovery, SameSeedRunsAreBitIdentical) {
  const auto run_once = [](u64* end_ps, u64* ledger_digest, u64* errors) {
    auto cfg = RecoveryFixture::base_cfg();
    cfg.recovery.policy = drcf::RecoveryPolicy::kRetryBackoff;
    cfg.recovery.max_attempts = 3;
    fault::FaultRule rule;
    rule.rate = 0.3;
    rule.kind = fault::FaultKind::kError;
    rule.reads_only = true;
    cfg.fetch_faults.seed = 42;
    cfg.fetch_faults.rules.push_back(rule);
    RecoveryFixture f(cfg);
    f.top.spawn_thread("m", [&] {
      bus::word r = 0;
      for (int i = 0; i < 8; ++i) {  // ping-pong: every step reconfigures
        (void)f.sys_bus.read(0x105, &r);
        (void)f.sys_bus.read(0x205, &r);
      }
    });
    f.sim.run();
    *end_ps = f.sim.now().picoseconds();
    *ledger_digest = f.drcf.fault_ledger().digest();
    *errors = f.drcf.stats().fetch_errors;
  };
  u64 t1 = 0, d1 = 0, e1 = 0, t2 = 0, d2 = 0, e2 = 0;
  run_once(&t1, &d1, &e1);
  run_once(&t2, &d2, &e2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(e1, e2);
  EXPECT_GT(e1, 0u);  // the plan actually fired
}

// Fetch-failure edge cases, table-driven: the failure must fail exactly the
// affected transactions and leave the fabric consistent — a later clean
// access to the same context succeeds in every scenario.
TEST(DrcfRecovery, FetchFailureEdgeCases) {
  struct EdgeCase {
    const char* name;
    u32 slots;
    int waiters;          ///< Concurrent first-touch readers of ctx_b.
    bool prefetch;        ///< The failing load is a background prefetch.
    bool pin_ctx_a;       ///< A slow ctx_a forward is in flight meanwhile.
  };
  const EdgeCase cases[] = {
      {"three suspended waiters", 1, 3, false, false},
      {"failure during prefetch", 1, 0, true, false},
      {"failure while another context is pinned", 2, 1, false, true},
  };
  for (const auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    auto cfg = RecoveryFixture::base_cfg();
    cfg.slots = tc.slots;
    // Fail the second fetch chunk: the load is mid-flight long enough for
    // every concurrent caller to pile up as a suspended waiter first.
    cfg.fetch_burst = 16;
    fault::ScriptedFault shot;
    shot.kind = fault::FaultKind::kError;
    shot.window_low = RecoveryFixture::kCfgB + 16;
    shot.window_high = RecoveryFixture::kCfgB + 31;
    cfg.fetch_faults.scripted.push_back(shot);
    RecoveryFixture f(cfg, tc.pin_ctx_a ? 1_us : kern::Time::zero());

    if (tc.pin_ctx_a)
      f.top.spawn_thread("pin", [&] {
        bus::word r = 0;
        EXPECT_EQ(f.sys_bus.read(0x100, &r), BusStatus::kOk);
        EXPECT_EQ(r, 1000);
      });
    if (tc.prefetch)
      f.top.spawn_thread("prefetch", [&] { f.drcf.prefetch(f.ctx_b); });
    std::vector<BusStatus> first(static_cast<usize>(tc.waiters),
                                 BusStatus::kOk);
    for (int i = 0; i < tc.waiters; ++i)
      f.top.spawn_thread("w" + std::to_string(i), [&f, &first, &tc, i] {
        if (tc.pin_ctx_a) kern::wait(1_us);  // land inside the pinned call
        bus::word r = 0;
        first[static_cast<usize>(i)] = f.sys_bus.read(0x205, &r);
      });
    BusStatus late{BusStatus::kSlaveError};
    bus::word late_r = 0;
    f.top.spawn_thread("late", [&] {
      kern::wait(100_us);  // well after the failed load settled
      late = f.sys_bus.read(0x205, &late_r);
    });
    f.sim.run();

    for (int i = 0; i < tc.waiters; ++i)
      EXPECT_EQ(first[static_cast<usize>(i)], BusStatus::kSlaveError) << i;
    EXPECT_EQ(late, BusStatus::kOk);
    EXPECT_EQ(late_r, 2005);
    EXPECT_EQ(f.drcf.stats().fetch_errors, 1u);
    EXPECT_EQ(f.drcf.stats().load_give_ups, 1u);
    EXPECT_TRUE(f.drcf.is_resident(f.ctx_b));
    EXPECT_EQ(f.drcf.fault_ledger().count(fault::FaultEventKind::kFetchError),
              1u);
  }
}

}  // namespace
}  // namespace adriatic
