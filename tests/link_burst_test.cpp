// Pins what a timed DirectLink burst read delivers and costs: data,
// simulated time, activations, delta cycles, memory and store counters, the
// link's transfer count and the fault ledger, for every kind of page and
// slave a configuration fetch can meet, and with every kernel condition that
// can interrupt a burst (a timed event, the run end, the watchdog, a tracer,
// a scheduler observer). Any change to how a link burst reaches the kernel
// or its slave must keep every value here.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/bus_lib.hpp"
#include "conformance/digest.hpp"
#include "fault/interposer.hpp"
#include "kernel/kernel.hpp"
#include "kernel/sched_trace.hpp"
#include "memory/memory.hpp"
#include "util/strings.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using bus::BusStatus;

constexpr usize kWords = 2 * mem::kPageWords;  // two pages at address 0
constexpr bus::addr_t kCross = mem::kPageWords - 8;  // 8 words each side
constexpr bus::word kUnset = -1;  // marks a word the burst did not deliver

bus::word pattern(usize a) {
  return static_cast<bus::word>(0x3C000000u + static_cast<u32>(a) * 7u);
}

std::vector<bus::word> pattern_words(usize from, usize n) {
  std::vector<bus::word> w(n);
  for (usize i = 0; i < n; ++i) w[i] = pattern(from + i);
  return w;
}

std::vector<bus::word> expect_words(usize from, usize delivered,
                                    usize len = 16) {
  std::vector<bus::word> w = pattern_words(from, delivered);
  w.resize(len, kUnset);
  return w;
}

/// Forwards every call to another slave and overrides nothing else, so it
/// keeps every BusSlaveIf default: the reference a link must treat exactly
/// like the memory behind it.
class PassThrough final : public bus::BusSlaveIf {
 public:
  explicit PassThrough(bus::BusSlaveIf& inner) : inner_(inner) {}
  [[nodiscard]] bus::addr_t get_low_add() const override {
    return inner_.get_low_add();
  }
  [[nodiscard]] bus::addr_t get_high_add() const override {
    return inner_.get_high_add();
  }
  bool read(bus::addr_t add, bus::word* data) override {
    return inner_.read(add, data);
  }
  bool write(bus::addr_t add, bus::word* data) override {
    return inner_.write(add, data);
  }

 private:
  bus::BusSlaveIf& inner_;
};

/// A traced value that follows simulated time (in link word times), so a
/// VCD file gets one change per sampled instant.
class TimeProbe final : public kern::SignalInIf<u32> {
 public:
  explicit TimeProbe(kern::Simulation& sim) : sim_(sim), ev_(sim, "probe") {}
  [[nodiscard]] const u32& read() const override {
    value_ = static_cast<u32>(sim_.now().picoseconds() / 10'000);
    return value_;
  }
  [[nodiscard]] kern::Event& value_changed_event() override { return ev_; }

 private:
  kern::Simulation& sim_;
  kern::Event ev_;
  mutable u32 value_ = 0;
};

struct Rig {
  explicit Rig(kern::Time read_latency = kern::Time::zero(),
               kern::TimingMode mode = kern::TimingMode::kTimed) {
    sim.set_timing_mode(mode);
    ram = std::make_unique<mem::Memory>(top, "ram", 0, kWords, read_latency);
  }

  /// Spawns the thread that makes one `len`-word link burst read at `add`.
  kern::ThreadProcess& spawn_burst(bus::addr_t add, usize len = 16) {
    data.assign(len, kUnset);
    return top.spawn_thread(
        "m", [this, add] { st = link.burst_read(add, data, 0); });
  }

  /// Runs one `len`-word burst read at `add` to the end of the simulation.
  BusStatus burst(bus::addr_t add, usize len = 16) {
    spawn_burst(add, len);
    sim.run();
    return st;
  }

  /// Every counter the burst can move, one line: mem=reads/writes/errors,
  /// store=materialized/cow_splits/attached/zero_page_reads/
  /// checksum_failures/golden_restores/revocations.
  [[nodiscard]] std::string counters() const {
    const auto& m = ram->stats();
    const auto& p = ram->backing().stats();
    return strfmt(
        "mem=%llu/%llu/%llu store=%llu/%llu/%llu/%llu/%llu/%llu/%llu "
        "xfers=%llu now=%llu act=%llu delta=%llu",
        (unsigned long long)m.reads, (unsigned long long)m.writes,
        (unsigned long long)m.errors, (unsigned long long)p.pages_materialized,
        (unsigned long long)p.cow_splits, (unsigned long long)p.pages_attached,
        (unsigned long long)p.zero_page_reads,
        (unsigned long long)p.checksum_failures,
        (unsigned long long)p.golden_restores,
        (unsigned long long)p.revocations,
        (unsigned long long)link.transfers(),
        (unsigned long long)sim.now().picoseconds(),
        (unsigned long long)sim.activations(),
        (unsigned long long)sim.delta_count());
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::DirectLink link{top, "link", 10_ns};
  std::unique_ptr<mem::Memory> ram;
  std::vector<bus::word> data;
  BusStatus st = BusStatus::kUnmapped;
};

/// The words as space-separated hex, for bursts whose payload a fault
/// model changed.
std::string hex(const std::vector<bus::word>& words) {
  std::string out;
  for (bus::word w : words) out += strfmt("%08x ", static_cast<u32>(w));
  return out;
}

/// Every ledger record as kind@time_ps:addr:arg, site omitted.
std::string records(const fault::FaultLedger& ledger) {
  std::string out;
  for (const fault::FaultRecord& r : ledger.records())
    out += strfmt("%s@%llu:%llu:%llu ", fault::to_string(r.kind),
                  (unsigned long long)r.time_ps, (unsigned long long)r.addr,
                  (unsigned long long)r.arg);
  return out;
}

TEST(LinkBurst, PlainPagesAcrossBoundary) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=160000 act=17 "
            "delta=17");
}

TEST(LinkBurst, ZeroPage) {
  Rig r;
  r.link.bind_slave(*r.ram);
  EXPECT_EQ(r.burst(0x100), BusStatus::kOk);
  EXPECT_EQ(r.data, std::vector<bus::word>(16, 0));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=0/0/0/16/0/0/0 xfers=16 now=160000 act=17 "
            "delta=17");
}

TEST(LinkBurst, SharedImagePageAfterZeroPage) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->attach_image(mem::ImageRegistry::instance().intern(
                          pattern_words(mem::kPageWords, mem::kPageWords)),
                      mem::kPageWords);
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  std::vector<bus::word> want(8, 0);
  const auto image = pattern_words(mem::kPageWords, 8);
  want.insert(want.end(), image.begin(), image.end());
  EXPECT_EQ(r.data, want);
  EXPECT_TRUE(r.ram->backing().page_shared(1));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=0/0/1/8/0/0/0 xfers=16 now=160000 act=17 "
            "delta=17");
}

TEST(LinkBurst, CorruptPageFailsMidBurst) {
  Rig r;
  r.link.bind_slave(*r.ram);
  fault::FaultLedger ledger;
  r.ram->set_fault_ledger(&ledger);
  r.ram->load(0, pattern_words(0, mem::kPageWords));
  r.ram->attach_image(mem::ImageRegistry::instance().intern(
                          pattern_words(mem::kPageWords, mem::kPageWords)),
                      mem::kPageWords);
  r.ram->backing().corrupt_stored(mem::kPageWords + 3, 0x10);
  EXPECT_EQ(r.burst(kCross), BusStatus::kSlaveError);
  EXPECT_EQ(r.data, expect_words(kCross, 8));
  ASSERT_EQ(ledger.records().size(), 1u);
  const fault::FaultRecord& rec = ledger.records()[0];
  EXPECT_EQ(rec.kind, fault::FaultEventKind::kEccUncorrectable);
  EXPECT_EQ(rec.time_ps, 90000u);
  EXPECT_EQ(rec.site, kern::sched_name_hash("top.ram"));
  EXPECT_EQ(rec.addr, mem::kPageWords);
  EXPECT_EQ(rec.arg, 0u);
  EXPECT_EQ(r.counters(),
            "mem=8/0/1 store=2/1/1/0/1/0/0 xfers=9 now=90000 act=10 delta=10");
}

TEST(LinkBurst, ReadLatencyWaitsPerWord) {
  Rig r(5_ns);
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=240000 act=33 "
            "delta=33");
}

TEST(LinkBurst, EccArmed) {
  Rig r;
  r.link.bind_slave(*r.ram);
  fault::FaultLedger ledger;
  r.ram->set_fault_ledger(&ledger);
  r.ram->load(0, pattern_words(0, kWords));
  mem::EccConfig ec;
  fault::FaultRule single;  // corrected upsets on about half the words
  single.rate = 0.5;
  single.kind = fault::FaultKind::kCorrupt;
  ec.upsets.rules.push_back(single);
  fault::ScriptedFault shot;  // one double-bit upset, sixth word
  shot.kind = fault::FaultKind::kCorrupt;
  shot.corrupt_bits = 2;
  shot.window_low = shot.window_high = kCross + 5;
  ec.upsets.scripted.push_back(shot);
  r.ram->set_ecc(std::move(ec));
  EXPECT_EQ(r.burst(kCross), BusStatus::kSlaveError);
  EXPECT_EQ(hex(r.data),
            "3c001bc8 3c001bcf 3c001bd6 3c001bdd 3c001be4 3c441beb ffffffff "
            "ffffffff ffffffff ffffffff ffffffff ffffffff ffffffff ffffffff "
            "ffffffff ffffffff ");
  const mem::EccStats& es = r.ram->ecc()->stats();
  EXPECT_EQ(strfmt("%llu/%llu/%llu/%llu/%llu", (unsigned long long)es.upsets,
                   (unsigned long long)es.corrected,
                   (unsigned long long)es.uncorrectable,
                   (unsigned long long)es.detected_reads,
                   (unsigned long long)es.repairs),
            "4/3/1/0/0");
  EXPECT_EQ(records(ledger), "ecc_uncorrectable@60000:1021:2 ");
  EXPECT_EQ(r.counters(),
            "mem=5/0/1 store=2/0/0/0/0/0/0 xfers=6 now=60000 act=7 delta=7");
}

TEST(LinkBurst, FaultInterposerWindowAndStall) {
  Rig r;
  r.ram->load(0, pattern_words(0, kWords));
  fault::FaultPlan plan;
  fault::FaultRule window;  // corrupts the words read at 40, 50 and 60 ns
  window.rate = 1.0;
  window.kind = fault::FaultKind::kCorrupt;
  window.from = 35_ns;
  window.until = 65_ns;
  plan.rules.push_back(window);
  fault::ScriptedFault stall;  // the tenth word stalls 100 ns
  stall.kind = fault::FaultKind::kDelay;
  stall.delay = 100_ns;
  stall.window_low = stall.window_high = kCross + 9;
  plan.scripted.push_back(stall);
  fault::SlaveFaultInterposer shim(r.top, "shim", *r.ram, plan);
  r.link.bind_slave(shim);
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(hex(r.data),
            "3c001bc8 3c001bcf 3c001bd6 bc001bdd 3c009be4 3c401beb 3c001bf2 "
            "3c001bf9 3c001c00 3c001c07 3c001c0e 3c001c15 3c001c1c 3c001c23 "
            "3c001c2a 3c001c31 ");
  EXPECT_EQ(records(shim.ledger()),
            "injected_corrupt@40000:1019:1 injected_corrupt@50000:1020:1 "
            "injected_corrupt@60000:1021:1 injected_delay@100000:1025:0 ");
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=260000 act=18 "
            "delta=18");
}

TEST(LinkBurst, TimedEventDueMidBurst) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  std::string seen;
  r.top.spawn_thread("observer", [&] {
    kern::wait(55_ns);
    seen = strfmt("xfers=%llu now=%llu",
                  (unsigned long long)r.link.transfers(),
                  (unsigned long long)r.sim.now().picoseconds());
  });
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(seen, "xfers=5 now=55000");
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=160000 act=19 "
            "delta=18");
}

TEST(LinkBurst, RunEndsMidBurst) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  r.spawn_burst(kCross);
  EXPECT_EQ(r.sim.run(75_ns), kern::StopReason::kTimeLimit);
  EXPECT_EQ(r.data, expect_words(kCross, 7));
  EXPECT_EQ(r.counters(),
            "mem=7/0/0 store=2/0/0/0/0/0/0 xfers=7 now=75000 act=8 delta=8");
  EXPECT_EQ(r.sim.run(), kern::StopReason::kNoActivity);
  EXPECT_EQ(r.st, BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=160000 act=17 "
            "delta=17");
}

TEST(LinkBurst, WatchdogStopsDaemonCaller) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  r.sim.set_max_quiet_time(85_ns);
  r.spawn_burst(kCross).set_daemon();
  EXPECT_EQ(r.sim.run(), kern::StopReason::kStalled);
  EXPECT_EQ(r.data, expect_words(kCross, 8));
  ASSERT_TRUE(r.sim.deadlock_report().has_value());
  EXPECT_EQ(r.sim.deadlock_report()->kind,
            kern::DeadlockReport::Kind::kLivelock);
  EXPECT_EQ(r.counters(),
            "mem=8/0/0 store=2/0/0/0/0/0/0 xfers=8 now=85000 act=9 delta=9");
}

TEST(LinkBurst, WatchdogAndNonDaemonCaller) {
  {
    // Every word dispatches the caller, which counts as progress.
    Rig r;
    r.link.bind_slave(*r.ram);
    r.ram->load(0, pattern_words(0, kWords));
    r.sim.set_max_quiet_time(15_ns);
    EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
    EXPECT_EQ(r.data, pattern_words(kCross, 16));
    EXPECT_FALSE(r.sim.deadlock_report().has_value());
    EXPECT_EQ(r.counters(),
              "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=160000 act=17 "
              "delta=17");
  }
  {
    // A word longer than the quiet time trips the watchdog at once.
    Rig r;
    r.link.bind_slave(*r.ram);
    r.ram->load(0, pattern_words(0, kWords));
    r.sim.set_max_quiet_time(8_ns);
    r.spawn_burst(kCross);
    EXPECT_EQ(r.sim.run(), kern::StopReason::kStalled);
    EXPECT_EQ(r.data, expect_words(kCross, 0));
    EXPECT_EQ(r.counters(),
              "mem=0/0/0 store=2/0/0/0/0/0/0 xfers=0 now=8000 act=1 delta=1");
  }
}

TEST(LinkBurst, TraceFileSamplesEveryWord) {
  const std::string path = ::testing::TempDir() + "/link_burst.vcd";
  {
    Rig r;
    r.link.bind_slave(*r.ram);
    r.ram->load(0, pattern_words(0, kWords));
    TimeProbe probe(r.sim);
    kern::TraceFile tf(r.sim, path);
    tf.trace(probe, "words");
    EXPECT_EQ(r.burst(kCross, 4), BusStatus::kOk);
    EXPECT_EQ(r.data, pattern_words(kCross, 4));
    EXPECT_EQ(tf.samples_written(), 5u);
    EXPECT_EQ(r.counters(),
              "mem=4/0/0 store=2/0/0/0/0/0/0 xfers=4 now=40000 act=5 delta=5");
  }
  std::ifstream in(path);
  std::stringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(),
            "$timescale 1ps $end\n$scope module adriatic $end\n$var wire 32 ! "
            "words $end\n$upscope $end\n$enddefinitions $end\n#0\n"
            "b00000000000000000000000000000000 !\n#10000\n"
            "b00000000000000000000000000000001 !\n#20000\n"
            "b00000000000000000000000000000010 !\n#30000\n"
            "b00000000000000000000000000000011 !\n#40000\n"
            "b00000000000000000000000000000100 !\n");
}

TEST(LinkBurst, ObserverSeesEveryWord) {
  Rig r;
  r.link.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  conformance::TraceDigest digest;
  r.sim.set_observer(&digest);
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(digest.records(), 67u);
  EXPECT_EQ(conformance::digest_str(digest.value()), "01f3eb57589c62cb");
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 xfers=16 now=160000 act=17 "
            "delta=17");
}

TEST(LinkBurst, LooseZeroPageAccruesLocalTime) {
  Rig r(kern::Time::zero(), kern::TimingMode::kLoose);
  r.link.bind_slave(*r.ram);
  EXPECT_EQ(r.burst(0x100), BusStatus::kOk);
  EXPECT_EQ(r.data, std::vector<bus::word>(16, 0));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=0/0/0/16/0/0/0 xfers=16 now=160000 act=2 "
            "delta=2");
}

/// One model, bursts over a private, a shared, a zero and a corrupt page
/// with a periodic timed process beside them: the link must give the same
/// counts, clock, data and stats whether its slave is the memory itself or
/// a plain forwarding slave.
std::string differential_run(bool pass_through) {
  constexpr usize kPage = mem::kPageWords;
  Rig r;
  r.ram.reset();
  r.ram = std::make_unique<mem::Memory>(r.top, "ram", 0, 4 * kPage);
  fault::FaultLedger ledger;
  r.ram->set_fault_ledger(&ledger);
  r.ram->load(0, pattern_words(0, 300));
  const mem::SharedImageRef image =
      mem::ImageRegistry::instance().intern(pattern_words(kPage, kPage));
  r.ram->attach_image(image, kPage);
  r.ram->attach_image(image, 3 * kPage);
  r.ram->backing().corrupt_stored(3 * kPage + 600, 0x100);
  PassThrough shim(*r.ram);
  if (pass_through) {
    r.link.bind_slave(shim);
  } else {
    r.link.bind_slave(*r.ram);
  }
  std::vector<bus::word> all;
  std::string statuses;
  r.top.spawn_thread("m", [&] {
    const bus::addr_t starts[] = {0,         250,           700,
                                  kPage - 8, 1500,          2 * kPage - 20,
                                  2 * kPage + 100, 3 * kPage - 10,
                                  3 * kPage + 500};
    for (bus::addr_t a : starts) {
      std::vector<bus::word> buf(40, kUnset);
      const BusStatus st = r.link.burst_read(a, buf, 0);
      statuses += strfmt("%d", static_cast<int>(st));
      all.insert(all.end(), buf.begin(), buf.end());
      kern::wait(3_ns);
    }
  });
  r.top.spawn_thread("tick", [&] {
    for (int i = 0; i < 20; ++i) kern::wait(170_ns);
  });
  r.sim.run();
  u64 sum = 0;
  for (bus::word w : all) sum = sum * 31 + static_cast<u32>(w);
  return strfmt("st=%s sum=%llu ledger=%s %s", statuses.c_str(),
                (unsigned long long)sum, records(ledger).c_str(),
                r.counters().c_str());
}

TEST(LinkBurst, PassThroughSlaveMatchesMemory) {
  const std::string direct = differential_run(false);
  EXPECT_EQ(direct, differential_run(true));
  EXPECT_EQ(direct,
            "st=000000022 sum=11485665656335019770 "
            "ledger=ecc_uncorrectable@2931000:3072:0 "
            "ecc_uncorrectable@2944000:3572:0  mem=290/0/2 "
            "store=2/1/2/70/2/0/0 xfers=292 now=3400000 act=323 delta=320");
}

}  // namespace
}  // namespace adriatic
