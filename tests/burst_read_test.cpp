// Pins what a bus burst read from paged memory delivers and costs: data,
// memory, store and bus counters, simulated time, activations and delta
// cycles, recorded for timed-mode bursts (and the loose-mode slave-call
// fallback) over every kind of page and slave a burst can meet. Any change
// to how a burst reaches its slave must keep every value here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bus/bus_lib.hpp"
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
  return static_cast<bus::word>(0x5A000000u + static_cast<u32>(a) * 3u);
}

std::vector<bus::word> pattern_words(usize from, usize n) {
  std::vector<bus::word> w(n);
  for (usize i = 0; i < n; ++i) w[i] = pattern(from + i);
  return w;
}

struct Rig {
  explicit Rig(kern::Time read_latency = kern::Time::zero(),
               bool loose = false) {
    if (loose) sim.set_timing_mode(kern::TimingMode::kLoose);
    ram = std::make_unique<mem::Memory>(top, "ram", 0, kWords, read_latency);
  }

  /// Runs one 16-word burst read at `add` from a thread process.
  BusStatus burst(bus::addr_t add) {
    data.assign(16, kUnset);
    BusStatus st{};
    top.spawn_thread("m", [&] { st = b.burst_read(add, data, 0); });
    sim.run();
    return st;
  }

  /// Every counter the burst can move, one line: mem=reads/writes/errors,
  /// store=materialized/cow_splits/attached/zero_page_reads/
  /// checksum_failures/golden_restores/revocations, bus=reads/writes/beats/
  /// bursts/unmapped/slave_errors/direct_calls/dmi_words/dmi_regrants.
  [[nodiscard]] std::string counters() const {
    const auto& m = ram->stats();
    const auto& p = ram->backing().stats();
    const auto& s = b.stats();
    return strfmt(
        "mem=%llu/%llu/%llu store=%llu/%llu/%llu/%llu/%llu/%llu/%llu "
        "bus=%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu busy=%llu "
        "wait=%llu now=%llu act=%llu delta=%llu",
        (unsigned long long)m.reads, (unsigned long long)m.writes,
        (unsigned long long)m.errors, (unsigned long long)p.pages_materialized,
        (unsigned long long)p.cow_splits, (unsigned long long)p.pages_attached,
        (unsigned long long)p.zero_page_reads,
        (unsigned long long)p.checksum_failures,
        (unsigned long long)p.golden_restores,
        (unsigned long long)p.revocations, (unsigned long long)s.reads,
        (unsigned long long)s.writes, (unsigned long long)s.beats,
        (unsigned long long)s.bursts, (unsigned long long)s.unmapped,
        (unsigned long long)s.slave_errors,
        (unsigned long long)s.direct_calls, (unsigned long long)s.dmi_words,
        (unsigned long long)s.dmi_regrants,
        (unsigned long long)s.busy_time.picoseconds(),
        (unsigned long long)s.wait_time.picoseconds(),
        (unsigned long long)sim.now().picoseconds(),
        (unsigned long long)sim.activations(),
        (unsigned long long)sim.delta_count());
  }

  kern::Simulation sim;
  kern::Module top{sim, "top"};
  bus::Bus b{top, "bus"};
  std::unique_ptr<mem::Memory> ram;
  std::vector<bus::word> data;
};

/// Every ledger record as kind@time_ps:addr:arg, site omitted.
std::string records(const fault::FaultLedger& ledger) {
  std::string out;
  for (const fault::FaultRecord& r : ledger.records())
    out += strfmt("%s@%llu:%llu:%llu ", fault::to_string(r.kind),
                  (unsigned long long)r.time_ps, (unsigned long long)r.addr,
                  (unsigned long long)r.arg);
  return out;
}

std::vector<bus::word> expect_words(usize from, usize delivered) {
  std::vector<bus::word> w = pattern_words(from, delivered);
  w.resize(16, kUnset);
  return w;
}

TEST(BurstRead, CrossesPageBoundary) {
  Rig r;
  r.b.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 bus=1/0/16/1/0/0/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, ZeroPage) {
  Rig r;
  r.b.bind_slave(*r.ram);
  EXPECT_EQ(r.burst(0x100), BusStatus::kOk);
  EXPECT_EQ(r.data, std::vector<bus::word>(16, 0));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=0/0/0/16/0/0/0 bus=1/0/16/1/0/0/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, SharedImagePageAfterZeroPage) {
  Rig r;
  r.b.bind_slave(*r.ram);
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
            "mem=16/0/0 store=0/0/1/8/0/0/0 bus=1/0/16/1/0/0/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, CorruptPageFailsMidBurst) {
  Rig r;
  r.b.bind_slave(*r.ram);
  fault::FaultLedger ledger;
  r.ram->set_fault_ledger(&ledger);
  r.ram->load(0, pattern_words(0, mem::kPageWords));
  r.ram->attach_image(mem::ImageRegistry::instance().intern(
                          pattern_words(mem::kPageWords, mem::kPageWords)),
                      mem::kPageWords);
  r.ram->backing().corrupt_stored(mem::kPageWords + 2, 0x4);
  EXPECT_EQ(r.burst(kCross), BusStatus::kSlaveError);
  EXPECT_EQ(r.data, expect_words(kCross, 8));
  ASSERT_EQ(ledger.records().size(), 1u);
  const fault::FaultRecord& rec = ledger.records()[0];
  EXPECT_EQ(rec.kind, fault::FaultEventKind::kEccUncorrectable);
  EXPECT_EQ(rec.time_ps, 170000u);
  EXPECT_EQ(rec.site, kern::sched_name_hash("top.ram"));
  EXPECT_EQ(rec.addr, mem::kPageWords);
  EXPECT_EQ(rec.arg, 0u);
  EXPECT_EQ(r.counters(),
            "mem=8/0/1 store=2/1/1/0/1/0/0 bus=1/0/16/1/0/1/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, ReadLatencyWaitsPerWord) {
  Rig r(5_ns);
  r.b.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 bus=1/0/16/1/0/0/0/0/0 "
            "busy=170000 wait=0 now=250000 act=18 delta=18");
}

TEST(BurstRead, EccArmed) {
  Rig r;
  r.b.bind_slave(*r.ram);
  fault::FaultLedger ledger;
  r.ram->set_fault_ledger(&ledger);
  r.ram->load(0, pattern_words(0, kWords));
  mem::EccConfig ec;
  fault::FaultRule single;  // corrected upsets on about half the words
  single.rate = 0.5;
  single.kind = fault::FaultKind::kCorrupt;
  ec.upsets.rules.push_back(single);
  fault::ScriptedFault shot;  // one double-bit upset, fifth word
  shot.kind = fault::FaultKind::kCorrupt;
  shot.corrupt_bits = 2;
  shot.window_low = shot.window_high = kCross + 4;
  ec.upsets.scripted.push_back(shot);
  r.ram->set_ecc(std::move(ec));
  EXPECT_EQ(r.burst(kCross), BusStatus::kSlaveError);
  std::vector<bus::word> want = expect_words(kCross, 4);
  want[4] = static_cast<bus::word>(0x5A048BF4);  // the uncorrectable word
  EXPECT_EQ(r.data, want);
  const mem::EccStats& es = r.ram->ecc()->stats();
  EXPECT_EQ(strfmt("%llu/%llu/%llu/%llu/%llu", (unsigned long long)es.upsets,
                   (unsigned long long)es.corrected,
                   (unsigned long long)es.uncorrectable,
                   (unsigned long long)es.detected_reads,
                   (unsigned long long)es.repairs),
            "4/3/1/0/0");
  EXPECT_EQ(records(ledger), "ecc_uncorrectable@170000:1020:2 ");
  EXPECT_EQ(r.counters(),
            "mem=4/0/1 store=2/0/0/0/0/0/0 bus=1/0/16/1/0/1/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, FaultInterposedMemory) {
  Rig r;
  r.ram->load(0, pattern_words(0, kWords));
  fault::FaultPlan plan;
  fault::ScriptedFault flip;
  flip.kind = fault::FaultKind::kCorrupt;
  flip.window_low = flip.window_high = kCross + 2;
  plan.scripted.push_back(flip);
  fault::ScriptedFault fail;
  fail.kind = fault::FaultKind::kError;
  fail.window_low = fail.window_high = kCross + 10;
  plan.scripted.push_back(fail);
  fault::SlaveFaultInterposer shim(r.top, "shim", *r.ram, plan);
  r.b.bind_slave(shim);
  EXPECT_EQ(r.burst(kCross), BusStatus::kSlaveError);
  std::vector<bus::word> want = expect_words(kCross, 10);
  want[2] = static_cast<bus::word>(0x5A100BEE);  // the injected flip
  EXPECT_EQ(r.data, want);
  EXPECT_EQ(records(shim.ledger()),
            "injected_corrupt@170000:1018:1 injected_error@170000:1026:0 ");
  EXPECT_EQ(r.counters(),
            "mem=10/0/0 store=2/0/0/0/0/0/0 bus=1/0/16/1/0/1/0/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, LooseWithoutDmiCallsSlave) {
  Rig r(kern::Time::zero(), /*loose=*/true);
  r.b.bind_slave(*r.ram);
  r.ram->load(0, pattern_words(0, kWords));
  r.ram->set_dmi_enabled(false);
  EXPECT_EQ(r.burst(kCross), BusStatus::kOk);
  EXPECT_EQ(r.data, pattern_words(kCross, 16));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=2/0/0/0/0/0/0 bus=1/0/16/1/0/0/1/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

TEST(BurstRead, LooseZeroPageDeclinesDmi) {
  Rig r(kern::Time::zero(), /*loose=*/true);
  r.b.bind_slave(*r.ram);
  EXPECT_EQ(r.burst(0x100), BusStatus::kOk);
  EXPECT_EQ(r.data, std::vector<bus::word>(16, 0));
  EXPECT_EQ(r.counters(),
            "mem=16/0/0 store=0/0/0/16/0/0/0 bus=1/0/16/1/0/0/1/0/0 "
            "busy=170000 wait=0 now=170000 act=2 delta=2");
}

}  // namespace
}  // namespace adriatic
