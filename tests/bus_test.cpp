// Bus and memory substrate tests.
#include <gtest/gtest.h>

#include <vector>

#include "bus/bus_lib.hpp"
#include "conformance/digest.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using bus::BusStatus;

struct Fixture {
  kern::Simulation sim;
  kern::Module top{sim, "top"};
};

TEST(Memory, ReadWriteRoundTrip) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0x100, 64);
  bool ok = true;
  f.top.spawn_thread("t", [&] {
    bus::word w = 42;
    ok &= m.write(0x100, &w);
    w = 43;
    ok &= m.write(0x13F, &w);
    bus::word r = 0;
    ok &= m.read(0x100, &r);
    EXPECT_EQ(r, 42);
    ok &= m.read(0x13F, &r);
    EXPECT_EQ(r, 43);
  });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(m.stats().reads, 2u);
  EXPECT_EQ(m.stats().writes, 2u);
}

TEST(Memory, OutOfRangeFails) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0x100, 64);
  f.top.spawn_thread("t", [&] {
    bus::word w = 1;
    EXPECT_FALSE(m.write(0x0FF, &w));
    EXPECT_FALSE(m.read(0x140, &w));
    EXPECT_FALSE(m.read(0x100, nullptr));
  });
  f.sim.run();
  EXPECT_EQ(m.stats().errors, 3u);
}

TEST(Memory, LatencyConsumesTime) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0, 16, 5_ns, 3_ns);
  f.top.spawn_thread("t", [&] {
    bus::word w = 7;
    m.write(0, &w);
    EXPECT_EQ(f.sim.now(), 3_ns);
    m.read(0, &w);
    EXPECT_EQ(f.sim.now(), 8_ns);
  });
  f.sim.run();
}

TEST(Memory, BackdoorAccessors) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0x10, 4);
  const bus::word init[] = {1, 2, 3};
  m.load(0x10, init);
  EXPECT_EQ(m.peek(0x11), 2);
  m.poke(0x13, 9);
  EXPECT_EQ(m.peek(0x13), 9);
  EXPECT_THROW(m.peek(0x14), std::out_of_range);
  EXPECT_THROW(m.load(0x12, std::vector<bus::word>(5)), std::out_of_range);
  EXPECT_THROW((mem::Memory{f.top, "bad", 0, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(BusTest, DecodeAndTransfer) {
  Fixture f;
  bus::Bus b(f.top, "bus");
  mem::Memory m1(f.top, "m1", 0x000, 16);
  mem::Memory m2(f.top, "m2", 0x100, 16);
  b.bind_slave(m1);
  b.bind_slave(m2);
  f.top.spawn_thread("t", [&] {
    bus::word w = 5;
    EXPECT_EQ(b.write(0x001, &w), BusStatus::kOk);
    w = 6;
    EXPECT_EQ(b.write(0x101, &w), BusStatus::kOk);
    bus::word r = 0;
    EXPECT_EQ(b.read(0x001, &r), BusStatus::kOk);
    EXPECT_EQ(r, 5);
    EXPECT_EQ(b.read(0x101, &r), BusStatus::kOk);
    EXPECT_EQ(r, 6);
    EXPECT_EQ(b.read(0x500, &r), BusStatus::kUnmapped);
  });
  f.sim.run();
  EXPECT_EQ(b.stats().reads, 2u);
  EXPECT_EQ(b.stats().writes, 2u);
  EXPECT_EQ(b.stats().unmapped, 1u);
}

TEST(BusTest, OverlappingSlavesRejectedAtElaboration) {
  Fixture f;
  bus::Bus b(f.top, "bus");
  mem::Memory m1(f.top, "m1", 0x000, 32);
  mem::Memory m2(f.top, "m2", 0x010, 32);  // overlaps m1
  b.bind_slave(m1);
  b.bind_slave(m2);
  EXPECT_THROW(f.sim.elaborate(), std::logic_error);
}

TEST(BusTest, TransferTiming) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  cfg.address_cycles = 1;
  cfg.data_cycles = 1;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    bus::word w = 1;
    b.write(0, &w);
    // 1 address cycle + 1 data beat = 2 cycles = 20 ns.
    EXPECT_EQ(f.sim.now(), 20_ns);
  });
  f.sim.run();
}

TEST(BusTest, NarrowBusNeedsMoreBeats) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  cfg.data_width_bits = 8;  // 4 beats per 32-bit word
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    bus::word w = 1;
    b.write(0, &w);
    EXPECT_EQ(f.sim.now(), 50_ns);  // 1 addr + 4 beats
  });
  f.sim.run();
  EXPECT_EQ(b.stats().beats, 4u);
}

TEST(BusTest, BurstChunksByMaxBurst) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.max_burst = 4;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    std::vector<bus::word> out(10, 7);
    EXPECT_EQ(b.burst_write(0, out, 0), BusStatus::kOk);
    std::vector<bus::word> in(10, 0);
    EXPECT_EQ(b.burst_read(0, in, 0), BusStatus::kOk);
    for (auto v : in) EXPECT_EQ(v, 7);
  });
  f.sim.run();
  // 10 words in chunks of 4+4+2, read and write: 6 bursts... chunks of size
  // >1 count as bursts: 3 per direction.
  EXPECT_EQ(b.stats().bursts, 6u);
  EXPECT_EQ(b.stats().beats, 20u);
}

TEST(BusTest, BurstBeyondSlaveRangeUnmapped) {
  Fixture f;
  bus::Bus b(f.top, "bus");
  mem::Memory m(f.top, "m", 0, 8);
  b.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    std::vector<bus::word> data(16, 0);
    EXPECT_EQ(b.burst_read(4, data, 0), BusStatus::kUnmapped);
  });
  f.sim.run();
}

// Burst semantics at slave boundaries, table-driven: a burst chunk that
// would cross a slave's get_high_add() moves only the mapped prefix, and
// the burst loop re-decodes the remainder — landing in the adjacent slave
// (fresh address phase, kOk) or in unmapped space (prefix moved, then
// kUnmapped). The timed arbitrated path and the loose direct-call path
// must agree on BusStatus and beat counts for every shape.
TEST(BusTest, BurstAcrossSlaveBoundaries) {
  struct Shape {
    const char* name;
    bus::addr_t start;
    usize len;
    BusStatus expect;
    u64 expect_beats;  ///< Words actually moved (32-bit bus: 1 beat/word).
  };
  // Address map: m1 = 0x00..0x0F, m2 = 0x10..0x1F, unmapped from 0x20.
  const Shape shapes[] = {
      {"within_one_slave", 0x00, 8, BusStatus::kOk, 8},
      {"up_to_boundary", 0x08, 8, BusStatus::kOk, 8},
      {"cross_into_adjacent", 0x0C, 8, BusStatus::kOk, 8},
      {"cross_at_last_word", 0x0F, 2, BusStatus::kOk, 2},
      {"cross_into_unmapped", 0x1C, 8, BusStatus::kUnmapped, 4},
      {"start_unmapped", 0x20, 4, BusStatus::kUnmapped, 0},
  };
  for (const bool loose : {false, true}) {
    for (const auto& sh : shapes) {
      SCOPED_TRACE(std::string(sh.name) + (loose ? " loose" : " timed"));
      Fixture f;
      if (loose) f.sim.set_timing_mode(kern::TimingMode::kLoose);
      bus::Bus b(f.top, "bus");
      mem::Memory m1(f.top, "m1", 0x00, 16);
      mem::Memory m2(f.top, "m2", 0x10, 16);
      b.bind_slave(m1);
      b.bind_slave(m2);
      BusStatus wr{}, rd{};
      std::vector<bus::word> back(sh.len, 0);
      f.top.spawn_thread("t", [&] {
        std::vector<bus::word> data(sh.len);
        for (usize i = 0; i < sh.len; ++i)
          data[i] = static_cast<bus::word>(0xA0 + i);
        wr = b.burst_write(sh.start, data, 0);
        rd = b.burst_read(sh.start, back, 0);
      });
      f.sim.run();
      EXPECT_EQ(wr, sh.expect);
      EXPECT_EQ(rd, sh.expect);
      // Both directions moved the same number of beats.
      EXPECT_EQ(b.stats().beats, 2 * sh.expect_beats);
      if (sh.expect == BusStatus::kOk) {
        // The full payload landed, split across the two slaves' ranges.
        for (usize i = 0; i < sh.len; ++i) {
          const auto a = sh.start + static_cast<bus::addr_t>(i);
          const auto& owner = a <= 0x0F ? m1 : m2;
          EXPECT_EQ(owner.peek(a), 0xA0 + i) << "address " << a;
          EXPECT_EQ(back[i], 0xA0 + i) << "address " << a;
        }
      } else if (sh.expect_beats > 0) {
        // The mapped prefix was written before the unmapped decode failed.
        for (u64 i = 0; i < sh.expect_beats; ++i)
          EXPECT_EQ(m2.peek(sh.start + static_cast<bus::addr_t>(i)),
                    0xA0 + i);
      }
      // An unmapped start never reaches either path (decode fails first),
      // so only shapes that moved data prove the direct path engaged.
      if (!loose) {
        EXPECT_EQ(b.stats().direct_calls, 0u);
      } else if (sh.expect_beats > 0) {
        EXPECT_GT(b.stats().direct_calls, 0u);
      }
    }
  }
}

TEST(BusTest, LooseDirectPathMatchesTimedResults) {
  // The same single-master traffic, timed vs loose: identical data and
  // identical per-transfer occupancy (charged to the local offset instead
  // of the timed queue), so the end-to-end simulated time matches too.
  u64 timed_ps = 0, loose_ps = 0;
  std::vector<bus::word> timed_data, loose_data;
  for (const bool loose : {false, true}) {
    Fixture f;
    if (loose) f.sim.set_timing_mode(kern::TimingMode::kLoose);
    bus::Bus b(f.top, "bus");
    mem::Memory m(f.top, "ram", 0x100, 64);
    b.bind_slave(m);
    std::vector<bus::word>& out = loose ? loose_data : timed_data;
    f.top.spawn_thread("t", [&] {
      std::vector<bus::word> data(40);
      for (usize i = 0; i < data.size(); ++i)
        data[i] = static_cast<bus::word>(7 * i + 3);
      EXPECT_EQ(b.burst_write(0x110, data, 0), BusStatus::kOk);
      out.resize(data.size());
      EXPECT_EQ(b.burst_read(0x110, out, 0), BusStatus::kOk);
      bus::word w = 0;
      EXPECT_EQ(b.read(0x110, &w, 0), BusStatus::kOk);
      EXPECT_EQ(w, 3u);
    });
    f.sim.run();
    (loose ? loose_ps : timed_ps) = f.sim.now().picoseconds();
    if (loose) {
      EXPECT_GT(b.stats().direct_calls, 0u);
      EXPECT_GT(b.stats().dmi_words, 0u);  // Memory grants DMI
    }
  }
  EXPECT_EQ(loose_data, timed_data);
  EXPECT_EQ(loose_ps, timed_ps);
}

TEST(BusTest, PriorityArbitration) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  cfg.arbitration = bus::ArbPolicy::kPriority;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  std::vector<int> completion_order;
  // Master 0 grabs the bus; masters 1 (low prio) and 2 (high prio) contend.
  f.top.spawn_thread("m0", [&] {
    std::vector<bus::word> d(8, 0);
    b.burst_read(0, d, 0);
    completion_order.push_back(0);
  });
  f.top.spawn_thread("m1", [&] {
    kern::wait(1_ns);  // arrive while m0 holds the bus
    bus::word w = 0;
    b.read(0, &w, /*priority=*/1);
    completion_order.push_back(1);
  });
  f.top.spawn_thread("m2", [&] {
    kern::wait(2_ns);  // arrives after m1 but with higher priority
    bus::word w = 0;
    b.read(0, &w, /*priority=*/5);
    completion_order.push_back(2);
  });
  f.sim.run();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 0);
  EXPECT_EQ(completion_order[1], 2);  // high priority jumps the queue
  EXPECT_EQ(completion_order[2], 1);
  EXPECT_EQ(b.arbiter().contended_grants(), 2u);
  EXPECT_GT(b.stats().wait_time.picoseconds(), 0u);
}

TEST(BusTest, FifoArbitrationPreservesArrival) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.arbitration = bus::ArbPolicy::kFifo;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  std::vector<int> order;
  f.top.spawn_thread("m0", [&] {
    std::vector<bus::word> d(8, 0);
    b.burst_read(0, d, 0);
    order.push_back(0);
  });
  for (int i = 1; i <= 3; ++i) {
    f.top.spawn_thread("m" + std::to_string(i), [&, i] {
      kern::wait(kern::Time::ns(static_cast<u64>(i)));
      bus::word w = 0;
      b.read(0, &w, /*priority=*/static_cast<u32>(10 - i));
      order.push_back(i);
    });
  }
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BusTest, UtilizationTracksBusyFraction) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    bus::word w = 1;
    b.write(0, &w);       // busy 20ns
    kern::wait(80_ns);    // idle
  });
  f.sim.run();
  EXPECT_NEAR(b.utilization(), 0.2, 1e-9);
}

TEST(BusTest, SlaveErrorPropagates) {
  // A one-word slave that refuses every write.
  struct ReadOnly : bus::BusSlaveIf {
    bus::addr_t get_low_add() const override { return 0; }
    bus::addr_t get_high_add() const override { return 0; }
    bool read(bus::addr_t, bus::word* data) override {
      *data = 1;
      return true;
    }
    bool write(bus::addr_t, bus::word*) override { return false; }
  };
  Fixture f;
  bus::Bus b(f.top, "bus");
  ReadOnly slave;
  b.bind_slave(slave);
  f.top.spawn_thread("t", [&] {
    bus::word w = 9;
    EXPECT_EQ(b.write(0, &w), BusStatus::kSlaveError);
  });
  f.sim.run();
  EXPECT_EQ(b.stats().slave_errors, 1u);
}

// ---------------------------------------------------------------------------

TEST(DirectLinkTest, TransfersWithoutContention) {
  Fixture f;
  bus::DirectLink link(f.top, "link", 5_ns);
  mem::Memory m(f.top, "cfg_mem", 0x1000, 32);
  link.bind_slave(m);
  f.top.spawn_thread("t", [&] {
    std::vector<bus::word> data{1, 2, 3, 4};
    EXPECT_EQ(link.burst_write(0x1000, data, 0), BusStatus::kOk);
    std::vector<bus::word> in(4, 0);
    EXPECT_EQ(link.burst_read(0x1000, in, 0), BusStatus::kOk);
    EXPECT_EQ(in[3], 4);
    bus::word w = 0;
    EXPECT_EQ(link.read(0x2000, &w, 0), BusStatus::kUnmapped);
  });
  f.sim.run();
  EXPECT_EQ(link.transfers(), 8u);
}

/// Forwards to a slave and keeps every BusSlaveIf default, so a link reads
/// through it word by word.
class PassThroughSlave final : public bus::BusSlaveIf {
 public:
  explicit PassThroughSlave(bus::BusSlaveIf& inner) : inner_(inner) {}
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

// A memory with read latency waits inside each word's read, between the
// link's word times: a burst over it must keep that interleaving in the
// scheduler trace, not wait for every link word first.
TEST(DirectLinkTest, SlowMemoryBurstKeepsPerWordSchedule) {
  const auto digest = [](bool pass_through) {
    Fixture f;
    bus::DirectLink link(f.top, "link", 10_ns);
    mem::Memory m(f.top, "cfg_mem", 0, 64, 5_ns);
    PassThroughSlave shim(m);
    if (pass_through) {
      link.bind_slave(shim);
    } else {
      link.bind_slave(m);
    }
    conformance::TraceDigest d;
    f.sim.set_observer(&d);
    f.top.spawn_thread("t", [&] {
      std::vector<bus::word> in(8, 0);
      EXPECT_EQ(link.burst_read(0, in, 0), BusStatus::kOk);
    });
    f.sim.run();
    EXPECT_EQ(f.sim.now(), 120_ns);
    return d.value();
  };
  EXPECT_EQ(digest(false), digest(true));
}

// A batched burst is progress for a non-daemon caller: its next wait must
// measure the watchdog's quiet time from the burst's end.
TEST(DirectLinkTest, BatchedBurstCountsAsProgress) {
  Fixture f;
  bus::DirectLink link(f.top, "link", 10_ns);
  mem::Memory m(f.top, "cfg_mem", 0, 64);
  link.bind_slave(m);
  f.sim.set_max_quiet_time(15_ns);
  f.top.spawn_thread("t", [&] {
    std::vector<bus::word> in(16, 0);
    EXPECT_EQ(link.burst_read(0, in, 0), BusStatus::kOk);
    kern::wait(10_ns);
  });
  EXPECT_EQ(f.sim.run(), kern::StopReason::kNoActivity);
  EXPECT_EQ(f.sim.now(), 170_ns);
  EXPECT_FALSE(f.sim.deadlock_report().has_value());
}

TEST(BridgeTest, ForwardsAcrossBuses) {
  Fixture f;
  bus::Bus sys(f.top, "sys_bus");
  bus::Bus periph(f.top, "periph_bus");
  // Peripheral memory lives at 0x0 downstream, exposed at 0x8000 upstream.
  mem::Memory pm(f.top, "pmem", 0x0, 64);
  periph.bind_slave(pm);
  bus::Bridge bridge(f.top, "bridge", 0x8000, 0x803F, -0x8000);
  bridge.mst_port.bind(periph);
  sys.bind_slave(bridge);
  f.top.spawn_thread("t", [&] {
    bus::word w = 77;
    EXPECT_EQ(sys.write(0x8005, &w), BusStatus::kOk);
    bus::word r = 0;
    EXPECT_EQ(sys.read(0x8005, &r), BusStatus::kOk);
    EXPECT_EQ(r, 77);
  });
  f.sim.run();
  EXPECT_EQ(pm.peek(0x5), 77);
  EXPECT_EQ(bridge.forwarded(), 2u);
  EXPECT_EQ(periph.stats().reads, 1u);
}

const bus::MasterGrantStats* find_master(
    const std::vector<bus::MasterGrantStats>& stats,
    const std::string& name) {
  for (const auto& m : stats)
    if (m.master == name) return &m;
  return nullptr;
}

TEST(BusTest, ArbiterTracksPerMasterGrants) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("m0", [&] {
    bus::word w = 0;
    b.read(0, &w);
    kern::wait(500_ns);  // idle gap between this master's grants
    b.read(0, &w);
  });
  f.top.spawn_thread("m1", [&] {
    kern::wait(1_ns);  // contends with m0's first transfer
    bus::word w = 0;
    b.read(0, &w);
  });
  f.sim.run();
  const auto stats = b.arbiter().master_stats();
  ASSERT_EQ(stats.size(), 2u);
  // Sorted by name for deterministic reports.
  EXPECT_EQ(stats[0].master, "top.m0");
  EXPECT_EQ(stats[1].master, "top.m1");
  const auto* m0 = find_master(stats, "top.m0");
  const auto* m1 = find_master(stats, "top.m1");
  EXPECT_EQ(m0->grants, 2u);
  EXPECT_GE(m0->max_grant_gap, kern::Time::ns(500));
  EXPECT_EQ(m0->master_id, kern::sched_name_hash("top.m0"));
  EXPECT_EQ(m1->grants, 1u);
  EXPECT_GT(m1->max_wait.picoseconds(), 0u);  // waited behind m0
  EXPECT_EQ(m1->total_wait, m1->max_wait);
}

TEST(BusTest, StarvationThresholdFlagsLongWaits) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  cfg.starvation_threshold = 50_ns;  // flag any arbitration wait > 50 ns
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("hog", [&] {
    std::vector<bus::word> d(8, 0);  // 8 beats x 10 ns holds the bus ~80 ns
    b.burst_read(0, d, 0);
  });
  f.top.spawn_thread("victim", [&] {
    kern::wait(1_ns);
    bus::word w = 0;
    b.read(0, &w);  // waits out the hog's whole burst
  });
  f.sim.run();
  EXPECT_EQ(b.arbiter().starvation_threshold(), 50_ns);
  const auto starved = b.arbiter().starved_masters();
  ASSERT_EQ(starved.size(), 1u);
  EXPECT_EQ(starved[0].master, "top.victim");
  EXPECT_EQ(starved[0].starved_grants, 1u);
  EXPECT_GT(starved[0].max_wait, kern::Time::ns(50));
}

TEST(BusTest, StarvationDisabledByDefault) {
  Fixture f;
  bus::BusConfig cfg;
  cfg.cycle_time = 10_ns;
  bus::Bus b(f.top, "bus", cfg);
  mem::Memory m(f.top, "m", 0, 64);
  b.bind_slave(m);
  f.top.spawn_thread("hog", [&] {
    std::vector<bus::word> d(8, 0);
    b.burst_read(0, d, 0);
  });
  f.top.spawn_thread("victim", [&] {
    kern::wait(1_ns);
    bus::word w = 0;
    b.read(0, &w);
  });
  f.sim.run();
  // Accounting still runs; flagging does not.
  EXPECT_TRUE(b.arbiter().starved_masters().empty());
  EXPECT_EQ(b.arbiter().master_stats().size(), 2u);
}

TEST(BusTest, DmiRevokedOnCowSplitAndRegranted) {
  // Loose-mode fast path against a COW-shared page: the first grant is
  // read-only (writing through it would bypass the split), the write goes
  // through the slave path and splits the page — revoking the cached
  // pointer — and the re-request gets a writable grant into the private
  // copy. Data stays coherent throughout.
  Fixture f;
  f.sim.set_timing_mode(kern::TimingMode::kLoose);
  bus::Bus b(f.top, "bus");
  mem::Memory m(f.top, "ram", 0, mem::kPageWords);
  b.bind_slave(m);
  std::vector<bus::word> image(mem::kPageWords);
  for (usize i = 0; i < image.size(); ++i)
    image[i] = static_cast<bus::word>(0xD3110000u + i);
  m.attach_image(mem::ImageRegistry::instance().intern(image), 0);
  ASSERT_TRUE(m.backing().page_shared(0));
  f.top.spawn_thread("t", [&] {
    std::vector<bus::word> r(16, 0);
    // Reads against the shared page run through a read-only DMI grant.
    EXPECT_EQ(b.burst_read(0x10, r, 0), BusStatus::kOk);
    EXPECT_EQ(r[0], image[0x10]);
    // The write COW-splits the page; the RO pointer is revoked mid-flight.
    std::vector<bus::word> w(4, 0xBEEF);
    EXPECT_EQ(b.burst_write(0x10, w, 0), BusStatus::kOk);
    // Back to reads: the bus re-requests and gets a writable grant into the
    // now-private page, observing the new data.
    EXPECT_EQ(b.burst_read(0x10, r, 0), BusStatus::kOk);
    EXPECT_EQ(r[0], 0xBEEF);
    EXPECT_EQ(r[4], image[0x14]);  // untouched words kept the image values
  });
  f.sim.run();
  EXPECT_FALSE(m.backing().page_shared(0));
  EXPECT_EQ(m.backing().stats().cow_splits, 1u);
  EXPECT_GE(m.backing().stats().revocations, 1u);
  EXPECT_GT(b.stats().dmi_words, 0u);
}

TEST(BusTest, DmiPageMissRegrantsInsteadOfFallingBack) {
  // Page-granular DMI: a burst that leaves the granted page behind must
  // replace the cached region with the next page's grant, not silently
  // fall back to per-word slave calls.
  Fixture f;
  f.sim.set_timing_mode(kern::TimingMode::kLoose);
  bus::Bus b(f.top, "bus");
  mem::Memory m(f.top, "ram", 0, 2 * mem::kPageWords);
  b.bind_slave(m);
  // Materialize both pages privately so every grant is writable.
  m.poke(0, 1);
  m.poke(mem::kPageWords, 2);
  f.top.spawn_thread("t", [&] {
    bus::word w = 0;
    EXPECT_EQ(b.read(0, &w, 0), BusStatus::kOk);  // grant for page 0
    EXPECT_EQ(w, 1u);
    EXPECT_EQ(b.read(mem::kPageWords, &w, 0), BusStatus::kOk);  // page miss
    EXPECT_EQ(w, 2u);
  });
  f.sim.run();
  EXPECT_EQ(b.stats().dmi_regrants, 1u);
  EXPECT_EQ(b.stats().dmi_words, 2u);  // both reads used a direct pointer
}

}  // namespace
}  // namespace adriatic
