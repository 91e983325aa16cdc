// E9 — methodology cost: the paper's pitch is "quick design space
// exploration", so the models must simulate fast. Google-benchmark
// microbenchmarks of the kernel primitives and of the DRCF wrapper's
// overhead versus a raw accelerator model.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_lib.hpp"
#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "conformance/digest.hpp"
#include "memory/memory.hpp"

using namespace adriatic;
using namespace adriatic::kern::literals;

namespace {

// -- Kernel primitives ---------------------------------------------------------

// The bottom layer: one resume() + yield() round trip on a raw fiber, i.e.
// two context switches and nothing else.
void BM_FiberSwitch(benchmark::State& state) {
  kern::Fiber f([] {
    for (;;) kern::Fiber::yield();
  });
  for (auto _ : state) f.resume();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel("layer=fiber");
}
BENCHMARK(BM_FiberSwitch);

void BM_EventNotifyWait(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Event ping(sim, "ping"), pong(sim, "pong");
  u64 round_trips = 0;
  top.spawn_thread("a", [&] {
    for (;;) {
      ping.notify_delta();
      kern::wait(pong);
    }
  });
  top.spawn_thread("b", [&] {
    for (;;) {
      kern::wait(ping);
      ++round_trips;
      // The ping-pong lives entirely in delta cycles (time never advances);
      // punch out of run() every 1000 round trips.
      if (round_trips % 1000 == 0) sim.stop();
      pong.notify_delta();
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run();
  state.SetItemsProcessed(static_cast<i64>(round_trips));
  state.SetLabel("layer=kernel");
}
BENCHMARK(BM_EventNotifyWait);

// A lone timed waiter: nothing else is ever due before its wake, so every
// wait but the one that crosses the run() boundary resumes in place
// (docs/kernel.md, Performance).
void BM_TimedEvents(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  u64 wakes = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      kern::wait(1_ns);
      ++wakes;
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(1));  // 1000 timed wakeups
  state.SetItemsProcessed(static_cast<i64>(wakes));
  state.SetLabel("layer=kernel");
}
BENCHMARK(BM_TimedEvents);

// Two timed waiters with co-prime periods (1000 ps and 1001 ps): the other
// thread's wake is always due first, so every wait takes the scheduler
// round trip, except at the same-instant ties once per 1001 ns. It times
// the round trip plus the in-place check that fails on it; compare it with
// the same benchmark on a kernel without that check.
void BM_TimedEventsContended(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  u64 wakes = 0;
  for (const u64 period_ps : {1000u, 1001u}) {
    top.spawn_thread("t" + std::to_string(period_ps), [&, period_ps] {
      for (;;) {
        kern::wait(kern::Time::ps(period_ps));
        ++wakes;
      }
    });
  }
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(1));  // ~2000 timed wakeups
  state.SetItemsProcessed(static_cast<i64>(wakes));
  state.SetLabel("layer=kernel");
}
BENCHMARK(BM_TimedEventsContended);

// Cost of the scheduler-trace hook (docs/conformance.md): Arg(0) runs with no
// observer — the claimed one-predicted-branch-per-record configuration every
// simulation pays — and Arg(1) with a TraceDigest folding every record, the
// price of leaving conformance tracing on during a full run.
void BM_SchedTraceDigest(benchmark::State& state) {
  kern::Simulation sim;
  conformance::TraceDigest digest;
  if (state.range(0) != 0) sim.set_observer(&digest);
  kern::Module top(sim, "top");
  kern::Event ping(sim, "ping"), pong(sim, "pong");
  u64 wakes = 0;
  top.spawn_thread("a", [&] {
    for (;;) {
      ping.notify_delta();
      kern::wait(pong);
      kern::wait(1_ns);
    }
  });
  top.spawn_thread("b", [&] {
    for (;;) {
      kern::wait(ping);
      ++wakes;
      pong.notify_delta();
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(1));
  state.SetItemsProcessed(static_cast<i64>(wakes));
  if (state.range(0) != 0)
    state.counters["records"] = static_cast<double>(digest.records());
  state.SetLabel("layer=kernel");
}
BENCHMARK(BM_SchedTraceDigest)->Arg(0)->Arg(1);

// Periodic cancel/renotify (clocks, DRCF prefetch timers): every loop leaves
// one stale entry in the timed queue, so this measures the stale-entry
// compaction path keeping the heap bounded instead of growing without limit.
void BM_TimedQueueCompaction(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Event deadline(sim, "deadline"), tick(sim, "tick");
  u64 wakes = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      deadline.notify(kern::Time::us(100));  // armed, then always superseded
      tick.notify(1_ns);
      kern::wait(tick);
      deadline.cancel();  // stale entry left behind in the timed queue
      ++wakes;
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(1));
  state.SetItemsProcessed(static_cast<i64>(wakes));
  state.counters["timed_queue"] =
      static_cast<double>(sim.timed_queue_size());
  state.SetLabel("layer=kernel");
}
BENCHMARK(BM_TimedQueueCompaction);

// Campaign-parallel throughput: N identical self-contained simulations
// dispatched across a worker pool — jobs/sec as a function of thread count.
void BM_CampaignThroughput(benchmark::State& state) {
  const auto threads = static_cast<usize>(state.range(0));
  constexpr int kJobs = 16;
  for (auto _ : state) {
    campaign::CampaignRunner runner(threads);
    std::vector<std::future<u64>> futures;
    futures.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      futures.push_back(runner.submit("job" + std::to_string(j), [] {
        kern::Simulation sim;
        kern::Module top(sim, "top");
        u64 wakes = 0;
        top.spawn_thread("t", [&] {
          for (;;) {
            kern::wait(1_ns);
            ++wakes;
          }
        });
        sim.run(kern::Time::us(50));
        return wakes;
      }));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kJobs);
  state.SetLabel("layer=campaign");
}
BENCHMARK(BM_CampaignThroughput)->Arg(1)->Arg(2)->Arg(4);

// Campaign journal commit: each thread appends D records (the write-ahead
// point of every finished job) to one journal in the temp directory. A
// record returns once an fsync covers it; concurrent threads share fsyncs
// by group commit, so records/s grows with the thread count while one
// thread pays one fsync per record. Wall time, since the cost is the disk.
std::unique_ptr<campaign::CampaignJournal> g_bench_journal;

void BM_JournalCommit(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("adriatic_bm_journal_" + std::to_string(::getpid()) + ".wal"))
          .string();
  // Thread 0 sets up before, and tears down after, the start/stop
  // barriers every thread passes at the loop boundaries.
  if (state.thread_index() == 0)
    g_bench_journal = campaign::CampaignJournal::create(path, "bench");
  campaign::JobStats stats;
  stats.index = static_cast<usize>(state.thread_index());
  stats.label = "point" + std::to_string(stats.index);
  stats.done = true;
  stats.digest = 0x5eedf00dULL;
  for (auto _ : state) g_bench_journal->record_done(stats);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
  state.SetLabel("layer=campaign-journal");
  if (state.thread_index() == 0) {
    g_bench_journal.reset();
    std::remove(path.c_str());
  }
}
BENCHMARK(BM_JournalCommit)->Threads(1)->Threads(4)->UseRealTime();

// One process-mode job round trip, submit to committed record, with an
// empty kind body so the time is the campaign layer's own: in fresh_fork
// each of 32 jobs drains the queue before the next is submitted, so each
// runs in a fresh child, while reused_child queues all 32 as one backlog,
// served back to back by one child over its socket. Wall time, since the
// cost is fork, exit and reap in the kernel plus the round trip.
void BM_ProcessJob(benchmark::State& state, bool reuse) {
  constexpr int kJobs = 32;
  const campaign::KindResolver kinds = [](const campaign::JobKind&,
                                          const std::string&) {
    return std::function<void(campaign::JobContext&)>(
        [](campaign::JobContext&) {});
  };
  const campaign::JobKind empty{"empty", ""};
  for (auto _ : state) {
    campaign::CampaignRunner runner(1, campaign::ExecutionMode::kProcesses,
                                    kinds);
    for (int j = 0; j < kJobs; ++j) {
      (void)runner.submit_kind("job" + std::to_string(j), {}, empty);
      if (!reuse) runner.wait_idle();
    }
    runner.wait_idle();
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kJobs);
  state.SetLabel("layer=campaign-process");
}
BENCHMARK_CAPTURE(BM_ProcessJob, fresh_fork, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_ProcessJob, reused_child, true)->UseRealTime();

void BM_SignalPropagation(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  kern::Signal<u32> sig(top, "sig");
  u64 observed = 0;
  kern::SpawnOptions opts;
  opts.sensitivity = {&sig.value_changed_event()};
  opts.dont_initialize = true;
  top.spawn_method("observer", [&] { ++observed; }, opts);
  top.spawn_thread("driver", [&] {
    u32 v = 0;
    for (;;) {
      sig.write(++v);
      kern::wait(1_ns);
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(1));
  state.SetItemsProcessed(static_cast<i64>(observed));
  state.SetLabel("layer=channels");
}
BENCHMARK(BM_SignalPropagation);

void BM_ClockEdges(benchmark::State& state) {
  kern::Simulation sim;
  kern::Clock clk(sim, "clk", 10_ns);
  kern::Module top(sim, "top");
  u64 edges = 0;
  kern::SpawnOptions opts;
  opts.sensitivity = {&clk.posedge_event()};
  opts.dont_initialize = true;
  top.spawn_method("counter", [&] { ++edges; }, opts);
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(10));  // 1000 periods
  state.SetItemsProcessed(static_cast<i64>(edges));
  state.SetLabel("layer=channels");
}
BENCHMARK(BM_ClockEdges);

// -- Bus and DRCF costs ---------------------------------------------------------

void BM_BusTransaction(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory m(top, "ram", 0, 4096);
  b.bind_slave(m);
  u64 xfers = 0;
  top.spawn_thread("master", [&] {
    bus::word w = 0;
    for (;;) {
      b.read(static_cast<bus::addr_t>(xfers % 4096), &w);
      ++xfers;
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(20));  // 1000 transactions
  state.SetItemsProcessed(static_cast<i64>(xfers));
  state.SetLabel("layer=bus");
}
BENCHMARK(BM_BusTransaction);

// Timed 16-word bursts from a loaded memory: one arbitration, one occupancy
// wait and one slave call per burst. Items are words.
void BM_BusBurstRead(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory m(top, "ram", 0, 4096);
  b.bind_slave(m);
  std::vector<bus::word> image(4096);
  for (usize i = 0; i < image.size(); ++i) image[i] = static_cast<bus::word>(i);
  m.load(0, image);
  u64 words = 0;
  top.spawn_thread("master", [&] {
    std::vector<bus::word> buf(16);
    for (;;) {
      b.burst_read(static_cast<bus::addr_t>(words % 4096), buf, 0);
      words += buf.size();
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(170));  // 1000 bursts
  state.SetItemsProcessed(static_cast<i64>(words));
  state.SetLabel("layer=bus");
}
BENCHMARK(BM_BusBurstRead);

// Forwards to a slave and keeps every BusSlaveIf default, so it declines
// reads_untimed() and a DirectLink reads through it word by word.
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

// Timed 64-word DirectLink bursts from loaded paged memory, the shape of a
// configuration fetch over a dedicated port. `bulk` binds the memory: each
// burst is one in-place kernel batch and one slave call. `per_word` binds
// it through a pass-through slave: one in-place wait and one slave call
// per word. Both give the same clock and counts. Items are words.
void BM_LinkBurstRead(benchmark::State& state, bool per_word) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::DirectLink link(top, "link", 10_ns);
  mem::Memory m(top, "ram", 0, 4096);
  PassThroughSlave shim(m);
  if (per_word) {
    link.bind_slave(shim);
  } else {
    link.bind_slave(m);
  }
  std::vector<bus::word> image(4096);
  for (usize i = 0; i < image.size(); ++i) image[i] = static_cast<bus::word>(i);
  m.load(0, image);
  u64 words = 0;
  top.spawn_thread("master", [&] {
    std::vector<bus::word> buf(64);
    for (;;) {
      link.burst_read(static_cast<bus::addr_t>(words % 4096), buf, 0);
      words += buf.size();
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::us(640));  // 1000 bursts
  state.SetItemsProcessed(static_cast<i64>(words));
  state.SetLabel("layer=bus");
}
BENCHMARK_CAPTURE(BM_LinkBurstRead, bulk, false);
BENCHMARK_CAPTURE(BM_LinkBurstRead, per_word, true);

void BM_DrcfHitForwarding(benchmark::State& state) {
  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  adriatic::bench::DrcfRig rig(2, 64, dc);
  u64 reads = 0;
  rig.top.spawn_thread("driver", [&] {
    bus::word w = 0;
    rig.sys_bus.read(rig.ctx_addr(0), &w);  // warm
    for (;;) {
      rig.sys_bus.read(rig.ctx_addr(0), &w);  // hit path
      ++reads;
    }
  });
  rig.sim.elaborate();
  for (auto _ : state) rig.sim.run(kern::Time::us(20));
  state.SetItemsProcessed(static_cast<i64>(reads));
  state.SetLabel("layer=drcf");
}
BENCHMARK(BM_DrcfHitForwarding);

// Ping-pong between two contexts of a single-slot fabric: every read
// fetches Arg words of configuration. With `armed`, each fetched chunk is
// checked against the context's golden bitstream.
void run_context_switches(benchmark::State& state, bool armed) {
  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  dc.technology.per_switch_overhead = kern::Time::zero();
  adriatic::bench::DrcfRig rig(2, static_cast<u64>(state.range(0)), dc);
  if (armed) rig.arm_golden_bitstreams();
  u64 switches = 0;
  rig.top.spawn_thread("driver", [&] {
    bus::word w = 0;
    for (;;) {
      rig.sys_bus.read(rig.ctx_addr(switches % 2), &w);
      ++switches;
    }
  });
  rig.sim.elaborate();
  for (auto _ : state) rig.sim.run(kern::Time::ms(1));
  state.SetItemsProcessed(static_cast<i64>(switches));
  state.SetLabel("layer=drcf");
}

void BM_DrcfContextSwitch(benchmark::State& state) {
  run_context_switches(state, /*armed=*/false);
}
BENCHMARK(BM_DrcfContextSwitch)->Arg(64)->Arg(1024);

void BM_DrcfContextSwitchArmed(benchmark::State& state) {
  run_context_switches(state, /*armed=*/true);
}
BENCHMARK(BM_DrcfContextSwitchArmed)->Arg(64)->Arg(1024);

// Latency hiding of the context-prefetch layer: Arg(0) runs the ring driver
// on-demand (every step pays the full configuration fetch), Arg(1) under
// kHybrid with a 3-plane context cache (fills overlap the driver's compute
// gaps). The counters report the cache-hit rate over demand misses and the
// fraction of fetch latency kept off the demand path.
void BM_PrefetchHitRate(benchmark::State& state) {
  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  dc.technology.per_switch_overhead = kern::Time::zero();
  if (state.range(0) != 0) {
    dc.prefetch.policy = drcf::PrefetchPolicy::kHybrid;
    dc.prefetch.cache_slots = 3;
    dc.prefetch.static_next = {1, 2, 0};
  }
  adriatic::bench::DrcfRig rig(3, 64, dc, {}, /*dedicated_cfg_link=*/true);
  u64 reads = 0;
  rig.top.spawn_thread("driver", [&] {
    bus::word w = 0;
    for (;;) {
      rig.sys_bus.read(rig.ctx_addr(reads % 3), &w);
      ++reads;
      kern::wait(kern::Time::us(2));  // the compute gap a fill can hide in
    }
  });
  rig.sim.elaborate();
  for (auto _ : state) rig.sim.run(kern::Time::ms(1));
  const auto& fs = rig.fabric.stats();
  state.SetItemsProcessed(static_cast<i64>(reads));
  state.counters["cache_hit_rate"] =
      fs.misses > 0
          ? static_cast<double>(fs.cache_hits) / static_cast<double>(fs.misses)
          : 0.0;
  const double hidden = fs.hidden_latency.to_ns();
  const double busy = fs.reconfig_busy_time.to_ns();
  state.counters["hidden_frac"] =
      hidden + busy > 0 ? hidden / (hidden + busy) : 0.0;
  state.SetLabel("layer=drcf");
}
BENCHMARK(BM_PrefetchHitRate)->Arg(0)->Arg(1);

// Raw accelerator model vs DRCF-wrapped accelerator: wall-clock cost of the
// methodology itself (events simulated per second of host time).
void BM_RawAccelerator(benchmark::State& state) {
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory ram(top, "ram", 0x1000, 4096);
  b.bind_slave(ram);
  soc::HwAccel acc(top, "acc", 0x100, accel::make_crc_spec());
  acc.mst_port.bind(b);
  b.bind_slave(acc);
  u64 runs = 0;
  top.spawn_thread("driver", [&] {
    bus::word w;
    for (;;) {
      w = 0x1000;
      b.write(0x100 + soc::HwAccel::kSrc, &w);
      w = 0x1100;
      b.write(0x100 + soc::HwAccel::kDst, &w);
      w = 16;
      b.write(0x100 + soc::HwAccel::kLen, &w);
      w = 1;
      b.write(0x100 + soc::HwAccel::kCtrl, &w);
      do {
        kern::wait(100_ns);
        b.read(0x100 + soc::HwAccel::kStatus, &w);
      } while (w != soc::HwAccel::kDone);
      w = 0;
      b.write(0x100 + soc::HwAccel::kStatus, &w);
      ++runs;
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::ms(1));
  state.SetItemsProcessed(static_cast<i64>(runs));
  state.SetLabel("layer=accelerator");
}
BENCHMARK(BM_RawAccelerator);

// The timing-mode flagship (docs/timing_modes.md): one frame-based job —
// stage a 1024-word frame into ram, program the wrapped accelerator, poll
// its status register until done (the paper's CPU software model, compare
// make_sec53_app's poll_until), read the result back — measured
// cycle-accurate and loosely timed. Frame staging and status polling are
// what a DSE software model actually does per step, and they are exactly
// the traffic the loose fast path elides: every burst beat and every poll
// pays an arbitrated timed wait in kTimed, and a local-offset accrual plus
// DMI copy (or direct register call) in kLoose.
void BM_DrcfWrappedAccelerator(benchmark::State& state, kern::TimingMode mode,
                               kern::Time quantum) {
  kern::Simulation sim;
  sim.set_timing_mode(mode);
  if (!quantum.is_zero()) sim.set_quantum(quantum);
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory ram(top, "ram", 0x1000, 4096);
  mem::Memory cfg(top, "cfg", 0x100000, 1024);
  b.bind_slave(ram);
  b.bind_slave(cfg);
  soc::HwAccel acc(top, "acc", 0x100, accel::make_crc_spec());
  acc.mst_port.bind(b);
  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  drcf::Drcf fabric(top, "drcf", dc);
  fabric.add_context(acc, {.config_address = 0x100000, .size_words = 64});
  fabric.mst_port.bind(b);
  b.bind_slave(fabric);
  u64 runs = 0;
  top.spawn_thread("driver", [&] {
    std::vector<bus::word> frame(1024), result(1024);
    bus::word w;
    for (;;) {
      for (usize i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<bus::word>(runs + i);
      b.burst_write(0x1000, frame, 0);
      w = 0x1000;
      b.write(0x100 + soc::HwAccel::kSrc, &w);
      w = 0x1800;
      b.write(0x100 + soc::HwAccel::kDst, &w);
      w = 1024;
      b.write(0x100 + soc::HwAccel::kLen, &w);
      w = 1;
      b.write(0x100 + soc::HwAccel::kCtrl, &w);
      do {
        kern::wait(100_ns);
        b.read(0x100 + soc::HwAccel::kStatus, &w);
      } while (w != soc::HwAccel::kDone);
      w = 0;
      b.write(0x100 + soc::HwAccel::kStatus, &w);
      b.burst_read(0x1800, result, 0);
      benchmark::DoNotOptimize(result.data());
      ++runs;
    }
  });
  sim.elaborate();
  for (auto _ : state) sim.run(kern::Time::ms(1));
  state.SetItemsProcessed(static_cast<i64>(runs));
  state.counters["dispatches"] = static_cast<double>(sim.activations());
  state.counters["loose_syncs"] = static_cast<double>(sim.loose_syncs());
  state.counters["dmi_words"] = static_cast<double>(b.stats().dmi_words);
  state.SetLabel("layer=drcf");
}
BENCHMARK_CAPTURE(BM_DrcfWrappedAccelerator, timed, kern::TimingMode::kTimed,
                  kern::Time::zero());
// 100 us quantum: large against the ~50 us of simulated time per frame, so
// the only sync points left are the frame's own event waits. The default
// 1 us quantum sits in BM_QuantumSweep's range for the full dial.
BENCHMARK_CAPTURE(BM_DrcfWrappedAccelerator, loose, kern::TimingMode::kLoose,
                  kern::Time::us(100));

// Speed/accuracy dial: the same frame job loosely timed, with the global
// quantum as the benchmark argument (in ns). Larger quanta fold more bus
// and compute waits into each local-time accrual — items/sec rises while
// timing fidelity inside the quantum falls (docs/timing_modes.md).
void BM_QuantumSweep(benchmark::State& state) {
  BM_DrcfWrappedAccelerator(
      state, kern::TimingMode::kLoose,
      kern::Time::ns(static_cast<u64>(state.range(0))));
}
BENCHMARK(BM_QuantumSweep)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// -- Paged memory costs ---------------------------------------------------------

// Word-path overhead of the sparse copy-on-write backing versus eager flat
// storage: the same write+read traffic against one word per page across a
// quarter of a 64-page store. The paged variant also reports how few pages
// it ended up materializing (docs/memory.md).
void BM_PagedVsFlat(benchmark::State& state, bool flat) {
  const bool prev = mem::PagedStore::debug_set_flat_backing(flat);
  mem::PagedStore store(64 * mem::kPageWords, "bench_store");
  mem::PagedStore::debug_set_flat_backing(prev);
  u64 words = 0;
  for (auto _ : state) {
    for (usize p = 0; p < 16; ++p) {
      const usize idx = p * mem::kPageWords + (words % mem::kPageWords);
      store.write(idx, static_cast<bus::word>(words));
      benchmark::DoNotOptimize(store.read(idx));
      ++words;
    }
  }
  state.SetItemsProcessed(static_cast<i64>(words));
  state.counters["resident_pages"] =
      static_cast<double>(store.resident_pages());
  state.SetLabel("layer=memory");
}
BENCHMARK_CAPTURE(BM_PagedVsFlat, paged, false);
BENCHMARK_CAPTURE(BM_PagedVsFlat, flat, true);

// Resident-set high-water of a campaign whose jobs replay the same 64 KiB
// configuration image: COW-attached from the process-wide registry versus
// privately loaded per job. The peak_resident_mb counter is the headline —
// sharing keeps one copy resident no matter how many jobs are in flight
// (EXPERIMENTS.md records the methodology).
void BM_CampaignResidentSet(benchmark::State& state, bool shared) {
  constexpr usize kJobs = 8;
  constexpr usize kImgWords = 16 * mem::kPageWords;
  std::vector<bus::word> bits(kImgWords);
  for (usize i = 0; i < bits.size(); ++i)
    bits[i] = static_cast<bus::word>(0x1A6E0000u + i);
  const auto img = mem::ImageRegistry::instance().intern(bits);
  auto& budget = mem::MemoryBudget::instance();
  u64 peak_over_base = 0;
  for (auto _ : state) {
    const u64 base = budget.resident_bytes();
    budget.reset_high_water();
    campaign::CampaignRunner runner(4);
    std::vector<std::future<u64>> futures;
    futures.reserve(kJobs);
    for (usize j = 0; j < kJobs; ++j) {
      futures.push_back(
          runner.submit("rs" + std::to_string(j), [&img, &bits, shared] {
            kern::Simulation sim;
            kern::Module top(sim, "top");
            mem::Memory m(top, "m", 0, kImgWords);
            if (shared) {
              m.attach_image(img, 0);
            } else {
              m.load(0, bits);
            }
            u64 sum = 0;
            for (usize w = 0; w < kImgWords; w += 64)
              sum += static_cast<u64>(m.peek(static_cast<bus::addr_t>(w)));
            return sum;
          }));
    }
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    peak_over_base =
        std::max(peak_over_base, budget.high_water_bytes() - base);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * kJobs);
  state.counters["peak_resident_mb"] =
      static_cast<double>(peak_over_base) / (1024.0 * 1024.0);
  state.SetLabel("layer=memory");
}
BENCHMARK_CAPTURE(BM_CampaignResidentSet, shared_image, true);
BENCHMARK_CAPTURE(BM_CampaignResidentSet, private_pages, false);

}  // namespace

// Plain BENCHMARK_MAIN(), plus a context entry recording how THIS binary was
// compiled: the system benchmark library's own "library_build_type" field
// does not track the repo build, and bench/report_json.sh refuses to refresh
// the committed baseline from a debug binary.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("adriatic_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
