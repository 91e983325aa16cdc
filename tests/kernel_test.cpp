// Scheduler-semantics tests: events, processes, delta cycles, timing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "conformance/digest.hpp"
#include "kernel/kernel.hpp"

namespace adriatic::kern {
namespace {

using namespace adriatic::kern::literals;

TEST(Time, UnitsAndArithmetic) {
  EXPECT_EQ(Time::ns(1).picoseconds(), 1000u);
  EXPECT_EQ(Time::us(1), Time::ns(1000));
  EXPECT_EQ(Time::ms(1), Time::us(1000));
  EXPECT_EQ(Time::sec(1), Time::ms(1000));
  EXPECT_EQ((Time::ns(3) + Time::ns(4)).picoseconds(), 7000u);
  EXPECT_EQ(Time::ns(10) - Time::ns(4), Time::ns(6));
  EXPECT_EQ(Time::ns(3) * 4, Time::ns(12));
  EXPECT_EQ(Time::ns(10) / Time::ns(3), 3u);
  EXPECT_LT(Time::ns(1), Time::us(1));
  EXPECT_TRUE(Time::zero().is_zero());
}

TEST(Time, Literals) {
  EXPECT_EQ(5_ns, Time::ns(5));
  EXPECT_EQ(2_us, Time::us(2));
  EXPECT_EQ(1_ms, Time::ms(1));
  EXPECT_EQ(7_ps, Time::ps(7));
}

TEST(Time, Str) {
  EXPECT_EQ(Time::zero().str(), "0 s");
  EXPECT_EQ(Time::ns(5).str(), "5 ns");
  EXPECT_EQ(Time::us(3).str(), "3 us");
  EXPECT_EQ(Time::ps(1500).str(), "1500 ps");
  EXPECT_EQ(Time::sec(2).str(), "2 s");
}

TEST(Object, HierarchyNaming) {
  Simulation sim;
  Module top(sim, "top");
  Module child(top, "child");
  Module grand(child, "leaf");
  EXPECT_EQ(top.name(), "top");
  EXPECT_EQ(child.name(), "top.child");
  EXPECT_EQ(grand.name(), "top.child.leaf");
  EXPECT_EQ(grand.basename(), "leaf");
  EXPECT_EQ(child.parent(), &top);
  EXPECT_EQ(sim.find_object("top.child.leaf"), &grand);
  EXPECT_EQ(sim.find_object("nope"), nullptr);
  ASSERT_EQ(top.children().size(), 1u);
  EXPECT_EQ(top.children()[0], &child);
}

TEST(Object, DuplicateNameThrows) {
  Simulation sim;
  Module top(sim, "top");
  Module a(top, "x");
  EXPECT_THROW(Module(top, "x"), std::invalid_argument);
}

TEST(Object, EmptyNameThrows) {
  Simulation sim;
  EXPECT_THROW(Module(sim, ""), std::invalid_argument);
}

TEST(Object, TopLevelList) {
  Simulation sim;
  Module a(sim, "a");
  Module b(sim, "b");
  auto tops = sim.top_level_objects();
  EXPECT_EQ(tops.size(), 2u);
}

// ---------------------------------------------------------------------------

TEST(Scheduler, ThreadRunsAtInitialization) {
  Simulation sim;
  Module top(sim, "top");
  bool ran = false;
  top.spawn_thread("t", [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, DontInitializeSkipsFirstRun) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  int runs = 0;
  SpawnOptions opts;
  opts.sensitivity = {&ev};
  opts.dont_initialize = true;
  top.spawn_method("m", [&] { ++runs; }, opts);
  sim.run();
  EXPECT_EQ(runs, 0);
  ev.notify(Time::ns(1));
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, WaitTimeAdvancesClock) {
  Simulation sim;
  Module top(sim, "top");
  std::vector<u64> stamps;
  top.spawn_thread("t", [&] {
    stamps.push_back(sim.now().picoseconds());
    wait(Time::ns(10));
    stamps.push_back(sim.now().picoseconds());
    wait(Time::ns(5));
    stamps.push_back(sim.now().picoseconds());
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0u);
  EXPECT_EQ(stamps[1], 10000u);
  EXPECT_EQ(stamps[2], 15000u);
}

TEST(Scheduler, RunDurationBounds) {
  Simulation sim;
  Module top(sim, "top");
  int ticks = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      wait(Time::ns(10));
      ++ticks;
    }
  });
  EXPECT_EQ(sim.run(Time::ns(35)), StopReason::kTimeLimit);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.now(), Time::ns(35));
  // Resume where we left off.
  EXPECT_EQ(sim.run(Time::ns(10)), StopReason::kTimeLimit);
  EXPECT_EQ(ticks, 4);
}

TEST(Scheduler, ExplicitStop) {
  Simulation sim;
  Module top(sim, "top");
  int ticks = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      wait(Time::ns(1));
      if (++ticks == 5) sim.stop();
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kExplicitStop);
  EXPECT_EQ(ticks, 5);
}

TEST(Scheduler, TwoThreadsInterleaveByTime) {
  Simulation sim;
  Module top(sim, "top");
  std::vector<int> order;
  top.spawn_thread("a", [&] {
    wait(Time::ns(10));
    order.push_back(1);
    wait(Time::ns(20));  // t=30
    order.push_back(3);
  });
  top.spawn_thread("b", [&] {
    wait(Time::ns(20));
    order.push_back(2);
    wait(Time::ns(20));  // t=40
    order.push_back(4);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Event, DeltaNotifyWakesWaiter) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  bool woke = false;
  top.spawn_thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  top.spawn_thread("notifier", [&] { ev.notify_delta(); });
  sim.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(sim.now(), Time::zero());  // all in delta cycles at t=0
}

TEST(Event, TimedNotify) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  Time woke_at;
  top.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  ev.notify(Time::ns(42));
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(42));
}

TEST(Event, EarlierNotificationWins) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  std::vector<u64> wakes;
  top.spawn_thread("waiter", [&] {
    for (int i = 0; i < 1; ++i) {
      wait(ev);
      wakes.push_back(sim.now().picoseconds());
    }
  });
  ev.notify(Time::ns(100));
  ev.notify(Time::ns(10));  // overrides: earlier
  sim.run();
  ASSERT_EQ(wakes.size(), 1u);
  EXPECT_EQ(wakes[0], 10000u);
}

TEST(Event, LaterNotificationDiscarded) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  Time woke_at;
  top.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  ev.notify(Time::ns(10));
  ev.notify(Time::ns(100));  // discarded: later than pending
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(10));
  EXPECT_FALSE(ev.has_pending());
}

TEST(Event, CancelPendingNotification) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  bool woke = false;
  top.spawn_thread("waiter", [&] {
    wait(ev);
    woke = true;
  });
  ev.notify(Time::ns(10));
  ev.cancel();
  sim.run();
  EXPECT_FALSE(woke);
  // The waiter is starved: visible in the diagnostic list.
  EXPECT_EQ(sim.starved_processes().size(), 1u);
}

TEST(Event, DestroyAfterCancelledDeltaNotification) {
  // Regression: the delta queue removes entries lazily, so after
  // notify_delta() + cancel() a stale slot still names the event while
  // pending_ is back to kNone. Destroying the event in that window must
  // purge the slot, or the next delta dispatch dereferences freed memory.
  Simulation sim;
  auto ev = std::make_unique<Event>(sim, "ev");
  ev->notify_delta();
  ev->cancel();
  ev.reset();
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
}

TEST(Event, DestroyAfterImmediateNotifyOverridingDelta) {
  Simulation sim;
  Module top(sim, "top");
  auto ev = std::make_unique<Event>(sim, "ev");
  bool woke = false;
  top.spawn_thread("t", [&] {
    ev->notify_delta();
    ev->notify();  // immediate: fires now, leaves the queued slot stale
    ev.reset();    // destroyed with a stale delta-queue slot outstanding
    wait(Time::ns(1));
    woke = true;
  });
  sim.run();
  EXPECT_TRUE(woke);
}

TEST(Event, LocalEventOfFinishingThreadDoesNotDangle) {
  // The review-found shape: an Event local to a thread process dies when
  // the thread returns, mid-simulation, with its retracted delta
  // notification still queued for this very delta round.
  Simulation sim;
  Module top(sim, "top");
  bool other_ran = false;
  top.spawn_thread("maker", [&] {
    Event local(sim, "local");
    local.notify_delta();
    local.cancel();
  });
  top.spawn_thread("other", [&] {
    wait(Time::ns(1));
    other_ran = true;
  });
  sim.run();
  EXPECT_TRUE(other_ran);
}

TEST(Event, DeltaOverridesTimed) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  Time woke_at = Time::max();
  top.spawn_thread("waiter", [&] {
    wait(ev);
    woke_at = sim.now();
  });
  top.spawn_thread("notifier", [&] {
    wait(Time::ns(5));
    ev.notify(Time::ns(50));  // pending timed at t=55
    ev.notify_delta();        // overrides: fires at t=5 (next delta)
  });
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(5));
}

TEST(Event, ImmediateNotifyWakesInSameEvaluation) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  u64 deltas_at_wake = 123456;
  top.spawn_thread("waiter", [&] {
    wait(ev);
    deltas_at_wake = sim.delta_count();
  });
  top.spawn_thread("notifier", [&] {
    wait(Time::ns(1));
    ev.notify();  // immediate
  });
  sim.run();
  EXPECT_NE(deltas_at_wake, 123456u);
}

TEST(Event, WaitWithTimeoutTimesOut) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  bool was_timeout = false;
  top.spawn_thread("waiter", [&] {
    wait(Time::ns(10), ev);
    was_timeout = timed_out();
  });
  sim.run();
  EXPECT_TRUE(was_timeout);
  EXPECT_EQ(sim.now(), Time::ns(10));
}

TEST(Event, WaitWithTimeoutEventWins) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  bool was_timeout = true;
  Time woke_at;
  top.spawn_thread("waiter", [&] {
    wait(Time::ns(100), ev);
    was_timeout = timed_out();
    woke_at = sim.now();
  });
  ev.notify(Time::ns(7));
  sim.run();
  EXPECT_FALSE(was_timeout);
  EXPECT_EQ(woke_at, Time::ns(7));
  // No stale timeout should fire later.
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_EQ(sim.now(), Time::ns(7));
}

TEST(Event, WaitAnyWakesOnFirst) {
  Simulation sim;
  Module top(sim, "top");
  Event a(sim, "a"), b(sim, "b");
  Time woke_at;
  top.spawn_thread("waiter", [&] {
    std::vector<Event*> evs{&a, &b};
    wait_any(evs);
    woke_at = sim.now();
  });
  a.notify(Time::ns(30));
  b.notify(Time::ns(10));
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(10));
}

TEST(Event, WaitAllNeedsEvery) {
  Simulation sim;
  Module top(sim, "top");
  Event a(sim, "a"), b(sim, "b"), c(sim, "c");
  Time woke_at;
  top.spawn_thread("waiter", [&] {
    std::vector<Event*> evs{&a, &b, &c};
    wait_all(evs);
    woke_at = sim.now();
  });
  a.notify(Time::ns(5));
  b.notify(Time::ns(15));
  c.notify(Time::ns(10));
  sim.run();
  EXPECT_EQ(woke_at, Time::ns(15));
}

TEST(Process, TerminatedEventFires) {
  Simulation sim;
  Module top(sim, "top");
  bool joined = false;
  auto& worker = top.spawn_thread("worker", [&] { wait(Time::ns(10)); });
  top.spawn_thread("joiner", [&] {
    wait(worker.terminated_event());
    joined = true;
  });
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(worker.state(), Process::State::kTerminated);
}

TEST(Process, MethodStaticSensitivity) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  int count = 0;
  SpawnOptions opts;
  opts.sensitivity = {&ev};
  opts.dont_initialize = true;
  top.spawn_method("m", [&] { ++count; }, opts);
  ev.notify(Time::ns(1));
  sim.run();
  EXPECT_EQ(count, 1);
  ev.notify(Time::ns(1));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Process, MethodNextTriggerOverridesStatic) {
  Simulation sim;
  Module top(sim, "top");
  Event stat(sim, "stat"), dyn(sim, "dyn");
  std::vector<u64> runs;
  SpawnOptions opts;
  opts.sensitivity = {&stat};
  opts.dont_initialize = true;
  MethodProcess* mp = nullptr;
  auto& m = top.spawn_method(
      "m",
      [&] {
        runs.push_back(sim.now().picoseconds());
        if (runs.size() == 1) mp->next_trigger(dyn);
      },
      opts);
  mp = &m;
  stat.notify(Time::ns(1));   // first run at 1ns, arms next_trigger(dyn)
  stat.notify(Time::ns(2));   // discarded: pending earlier... use separate runs
  sim.run();
  stat.notify(Time::ns(1));   // at 2ns: should NOT trigger (dynamic override)
  sim.run();
  dyn.notify(Time::ns(1));    // at 3ns: triggers
  sim.run();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], 1000u);
  EXPECT_EQ(runs[1], 3000u);
}

TEST(Process, ThreadStaticSensitivityLoop) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  int wakes = 0;
  SpawnOptions opts;
  opts.sensitivity = {&ev};
  top.spawn_thread(
      "t",
      [&] {
        for (;;) {
          wait();  // static
          ++wakes;
        }
      },
      opts);
  ev.notify(Time::ns(1));
  sim.run();
  EXPECT_EQ(wakes, 1);
  ev.notify(Time::ns(1));
  ev.notify(Time::ns(1));  // same pending, single trigger
  sim.run();
  EXPECT_EQ(wakes, 2);
}

TEST(Scheduler, DeltaCountAdvances) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  top.spawn_thread("t", [&] {
    for (int i = 0; i < 5; ++i) {
      ev.notify_delta();
      wait(ev);
    }
  });
  sim.run();
  EXPECT_GE(sim.delta_count(), 5u);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Scheduler, ActivationsCounted) {
  Simulation sim;
  Module top(sim, "top");
  top.spawn_thread("t", [&] {
    for (int i = 0; i < 9; ++i) wait(Time::ns(1));
  });
  sim.run();
  EXPECT_GE(sim.activations(), 10u);
}

TEST(Scheduler, StarvedProcessesReported) {
  Simulation sim;
  Module top(sim, "top");
  Event never(sim, "never");
  top.spawn_thread("blocked", [&] { wait(never); });
  top.spawn_thread("fine", [&] { wait(Time::ns(1)); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  auto starved = sim.starved_processes();
  ASSERT_EQ(starved.size(), 1u);
  EXPECT_EQ(starved[0]->basename(), "blocked");
}

TEST(Scheduler, WaitFromNonThreadThrows) {
  Simulation sim;
  Module top(sim, "top");
  bool threw = false;
  top.spawn_method("m", [&] {
    try {
      wait(Time::ns(1));
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(Scheduler, DynamicallySpawnedThreadRuns) {
  // sc_spawn-style: a running process creates a new thread mid-simulation.
  Simulation sim;
  Module top(sim, "top");
  Time child_ran_at = Time::max();
  top.spawn_thread("parent", [&] {
    wait(Time::ns(50));
    top.spawn_thread("child", [&] {
      wait(Time::ns(10));
      child_ran_at = sim.now();
    });
  });
  sim.run();
  EXPECT_EQ(child_ran_at, Time::ns(60));
}

TEST(Scheduler, DynamicSpawnHonoursDontInitialize) {
  Simulation sim;
  Module top(sim, "top");
  Event ev(sim, "ev");
  int runs = 0;
  top.spawn_thread("parent", [&] {
    wait(Time::ns(5));
    SpawnOptions opts;
    opts.sensitivity = {&ev};
    opts.dont_initialize = true;
    top.spawn_method("dyn", [&] { ++runs; }, opts);
    wait(Time::ns(5));     // the method must NOT have run yet
    EXPECT_EQ(runs, 0);
    ev.notify_delta();
  });
  sim.run();
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, DynamicallySpawnedModuleWithClockTicks) {
  // A whole sub-system (clock + counter) constructed mid-simulation.
  Simulation sim;
  Module top(sim, "top");
  std::unique_ptr<Clock> clk;
  std::unique_ptr<Module> sub;
  int ticks = 0;
  top.spawn_thread("builder", [&] {
    wait(Time::ns(100));
    clk = std::make_unique<Clock>(top, "late_clk", Time::ns(10));
    sub = std::make_unique<Module>(top, "late_mod");
    SpawnOptions opts;
    opts.sensitivity = {&clk->posedge_event()};
    opts.dont_initialize = true;
    sub->spawn_method("count", [&] { ++ticks; }, opts);
  });
  sim.run(Time::ns(200));
  EXPECT_GE(ticks, 9);
  EXPECT_LE(ticks, 11);
}

TEST(Port, UnboundPortFailsElaboration) {
  Simulation sim;
  Module top(sim, "top");
  Port<SignalInIf<int>> p(top, "p");
  EXPECT_THROW(sim.elaborate(), std::logic_error);
}

TEST(Port, OptionalPortPassesUnbound) {
  Simulation sim;
  Module top(sim, "top");
  Port<SignalInIf<int>> p(top, "p", /*min_bindings=*/0);
  EXPECT_NO_THROW(sim.elaborate());
  EXPECT_EQ(p.binding_count(), 0u);
}

TEST(Port, RecordsBindings) {
  Simulation sim;
  Module top(sim, "top");
  Signal<int> s(top, "sig");
  Port<SignalInIf<int>> p(top, "p");
  p.bind(s);
  ASSERT_EQ(p.bound_channel_names().size(), 1u);
  EXPECT_EQ(p.bound_channel_names()[0], "top.sig");
  EXPECT_EQ(p.binding_count(), 1u);
}

TEST(Port, MultiportIndexing) {
  Simulation sim;
  Module top(sim, "top");
  Signal<int> s1(top, "s1"), s2(top, "s2");
  Port<SignalInIf<int>> p(top, "p");
  p.bind(s1);
  p.bind(s2);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(&p[1], static_cast<SignalInIf<int>*>(&s2));
}

TEST(Port, UseBeforeBindThrows) {
  Simulation sim;
  Module top(sim, "top");
  Port<SignalInIf<int>> p(top, "p");
  EXPECT_THROW(p->read(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Timed-wait edge cases. Each test pins the clock, the delta and activation
// counts and, where records are emitted, the scheduler-trace digest of a
// wait(Time) shape whose next scheduler steps are or are almost fixed: a
// lone waiter, same-instant ties, a pending stop, the livelock watchdog, a
// stale heap top, the timed_out() flag and an attached VCD tracer. The
// values were recorded with every wait taking the scheduler round trip, so
// a kernel that shortcuts some waits must reproduce them exactly. A lone
// timed loop stopped from another OS thread is covered by the campaign
// watchdog tests (CampaignTest.WatchdogQuarantinesHungJob and the
// run_forever jobs in campaign_test.cpp).

TEST(TimedWait, LoneWaiterAcrossRunSlices) {
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  int ticks = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      wait(1_ns);
      ++ticks;
    }
  });
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(sim.run(Time::ns(10)), StopReason::kTimeLimit);
  EXPECT_EQ(ticks, 30);
  EXPECT_EQ(sim.now(), Time::ns(30));
  EXPECT_EQ(sim.delta_count(), 31u);
  EXPECT_EQ(sim.activations(), 31u);
  EXPECT_EQ(digest.records(), 122u);
  EXPECT_EQ(digest.value(), 0x6366e2835c2462a6ULL);
}

TEST(TimedWait, SameInstantWakesKeepFifoOrder) {
  // `b` runs last at t = 0, with nothing else due before its first wake at
  // 5 ns. Its second wake ties with `a`'s at 10 ns, and `a` queued its entry
  // first, so `a` must wake first. `c` and `d` wake together every 15 ns in
  // spawn order.
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  std::vector<char> order;
  for (const char name : {'c', 'd'}) {
    top.spawn_thread(std::string(1, name), [&order, name] {
      for (int i = 0; i < 3; ++i) {
        wait(15_ns);
        order.push_back(name);
      }
    });
  }
  top.spawn_thread("a", [&] {
    wait(10_ns);
    order.push_back('a');
  });
  top.spawn_thread("b", [&] {
    wait(5_ns);
    wait(5_ns);
    order.push_back('b');
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd', 'c', 'd', 'c',
                                      'd'}));
  EXPECT_EQ(sim.now(), Time::ns(45));
  EXPECT_EQ(sim.delta_count(), 6u);
  EXPECT_EQ(sim.activations(), 13u);
  EXPECT_EQ(digest.value(), 0x6ef8ddd6b8ff9703ULL);
}

TEST(TimedWait, StopThenWaitReturnsBeforeTheWake) {
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  int phase = 0;
  top.spawn_thread("t", [&] {
    wait(3_ns);
    phase = 1;
    sim.stop();
    wait(4_ns);
    phase = 2;
    wait(5_ns);
    phase = 3;
  });
  EXPECT_EQ(sim.run(), StopReason::kExplicitStop);
  EXPECT_EQ(phase, 1);
  EXPECT_EQ(sim.now(), Time::ns(3));
  EXPECT_EQ(sim.delta_count(), 2u);
  EXPECT_EQ(sim.activations(), 2u);
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_EQ(phase, 3);
  EXPECT_EQ(sim.now(), Time::ns(12));
  EXPECT_EQ(sim.delta_count(), 4u);
  EXPECT_EQ(sim.activations(), 4u);
  EXPECT_EQ(digest.value(), 0xa14a8c88068f530fULL);
}

TEST(TimedWait, DaemonLoopTripsTheWatchdogAtTheSameInstant) {
  // Only a daemon ticks, so the non-daemon `stuck` thread's dispatch at
  // t = 0 is the last progress and the watchdog fires at 1 us.
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  Event never(sim, "never");
  int ticks = 0;
  auto& tick = top.spawn_thread("tick", [&] {
    for (;;) {
      wait(10_ns);
      ++ticks;
    }
  });
  tick.set_daemon();
  top.spawn_thread("stuck", [&] { wait(never); });
  sim.set_max_quiet_time(1_us);
  EXPECT_EQ(sim.run(Time::ms(1)), StopReason::kStalled);
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(sim.now(), Time::us(1));
  EXPECT_EQ(sim.delta_count(), 101u);
  EXPECT_EQ(sim.activations(), 102u);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();
  EXPECT_EQ(r.kind, DeadlockReport::Kind::kLivelock);
  EXPECT_EQ(r.at, Time::us(1));
  EXPECT_EQ(r.delta_count, 101u);
  EXPECT_EQ(r.activations, 102u);
  ASSERT_EQ(r.waiters.size(), 1u);
  EXPECT_EQ(r.waiters[0].process, "top.stuck");
  EXPECT_EQ(r.waiters[0].blocked_since, Time::zero());
  EXPECT_EQ(r.waiters[0].wait_duration, Time::us(1));
  EXPECT_EQ(r.waiters[0].awaited, (std::vector<std::string>{"never"}));
  EXPECT_EQ(digest.value(), 0x9b534e47784d3a11ULL);
}

TEST(TimedWait, CancelledEarlierEntryStaysAtTheHeapTop) {
  // Each loop leaves a cancelled notification of `ev` at now + 2 ns on top
  // of the timed queue, earlier than the thread's own 5 ns wake, and one
  // cancelled at now + 50 ns that is later than it.
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  Event early(sim, "early");
  Event late(sim, "late");
  int ticks = 0;
  top.spawn_thread("t", [&] {
    for (int i = 0; i < 4; ++i) {
      early.notify(2_ns);
      early.cancel();
      late.notify(50_ns);
      late.cancel();
      wait(5_ns);
      wait(5_ns);
      ++ticks;
    }
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.now(), Time::ns(40));
  EXPECT_EQ(sim.delta_count(), 9u);
  EXPECT_EQ(sim.activations(), 9u);
  EXPECT_EQ(sim.timed_queue_size(), 0u);
  EXPECT_EQ(digest.value(), 0x18622d9ddcbe8324ULL);
}

TEST(TimedWait, PlainWaitClearsTimedOut) {
  Simulation sim;
  Module top(sim, "top");
  Event never(sim, "never");
  bool after_timeout = false;
  bool after_plain = true;
  top.spawn_thread("t", [&] {
    wait(5_ns, never);
    after_timeout = timed_out();
    wait(5_ns);
    after_plain = timed_out();
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_TRUE(after_timeout);
  EXPECT_FALSE(after_plain);
  EXPECT_EQ(sim.now(), Time::ns(10));
  EXPECT_EQ(sim.delta_count(), 3u);
  EXPECT_EQ(sim.activations(), 3u);
}

TEST(TimedWait, VcdTraceBytes) {
  // The first wait after each write follows a pending signal update; the
  // second does not, so both kinds of wait sample the tracer.
  const std::string path = ::testing::TempDir() + "/timed_wait_trace.vcd";
  {
    Simulation sim;
    Module top(sim, "top");
    Signal<u8> v(top, "v", 0);
    TraceFile tf(sim, path);
    tf.trace(v, "v");
    top.spawn_thread("drv", [&] {
      for (int i = 1; i <= 3; ++i) {
        v.write(static_cast<u8>(i));
        wait(1_ns);
        wait(2_ns);
      }
    });
    EXPECT_EQ(sim.run(), StopReason::kNoActivity);
    EXPECT_EQ(sim.now(), Time::ns(9));
    EXPECT_EQ(sim.delta_count(), 7u);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(),
            "$timescale 1ps $end\n"
            "$scope module adriatic $end\n"
            "$var wire 8 ! v $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\nb00000001 !\n"
            "#3000\nb00000010 !\n"
            "#6000\nb00000011 !\n");
  std::remove(path.c_str());
}

TEST(TimedWait, LoneNonDaemonLoopIsProgressForTheWatchdog) {
  // Every wake of a non-daemon thread is progress, so a lone timed loop
  // must never trip the watchdog, however long it runs.
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  int ticks = 0;
  top.spawn_thread("t", [&] {
    for (;;) {
      wait(10_ns);
      ++ticks;
    }
  });
  sim.set_max_quiet_time(1_us);
  EXPECT_EQ(sim.run(Time::us(5)), StopReason::kTimeLimit);
  EXPECT_FALSE(sim.deadlock_report().has_value());
  EXPECT_EQ(ticks, 500);
  EXPECT_EQ(sim.now(), Time::us(5));
  EXPECT_EQ(sim.delta_count(), 501u);
  EXPECT_EQ(sim.activations(), 501u);
  EXPECT_EQ(digest.value(), 0xfab7ed26758a2372ULL);
}

/// A traced value outside the signal update phase: the thread changes it
/// directly, so only tracer sampling between its waits records it.
class PlainValue final : public SignalInIf<u32> {
 public:
  explicit PlainValue(Simulation& sim) : ev_(sim, "plain_value_ev") {}
  const u32& read() const override { return value; }
  Event& value_changed_event() override { return ev_; }
  u32 value = 0;

 private:
  Event ev_;
};

TEST(TimedWait, TracerSamplesTheInstantEachWaitLeaves) {
  const std::string path = ::testing::TempDir() + "/timed_wait_plain.vcd";
  {
    Simulation sim;
    Module top(sim, "top");
    PlainValue v(sim);
    TraceFile tf(sim, path);
    tf.trace(v, "v");
    top.spawn_thread("drv", [&] {
      for (u32 i = 1; i <= 3; ++i) {
        wait(2_ns);
        v.value = i;
      }
    });
    EXPECT_EQ(sim.run(), StopReason::kNoActivity);
    EXPECT_EQ(sim.now(), Time::ns(6));
    EXPECT_EQ(sim.delta_count(), 4u);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(),
            "$timescale 1ps $end\n"
            "$scope module adriatic $end\n"
            "$var wire 32 ! v $end\n"
            "$upscope $end\n"
            "$enddefinitions $end\n"
            "#0\nb00000000000000000000000000000000 !\n"
            "#2000\nb00000000000000000000000000000001 !\n"
            "#4000\nb00000000000000000000000000000010 !\n"
            "#6000\nb00000000000000000000000000000011 !\n");
  std::remove(path.c_str());
}

TEST(TimedWait, DeltaWorkQueuedBeforeTheWaitRunsFirst) {
  // `a` leaves a delta notification and, later, a freshly spawned thread
  // behind when it waits; both must run at the instant `a` waited, before
  // time advances to its wake.
  Simulation sim;
  conformance::TraceDigest digest;
  sim.set_observer(&digest);
  Module top(sim, "top");
  Event ev(sim, "ev");
  std::vector<u64> seen_ps;
  top.spawn_thread("b", [&] {
    wait(ev);
    seen_ps.push_back(sim.now().picoseconds());
  });
  top.spawn_thread("a", [&] {
    wait(3_ns);
    ev.notify_delta();
    wait(5_ns);
    top.spawn_thread("c", [&] { seen_ps.push_back(sim.now().picoseconds()); });
    wait(5_ns);
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_EQ(seen_ps, (std::vector<u64>{3000, 8000}));
  EXPECT_EQ(sim.now(), Time::ns(13));
  EXPECT_EQ(sim.delta_count(), 6u);
  EXPECT_EQ(sim.activations(), 7u);
  EXPECT_EQ(digest.value(), 0x253d1a9f84b50e88ULL);
}

}  // namespace
}  // namespace adriatic::kern
