// Hang-diagnostics tests: quiescent-deadlock reports, the sim-time progress
// watchdog (livelock), daemon exclusion, and report formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"

namespace adriatic::kern {
namespace {

using namespace adriatic::kern::literals;

const BlockedWaiter* find_waiter(const DeadlockReport& r,
                                 const std::string& process) {
  for (const BlockedWaiter& w : r.waiters)
    if (w.process == process) return &w;
  return nullptr;
}

TEST(DeadlockReportTest, MutualDeadlockNamesBothProcessesAndEvents) {
  Simulation sim;
  Module top(sim, "top");
  Event ev_a(sim, "ev_a");
  Event ev_b(sim, "ev_b");
  // The paper's classic two-party deadlock: each side waits for the other's
  // event before it would produce its own — neither notification ever fires.
  top.spawn_thread("alice", [&] {
    wait(ev_b);
    ev_a.notify();
  });
  top.spawn_thread("bob", [&] {
    wait(ev_a);
    ev_b.notify();
  });

  int handler_calls = 0;
  DeadlockReport seen;
  sim.set_deadlock_handler([&](const DeadlockReport& r) {
    ++handler_calls;
    seen = r;
  });

  // The return value stays kNoActivity — callers that key on it (tests,
  // tools) are unaffected; the report carries the diagnosis.
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();
  EXPECT_EQ(r.kind, DeadlockReport::Kind::kDeadlock);
  ASSERT_EQ(r.waiters.size(), 2u);

  const BlockedWaiter* alice = find_waiter(r, "top.alice");
  const BlockedWaiter* bob = find_waiter(r, "top.bob");
  ASSERT_NE(alice, nullptr);
  ASSERT_NE(bob, nullptr);
  EXPECT_TRUE(alice->is_thread);
  ASSERT_EQ(alice->awaited.size(), 1u);
  EXPECT_EQ(alice->awaited[0], "ev_b");
  ASSERT_EQ(bob->awaited.size(), 1u);
  EXPECT_EQ(bob->awaited[0], "ev_a");
  // Ids are the scheduler-trace name hashes, so reports join against traces.
  EXPECT_EQ(alice->process_id, sched_name_hash("top.alice"));
  EXPECT_EQ(alice->awaited_ids[0], sched_name_hash("ev_b"));

  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(seen.waiters.size(), 2u);
}

TEST(DeadlockReportTest, CleanFinishLeavesNoReport) {
  Simulation sim;
  Module top(sim, "top");
  top.spawn_thread("worker", [&] { wait(10_ns); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_FALSE(sim.deadlock_report().has_value());
}

TEST(DeadlockReportTest, DaemonWaitersAreExcluded) {
  Simulation sim;
  Module top(sim, "top");
  Event never(sim, "never");
  // A blocked daemon (infrastructure, e.g. a monitor) is not a deadlock:
  // quiescence with only daemons waiting is a normal end of simulation.
  auto& d = top.spawn_thread("monitor", [&] { wait(never); });
  d.set_daemon();
  top.spawn_thread("worker", [&] { wait(5_ns); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_FALSE(sim.deadlock_report().has_value());
}

TEST(DeadlockReportTest, WaitTimesAreMeasuredFromBlockStart) {
  Simulation sim;
  Module top(sim, "top");
  Event never(sim, "never");
  top.spawn_thread("stuck", [&] {
    wait(50_ns);
    wait(never);  // blocks at t = 50 ns
  });
  top.spawn_thread("background", [&] { wait(200_ns); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();
  EXPECT_EQ(r.at, Time::ns(200));
  const BlockedWaiter* stuck = find_waiter(r, "top.stuck");
  ASSERT_NE(stuck, nullptr);
  EXPECT_EQ(stuck->blocked_since, Time::ns(50));
  EXPECT_EQ(stuck->wait_duration, Time::ns(150));
}

TEST(DeadlockReportTest, WaitAnyListsEveryAwaitedEvent) {
  Simulation sim;
  Module top(sim, "top");
  Event e1(sim, "e1");
  Event e2(sim, "e2");
  top.spawn_thread("chooser", [&] {
    const std::array<Event*, 2> evs{&e1, &e2};
    wait_any(evs);
  });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const BlockedWaiter* w = find_waiter(*sim.deadlock_report(), "top.chooser");
  ASSERT_NE(w, nullptr);
  ASSERT_EQ(w->awaited.size(), 2u);
  EXPECT_NE(std::find(w->awaited.begin(), w->awaited.end(), "e1"),
            w->awaited.end());
  EXPECT_NE(std::find(w->awaited.begin(), w->awaited.end(), "e2"),
            w->awaited.end());
}

TEST(DeadlockReportTest, ReportIsClearedByTheNextRun) {
  Simulation sim;
  Module top(sim, "top");
  Event wake(sim, "wake");
  Event never(sim, "never");
  top.spawn_thread("stuck", [&] { wait(wake); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  // Wake the waiter and continue: the stale report must not survive a run
  // that ends cleanly.
  wake.notify(1_ns);
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  EXPECT_FALSE(sim.deadlock_report().has_value());
}

TEST(DeadlockReportTest, DestroyedProcessesNeverAppearInTheReport) {
  // Regression: a process destroyed mid-run (the EventQueue teardown
  // pattern) stayed in the scheduler's process list because ~Object()'s
  // dynamic_cast ran after the Process subobject was gone; the quiescence
  // report walk then dereferenced the freed process. Unregistration now
  // happens in ~Process() itself.
  Simulation sim;
  Module top(sim, "top");
  Event never(sim, "never");
  auto q = std::make_unique<EventQueue>(sim, "q");
  top.spawn_thread("reaper", [&] {
    wait(Time::ns(10));
    q.reset();
  });
  top.spawn_thread("stuck", [&] { wait(never); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();
  ASSERT_EQ(r.waiters.size(), 1u);
  EXPECT_EQ(r.waiters[0].process, "top.stuck");
}

TEST(LivelockWatchdogTest, ClockOnlyActivityTripsTheWatchdog) {
  Simulation sim;
  Module top(sim, "top");
  // The clock ticks forever (its tick process is a daemon), so time keeps
  // advancing — but no model process runs: the definition of a livelock.
  Clock clk(top, "clk", 10_ns);
  Event never(sim, "never");
  top.spawn_thread("stuck", [&] { wait(never); });

  sim.set_max_quiet_time(1_us);
  const auto reason = sim.run(Time::ms(100));
  EXPECT_EQ(reason, StopReason::kStalled);
  // Stopped at (last progress) + max_quiet_time, not after the full 100 ms.
  EXPECT_LE(sim.now(), Time::us(2));
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();
  EXPECT_EQ(r.kind, DeadlockReport::Kind::kLivelock);
  EXPECT_NE(find_waiter(r, "top.stuck"), nullptr);
}

TEST(LivelockWatchdogTest, ProgressingModelDoesNotTrip) {
  Simulation sim;
  Module top(sim, "top");
  Clock clk(top, "clk", 10_ns);
  // A real (non-daemon) consumer keeps making progress well inside the
  // quiet-time budget: the watchdog must stay silent for the whole run.
  int ticks = 0;
  top.spawn_thread("consumer", [&] {
    for (;;) {
      wait(clk.posedge_event());
      ++ticks;
    }
  });
  sim.set_max_quiet_time(1_us);
  EXPECT_EQ(sim.run(Time::us(2)), StopReason::kTimeLimit);
  EXPECT_GT(ticks, 100);
  EXPECT_FALSE(sim.deadlock_report().has_value());
}

TEST(LivelockWatchdogTest, DisabledByDefault) {
  Simulation sim;
  Module top(sim, "top");
  Clock clk(top, "clk", 10_ns);
  Event never(sim, "never");
  top.spawn_thread("stuck", [&] { wait(never); });
  // No max_quiet_time: the run simply exhausts its duration.
  EXPECT_EQ(sim.run(Time::us(5)), StopReason::kTimeLimit);
  EXPECT_FALSE(sim.deadlock_report().has_value());
}

TEST(DeadlockReportTest, ToStringAndJsonCarryTheDiagnosis) {
  Simulation sim;
  Module top(sim, "top");
  Event missing(sim, "missing_ack");
  top.spawn_thread("initiator", [&] { wait(missing); });
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
  ASSERT_TRUE(sim.deadlock_report().has_value());
  const DeadlockReport& r = *sim.deadlock_report();

  const std::string text = r.to_string();
  EXPECT_NE(text.find("deadlock"), std::string::npos);
  EXPECT_NE(text.find("top.initiator"), std::string::npos);
  EXPECT_NE(text.find("missing_ack"), std::string::npos);
}

}  // namespace
}  // namespace adriatic::kern
