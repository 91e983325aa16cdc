// Object-lifetime regressions, table-driven so every shape runs under the
// plain build, the sanitizer builds and the ADRIATIC_CHECKED build from one
// source of truth. Each shape destroys a kernel object inside the window
// where a lazily-removed scheduler-queue slot still names it; the kernel
// must purge the slot instead of dereferencing freed memory.
//
// Also: the tracer list must tolerate a tracer detaching (or attaching)
// from inside a sample callback — sample_tracers() nulls slots instead of
// erasing mid-walk.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/vcd.hpp"

namespace adriatic::kern {
namespace {

using namespace literals;

// --- table-driven destruction-window shapes --------------------------------

void delta_then_cancel_then_destroy() {
  // notify_delta() + cancel() leaves a stale delta-queue slot; destroying
  // the event in that window must purge it before the next delta dispatch.
  Simulation sim;
  auto ev = std::make_unique<Event>(sim, "ev");
  ev->notify_delta();
  ev->cancel();
  ev.reset();
  EXPECT_EQ(sim.run(), StopReason::kNoActivity);
}

void immediate_notify_overriding_delta() {
  // notify() fires immediately and retracts the queued delta notification
  // lazily; the event dies with the stale slot still outstanding.
  Simulation sim;
  Module top(sim, "top");
  auto ev = std::make_unique<Event>(sim, "ev");
  bool woke = false;
  top.spawn_thread("t", [&] {
    ev->notify_delta();
    ev->notify();
    ev.reset();
    wait(Time::ns(1));
    woke = true;
  });
  sim.run();
  EXPECT_TRUE(woke);
}

void local_event_of_finishing_thread() {
  // An Event local to a thread dies when the thread returns mid-simulation,
  // with its retracted delta notification still queued this delta round.
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

void event_queue_cancel_all_then_destroy() {
  // cancel_all() retracts the queue's in-flight delta notification lazily;
  // the EventQueue is destroyed with the stale slot still queued.
  Simulation sim;
  auto q = std::make_unique<EventQueue>(sim, "q");
  Module top(sim, "top");
  Event kick(sim, "kick");
  bool survived = false;
  top.spawn_thread("driver", [&] {
    q->notify(Time::zero());
    kick.notify_delta();
    wait(kick);
    q->cancel_all();
    q.reset();
    wait(Time::ns(1));
    survived = true;
  });
  sim.run();
  EXPECT_TRUE(survived);
}

struct LifetimeShape {
  const char* name;
  void (*run)();
};

// Prints a shape by name: without it gtest prints the parameter as a byte
// dump that includes the function pointer, and ctest's test IDs would
// differ from build to build.
void PrintTo(const LifetimeShape& shape, std::ostream* os) {
  *os << shape.name;
}

constexpr LifetimeShape kShapes[] = {
    {"DeltaThenCancelThenDestroy", delta_then_cancel_then_destroy},
    {"ImmediateNotifyOverridingDelta", immediate_notify_overriding_delta},
    {"LocalEventOfFinishingThread", local_event_of_finishing_thread},
    {"EventQueueCancelAllThenDestroy", event_queue_cancel_all_then_destroy},
};

class KernelLifetime : public ::testing::TestWithParam<LifetimeShape> {};

TEST_P(KernelLifetime, SurvivesDestructionWindow) { GetParam().run(); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelLifetime, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<LifetimeShape>& info) {
      return std::string(info.param.name);
    });

// --- tracer list mutation from inside a sample callback --------------------

/// A signal whose read() runs an arbitrary side effect — the hook through
/// which a tracer's sample callback can mutate the tracer list itself
/// (TraceFile::cycle samples by calling sig.read()).
class SideEffectSignal final : public SignalInIf<u32> {
 public:
  SideEffectSignal(Simulation& sim, std::function<void()> on_read)
      : ev_(sim, "side_effect_ev"), on_read_(std::move(on_read)) {}

  const u32& read() const override {
    if (on_read_) on_read_();
    return value_;
  }
  Event& value_changed_event() override { return ev_; }

 private:
  Event ev_;
  std::function<void()> on_read_;
  u32 value_ = 42;
};

TEST(TracerLifetime, DetachDuringSampleDoesNotSkipOrCrash) {
  // Regression: tracer `a`'s sample callback destroys tracer `b` (which
  // detaches from inside sample_tracers()'s walk). `c` must still be
  // sampled and the walk must not touch the destroyed tracer.
  Simulation sim;
  Module top(sim, "top");
  top.spawn_thread("t", [&] { wait(Time::ns(1)); });

  const std::string dir = ::testing::TempDir();
  auto b = std::make_unique<TraceFile>(sim, dir + "/detach_b.vcd");
  bool killed = false;
  SideEffectSignal killer(sim, [&] {
    if (!killed) {
      killed = true;
      b.reset();  // detaches b from inside a's cycle()
    }
  });
  SideEffectSignal quiet(sim, nullptr);

  TraceFile a(sim, dir + "/detach_a.vcd");
  a.trace(killer, "killer");
  b->trace(quiet, "quiet_b");
  TraceFile c(sim, dir + "/detach_c.vcd");
  c.trace(quiet, "quiet_c");

  sim.run();
  EXPECT_TRUE(killed);
  EXPECT_GE(a.samples_written(), 1u);
  EXPECT_GE(c.samples_written(), 1u);  // not skipped by b's removal
}

TEST(TracerLifetime, AttachDuringSampleDoesNotInvalidateWalk) {
  // A sample callback that attaches a brand-new tracer forces the tracer
  // vector to grow (and possibly reallocate) mid-walk.
  Simulation sim;
  Module top(sim, "top");
  top.spawn_thread("t", [&] {
    wait(Time::ns(1));
    wait(Time::ns(1));
  });

  const std::string dir = ::testing::TempDir();
  std::vector<std::unique_ptr<TraceFile>> spawned;
  SideEffectSignal spawner(sim, [&] {
    if (spawned.empty())
      spawned.push_back(
          std::make_unique<TraceFile>(sim, dir + "/attach_new.vcd"));
  });
  SideEffectSignal quiet(sim, nullptr);

  TraceFile a(sim, dir + "/attach_a.vcd");
  a.trace(spawner, "spawner");
  TraceFile b(sim, dir + "/attach_b.vcd");
  b.trace(quiet, "quiet");

  sim.run();
  ASSERT_EQ(spawned.size(), 1u);
  EXPECT_GE(a.samples_written(), 1u);
  EXPECT_GE(b.samples_written(), 1u);
}

}  // namespace
}  // namespace adriatic::kern
