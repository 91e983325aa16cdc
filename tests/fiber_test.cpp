// Fiber tests against the Fiber API directly: switch correctness (control
// flow, floating-point control state, deep stacks), the guard page under
// every stack, and the bounded per-thread stack pool.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/fiber.hpp"

namespace adriatic::kern {
namespace {

// -- /proc/self/maps ---------------------------------------------------------

struct Mapping {
  std::uintptr_t start = 0;
  std::uintptr_t end = 0;
  std::string perms;
};

std::vector<Mapping> read_maps() {
  std::vector<Mapping> out;
  std::ifstream in("/proc/self/maps");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string range;
    Mapping m;
    ls >> range >> m.perms;
    const auto dash = range.find('-');
    m.start = std::stoull(range.substr(0, dash), nullptr, 16);
    m.end = std::stoull(range.substr(dash + 1), nullptr, 16);
    out.push_back(m);
  }
  return out;
}

const Mapping* mapping_containing(const std::vector<Mapping>& maps,
                                  std::uintptr_t addr) {
  for (const Mapping& m : maps)
    if (m.start <= addr && addr < m.end) return &m;
  return nullptr;
}

// -- Switching ---------------------------------------------------------------

TEST(FiberTest, ResumeYieldPingPong) {
  constexpr int kRounds = 10'000;
  int inside = 0;
  Fiber f([&] {
    for (int i = 0; i < kRounds; ++i) {
      ++inside;
      Fiber::yield();
    }
  });
  int resumes = 0;
  while (!f.finished()) {
    f.resume();
    ++resumes;
    EXPECT_EQ(inside, std::min(resumes, kRounds));
  }
  EXPECT_EQ(resumes, kRounds + 1);  // the last resume runs fn to its end
  f.resume();                       // a finished fiber ignores resume()
  EXPECT_EQ(inside, kRounds);
}

#if defined(__x86_64__)
std::uint32_t read_mxcsr() {
  std::uint32_t v = 0;
  asm volatile("stmxcsr %0" : "=m"(v));
  return v;
}
void write_mxcsr(std::uint32_t v) { asm volatile("ldmxcsr %0" : : "m"(v)); }
std::uint16_t read_x87_cw() {
  std::uint16_t v = 0;
  asm volatile("fnstcw %0" : "=m"(v));
  return v;
}
void write_x87_cw(std::uint16_t v) { asm volatile("fldcw %0" : : "m"(v)); }

TEST(FiberTest, FloatingPointControlIsPerFiber) {
  // Rounding control lives in bits 13-14 of MXCSR and 10-11 of the x87
  // control word; precision control in bits 8-9 of the latter. Each side
  // sets a different combination and must find it intact after every
  // switch in either direction.
  const std::uint32_t mxcsr0 = read_mxcsr();
  const std::uint16_t cw0 = read_x87_cw();
  const std::uint32_t sched_mxcsr = (mxcsr0 & ~0x6000u) | 0x2000u;  // down
  const std::uint16_t sched_cw =
      static_cast<std::uint16_t>((cw0 & ~0x0C00u) | 0x0800u);  // up
  const std::uint32_t fiber_mxcsr = (mxcsr0 & ~0x6000u) | 0x6000u;  // zero
  const std::uint16_t fiber_cw =
      static_cast<std::uint16_t>((cw0 & ~0x0F00u) | 0x0400u);  // down, single

  write_mxcsr(sched_mxcsr);
  write_x87_cw(sched_cw);
  int checks = 0;
  Fiber f([&] {
    // A fresh fiber starts with the settings of its first resume().
    EXPECT_EQ(read_mxcsr(), sched_mxcsr);
    EXPECT_EQ(read_x87_cw(), sched_cw);
    write_mxcsr(fiber_mxcsr);
    write_x87_cw(fiber_cw);
    for (int i = 0; i < 3; ++i) {
      Fiber::yield();
      EXPECT_EQ(read_mxcsr(), fiber_mxcsr);
      EXPECT_EQ(read_x87_cw(), fiber_cw);
      ++checks;
    }
  });
  while (!f.finished()) {
    f.resume();
    EXPECT_EQ(read_mxcsr(), sched_mxcsr);
    EXPECT_EQ(read_x87_cw(), sched_cw);
  }
  write_mxcsr(mxcsr0);
  write_x87_cw(cw0);
  EXPECT_EQ(checks, 3);
}
#endif

TEST(FiberTest, RoundingModeIsPerFiber) {
  // The portable view of the same property, through <cfenv>.
  const int mode0 = std::fegetround();
  std::fesetround(FE_DOWNWARD);
  int checks = 0;
  Fiber f([&] {
    std::fesetround(FE_TOWARDZERO);
    for (int i = 0; i < 3; ++i) {
      Fiber::yield();
      EXPECT_EQ(std::fegetround(), FE_TOWARDZERO);
      ++checks;
    }
  });
  while (!f.finished()) {
    f.resume();
    EXPECT_EQ(std::fegetround(), FE_DOWNWARD);
  }
  std::fesetround(mode0);
  EXPECT_EQ(checks, 3);
}

// Recurses until less than `margin` bytes of the fiber stack are left below
// the current frame, yields there (so a switch runs at full depth), and
// returns a checksum of every frame's contents on the way back up.
[[gnu::noinline]] std::uint64_t recurse_to(std::uintptr_t floor, int depth,
                                           int& max_depth) {
  volatile unsigned char pad[512];
  for (unsigned i = 0; i < sizeof pad; ++i)
    pad[i] = static_cast<unsigned char>(depth + i);
  std::uint64_t sum = 0;
  if (reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) > floor) {
    sum = recurse_to(floor, depth + 1, max_depth);
  } else {
    max_depth = depth;
    Fiber::yield();
  }
  for (unsigned i = 0; i < sizeof pad; ++i) sum += pad[i];
  return sum;
}

TEST(FiberTest, RecursionCloseToTheStackSize) {
  constexpr std::size_t kStack = 256 * 1024;
  constexpr std::size_t kMargin = 16 * 1024;  // room for the switch itself
  int max_depth = 0;
  std::uint64_t sum = 0;
  Fiber f(
      [&] {
        const auto top =
            reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
        sum = recurse_to(top - (kStack - kMargin), 0, max_depth);
      },
      kStack);
  f.resume();  // runs down to the floor and yields there
  ASSERT_FALSE(f.finished());
  EXPECT_GT(max_depth, 0);
  f.resume();
  ASSERT_TRUE(f.finished());
  std::uint64_t expected = 0;
  for (int d = 0; d <= max_depth; ++d)
    for (unsigned i = 0; i < 512; ++i)
      expected += static_cast<unsigned char>(d + static_cast<int>(i));
  EXPECT_EQ(sum, expected);
}

// -- Stacks ------------------------------------------------------------------

[[gnu::noinline]] std::uint64_t recurse_forever(std::uint64_t depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  if (depth == ~std::uint64_t{0}) return 0;  // never: the guard page hits first
  return recurse_forever(depth + 1) + static_cast<std::uint64_t>(pad[0]);
}

TEST(FiberDeathTest, OverflowHitsTheGuardPage) {
  EXPECT_EXIT(
      {
        // Sanitizer runtimes catch SIGSEGV and exit with their own status;
        // the property under test is the fault itself.
        std::signal(SIGSEGV, SIG_DFL);
        Fiber f([] { (void)recurse_forever(0); }, 64 * 1024);
        f.resume();
      },
      testing::KilledBySignal(SIGSEGV), "");
}

TEST(FiberTest, PooledStackIsReusedAndKeepsItsGuardPage) {
  // A stack size no other test uses, so only this test's stack can match.
  constexpr std::size_t kStack = 200 * 1024 + 123;
  auto frame_of_new_fiber = [&] {
    std::uintptr_t frame = 0;
    Fiber f(
        [&] {
          frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
        },
        kStack);
    f.resume();
    return frame;
  };
  const std::uintptr_t first = frame_of_new_fiber();
  const std::uintptr_t second = frame_of_new_fiber();
  EXPECT_EQ(first, second) << "the released stack was not reused";

  // The reused stack is still in the pool; run on it once more and check
  // that the page right below its mapping is an inaccessible guard.
  std::vector<Mapping> maps;
  Fiber f(
      [&] {
        maps = read_maps();
        EXPECT_EQ(
            reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)),
            first);
      },
      kStack);
  f.resume();
  const Mapping* stack = mapping_containing(maps, first);
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->perms.substr(0, 3), "rw-");
  const Mapping* guard = mapping_containing(maps, stack->start - 1);
  ASSERT_NE(guard, nullptr) << "nothing mapped below the stack";
  EXPECT_EQ(guard->end, stack->start);
  EXPECT_EQ(guard->perms.substr(0, 3), "---");
}

TEST(FiberTest, ManyFibersDoNotGrowTheMappedStacksBeyondThePool) {
  // 10k fibers in waves of 100 live at once: every wave releases 36 more
  // stacks than the 64-stack pool keeps, and those must be unmapped. A
  // stack of this test's size is a one-page PROT_NONE mapping with a
  // read-write mapping of exactly that size right above it, so counting
  // those pairs counts the stacks still mapped (sanitizer runtimes make
  // their own mappings, so the total mapping count would not do).
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t stack = 28 * page;
  constexpr int kWaves = 100;
  constexpr int kLive = 100;
  constexpr std::size_t kPool = 64;
  const auto mapped_stacks = [&] {
    const std::vector<Mapping> maps = read_maps();
    std::size_t n = 0;
    for (std::size_t i = 0; i + 1 < maps.size(); ++i)
      if (maps[i].perms.substr(0, 3) == "---" &&
          maps[i].end - maps[i].start == page &&
          maps[i + 1].start == maps[i].end &&
          maps[i + 1].perms.substr(0, 3) == "rw-" &&
          maps[i + 1].end - maps[i + 1].start == stack)
        ++n;
    return n;
  };
  int ran = 0;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::unique_ptr<Fiber>> live;
    for (int i = 0; i < kLive; ++i)
      live.push_back(std::make_unique<Fiber>(
          [&] {
            Fiber::yield();
            ++ran;
          },
          stack));
    for (auto& f : live) f->resume();
    if (w == 0) {
      EXPECT_GE(mapped_stacks(), static_cast<std::size_t>(kLive) - 2);
    }
    for (int i = 0; i < kLive; i += 2) live[static_cast<std::size_t>(i)]->resume();
    // Odd fibers are destroyed while suspended: their stacks recycle too.
  }
  EXPECT_EQ(ran, kWaves * kLive / 2);
  EXPECT_LE(mapped_stacks(), kPool);
}

}  // namespace
}  // namespace adriatic::kern
