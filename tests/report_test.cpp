// JSON writer and system-report tests, plus a full WLAN-style integration
// test that pushes frames through a DRCF pipeline and checks bit-exactness
// against the pure functional kernels.
#include <gtest/gtest.h>

#include <sstream>

#include "accel/accel_lib.hpp"
#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"
#include "netlist/report.hpp"
#include "transform/transform.hpp"
#include "util/json.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;

TEST(Json, ScalarsAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.field("a", static_cast<u64>(42));
  w.field("b", "text");
  w.field("c", true);
  w.field("pi", 3.5);
  w.key("list");
  w.begin_array();
  w.value(static_cast<u64>(1));
  w.value(static_cast<u64>(2));
  w.end();
  w.end();
  EXPECT_TRUE(w.balanced());
  EXPECT_EQ(w.str(),
            R"({"a":42,"b":"text","c":true,"pi":3.5,"list":[1,2]})");
}

TEST(Json, EscapesSpecials) {
  JsonWriter w;
  w.begin_object();
  w.field("k", "line\nquote\"back\\slash\ttab");
  w.end();
  EXPECT_EQ(w.str(), "{\"k\":\"line\\nquote\\\"back\\\\slash\\ttab\"}");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_array();
  w.begin_object();
  w.end();
  w.begin_array();
  w.end();
  w.end();
  EXPECT_EQ(w.str(), "[{},[]]");
  EXPECT_TRUE(w.balanced());
}

// ---------------------------------------------------------------------------

netlist::Design make_wlan_design() {
  netlist::Design d;
  netlist::BusDecl bus_decl;
  bus_decl.config.cycle_time = 10_ns;
  d.add("system_bus", bus_decl);

  netlist::MemoryDecl ram;
  ram.low = 0x1000;
  ram.words = 0x4000;
  ram.bus = "system_bus";
  d.add("ram", ram);

  netlist::MemoryDecl cfg;
  cfg.low = 0x100000;
  cfg.words = 1u << 16;
  cfg.bus = "system_bus";
  d.add("cfg_mem", cfg);

  netlist::HwAccelDecl fft;
  fft.base = 0x100;
  fft.spec = accel::make_fft_spec(64);
  fft.slave_bus = fft.master_bus = "system_bus";
  d.add("fft", fft);

  netlist::HwAccelDecl crc;
  crc.base = 0x200;
  crc.spec = accel::make_crc_spec();
  crc.slave_bus = crc.master_bus = "system_bus";
  d.add("crc", crc);

  netlist::ProcessorDecl cpu;
  cpu.master_bus = "system_bus";
  cpu.program = [](soc::Cpu& c) {
    Xoshiro256 rng(314);
    for (int frame = 0; frame < 3; ++frame) {
      std::vector<bus::word> sym(64);
      for (auto& s : sym)
        s = accel::pack_cplx(static_cast<i16>(rng.next_range(-6000, 6000)),
                             static_cast<i16>(rng.next_range(-6000, 6000)));
      c.burst_write(0x1000, sym);
      c.write(0x100 + soc::HwAccel::kSrc, 0x1000);
      c.write(0x100 + soc::HwAccel::kDst, 0x1100);
      c.write(0x100 + soc::HwAccel::kLen, 64);
      c.write(0x100 + soc::HwAccel::kCtrl, 1);
      c.poll_until(0x100 + soc::HwAccel::kStatus, soc::HwAccel::kDone,
                   100_ns);
      c.write(0x100 + soc::HwAccel::kStatus, 0);
      c.write(0x200 + soc::HwAccel::kSrc, 0x1100);
      c.write(0x200 + soc::HwAccel::kDst, 0x1200);
      c.write(0x200 + soc::HwAccel::kLen, 64);
      c.write(0x200 + soc::HwAccel::kCtrl, 1);
      c.poll_until(0x200 + soc::HwAccel::kStatus, soc::HwAccel::kDone,
                   100_ns);
      c.write(0x200 + soc::HwAccel::kStatus, 0);
    }
  };
  d.add("cpu", cpu);
  return d;
}

TEST(Integration, WlanPipelineBitExactThroughDrcf) {
  auto d = make_wlan_design();
  transform::TransformOptions opt;
  opt.drcf_config.technology = drcf::morphosys_like();
  opt.config_memory = "cfg_mem";
  const std::vector<std::string> candidates{"fft", "crc"};
  ASSERT_TRUE(transform::transform_to_drcf(d, candidates, opt).ok);

  kern::Simulation sim;
  netlist::Elaborated e(sim, d);
  sim.run();
  ASSERT_TRUE(e.get_processor("cpu").finished());

  // Recompute the last frame's expected output from the pure kernels.
  Xoshiro256 rng(314);
  std::vector<bus::word> sym(64);
  for (int frame = 0; frame < 3; ++frame)
    for (auto& s : sym)
      s = accel::pack_cplx(static_cast<i16>(rng.next_range(-6000, 6000)),
                           static_cast<i16>(rng.next_range(-6000, 6000)));
  const auto spectrum = accel::fft_q15(sym);
  auto expect = spectrum;
  expect.push_back(static_cast<i32>(accel::crc32_words(spectrum)));

  auto& ram = e.get_memory("ram");
  for (usize i = 0; i < expect.size(); ++i)
    EXPECT_EQ(ram.peek(0x1200 + static_cast<u32>(i)), expect[i]) << i;

  // Pipeline stats make sense: 3 frames x 2 stages, alternating contexts.
  auto& fabric = e.get_drcf("drcf1");
  EXPECT_EQ(fabric.stats().switches, 6u);
}

TEST(Integration, SystemReportTablesAndJson) {
  auto d = make_wlan_design();
  transform::TransformOptions opt;
  opt.drcf_config.technology = drcf::morphosys_like();
  opt.config_memory = "cfg_mem";
  const std::vector<std::string> candidates{"fft", "crc"};
  ASSERT_TRUE(transform::transform_to_drcf(d, candidates, opt).ok);

  kern::Simulation sim;
  netlist::Elaborated e(sim, d);
  sim.run();

  netlist::SystemReport report(d, e);
  std::ostringstream os;
  report.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("=== system report"), std::string::npos);
  EXPECT_NE(text.find("system_bus"), std::string::npos);
  EXPECT_NE(text.find("drcf1"), std::string::npos);
  EXPECT_NE(text.find("cfg_mem"), std::string::npos);
}

}  // namespace
}  // namespace adriatic
