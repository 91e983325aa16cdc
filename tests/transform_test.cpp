// Netlist and DRCF-transformation tests, including the paper's Sec. 5.2
// worked example: functional equivalence before/after the transformation and
// the three Sec. 5.4 limitation diagnostics.
#include <gtest/gtest.h>

#include <array>

#include "accel/accel_lib.hpp"
#include "morphosys/assembler.hpp"
#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"
#include "transform/transform.hpp"

namespace adriatic::transform {
namespace {

using namespace kern::literals;
using netlist::Design;
using netlist::Elaborated;

// The Sec. 5.2 architecture: CPU + bus + two accelerators + memories.
// The CPU program runs CRC over a buffer on HWA, then matmul on HWB.
Design make_reference_design(bool split_bus = true) {
  Design d;
  netlist::BusDecl bus_decl;
  bus_decl.config.cycle_time = 10_ns;
  bus_decl.config.split_transactions = split_bus;
  d.add("system_bus", bus_decl);

  netlist::MemoryDecl ram;
  ram.low = 0x1000;
  ram.words = 2048;
  ram.bus = "system_bus";
  d.add("ram", ram);

  netlist::MemoryDecl cfg;
  cfg.low = 0x100000;
  cfg.words = 1u << 16;
  cfg.bus = "system_bus";
  d.add("cfg_mem", cfg);

  netlist::HwAccelDecl hwa;
  hwa.base = 0x100;
  hwa.spec = accel::make_crc_spec();
  hwa.slave_bus = "system_bus";
  hwa.master_bus = "system_bus";
  d.add("hwa", hwa);

  netlist::HwAccelDecl hwb;
  hwb.base = 0x200;
  hwb.spec = accel::make_matmul_spec(4);
  hwb.slave_bus = "system_bus";
  hwb.master_bus = "system_bus";
  d.add("hwb", hwb);

  netlist::ProcessorDecl cpu;
  cpu.master_bus = "system_bus";
  cpu.program = [](soc::Cpu& c) {
    // Seed input data.
    // Fixed-size arrays, not vectors: the Limitation-3 test leaves this
    // program suspended forever, and a suspended frame is never unwound.
    const std::array<bus::word, 8> payload{3, 1, 4, 1, 5, 9, 2, 6};
    c.burst_write(0x1000, payload);
    // CRC on HWA.
    c.write(0x100 + soc::HwAccel::kSrc, 0x1000);
    c.write(0x100 + soc::HwAccel::kDst, 0x1100);
    c.write(0x100 + soc::HwAccel::kLen, 8);
    c.write(0x100 + soc::HwAccel::kCtrl, 1);
    c.poll_until(0x100 + soc::HwAccel::kStatus, soc::HwAccel::kDone, 100_ns);
    // Matmul on HWB: A = B = 4x4 ramp.
    std::array<bus::word, 32> mats{};
    for (usize i = 0; i < 16; ++i) mats[i] = mats[16 + i] = static_cast<bus::word>(i);
    c.burst_write(0x1200, mats);
    c.write(0x200 + soc::HwAccel::kSrc, 0x1200);
    c.write(0x200 + soc::HwAccel::kDst, 0x1300);
    c.write(0x200 + soc::HwAccel::kLen, 32);
    c.write(0x200 + soc::HwAccel::kCtrl, 1);
    c.poll_until(0x200 + soc::HwAccel::kStatus, soc::HwAccel::kDone, 100_ns);
  };
  d.add("cpu", cpu);
  return d;
}

TransformOptions make_options() {
  TransformOptions opt;
  opt.drcf_config.technology = drcf::varicore_like();
  opt.config_memory = "cfg_mem";
  return opt;
}

struct RunResult {
  std::vector<bus::word> crc_out;
  std::vector<bus::word> mat_out;
  kern::Time finish_time;
};

RunResult run_design(Design& d) {
  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  RunResult r;
  auto& ram = e.get_memory("ram");
  for (u32 i = 0; i < 9; ++i) r.crc_out.push_back(ram.peek(0x1100 + i));
  for (u32 i = 0; i < 16; ++i) r.mat_out.push_back(ram.peek(0x1300 + i));
  r.finish_time = sim.now();
  EXPECT_TRUE(e.get_processor("cpu").finished());
  return r;
}

// ---------------------------------------------------------------------------

TEST(DesignTest, DuplicateAndMissingNames) {
  Design d;
  d.add("bus", netlist::BusDecl{});
  EXPECT_THROW(d.add("bus", netlist::BusDecl{}), std::invalid_argument);
  EXPECT_THROW(d.add("", netlist::BusDecl{}), std::invalid_argument);
  EXPECT_THROW(d.at("nope"), std::out_of_range);
  EXPECT_TRUE(d.contains("bus"));
}

TEST(DesignTest, ValidateCatchesDanglingReferences) {
  Design d;
  netlist::MemoryDecl m;
  m.words = 16;
  m.bus = "ghost_bus";
  d.add("ram", m);
  const auto problems = d.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unknown component"), std::string::npos);
}

TEST(DesignTest, ValidateCatchesKindMismatch) {
  Design d;
  d.add("bus", netlist::BusDecl{});
  netlist::MemoryDecl m;
  m.words = 16;
  m.bus = "bus";
  d.add("ram", m);
  netlist::DmaDecl dma;
  dma.slave_bus = "ram";  // a memory, not a bus
  dma.master_bus = "bus";
  d.add("dma", dma);
  const auto problems = d.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("expected a bus"), std::string::npos);
}

TEST(DesignTest, ValidateCatchesNullProgramAndBadSpec) {
  Design d;
  d.add("bus", netlist::BusDecl{});
  netlist::ProcessorDecl p;
  p.master_bus = "bus";
  d.add("cpu", p);  // program not set
  netlist::HwAccelDecl h;
  h.master_bus = "bus";
  d.add("acc", h);  // invalid spec
  const auto problems = d.validate();
  EXPECT_EQ(problems.size(), 2u);
}

TEST(DesignTest, ReferenceDesignIsValid) {
  auto d = make_reference_design();
  EXPECT_TRUE(d.validate().empty());
}

TEST(ElaborateTest, RejectsInvalidDesign) {
  kern::Simulation sim;
  Design d;
  netlist::MemoryDecl m;
  m.words = 0;  // invalid
  d.add("ram", m);
  EXPECT_THROW(Elaborated(sim, d), std::invalid_argument);
}

TEST(ElaborateTest, BuildsHierarchyUnderTop) {
  kern::Simulation sim;
  auto d = make_reference_design();
  Elaborated e(sim, d, "soc");
  EXPECT_EQ(e.top().name(), "soc");
  EXPECT_NE(sim.find_object("soc.system_bus"), nullptr);
  EXPECT_NE(sim.find_object("soc.hwa"), nullptr);
  EXPECT_NE(sim.find_object("soc.cpu"), nullptr);
  EXPECT_TRUE(e.has("ram"));
  EXPECT_FALSE(e.has("nonexistent"));
  EXPECT_THROW(e.get_drcf("ram"), std::out_of_range);
  EXPECT_THROW(e.get_bus("nonexistent"), std::out_of_range);
}

TEST(ElaborateTest, ReferenceDesignRunsCorrectly) {
  auto d = make_reference_design();
  auto r = run_design(d);
  // CRC output: payload echoed + CRC word.
  const std::vector<bus::word> payload{3, 1, 4, 1, 5, 9, 2, 6};
  for (usize i = 0; i < 8; ++i) EXPECT_EQ(r.crc_out[i], payload[i]);
  EXPECT_EQ(static_cast<u32>(r.crc_out[8]), accel::crc32_words(payload));
  // Matmul output: ramp^2.
  std::vector<bus::word> ramp(16);
  for (usize i = 0; i < 16; ++i) ramp[i] = static_cast<bus::word>(i);
  EXPECT_EQ(r.mat_out, accel::matmul(ramp, ramp, 4));
}

TEST(ElaborateTest, IssAndIrqDeclsBuildAndRun) {
  // Binary-software SoC from the netlist: an ISS core runs assembled code
  // that starts the CRC accelerator and spins on the interrupt controller's
  // STATUS register instead of the accelerator's.
  Design d;
  d.add("system_bus", netlist::BusDecl{});
  netlist::MemoryDecl code;
  code.low = 0x8000;
  code.words = 1024;
  code.bus = "system_bus";
  d.add("code", code);
  netlist::MemoryDecl data;
  data.low = 0x1000;
  data.words = 1024;
  data.bus = "system_bus";
  d.add("data", data);
  netlist::HwAccelDecl acc;
  acc.base = 0x100;
  acc.spec = accel::make_crc_spec();
  acc.slave_bus = acc.master_bus = "system_bus";
  d.add("acc", acc);
  netlist::IrqControllerDecl irq;
  irq.base = 0x400;
  irq.bus = "system_bus";
  irq.lines = {{0, "acc"}};
  d.add("irq", irq);
  netlist::IssDecl iss;
  iss.master_bus = "system_bus";
  iss.code_memory = "code";
  iss.config.reset_pc = 0x8000;
  iss.config.icache_line_words = 16;
  iss.program = morphosys::assemble(R"(
    ADDI r5, r0, 0x400   ; irq controller
    ADDI r2, r0, 1
    STW  r5, 2, r2       ; ENABLE line 0
    ADDI r1, r0, 0x100   ; accelerator
    ADDI r2, r0, 0x1000
    STW  r1, 2, r2       ; SRC
    ADDI r2, r0, 0x1040
    STW  r1, 3, r2       ; DST
    ADDI r2, r0, 4
    STW  r1, 4, r2       ; LEN
    ADDI r2, r0, 1
    STW  r1, 0, r2       ; CTRL
    wait:
    LDW  r4, r5, 0       ; IRQ STATUS
    BEQ  r4, r0, wait
    ADDI r2, r0, 1
    STW  r5, 3, r2       ; ACK
    HALT
  )");
  d.add("cpu", iss);
  EXPECT_TRUE(d.validate().empty());

  kern::Simulation sim;
  Elaborated e(sim, d);
  e.get_memory("data").load(0x1000, std::vector<bus::word>{9, 8, 7, 6});
  sim.run();
  EXPECT_TRUE(e.get_iss("cpu").stats().halted);
  EXPECT_FALSE(e.get_iss("cpu").stats().illegal_instruction);
  EXPECT_EQ(e.get_irq("irq").pending(), 0u);  // acknowledged
  EXPECT_EQ(static_cast<u32>(e.get_memory("data").peek(0x1040 + 4)),
            accel::crc32_words(std::vector<bus::word>{9, 8, 7, 6}));
}

TEST(DesignTest, IssAndIrqValidation) {
  Design d;
  d.add("bus", netlist::BusDecl{});
  netlist::IssDecl iss;  // empty program, missing code memory
  iss.master_bus = "bus";
  iss.code_memory = "nope";
  d.add("cpu", iss);
  netlist::IrqControllerDecl irq;
  irq.bus = "bus";
  irq.lines = {{40, "ghost"}};  // bad line index, unknown source
  d.add("irq", irq);
  const auto problems = d.validate();
  EXPECT_EQ(problems.size(), 4u);
}

// ---------------------------------------------------------------------------

TEST(TransformTest, ProducesValidTransformedDesign) {
  auto d = make_reference_design();
  const std::vector<std::string> candidates{"hwa", "hwb"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  ASSERT_TRUE(report.ok) << (report.diagnostics.empty()
                                 ? "?"
                                 : report.diagnostics[0]);
  EXPECT_TRUE(d.validate().empty());
  EXPECT_TRUE(d.contains("drcf1"));
  const auto* dr = d.get_if<netlist::DrcfDecl>("drcf1");
  ASSERT_NE(dr, nullptr);
  EXPECT_EQ(dr->contexts, candidates);
  EXPECT_EQ(dr->slave_bus, "system_bus");
  // Candidates lost their direct bus binding (phase 4).
  EXPECT_TRUE(d.get_if<netlist::HwAccelDecl>("hwa")->slave_bus.empty());
}

TEST(TransformTest, AnalysisRecordsPaperPhases) {
  auto d = make_reference_design();
  const std::vector<std::string> candidates{"hwa"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  ASSERT_TRUE(report.ok);
  ASSERT_EQ(report.candidates.size(), 1u);
  const auto& a = report.candidates[0];
  EXPECT_EQ(a.instance, "hwa");
  EXPECT_EQ(a.interface, "bus_slv_if");
  EXPECT_EQ(a.ports.size(), 2u);  // clk + mst_port, as in the paper listing
  EXPECT_EQ(a.low, 0x100u);
  EXPECT_GT(a.context_words, 0u);
  EXPECT_GE(a.config_address, 0x100000u);
}

TEST(TransformTest, ListingsMirrorThePaper) {
  auto d = make_reference_design();
  const std::vector<std::string> candidates{"hwa", "hwb"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  ASSERT_TRUE(report.ok);
  // Before: the original top instantiates hwa and binds it to the bus.
  EXPECT_NE(report.before_listing.find("hwa = new hwacc(\"hwa\""),
            std::string::npos);
  EXPECT_NE(report.before_listing.find("system_bus->slv_port(*hwa);"),
            std::string::npos);
  // After: top instantiates drcf1 instead; the DRCF template owns hwa and
  // has the arb_and_instr thread.
  EXPECT_NE(report.after_listing.find("drcf1 = new drcf_own(\"drcf1\");"),
            std::string::npos);
  EXPECT_NE(report.after_listing.find("SC_THREAD(arb_and_instr);"),
            std::string::npos);
  EXPECT_NE(report.after_listing.find("hwa = new hwacc(\"hwa\""),
            std::string::npos);
  EXPECT_EQ(report.after_listing.find("system_bus->slv_port(*hwa);"),
            std::string::npos);
}

TEST(TransformTest, TransformedDesignFunctionallyEquivalent) {
  auto original = make_reference_design();
  auto transformed = make_reference_design();
  const std::vector<std::string> candidates{"hwa", "hwb"};
  const auto report =
      transform_to_drcf(transformed, candidates, make_options());
  ASSERT_TRUE(report.ok);

  auto r_orig = run_design(original);
  auto r_drcf = run_design(transformed);
  // Same results...
  EXPECT_EQ(r_orig.crc_out, r_drcf.crc_out);
  EXPECT_EQ(r_orig.mat_out, r_drcf.mat_out);
  // ...but the DRCF version pays reconfiguration time.
  EXPECT_GT(r_drcf.finish_time, r_orig.finish_time);
}

TEST(TransformTest, DrcfInstrumentationAfterRun) {
  auto d = make_reference_design();
  const std::vector<std::string> candidates{"hwa", "hwb"};
  ASSERT_TRUE(transform_to_drcf(d, candidates, make_options()).ok);
  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  auto& fabric = e.get_drcf("drcf1");
  EXPECT_EQ(fabric.stats().switches, 2u);  // CRC then matmul
  EXPECT_GT(fabric.stats().config_words_fetched, 0u);
  const auto s0 = fabric.context_stats(0);
  EXPECT_EQ(s0.activations, 1u);
  EXPECT_GT(s0.accesses, 0u);
  EXPECT_GT(s0.reconfig_time, kern::Time::zero());
  // The synthetic bitstream was installed in the config memory.
  const auto& params = fabric.context_params(0);
  EXPECT_EQ(static_cast<u32>(
                e.get_memory("cfg_mem").peek(params.config_address)),
            Elaborated::kBitstreamPattern | 0u);
}

TEST(TransformTest, Limitation1DifferentBusesRejected) {
  auto d = make_reference_design();
  netlist::BusDecl other;
  d.add("other_bus", other);
  netlist::HwAccelDecl hwc;
  hwc.base = 0x300;
  hwc.spec = accel::make_crc_spec();
  hwc.slave_bus = "other_bus";
  hwc.master_bus = "other_bus";
  d.add("hwc", hwc);
  const std::vector<std::string> candidates{"hwa", "hwc"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("limitation 1"));
  EXPECT_FALSE(d.contains("drcf1"));  // design untouched
  EXPECT_FALSE(d.get_if<netlist::HwAccelDecl>("hwa")->slave_bus.empty());
}

TEST(TransformTest, Limitation2NonSlaveCandidateRejected) {
  auto d = make_reference_design();
  netlist::TrafficGenDecl t;
  t.master_bus = "system_bus";
  d.add("streamer", t);
  const std::vector<std::string> candidates{"hwa", "streamer"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("limitation 2"));
  EXPECT_TRUE(report.has_warning("get_low_add"));
}

TEST(TransformTest, Limitation3SharedBlockingBusWarns) {
  auto d = make_reference_design(/*split_bus=*/false);
  const std::vector<std::string> candidates{"hwa", "hwb"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  EXPECT_TRUE(report.ok);  // a warning, not an error
  EXPECT_TRUE(report.has_warning("limitation 3"));
  EXPECT_TRUE(report.has_warning("deadlock"));
}

TEST(TransformTest, StaticNextOutOfRangeWarns) {
  auto d = make_reference_design();
  TransformOptions opt = make_options();
  opt.drcf_config.prefetch.policy = drcf::PrefetchPolicy::kStaticNext;
  opt.drcf_config.prefetch.static_next = {1, 5};  // 5 >= 2 contexts
  const auto report =
      transform_to_drcf(d, std::vector<std::string>{"hwa", "hwb"}, opt);
  EXPECT_TRUE(report.ok);  // a warning, not an error
  EXPECT_TRUE(report.has_warning("static_next[1] = 5"));
  EXPECT_TRUE(report.has_warning("never fire"));

  auto d2 = make_reference_design();
  TransformOptions opt2 = make_options();
  opt2.drcf_config.prefetch.policy = drcf::PrefetchPolicy::kStaticNext;
  opt2.drcf_config.prefetch.static_next = {1, 0};
  const auto report2 =
      transform_to_drcf(d2, std::vector<std::string>{"hwa", "hwb"}, opt2);
  EXPECT_TRUE(report2.ok);
  EXPECT_FALSE(report2.has_warning("static_next"));
}

TEST(TransformTest, Limitation3DeadlockReallyHappens) {
  auto d = make_reference_design(/*split_bus=*/false);
  const std::vector<std::string> candidates{"hwa", "hwb"};
  ASSERT_TRUE(transform_to_drcf(d, candidates, make_options()).ok);
  kern::Simulation sim;
  Elaborated e(sim, d);
  EXPECT_EQ(sim.run(), kern::StopReason::kNoActivity);
  EXPECT_FALSE(e.get_processor("cpu").finished());
  EXPECT_GE(sim.starved_processes().size(), 1u);
}

TEST(TransformTest, DedicatedConfigLinkCuresLimitation3) {
  auto d = make_reference_design(/*split_bus=*/false);
  // A private link to a dedicated configuration memory.
  netlist::MemoryDecl cfg2;
  cfg2.low = 0x200000;
  cfg2.words = 1u << 16;
  d.add("cfg_mem2", cfg2);
  netlist::DirectLinkDecl link;
  link.slave = "cfg_mem2";
  d.add("cfg_link", link);
  TransformOptions opt = make_options();
  opt.config_memory = "cfg_mem2";
  opt.config_bus = "cfg_link";
  const std::vector<std::string> candidates{"hwa", "hwb"};
  const auto report = transform_to_drcf(d, candidates, opt);
  ASSERT_TRUE(report.ok);
  EXPECT_FALSE(report.has_warning("limitation 3"));
  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  EXPECT_TRUE(e.get_processor("cpu").finished());
}

TEST(TransformTest, ErrorCases) {
  auto d = make_reference_design();
  TransformOptions opt = make_options();
  // Empty candidate list.
  EXPECT_FALSE(transform_to_drcf(d, {}, opt).ok);
  // Unknown candidate.
  const std::vector<std::string> ghost{"ghost"};
  EXPECT_FALSE(transform_to_drcf(d, ghost, opt).ok);
  // Duplicate candidate.
  const std::vector<std::string> dup{"hwa", "hwa"};
  EXPECT_FALSE(transform_to_drcf(d, dup, opt).ok);
  // Unknown config memory.
  opt.config_memory = "ghost_mem";
  const std::vector<std::string> one{"hwa"};
  EXPECT_FALSE(transform_to_drcf(d, one, opt).ok);
  // Name collision.
  opt = make_options();
  opt.drcf_name = "ram";
  EXPECT_FALSE(transform_to_drcf(d, one, opt).ok);
}

TEST(TransformTest, SandwichedSlaveRejected) {
  // hwa (0x100) and hwc (0x300) as candidates with hwb (0x200) in between:
  // the DRCF's union range would swallow hwb.
  auto d = make_reference_design();
  netlist::HwAccelDecl hwc;
  hwc.base = 0x300;
  hwc.spec = accel::make_crc_spec();
  hwc.slave_bus = hwc.master_bus = "system_bus";
  d.add("hwc", hwc);
  const std::vector<std::string> candidates{"hwa", "hwc"};
  const auto report = transform_to_drcf(d, candidates, make_options());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("union address range"));
  EXPECT_TRUE(report.has_warning("hwb"));
  // Adjacent candidates are fine.
  const std::vector<std::string> adjacent{"hwa", "hwb"};
  EXPECT_TRUE(transform_to_drcf(d, adjacent, make_options()).ok);
}

// --- edge cases: degenerate candidate sets must be reported, never
// silently mis-transformed ---------------------------------------------------

TEST(TransformEdgeCase, EmptyCandidateSetLeavesDesignUntouched) {
  auto d = make_reference_design();
  const auto report = transform_to_drcf(d, {}, make_options());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("no candidate instances"));
  EXPECT_TRUE(report.candidates.empty());
  // Nothing was half-applied.
  EXPECT_FALSE(d.contains("drcf1"));
  EXPECT_EQ(d.get_if<netlist::HwAccelDecl>("hwa")->slave_bus, "system_bus");
  EXPECT_EQ(d.get_if<netlist::HwAccelDecl>("hwb")->slave_bus, "system_bus");
}

TEST(TransformEdgeCase, SingleCandidateWarnsButTransformsCorrectly) {
  // A one-context DRCF is legal but pointless (it time-shares nothing);
  // the report must say so instead of transforming silently.
  auto original = make_reference_design();
  auto d = make_reference_design();
  const std::vector<std::string> one{"hwa"};
  const auto report = transform_to_drcf(d, one, make_options());
  ASSERT_TRUE(report.ok);
  EXPECT_TRUE(report.has_warning("single candidate"));
  EXPECT_TRUE(report.has_warning("time-shares nothing"));
  ASSERT_EQ(report.candidates.size(), 1u);

  // And the degenerate fabric still computes the right answers: one cold
  // miss, then every later access hits the resident context.
  const auto r_orig = run_design(original);
  const auto r_one = run_design(d);
  EXPECT_EQ(r_orig.crc_out, r_one.crc_out);
  EXPECT_EQ(r_orig.mat_out, r_one.mat_out);
  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  auto& fabric = e.get_drcf("drcf1");
  EXPECT_EQ(fabric.context_count(), 1u);
  EXPECT_EQ(fabric.stats().switches, 1u);
  EXPECT_EQ(fabric.stats().misses, 1u);
}

TEST(TransformEdgeCase, DuplicateCandidateNamesTheOffender) {
  auto d = make_reference_design();
  const std::vector<std::string> dup{"hwa", "hwb", "hwa"};
  const auto report = transform_to_drcf(d, dup, make_options());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("'hwa' listed twice"));
  EXPECT_FALSE(d.contains("drcf1"));
  EXPECT_EQ(d.get_if<netlist::HwAccelDecl>("hwa")->slave_bus, "system_bus");
}

TEST(TransformEdgeCase, DuplicateModuleInstancesStayDistinctContexts) {
  // Two instances of the SAME accelerator spec are distinct components and
  // must become two independent contexts, not be deduplicated.
  auto d = make_reference_design();
  netlist::HwAccelDecl crc2;
  crc2.base = 0x300;
  crc2.spec = accel::make_crc_spec();  // identical spec to hwa
  crc2.slave_bus = crc2.master_bus = "system_bus";
  d.add("hwa_twin", crc2);

  const std::vector<std::string> twins{"hwb", "hwa_twin"};
  const auto report = transform_to_drcf(d, twins, make_options());
  ASSERT_TRUE(report.ok) << (report.diagnostics.empty()
                                 ? "?"
                                 : report.diagnostics[0]);
  ASSERT_EQ(report.candidates.size(), 2u);
  EXPECT_NE(report.candidates[0].config_address,
            report.candidates[1].config_address);

  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  EXPECT_TRUE(e.get_processor("cpu").finished());
  EXPECT_EQ(e.get_drcf("drcf1").context_count(), 2u);
}

TEST(TransformTest, ConfigMemoryTooSmall) {
  auto d = make_reference_design();
  netlist::MemoryDecl tiny;
  tiny.low = 0x300000;
  tiny.words = 4;  // far too small for kilogate contexts
  tiny.bus = "system_bus";
  d.add("tiny_mem", tiny);
  TransformOptions opt = make_options();
  opt.config_memory = "tiny_mem";
  const std::vector<std::string> candidates{"hwa"};
  const auto report = transform_to_drcf(d, candidates, opt);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.has_warning("too small"));
}


// --- Hand-built platforms: bridged buses, two fabrics on one config memory

TEST(Platform, BridgeDeclForwardsAcrossBuses) {
  // A memory on a slow peripheral bus, reachable through a bridge window on
  // the system bus.
  constexpr bus::addr_t kWindow = 0x20000;
  Design d;
  d.add("bus", netlist::BusDecl{});
  netlist::BusDecl periph;
  periph.config.cycle_time = 40_ns;
  d.add("periph_bus", periph);
  netlist::BridgeDecl bridge;
  bridge.low = kWindow;
  bridge.high = kWindow + 0xFFF;
  bridge.offset = -static_cast<i64>(kWindow);
  bridge.upstream_bus = "bus";
  bridge.downstream_bus = "periph_bus";
  d.add("bridge", bridge);
  netlist::MemoryDecl pm;
  pm.low = 0x10;
  pm.words = 64;
  pm.bus = "periph_bus";
  d.add("periph_mem", pm);
  netlist::ProcessorDecl cpu;
  cpu.master_bus = "bus";
  cpu.program = [](soc::Cpu& c) {
    c.write(kWindow + 0x10, 1234);
    EXPECT_EQ(c.read(kWindow + 0x10), 1234);
  };
  d.add("cpu", cpu);
  ASSERT_TRUE(d.validate().empty());
  kern::Simulation sim;
  Elaborated e(sim, d);
  sim.run();
  EXPECT_TRUE(e.get_processor("cpu").finished());
  EXPECT_EQ(e.get_memory("periph_mem").peek(0x10), 1234);
}

TEST(Platform, BridgeValidation) {
  Design d;
  d.add("bus", netlist::BusDecl{});
  netlist::BridgeDecl b;
  b.low = 10;
  b.high = 5;  // inverted
  b.upstream_bus = "bus";
  b.downstream_bus = "bus";  // loopback
  d.add("bad_bridge", b);
  const auto problems = d.validate();
  EXPECT_EQ(problems.size(), 2u);
}

TEST(Platform, TwoDrcfsShareConfigMemory) {
  // Two independent fabrics fetching from the same configuration memory:
  // their loaders contend on the bus but must not interfere functionally.
  kern::Simulation sim;
  kern::Module top(sim, "top");
  bus::Bus b(top, "bus");
  mem::Memory cfg_mem(top, "cfg", 0x100000, 4096);
  b.bind_slave(cfg_mem);
  mem::Memory ram(top, "ram", 0x1000, 512);
  b.bind_slave(ram);

  soc::HwAccel a1(top, "a1", 0x100, accel::make_crc_spec());
  soc::HwAccel a2(top, "a2", 0x200, accel::make_crc_spec());
  a1.mst_port.bind(b);
  a2.mst_port.bind(b);
  drcf::Drcf f1(top, "drcf_a", {});
  drcf::Drcf f2(top, "drcf_b", {});
  f1.add_context(a1, {.config_address = 0x100000, .size_words = 512});
  f2.add_context(a2, {.config_address = 0x100400, .size_words = 512});
  f1.mst_port.bind(b);
  f2.mst_port.bind(b);
  b.bind_slave(f1);
  b.bind_slave(f2);

  int done = 0;
  auto driver = [&](bus::addr_t base) {
    return [&, base] {
      bus::word w = 0x1000;
      b.write(base + soc::HwAccel::kSrc, &w);
      w = 0x1040;
      b.write(base + soc::HwAccel::kDst, &w);
      w = 8;
      b.write(base + soc::HwAccel::kLen, &w);
      w = 1;
      b.write(base + soc::HwAccel::kCtrl, &w);
      ++done;
    };
  };
  top.spawn_thread("m1", driver(0x100));
  top.spawn_thread("m2", driver(0x200));
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f1.stats().switches, 1u);
  EXPECT_EQ(f2.stats().switches, 1u);
  EXPECT_EQ(a1.stats().invocations, 1u);
  EXPECT_EQ(a2.stats().invocations, 1u);
  // Both loaders really moved their bitstreams over the shared bus.
  EXPECT_EQ(cfg_mem.stats().reads, 1024u);
}

}  // namespace
}  // namespace adriatic::transform
