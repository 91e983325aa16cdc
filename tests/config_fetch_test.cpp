// Pins of the DRCF configuration-fetch integrity check and of how the
// elaborator places synthetic bitstreams: fault-ledger values and counters
// for corrupted fetches under kFailFast and kScrub, the cache hit that a
// clean fetch earns, checkpoint digests, PagedStore::load against a
// per-word write() reference, and the bitstream words of the DSE design.
// The recorded values are the byte-serial FNV-1a digests the fetch path
// folds, so any change to how fetches are checked must reproduce them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/accel_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "fault/ledger.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"
#include "netlist/design.hpp"
#include "netlist/elaborate.hpp"
#include "transform/transform.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using mem::kPageWords;
using netlist::Elaborated;

constexpr bus::addr_t kCfgBase = 0x100000;
constexpr u64 kCtxWords = 256;  // four 64-word fetch chunks
constexpr bus::addr_t kHwa = 0x100;
constexpr bus::addr_t kHwb = 0x200;

std::vector<bus::word> synthetic_bits(usize ctx, u64 words) {
  return std::vector<bus::word>(
      words, static_cast<bus::word>(Elaborated::kBitstreamPattern |
                                    static_cast<u32>(ctx)));
}

/// Two CRC accelerators folded into one single-slot DRCF. Context 0's
/// bitstream sits page-aligned at the start of cfg_mem, context 1's right
/// behind it (not page-aligned), so both placement paths of the elaborator
/// are covered.
netlist::Design make_fabric_design(drcf::DrcfConfig cfg) {
  netlist::Design d;
  netlist::BusDecl bus_decl;
  bus_decl.config.cycle_time = 10_ns;
  bus_decl.config.split_transactions = true;
  d.add("bus", bus_decl);

  netlist::MemoryDecl cfg_mem;
  cfg_mem.low = kCfgBase;
  cfg_mem.words = 4096;
  cfg_mem.bus = "bus";
  d.add("cfg_mem", cfg_mem);

  for (const auto& [name, base] :
       {std::pair<const char*, bus::addr_t>{"hwa", kHwa}, {"hwb", kHwb}}) {
    netlist::HwAccelDecl acc;
    acc.base = base;
    acc.spec = accel::make_crc_spec();
    acc.master_bus = "bus";
    d.add(name, acc);
  }

  cfg.technology = drcf::varicore_like();
  cfg.technology.per_switch_overhead = kern::Time::zero();
  netlist::DrcfDecl fabric;
  fabric.config = std::move(cfg);
  fabric.contexts = {"hwa", "hwb"};
  fabric.context_params = {
      {.config_address = kCfgBase, .size_words = kCtxWords},
      {.config_address = kCfgBase + kCtxWords, .size_words = kCtxWords}};
  fabric.slave_bus = "bus";
  fabric.config_bus = "bus";
  d.add("drcf1", fabric);
  return d;
}

struct FetchRun {
  drcf::DrcfStats stats;
  u64 mismatch_value = 0;  ///< arg of the kDigestMismatch ledger entry.
  u64 mismatch_count = 0;
  u64 ledger_digest = 0;
  int ok_reads = 0;
};

/// Touches hwa, hwb, hwa (every read reconfigures the single slot) and
/// returns what the fabric recorded.
FetchRun run_ping_pong(drcf::DrcfConfig cfg) {
  const netlist::Design d = make_fabric_design(std::move(cfg));
  kern::Simulation sim;
  Elaborated e(sim, d);
  FetchRun r;
  auto& bus = e.get_bus("bus");
  e.top().spawn_thread("driver", [&] {
    for (const bus::addr_t a : {kHwa, kHwb, kHwa}) {
      bus::word w = 0;
      if (bus.read(a + soc::HwAccel::kStatus, &w) == bus::BusStatus::kOk)
        ++r.ok_reads;
    }
  });
  sim.run();
  const auto& fabric = e.get_drcf("drcf1");
  r.stats = fabric.stats();
  const auto& ledger = fabric.fault_ledger();
  for (const auto& rec : ledger.records()) {
    if (rec.kind != fault::FaultEventKind::kDigestMismatch) continue;
    r.mismatch_value = rec.arg;
    ++r.mismatch_count;
  }
  r.ledger_digest = ledger.digest();
  return r;
}

/// One scripted single-bit corruption of the chunk starting at `chunk_addr`
/// on the fetch path.
drcf::DrcfConfig corrupt_chunk(bus::addr_t chunk_addr,
                               drcf::RecoveryPolicy policy) {
  drcf::DrcfConfig cfg;
  cfg.recovery.policy = policy;
  fault::ScriptedFault shot;
  shot.kind = fault::FaultKind::kCorrupt;
  shot.window_low = chunk_addr;
  shot.window_high = chunk_addr;
  cfg.fetch_faults.scripted.push_back(shot);
  return cfg;
}

constexpr bus::addr_t kFirstChunk = kCfgBase;
constexpr bus::addr_t kLastChunk = kCfgBase + kCtxWords - 64;

TEST(ConfigFetchPin, CorruptFirstChunkFailFast) {
  const FetchRun r = run_ping_pong(
      corrupt_chunk(kFirstChunk, drcf::RecoveryPolicy::kFailFast));
  EXPECT_EQ(r.mismatch_count, 1u);
  EXPECT_EQ(r.mismatch_value, 0x8eea5829a8383c45ull);
  EXPECT_EQ(r.stats.digest_mismatches, 1u);
  EXPECT_EQ(r.stats.scrubs, 0u);
  EXPECT_EQ(r.stats.fetch_errors, 1u);
  EXPECT_EQ(r.ledger_digest, 0xfdeb604ca78e5038ull);
  EXPECT_EQ(r.ok_reads, 2);
}

TEST(ConfigFetchPin, CorruptLastChunkFailFast) {
  const FetchRun r = run_ping_pong(
      corrupt_chunk(kLastChunk, drcf::RecoveryPolicy::kFailFast));
  EXPECT_EQ(r.mismatch_count, 1u);
  EXPECT_EQ(r.mismatch_value, 0xeec5050b6166bc45ull);
  EXPECT_EQ(r.stats.digest_mismatches, 1u);
  EXPECT_EQ(r.stats.scrubs, 0u);
  EXPECT_EQ(r.stats.fetch_errors, 1u);
  EXPECT_EQ(r.ledger_digest, 0xee068f27e1cdba1dull);
  EXPECT_EQ(r.ok_reads, 2);
}

TEST(ConfigFetchPin, CorruptFirstChunkScrub) {
  const FetchRun r =
      run_ping_pong(corrupt_chunk(kFirstChunk, drcf::RecoveryPolicy::kScrub));
  EXPECT_EQ(r.mismatch_count, 1u);
  EXPECT_EQ(r.mismatch_value, 0x8eea5829a8383c45ull);
  EXPECT_EQ(r.stats.digest_mismatches, 1u);
  EXPECT_EQ(r.stats.scrubs, 1u);
  EXPECT_EQ(r.stats.fetch_errors, 1u);
  EXPECT_EQ(r.ledger_digest, 0xac4f3530fb768c76ull);
  EXPECT_EQ(r.ok_reads, 3);
}

TEST(ConfigFetchPin, CorruptLastChunkScrub) {
  const FetchRun r =
      run_ping_pong(corrupt_chunk(kLastChunk, drcf::RecoveryPolicy::kScrub));
  EXPECT_EQ(r.mismatch_count, 1u);
  EXPECT_EQ(r.mismatch_value, 0xeec5050b6166bc45ull);
  EXPECT_EQ(r.stats.digest_mismatches, 1u);
  EXPECT_EQ(r.stats.scrubs, 1u);
  EXPECT_EQ(r.stats.fetch_errors, 1u);
  EXPECT_EQ(r.ledger_digest, 0xe7fd487705087720ull);
  EXPECT_EQ(r.ok_reads, 3);
}

TEST(ConfigFetchPin, CleanFetchThenSwitchBackIsCacheHit) {
  drcf::DrcfConfig cfg;
  cfg.prefetch.cache_slots = 2;
  const FetchRun r = run_ping_pong(cfg);
  EXPECT_EQ(r.ok_reads, 3);
  EXPECT_EQ(r.stats.switches, 3u);
  EXPECT_EQ(r.stats.cache_hits, 1u);
  EXPECT_EQ(r.stats.config_words_fetched, 2 * kCtxWords);
  EXPECT_EQ(r.stats.config_words_skipped, kCtxWords);
  EXPECT_EQ(r.stats.digest_mismatches, 0u);
  EXPECT_EQ(r.stats.fetch_errors, 0u);
}

TEST(ConfigFetchPin, CheckpointCarriesBitstreamDigest) {
  const netlist::Design d = make_fabric_design({});
  kern::Simulation sim;
  Elaborated e(sim, d);
  auto& fabric = e.get_drcf("drcf1");
  for (usize ctx = 0; ctx < fabric.context_count(); ++ctx) {
    const auto state = fabric.checkpoint_task(ctx);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->config_digest,
              drcf::config_digest(synthetic_bits(ctx, kCtxWords)));
  }
}

// -- PagedStore::load against per-word write() ---------------------------------

/// Everything observable about a store, compared word by word and page by
/// page with a reference that received the same data through write().
void expect_same_store(const mem::PagedStore& got,
                       const mem::PagedStore& ref) {
  ASSERT_EQ(got.size_words(), ref.size_words());
  for (usize i = 0; i < ref.size_words(); ++i)
    ASSERT_EQ(got.peek(i), ref.peek(i)) << "word " << i;
  for (usize p = 0; p < ref.page_count(); ++p) {
    EXPECT_EQ(got.verify_page(p), ref.verify_page(p)) << "page " << p;
    EXPECT_TRUE(got.verify_page(p)) << "page " << p;
    EXPECT_EQ(got.page_resident(p), ref.page_resident(p)) << "page " << p;
    EXPECT_EQ(got.page_shared(p), ref.page_shared(p)) << "page " << p;
    EXPECT_EQ(got.page_has_golden(p), ref.page_has_golden(p)) << "page " << p;
  }
  const auto& a = got.stats();
  const auto& b = ref.stats();
  EXPECT_EQ(a.pages_materialized, b.pages_materialized);
  EXPECT_EQ(a.cow_splits, b.cow_splits);
  EXPECT_EQ(a.pages_attached, b.pages_attached);
  EXPECT_EQ(a.zero_page_reads, b.zero_page_reads);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
  EXPECT_EQ(a.golden_restores, b.golden_restores);
  EXPECT_EQ(a.revocations, b.revocations);
  EXPECT_EQ(got.resident_pages(), ref.resident_pages());
  EXPECT_EQ(got.resident_bytes(), ref.resident_bytes());
}

std::vector<bus::word> ramp(usize n, u32 salt) {
  std::vector<bus::word> v(n);
  for (usize i = 0; i < n; ++i)
    v[i] = static_cast<bus::word>(salt + 3 * static_cast<u32>(i));
  return v;
}

void write_each(mem::PagedStore& s, usize at,
                const std::vector<bus::word>& data) {
  for (usize i = 0; i < data.size(); ++i) s.write(at + i, data[i]);
}

TEST(ConfigFetchPin, PagedLoadIntoZeroPagesMatchesWrites) {
  mem::PagedStore got(4 * kPageWords, "got");
  mem::PagedStore ref(4 * kPageWords, "ref");
  const auto data = ramp(2 * kPageWords + 300, 0x11000000u);
  got.load(100, data);
  write_each(ref, 100, data);
  expect_same_store(got, ref);
  EXPECT_EQ(got.resident_pages(), 3u);
}

TEST(ConfigFetchPin, PagedLoadIntoPartlyWrittenPageMatchesWrites) {
  mem::PagedStore got(4 * kPageWords, "got");
  mem::PagedStore ref(4 * kPageWords, "ref");
  for (mem::PagedStore* s : {&got, &ref}) {
    s->write(kPageWords + 5, 0xAA);
    s->write(2 * kPageWords - 1, 0xBB);
  }
  const auto data = ramp(kPageWords, 0x22000000u);
  got.load(kPageWords + 600, data);
  write_each(ref, kPageWords + 600, data);
  expect_same_store(got, ref);
  EXPECT_EQ(got.peek(kPageWords + 5), 0xAAu);
}

TEST(ConfigFetchPin, PagedLoadOverAttachedGoldenPageMatchesWrites) {
  const auto image_words = ramp(2 * kPageWords, 0x33000000u);
  const auto image = mem::ImageRegistry::instance().intern(image_words);
  mem::PagedStore got(4 * kPageWords, "got");
  mem::PagedStore ref(4 * kPageWords, "ref");
  int got_revokes = 0;
  int ref_revokes = 0;
  got.set_revoke_listener([&] { ++got_revokes; });
  ref.set_revoke_listener([&] { ++ref_revokes; });
  for (mem::PagedStore* s : {&got, &ref}) {
    s->attach_image(image, 0);
    s->pin_page(0);  // an outstanding DMI pointer into the shared page
  }
  const auto data = ramp(300, 0x44000000u);
  got.load(kPageWords - 100, data);
  write_each(ref, kPageWords - 100, data);
  expect_same_store(got, ref);
  EXPECT_EQ(got_revokes, 1);
  EXPECT_EQ(ref_revokes, 1);
  EXPECT_EQ(got.stats().cow_splits, 2u);
  EXPECT_EQ(got.stats().revocations, 1u);
  EXPECT_FALSE(got.page_has_golden(0));
  EXPECT_FALSE(got.page_has_golden(1));
  EXPECT_FALSE(got.page_shared(0));
}

// -- Synthetic bitstreams of the DSE design -----------------------------------

/// The DSE sweep's application (service/jobs.cpp): three accelerators on a
/// system bus and a 256 Ki-word configuration memory.
netlist::Design make_dse_shape() {
  netlist::Design d;
  netlist::BusDecl bus_decl;
  bus_decl.config.cycle_time = 10_ns;
  d.add("system_bus", bus_decl);
  netlist::MemoryDecl ram;
  ram.low = 0x1000;
  ram.words = 0x8000;
  ram.bus = "system_bus";
  d.add("ram", ram);
  netlist::MemoryDecl cfg;
  cfg.low = kCfgBase;
  cfg.words = 1u << 18;
  cfg.bus = "system_bus";
  d.add("cfg_mem", cfg);
  const std::pair<const char*, accel::KernelSpec> kernels[] = {
      {"fir", accel::make_fir_spec(accel::fir_lowpass_taps(24))},
      {"fft", accel::make_fft_spec(64)},
      {"aes", accel::make_aes_spec(accel::AesKey{1, 2, 3})},
  };
  bus::addr_t base = 0x100;
  for (const auto& [name, spec] : kernels) {
    netlist::HwAccelDecl acc;
    acc.base = base;
    acc.spec = spec;
    acc.slave_bus = acc.master_bus = "system_bus";
    d.add(name, acc);
    base += 0x100;
  }
  return d;
}

TEST(ConfigFetchPin, DseBitstreamsPeekToTheirPattern) {
  for (const auto& tech : {drcf::virtex2pro_like(), drcf::varicore_like(),
                           drcf::morphosys_like()}) {
    SCOPED_TRACE(tech.name);
    auto d = make_dse_shape();
    transform::TransformOptions opt;
    opt.drcf_config.technology = tech;
    opt.config_memory = "cfg_mem";
    const std::vector<std::string> candidates{"fir", "fft", "aes"};
    ASSERT_TRUE(transform::transform_to_drcf(d, candidates, opt).ok);
    kern::Simulation sim;
    Elaborated e(sim, d);
    const auto& fabric = e.get_drcf("drcf1");
    const auto& mem = e.get_memory("cfg_mem");
    ASSERT_EQ(fabric.context_count(), 3u);
    for (usize ctx = 0; ctx < fabric.context_count(); ++ctx) {
      const auto& p = fabric.context_params(ctx);
      const auto expected = static_cast<bus::word>(
          Elaborated::kBitstreamPattern | static_cast<u32>(ctx));
      for (u64 w = 0; w < p.size_words; ++w)
        ASSERT_EQ(mem.peek(p.config_address + static_cast<bus::addr_t>(w)),
                  expected)
            << "context " << ctx << " word " << w;
    }
  }
}

}  // namespace
}  // namespace adriatic
