// Sparse copy-on-write paged store tests: lazy zero pages, image interning
// and COW divergence, end-to-end integrity (torn pages, golden restore,
// scrubbing), the process-wide memory budget, and the paged-vs-flat
// differential across timing modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bus/bus_lib.hpp"
#include "drcf/drcf_lib.hpp"
#include "fault/ledger.hpp"
#include "kernel/kernel.hpp"
#include "memory/memory.hpp"

namespace adriatic {
namespace {

using namespace kern::literals;
using bus::BusStatus;
using mem::kPageBytes;
using mem::kPageWords;

struct Fixture {
  kern::Simulation sim;
  kern::Module top{sim, "top"};
};

/// Restores the process-wide budget limit after a test — the singleton
/// outlives every test in this binary.
struct BudgetGuard {
  u64 saved = mem::MemoryBudget::instance().limit_bytes();
  ~BudgetGuard() { mem::MemoryBudget::instance().set_limit_bytes(saved); }
};

/// Deterministic nonzero contents; distinct salts keep the process-wide
/// ImageRegistry from aliasing images across tests.
std::vector<bus::word> pattern(usize n, u32 salt) {
  std::vector<bus::word> v(n);
  for (usize i = 0; i < n; ++i)
    v[i] = static_cast<bus::word>(salt ^ (17 * static_cast<u32>(i) + 1));
  return v;
}

TEST(PagedStore, ZeroPagesServeReadsWithoutMaterializing) {
  mem::PagedStore s(4 * kPageWords, "lazy");
  EXPECT_EQ(s.page_count(), 4u);
  EXPECT_EQ(s.resident_pages(), 0u);
  EXPECT_EQ(s.read(0), 0);
  EXPECT_EQ(s.read(4 * kPageWords - 1), 0);  // last word of the last page
  EXPECT_EQ(s.peek(2 * kPageWords), 0);
  EXPECT_EQ(s.resident_pages(), 0u);
  EXPECT_EQ(s.stats().zero_page_reads, 2u);
  EXPECT_THROW((void)s.read(4 * kPageWords), std::out_of_range);
  EXPECT_THROW(s.write(4 * kPageWords, 1), std::out_of_range);

  // A write materializes exactly its page; neighbors stay lazy.
  s.write(kPageWords, 7);
  EXPECT_EQ(s.resident_pages(), 1u);
  EXPECT_EQ(s.resident_bytes(), static_cast<u64>(kPageBytes));
  EXPECT_TRUE(s.page_resident(1));
  EXPECT_FALSE(s.page_resident(0));
  EXPECT_EQ(s.read(kPageWords), 7);
  EXPECT_EQ(s.read(kPageWords - 1), 0);  // page 0 still lazy
}

TEST(PagedStore, BurstsStraddlePageBoundariesViaBus) {
  Fixture f;
  bus::Bus b(f.top, "bus");
  mem::Memory m(f.top, "ram", 0, 3 * kPageWords);
  b.bind_slave(m);
  const auto data = pattern(48, 0x57A4D000);
  f.top.spawn_thread("t", [&] {
    // 48 words centred on the page-0/page-1 boundary.
    std::vector<bus::word> d = data;
    EXPECT_EQ(b.burst_write(static_cast<bus::addr_t>(kPageWords - 24), d, 0),
              BusStatus::kOk);
    std::vector<bus::word> r(48, -1);
    EXPECT_EQ(b.burst_read(static_cast<bus::addr_t>(kPageWords - 24), r, 0),
              BusStatus::kOk);
    EXPECT_EQ(r, data);
  });
  f.sim.run();
  EXPECT_EQ(m.backing().resident_pages(), 2u);
  EXPECT_FALSE(m.backing().page_resident(2));
  // The straddle materialized both halves with the right words.
  EXPECT_EQ(m.peek(static_cast<bus::addr_t>(kPageWords - 24)), data[0]);
  EXPECT_EQ(m.peek(static_cast<bus::addr_t>(kPageWords + 23)), data[47]);
}

TEST(PagedStore, ImageRegistryInternsAndDeduplicatesPages) {
  auto& reg = mem::ImageRegistry::instance();
  const auto before = reg.stats();
  const auto contents = pattern(kPageWords + 5, 0xA11CE000);
  auto i1 = reg.intern(contents);
  ASSERT_NE(i1, nullptr);
  EXPECT_EQ(i1->digest(), mem::image_digest(contents));
  EXPECT_EQ(i1->size_words(), contents.size());
  EXPECT_EQ(i1->page_count(), 2u);
  EXPECT_EQ(i1->word_at(3), contents[3]);
  EXPECT_EQ(i1->word_at(kPageWords + 17), 0);  // zero-padded tail

  // Same contents: the same canonical image, counted as a hit.
  auto i2 = reg.intern(contents);
  EXPECT_EQ(i2.get(), i1.get());
  EXPECT_EQ(reg.stats().image_hits, before.image_hits + 1);
  EXPECT_EQ(reg.stats().interned, before.interned + 1);
  EXPECT_EQ(reg.find(i1->digest()).get(), i1.get());

  // A different image whose first page is identical shares that page via
  // the secondary pool.
  const std::vector<bus::word> prefix(contents.begin(),
                                      contents.begin() + kPageWords);
  auto i3 = reg.intern(prefix);
  EXPECT_NE(i3.get(), i1.get());
  EXPECT_EQ(i3->page(0).get(), i1->page(0).get());
  EXPECT_EQ(reg.stats().page_hits, before.page_hits + 1);
}

TEST(PagedStore, AttachedImagesShareUntilDivergence) {
  const auto contents = pattern(2 * kPageWords + 17, 0xC0FFEE00);
  auto img = mem::ImageRegistry::instance().intern(contents);
  mem::PagedStore a(4 * kPageWords, "a");
  mem::PagedStore b(4 * kPageWords, "b");
  EXPECT_TRUE(a.pages_untouched(0, contents.size()));
  a.attach_image(img, 0);
  EXPECT_FALSE(a.pages_untouched(0, 1));
  EXPECT_TRUE(a.pages_untouched(3 * kPageWords, kPageWords));
  b.attach_image(img, 0);
  EXPECT_EQ(a.resident_pages(), 3u);
  EXPECT_EQ(a.stats().pages_attached, 3u);
  EXPECT_TRUE(a.page_shared(0));
  EXPECT_EQ(a.shared_pages(), 3u);

  // Misaligned or out-of-range attaches are refused.
  EXPECT_THROW(a.attach_image(img, 3), std::invalid_argument);
  EXPECT_THROW(a.attach_image(img, 3 * kPageWords), std::out_of_range);

  // b diverges in its middle page: one COW split, a is unscathed, and the
  // written page loses its golden link (reverting it would be data loss).
  b.write(kPageWords + 3, 0x5EED);
  EXPECT_EQ(b.stats().cow_splits, 1u);
  EXPECT_FALSE(b.page_shared(1));
  EXPECT_TRUE(b.page_shared(0));
  EXPECT_FALSE(b.page_has_golden(1));
  EXPECT_TRUE(b.page_has_golden(0));
  EXPECT_EQ(a.read(kPageWords + 3), img->word_at(kPageWords + 3));
  EXPECT_EQ(b.read(kPageWords + 3), 0x5EED);

  // Flat reference: the same operations on an eager, never-shared backing
  // must leave bit-identical contents.
  const bool prev = mem::PagedStore::debug_set_flat_backing(true);
  mem::PagedStore flat(4 * kPageWords, "flat");
  mem::PagedStore::debug_set_flat_backing(prev);
  ASSERT_TRUE(flat.flat_backing());
  EXPECT_EQ(flat.resident_pages(), 4u);
  flat.attach_image(img, 0);
  flat.write(kPageWords + 3, 0x5EED);
  EXPECT_EQ(flat.shared_pages(), 0u);
  for (usize i = 0; i < 4 * kPageWords; ++i)
    ASSERT_EQ(b.peek(i), flat.peek(i)) << "word " << i;
}

TEST(PagedStore, AttachElidesAllZeroPages) {
  // Pages 0 and 2 carry data, page 1 is all zeros: the image (and any store
  // attaching it) pays for two pages, not three.
  std::vector<bus::word> contents(3 * kPageWords, 0);
  const auto filler = pattern(kPageWords, 0xD1CE0000);
  std::copy(filler.begin(), filler.end(), contents.begin());
  std::copy(filler.begin(), filler.end(),
            contents.begin() + static_cast<std::ptrdiff_t>(2 * kPageWords));
  auto img = mem::ImageRegistry::instance().intern(contents);
  EXPECT_EQ(img->page_count(), 3u);
  EXPECT_EQ(img->resident_pages(), 2u);

  mem::PagedStore s(3 * kPageWords, "holes");
  s.attach_image(img, 0);
  EXPECT_EQ(s.resident_pages(), 2u);
  EXPECT_FALSE(s.page_resident(1));
  EXPECT_TRUE(s.page_has_golden(1));  // golden, just elided
  EXPECT_EQ(s.read(kPageWords + 9), 0);
  s.write(kPageWords + 9, 3);  // materializes the hole, zero-filled
  EXPECT_EQ(s.resident_pages(), 3u);
  EXPECT_EQ(s.peek(kPageWords + 8), 0);
  EXPECT_EQ(s.peek(kPageWords + 9), 3);
}

TEST(PagedStore, SharingAndReclaimAreBudgetAccurate) {
  auto& budget = mem::MemoryBudget::instance();
  auto& reg = mem::ImageRegistry::instance();
  reg.drop_unused();  // clear leftovers from earlier tests in this binary
  const u64 base = budget.resident_bytes();

  auto img = reg.intern(pattern(kPageWords, 0xB0D6E700));
  EXPECT_EQ(budget.resident_bytes(), base + kPageBytes);
  {
    mem::PagedStore a(kPageWords, "a");
    mem::PagedStore b(kPageWords, "b");
    a.attach_image(img, 0);
    b.attach_image(img, 0);
    // Two attaches, still one physical copy.
    EXPECT_EQ(budget.resident_bytes(), base + kPageBytes);
    b.write(3, 9);  // COW split: now two
    EXPECT_EQ(budget.resident_bytes(), base + 2 * kPageBytes);
  }
  // Stores gone: the split copy was credited back; the image remains.
  EXPECT_EQ(budget.resident_bytes(), base + kPageBytes);
  img.reset();
  EXPECT_GE(reg.drop_unused(), 1u);
  EXPECT_EQ(budget.resident_bytes(), base);
}

TEST(PagedStore, BudgetExhaustionMidLoadThrowsTypedAndKeepsState) {
  BudgetGuard guard;
  auto& budget = mem::MemoryBudget::instance();
  mem::PagedStore s(4 * kPageWords, "tight");
  budget.set_limit_bytes(budget.resident_bytes() + 2 * kPageBytes);
  const auto data = pattern(3 * kPageWords, 0xFEED0000);
  try {
    s.load(0, data);
    FAIL() << "load over budget did not throw";
  } catch (const mem::BudgetExceededError& e) {
    EXPECT_EQ(e.limit_bytes(), budget.limit_bytes());
    EXPECT_EQ(e.requested_bytes(), static_cast<u64>(kPageBytes));
    EXPECT_GE(e.high_water_bytes(), e.resident_bytes());
  }
  // The first two pages landed intact; the third was refused atomically.
  EXPECT_EQ(s.resident_pages(), 2u);
  EXPECT_EQ(s.peek(0), data[0]);
  EXPECT_EQ(s.peek(2 * kPageWords - 1), data[2 * kPageWords - 1]);
  EXPECT_FALSE(s.page_resident(2));
  // Degradation is graceful: raise the budget and continue where it stopped.
  budget.set_limit_bytes(0);
  s.load(2 * kPageWords,
         std::span<const bus::word>(data).subspan(2 * kPageWords));
  EXPECT_EQ(s.peek(3 * kPageWords - 1), data[3 * kPageWords - 1]);
}

TEST(PagedStore, TornPageFailsFirstReadUntilScrubbed) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0x100, kPageWords);
  fault::FaultLedger led;
  m.set_fault_ledger(&led);
  auto img = mem::ImageRegistry::instance().intern(
      pattern(kPageWords, 0x7EA40000));
  m.attach_image(img, 0x100);
  // Torn behind the API before the first read: checksum maintenance never
  // saw this flip, so the first-read gate must.
  m.backing().corrupt_stored(7, 0x10);
  f.top.spawn_thread("t", [&] {
    bus::word r = 0;
    EXPECT_FALSE(m.read(0x107, &r));  // first-read integrity gate
    EXPECT_FALSE(m.read(0x100, &r));  // any word of the torn page fails
    EXPECT_EQ(m.scrub_now(), 1u);     // golden restore
    EXPECT_TRUE(m.read(0x107, &r));
    EXPECT_EQ(r, img->word_at(7));
  });
  f.sim.run();
  EXPECT_EQ(m.stats().errors, 2u);
  EXPECT_EQ(led.count(fault::FaultEventKind::kEccUncorrectable), 2u);
  EXPECT_EQ(led.records()[0].arg, 0u);  // arg 0 = torn page, not an upset
  EXPECT_EQ(led.count(fault::FaultEventKind::kEccScrub), 1u);
  EXPECT_GE(m.backing().stats().checksum_failures, 2u);
  EXPECT_EQ(m.backing().stats().golden_restores, 1u);
}

TEST(PagedStore, GoldenRestoreResharesTheImagePage) {
  auto img = mem::ImageRegistry::instance().intern(
      pattern(kPageWords, 0x60D60000));
  mem::PagedStore s(kPageWords, "golden");
  s.attach_image(img, 0);
  EXPECT_TRUE(s.page_shared(0));
  s.corrupt_stored(3, 1);
  EXPECT_FALSE(s.page_shared(0));  // the upset split into a private copy
  EXPECT_TRUE(s.page_has_golden(0));
  EXPECT_FALSE(s.verify_page(0));
  EXPECT_TRUE(s.restore_from_golden(0));
  EXPECT_TRUE(s.page_shared(0));  // re-adopted the golden page itself
  EXPECT_TRUE(s.verify_page(0));
  EXPECT_EQ(s.peek(3), img->word_at(3));
  // API-write divergence drops the link: restore must refuse, not revert.
  s.write(3, 42);
  EXPECT_FALSE(s.page_has_golden(0));
  EXPECT_FALSE(s.restore_from_golden(0));
  EXPECT_EQ(s.peek(3), 42);
  EXPECT_TRUE(s.scrub_page(0));  // clean page: scrub is a no-op success
}

TEST(PagedStore, FlatVsPagedDifferentialAcrossTimingModes) {
  // The same traffic over {paged, flat} x {timed, loose} must produce
  // identical data and identical end-to-end simulated time — the paged
  // backing and its DMI games are performance shape, not behavior.
  const auto img_words = pattern(kPageWords, 0xD1FF0000);
  std::vector<bus::word> ref_data;
  u64 ref_ps = 0;
  bool have_ref = false;
  for (const bool flat : {false, true}) {
    for (const bool loose : {false, true}) {
      Fixture f;
      if (loose) f.sim.set_timing_mode(kern::TimingMode::kLoose);
      bus::Bus b(f.top, "bus");
      const bool prev = mem::PagedStore::debug_set_flat_backing(flat);
      mem::Memory m(f.top, "ram", 0, 3 * kPageWords, 2_ns, 1_ns);
      mem::PagedStore::debug_set_flat_backing(prev);
      b.bind_slave(m);
      m.attach_image(mem::ImageRegistry::instance().intern(img_words), 0);
      std::vector<bus::word> out(96, -1);
      f.top.spawn_thread("t", [&] {
        auto d = pattern(64, 0x0DD00000);
        // Writes straddling the attached page's end trigger a COW split in
        // paged mode and plain stores in flat mode.
        EXPECT_EQ(b.burst_write(static_cast<bus::addr_t>(kPageWords - 32), d,
                                0),
                  BusStatus::kOk);
        EXPECT_EQ(b.burst_read(static_cast<bus::addr_t>(kPageWords - 48), out,
                               0),
                  BusStatus::kOk);
        bus::word w = 0;
        EXPECT_EQ(b.read(5, &w, 0), BusStatus::kOk);
        EXPECT_EQ(w, img_words[5]);
      });
      f.sim.run();
      if (!have_ref) {
        ref_data = out;
        ref_ps = f.sim.now().picoseconds();
        have_ref = true;
      } else {
        EXPECT_EQ(out, ref_data) << "flat=" << flat << " loose=" << loose;
        EXPECT_EQ(f.sim.now().picoseconds(), ref_ps)
            << "flat=" << flat << " loose=" << loose;
      }
    }
  }
}

TEST(PagedStore, BackgroundScrubberRepairsOnItsPeriod) {
  Fixture f;
  mem::Memory m(f.top, "ram", 0, kPageWords);
  fault::FaultLedger led;
  m.set_fault_ledger(&led);
  auto img = mem::ImageRegistry::instance().intern(
      pattern(kPageWords, 0x5C4B0000));
  m.attach_image(img, 0);
  mem::EccConfig ec;  // empty plan: no upsets, but the scrubber still sweeps
  ec.scrub_period = 100_ns;
  m.set_ecc(std::move(ec));
  f.top.spawn_thread("t", [&] {
    bus::word r = 0;
    EXPECT_TRUE(m.read(3, &r));  // first read verifies the page
    m.backing().corrupt_stored(3, 0x8);  // latent upset after verification
    EXPECT_FALSE(m.backing().verify_page(0));
    kern::wait(250_ns);  // two scrubber periods pass
    EXPECT_TRUE(m.backing().verify_page(0));
    EXPECT_TRUE(m.read(3, &r));
    EXPECT_EQ(r, img->word_at(3));
  });
  // Bounded: the scrubber daemon keeps the timed queue populated forever
  // (same contract as a Clock).
  f.sim.run(300_ns);
  ASSERT_NE(m.ecc(), nullptr);
  EXPECT_GE(m.ecc()->stats().scrub_sweeps, 2u);
  EXPECT_EQ(m.ecc()->stats().scrub_repairs, 1u);
  EXPECT_EQ(led.count(fault::FaultEventKind::kEccScrub), 1u);
}

TEST(PagedStore, EccRecoveryLadderConvergesOnGoldenRepair) {
  // End to end: a double-bit storage upset fails a DRCF configuration
  // fetch, the poisoned word keeps the retry failing until repair-on-detect
  // restores the page from its golden image, and the next retry completes.
  Fixture f;
  bus::BusConfig bc;
  bc.cycle_time = 10_ns;
  bc.split_transactions = true;
  bus::Bus sys_bus(f.top, "bus", bc);
  mem::Memory cfg_mem(f.top, "cfg_mem", 0x10000, 4096);
  mem::Memory ctx_mem(f.top, "ctx_mem", 0x100, 16);
  drcf::DrcfConfig dc;
  dc.technology = drcf::varicore_like();
  dc.technology.per_switch_overhead = kern::Time::zero();
  dc.recovery.policy = drcf::RecoveryPolicy::kRetryBackoff;
  dc.recovery.max_attempts = 4;
  dc.recovery.backoff = 50_ns;
  drcf::Drcf fabric(f.top, "drcf", dc);
  const usize id = fabric.add_context(
      ctx_mem, {.config_address = 0x10000, .size_words = 64, .gates = 10'000});
  const auto image =
      mem::ImageRegistry::instance().intern(pattern(64, 0xB1750000));
  cfg_mem.attach_image(image, 0x10000);
  fabric.set_golden_bitstream(id, image);
  fabric.mst_port.bind(sys_bus);
  sys_bus.bind_slave(cfg_mem);
  sys_bus.bind_slave(fabric);

  fault::FaultLedger led;
  cfg_mem.set_fault_ledger(&led);
  mem::EccConfig ec;
  fault::ScriptedFault shot;  // exactly one double-bit upset, first fetch
  shot.kind = fault::FaultKind::kCorrupt;
  shot.corrupt_bits = 2;
  ec.upsets.scripted.push_back(shot);
  cfg_mem.set_ecc(std::move(ec));

  BusStatus st{};
  bus::word r = 0;
  f.top.spawn_thread("m", [&] { st = sys_bus.read(0x105, &r); });
  f.sim.run();
  EXPECT_EQ(st, BusStatus::kOk);
  EXPECT_GE(fabric.stats().fetch_errors, 1u);
  EXPECT_GE(fabric.stats().fetch_retries, 1u);
  EXPECT_EQ(fabric.stats().load_give_ups, 0u);
  ASSERT_NE(cfg_mem.ecc(), nullptr);
  EXPECT_EQ(cfg_mem.ecc()->stats().uncorrectable, 1u);
  EXPECT_EQ(cfg_mem.ecc()->stats().repairs, 1u);
  // Upset + poisoned re-read both ledgered; the repair is a scrub event.
  EXPECT_GE(led.count(fault::FaultEventKind::kEccUncorrectable), 2u);
  EXPECT_EQ(led.count(fault::FaultEventKind::kEccScrub), 1u);
  EXPECT_GE(fabric.fault_ledger().count(fault::FaultEventKind::kRetry), 1u);
  EXPECT_EQ(fabric.fault_ledger().count(fault::FaultEventKind::kRecovered),
            1u);
}

}  // namespace
}  // namespace adriatic
