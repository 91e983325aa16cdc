// Digest-keyed result cache tests: store/lookup round trips, persistence
// across reopen, corruption and stale-schema entries degrading to misses
// (never to wrong results), torn tail writes, and the determinism contract —
// a cache-served JobStats must be byte-identical to a re-simulated one.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/journal.hpp"
#include "campaign/result_cache.hpp"
#include "kernel/kernel.hpp"
#include "kernel/time.hpp"
#include "util/random.hpp"

namespace adriatic::campaign {
namespace {

using kern::Time;

/// Unique temp path per test; removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = testing::TempDir() + "adriatic_result_cache_" + tag + ".rc";
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

JobStats finished_stats(const std::string& label, u64 digest) {
  JobStats s;
  s.label = label;
  s.done = true;
  s.wall_seconds = 0.25;
  s.sim_time = Time::ns(100);
  s.delta_count = 12;
  s.activations = 34;
  s.digest = digest;
  s.user_data = "col a\tcol b";
  return s;
}

TEST(ResultCacheTest, StoreThenLookupHitsAndUnknownSpecMisses) {
  TempPath tmp("hit");
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->lookup(spec_hash("a")).has_value());

  cache->store(spec_hash("a"), finished_stats("a", 0xfeed));
  ASSERT_EQ(cache->size(), 1u);
  const auto hit = cache->lookup(spec_hash("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->label, "a");
  EXPECT_EQ(hit->digest, 0xfeedu);
  EXPECT_EQ(hit->user_data, "col a\tcol b");
  EXPECT_TRUE(hit->done);
  EXPECT_FALSE(hit->from_cache);  // the caller flags served copies
  EXPECT_FALSE(cache->lookup(spec_hash("b")).has_value());
}

TEST(ResultCacheTest, OnlyCleanlyFinishedResultsAreStored) {
  TempPath tmp("filter");
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);

  JobStats unfinished;
  unfinished.label = "queued";
  cache->store(1, unfinished);

  JobStats failed = finished_stats("failed", 1);
  failed.failed = true;
  failed.error = "boom";
  cache->store(2, failed);

  JobStats quarantined = finished_stats("stuck", 2);
  quarantined.quarantined = true;
  quarantined.quarantine_reason = "timeout";
  cache->store(3, quarantined);

  JobStats served = finished_stats("served", 3);
  served.from_cache = true;  // a served copy must not re-store itself
  cache->store(4, served);

  EXPECT_EQ(cache->size(), 0u);
  EXPECT_FALSE(cache->lookup(1).has_value());
  EXPECT_FALSE(cache->lookup(2).has_value());
  EXPECT_FALSE(cache->lookup(3).has_value());
  EXPECT_FALSE(cache->lookup(4).has_value());
}

TEST(ResultCacheTest, ReopenedCacheServesPersistedEntriesLastWins) {
  TempPath tmp("reopen");
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    cache->store(spec_hash("a"), finished_stats("a", 1));
    cache->store(spec_hash("b"), finished_stats("b", 2));
    // Re-storing the same spec appends; the later entry wins on reload.
    cache->store(spec_hash("a"), finished_stats("a", 3));
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->dropped_lines(), 0u);
  const auto a = cache->lookup(spec_hash("a"));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->digest, 3u);
  const auto b = cache->lookup(spec_hash("b"));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->digest, 2u);
}

TEST(ResultCacheTest, UnflushedStoresAreServedAfterReopen) {
  // store() only writes; destroying the cache makes the entries durable,
  // so a reopened cache serves them with no explicit flush().
  TempPath tmp("unflushed");
  constexpr u64 kEntries = 16;
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    for (u64 i = 0; i < kEntries; ++i) {
      const std::string label = "point" + std::to_string(i);
      cache->store(spec_hash(label), finished_stats(label, 100 + i));
    }
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->size(), kEntries);
  EXPECT_EQ(cache->dropped_lines(), 0u);
  for (u64 i = 0; i < kEntries; ++i) {
    const std::string label = "point" + std::to_string(i);
    const auto hit = cache->lookup(spec_hash(label));
    ASSERT_TRUE(hit.has_value()) << label;
    EXPECT_EQ(hit->label, label);
    EXPECT_EQ(hit->digest, 100 + i);
  }
}

TEST(ResultCacheTest, CorruptEntryDegradesToAMiss) {
  TempPath tmp("corrupt");
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    cache->store(spec_hash("a"), finished_stats("a", 1));
    cache->store(spec_hash("b"), finished_stats("b", 2));
  }
  // Flip one byte inside spec a's checksummed region.
  std::string content;
  {
    std::ifstream in(tmp.str());
    std::getline(in, content, '\0');
  }
  const auto pos = content.find("digest=0000000000000001");
  ASSERT_NE(pos, std::string::npos);
  content[pos + 22] = '9';
  {
    std::ofstream out(tmp.str(), std::ios::trunc);
    out << content;
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->dropped_lines(), 1u);
  EXPECT_FALSE(cache->lookup(spec_hash("a")).has_value());  // miss, not lies
  const auto b = cache->lookup(spec_hash("b"));
  ASSERT_TRUE(b.has_value());  // the intact sibling entry still serves
  EXPECT_EQ(b->digest, 2u);
}

TEST(ResultCacheTest, StaleEntryVersionIsDropped) {
  TempPath tmp("stale");
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    cache->store(spec_hash("a"), finished_stats("a", 1));
  }
  {
    // A future writer's v2 entry: checksum-valid but schema-unknown, so
    // this binary must skip it rather than misparse its payload.
    const std::string line = "E 00000000000000aa v2 label=zz done=1";
    std::ofstream out(tmp.str(), std::ios::app);
    out << line << checksum_suffix(line) << '\n';
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->dropped_lines(), 1u);
  EXPECT_EQ(cache->size(), 1u);
  EXPECT_FALSE(cache->lookup(0xaa).has_value());
  EXPECT_TRUE(cache->lookup(spec_hash("a")).has_value());
}

TEST(ResultCacheTest, TornTailWriteIsDroppedNotFatal) {
  TempPath tmp("torn");
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    cache->store(spec_hash("a"), finished_stats("a", 1));
  }
  {
    // SIGKILL mid-append: an entry cut off before its checksum.
    std::ofstream out(tmp.str(), std::ios::app);
    out << "E 00000000000000bb v1 label=half done=1";  // no cks, no newline
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->dropped_lines(), 1u);
  EXPECT_FALSE(cache->lookup(0xbb).has_value());
  EXPECT_TRUE(cache->lookup(spec_hash("a")).has_value());
}

TEST(ResultCacheTest, UnreadableHeaderResetsTheFile) {
  TempPath tmp("noheader");
  {
    std::ofstream out(tmp.str());
    out << "not a result cache\n";
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);  // a damaged cache is discarded, not trusted
  EXPECT_EQ(cache->size(), 0u);
  cache->store(7, finished_stats("fresh", 9));
  EXPECT_TRUE(cache->lookup(7).has_value());
}

// -- Determinism contract ----------------------------------------------------

/// One golden job: a seed-parameterised simulation whose JobStats capture
/// kernel counters, a fold of the observed trace, and a tool payload.
JobStats simulate_golden(u64 seed) {
  std::vector<JobStats> records;
  run_inline("golden" + std::to_string(seed), records,
             [seed](JobContext& ctx) {
               Xoshiro256 rng(seed);
               kern::Simulation sim;
               kern::Module top(sim, "top");
               kern::Signal<u32> sig(top, "sig");
               u64 fold = 1469598103934665603ull;
               kern::SpawnOptions opts;
               opts.sensitivity = {&sig.value_changed_event()};
               opts.dont_initialize = true;
               top.spawn_method("obs", [&] {
                 fold ^= sim.now().picoseconds() ^ (u64{sig.read()} << 32);
                 fold *= 1099511628211ull;
               }, opts);
               top.spawn_thread("producer", [&] {
                 for (int i = 0; i < 40; ++i) {
                   kern::wait(Time::ns(1 + rng.next_below(9)));
                   sig.write(static_cast<u32>(rng.next_below(1u << 30)));
                 }
               });
               sim.run();
               ctx.record(sim);
               ctx.record_digest(fold);
               ctx.record_user_data("fold\t" + std::to_string(fold));
             });
  return records.at(0);
}

TEST(ResultCacheTest, CachedStatsAreByteIdenticalToResimulated) {
  TempPath tmp("golden");
  const u64 seeds[] = {11, 42, 516};
  {
    auto cache = ResultCache::open(tmp.str());
    ASSERT_NE(cache, nullptr);
    for (const u64 seed : seeds)
      cache->store(spec_hash("golden", seed), simulate_golden(seed));
  }
  auto cache = ResultCache::open(tmp.str());
  ASSERT_NE(cache, nullptr);
  for (const u64 seed : seeds) {
    auto served = cache->lookup(spec_hash("golden", seed));
    ASSERT_TRUE(served.has_value()) << "seed " << seed;
    JobStats fresh = simulate_golden(seed);
    // Wall-clock time is the one legitimately nondeterministic field; every
    // other byte of the serialised record must match the re-simulation.
    served->wall_seconds = 0;
    fresh.wall_seconds = 0;
    EXPECT_EQ(encode_job_stats(*served), encode_job_stats(fresh))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace adriatic::campaign
