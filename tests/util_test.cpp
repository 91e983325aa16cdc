#include <gtest/gtest.h>

#include <sstream>

#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace adriatic {
namespace {

TEST(Types, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(7, 1), 7);
  EXPECT_EQ(ceil_div(7, 0), 0);  // guarded
}

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
}

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(Random, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Random, NextBelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(10), 10u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Random, NextRangeInclusive) {
  Xoshiro256 rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RunningStat, Basics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Log2Histogram, Buckets) {
  Log2Histogram h;
  h.add(0);  // bucket 0
  h.add(1);  // bucket 1
  h.add(2);  // bucket 2
  h.add(3);  // bucket 2
  h.add(1024);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_GE(h.buckets().size(), 11u);
}

TEST(Log2Histogram, Quantile) {
  Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.add(4);
  EXPECT_EQ(h.quantile(0.5), 8u);  // upper bucket bound for [4,8)
}

TEST(Counter, IncrementAndReset) {
  Counter c("xfers");
  c.inc();
  c.inc(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(c.name(), "xfers");
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Strings, Strfmt) {
  EXPECT_EQ(strfmt("x=%d", 7), "x=7");
  EXPECT_EQ(strfmt("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
}

TEST(Strings, SplitJoin) {
  auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(join(parts, "/"), "a/b/c");
  EXPECT_EQ(split("", '.').size(), 1u);
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("top.bus", "top"));
  EXPECT_FALSE(starts_with("top", "top.bus"));
}

TEST(Table, PrintAligned) {
  Table t("demo");
  t.header({"k", "value"});
  t.row({"a", "1"});
  t.row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("| bb"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
}

}  // namespace
}  // namespace adriatic
