// Channel model, interleaver and end-to-end link tests.
#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "comm/link.hpp"
#include "comm/ofdm.hpp"
#include "util/random.hpp"

namespace adriatic::comm {
namespace {

TEST(Bsc, ErrorRateConverges) {
  BscChannel ch(0.1, 42);
  std::vector<u8> bits(20'000, 0);
  const auto rx = ch.transmit(bits);
  usize flipped = 0;
  for (const auto b : rx) flipped += b;
  EXPECT_NEAR(static_cast<double>(flipped) / 20'000.0, 0.1, 0.01);
  EXPECT_EQ(ch.errors_injected(), flipped);
}

TEST(Bsc, ZeroRateIsTransparent) {
  BscChannel ch(0.0, 1);
  std::vector<u8> bits{1, 0, 1, 1, 0};
  EXPECT_EQ(ch.transmit(bits), bits);
  EXPECT_EQ(ch.errors_injected(), 0u);
}

TEST(GilbertElliott, AverageRateMatchesStationary) {
  GilbertElliottParams p;
  p.p_good_to_bad = 0.02;
  p.p_bad_to_good = 0.2;
  p.error_rate_good = 0.001;
  p.error_rate_bad = 0.4;
  GilbertElliottChannel ch(p, 7);
  std::vector<u8> bits(200'000, 0);
  const auto rx = ch.transmit(bits);
  usize flipped = 0;
  for (const auto b : rx) flipped += b;
  EXPECT_NEAR(static_cast<double>(flipped) / 200'000.0,
              ch.average_error_rate(), 0.01);
}

TEST(GilbertElliott, ErrorsComeInBursts) {
  GilbertElliottParams p;
  p.p_good_to_bad = 0.005;
  p.p_bad_to_good = 0.25;
  p.error_rate_good = 0.0;
  p.error_rate_bad = 0.5;
  GilbertElliottChannel ch(p, 3);
  std::vector<u8> bits(100'000, 0);
  const auto rx = ch.transmit(bits);
  // Count error-gap statistics: burst errors cluster, so the fraction of
  // errors whose predecessor-within-4-bits is also an error must far
  // exceed the memoryless expectation.
  usize errors = 0, clustered = 0;
  i64 last_error = -1000;
  for (usize i = 0; i < rx.size(); ++i) {
    if (rx[i]) {
      ++errors;
      if (static_cast<i64>(i) - last_error <= 4) ++clustered;
      last_error = static_cast<i64>(i);
    }
  }
  ASSERT_GT(errors, 100u);
  const double cluster_fraction =
      static_cast<double>(clustered) / static_cast<double>(errors);
  EXPECT_GT(cluster_fraction, 0.3);  // memoryless at this rate would be ~5%
}

TEST(Interleaver, RoundTripExact) {
  std::vector<u8> bits(1000);
  for (usize i = 0; i < bits.size(); ++i) bits[i] = static_cast<u8>(i % 2);
  const auto inter = interleave(bits, 16, 24);
  EXPECT_EQ(inter.size(), 3u * 16 * 24);  // padded to 3 blocks
  const auto back = deinterleave(inter, 16, 24, bits.size());
  EXPECT_EQ(back, bits);
  EXPECT_THROW(interleave(bits, 0, 8), std::invalid_argument);
  EXPECT_THROW(deinterleave(bits, 8, 0, 10), std::invalid_argument);
}

TEST(Interleaver, SpreadsBursts) {
  // A burst of 8 consecutive errors must land >= rows apart after
  // deinterleaving.
  const usize rows = 16, cols = 24;
  std::vector<u8> zeros(rows * cols, 0);
  auto inter = interleave(zeros, rows, cols);
  for (usize i = 100; i < 108; ++i) inter[i] ^= 1;  // channel burst
  const auto back = deinterleave(inter, rows, cols, zeros.size());
  std::vector<usize> error_positions;
  for (usize i = 0; i < back.size(); ++i)
    if (back[i]) error_positions.push_back(i);
  ASSERT_EQ(error_positions.size(), 8u);
  for (usize i = 1; i < error_positions.size(); ++i)
    EXPECT_GE(error_positions[i] - error_positions[i - 1], rows);
}

TEST(BitErrorRate, CountsMismatches) {
  const std::vector<u8> a{1, 0, 1, 0};
  const std::vector<u8> b{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(bit_error_rate(a, b), 0.5);
  EXPECT_DOUBLE_EQ(bit_error_rate({}, {}), 0.0);
}

TEST(Link, CleanChannelIsErrorFree) {
  BscChannel ch(0.0, 1);
  LinkConfig cfg;
  const auto r = run_link(ch, cfg, 5);
  EXPECT_EQ(r.bit_errors, 0u);
  EXPECT_EQ(r.frame_errors, 0u);
  EXPECT_EQ(r.frames, 5u);
  EXPECT_EQ(r.payload_bits, 5u * cfg.frame_bits);
}

TEST(Link, CodingGainOnBsc) {
  // At 2% channel BER, the K=7 code must reduce the residual BER by orders
  // of magnitude vs uncoded transmission.
  LinkConfig coded;
  LinkConfig uncoded;
  uncoded.coded = false;
  BscChannel ch_coded(0.02, 11);
  BscChannel ch_uncoded(0.02, 11);
  const auto r_coded = run_link(ch_coded, coded, 20);
  const auto r_uncoded = run_link(ch_uncoded, uncoded, 20);
  EXPECT_NEAR(r_uncoded.ber(), 0.02, 0.005);
  EXPECT_LT(r_coded.ber(), r_uncoded.ber() / 20.0);
}

TEST(Link, InterleaverHelpsOnBurstChannel) {
  GilbertElliottParams p;
  p.p_good_to_bad = 0.004;
  p.p_bad_to_good = 0.12;   // mean burst ~8 bits
  p.error_rate_good = 0.001;
  p.error_rate_bad = 0.45;
  LinkConfig plain;
  LinkConfig inter;
  inter.interleave = true;
  inter.interleave_rows = 32;
  inter.interleave_cols = 61;
  GilbertElliottChannel ch1(p, 5);
  GilbertElliottChannel ch2(p, 5);
  const auto r_plain = run_link(ch1, plain, 30);
  const auto r_inter = run_link(ch2, inter, 30);
  // The code alone chokes on bursts; spreading them across codewords must
  // cut the residual BER substantially.
  EXPECT_LT(r_inter.ber(), r_plain.ber() * 0.5);
}

// ---------------------------------------------------------------------------
// OFDM modem.

TEST(Ofdm, QpskMapDemapRoundTrip) {
  OfdmParams p;
  Xoshiro256 rng(3);
  std::vector<u8> bits(2 * p.n_subcarriers);
  for (auto& b : bits) b = static_cast<u8>(rng.next() & 1);
  const auto freq = qpsk_map(bits, p);
  ASSERT_EQ(freq.size(), p.n_subcarriers);
  const auto back = qpsk_demap(freq, p);
  for (usize i = 0; i < bits.size(); ++i) EXPECT_EQ(back[i], bits[i]) << i;
}

TEST(Ofdm, ModulateDemodulateNoiselessRoundTrip) {
  OfdmParams p;
  Xoshiro256 rng(9);
  std::vector<u8> bits(2 * p.n_subcarriers);
  for (auto& b : bits) b = static_cast<u8>(rng.next() & 1);
  const auto freq = qpsk_map(bits, p);
  const auto tx = ofdm_modulate(freq, p);
  EXPECT_EQ(tx.size(), p.n_subcarriers + p.cyclic_prefix);
  const auto demod = ofdm_demodulate(tx, p);
  // Hard decisions must survive the fixed-point IFFT/FFT round trip.
  EXPECT_EQ(qpsk_demap(demod, p), bits);
}

TEST(Ofdm, CyclicPrefixIsSymbolTail) {
  OfdmParams p;
  const auto freq = qpsk_map(std::vector<u8>(128, 1), p);
  const auto tx = ofdm_modulate(freq, p);
  for (usize i = 0; i < p.cyclic_prefix; ++i)
    EXPECT_EQ(tx[i], tx[p.n_subcarriers + i]);
}

TEST(Ofdm, ParameterValidation) {
  OfdmParams bad;
  bad.n_subcarriers = 48;  // not a power of two
  EXPECT_THROW(qpsk_map(std::vector<u8>{1}, bad), std::invalid_argument);
  OfdmParams bad_cp;
  bad_cp.cyclic_prefix = 64;
  EXPECT_THROW(qpsk_map(std::vector<u8>{1}, bad_cp), std::invalid_argument);
  OfdmParams p;
  EXPECT_THROW(ofdm_modulate(std::vector<i32>(10), p),
               std::invalid_argument);
  EXPECT_THROW(ofdm_demodulate(std::vector<i32>(10), p),
               std::invalid_argument);
}

TEST(Ofdm, LinkCleanAtHighSnrErroredAtLowSnr) {
  OfdmParams p;
  Xoshiro256 rng(77);
  std::vector<u8> bits(2048);
  for (auto& b : bits) b = static_cast<u8>(rng.next() & 1);

  // Time-domain RMS per component is amplitude/sqrt(N) smaller than the
  // constellation; pick sigmas relative to that.
  AwgnChannel quiet(10.0, 1);   // far below the decision distance
  const auto rx_quiet = ofdm_link(bits, p, quiet);
  EXPECT_EQ(rx_quiet, bits);

  AwgnChannel loud(2000.0, 1);  // swamps the time-domain signal
  const auto rx_loud = ofdm_link(bits, p, loud);
  const double ber = bit_error_rate(bits, rx_loud);
  EXPECT_GT(ber, 0.05);
  EXPECT_LT(ber, 0.6);
}

TEST(Ofdm, BerDecreasesWithSnr) {
  OfdmParams p;
  Xoshiro256 rng(5);
  std::vector<u8> bits(4096);
  for (auto& b : bits) b = static_cast<u8>(rng.next() & 1);
  double last_ber = 1.0;
  bool monotone = true;
  for (const double sigma : {1500.0, 800.0, 400.0, 100.0}) {
    AwgnChannel ch(sigma, 2);
    const double ber = bit_error_rate(bits, ofdm_link(bits, p, ch));
    if (ber > last_ber + 0.01) monotone = false;
    last_ber = ber;
  }
  EXPECT_TRUE(monotone);
  EXPECT_LT(last_ber, 0.001);  // essentially clean at the quiet end
}

}  // namespace
}  // namespace adriatic::comm
