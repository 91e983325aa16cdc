#include "comm/ofdm.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "accel/fft.hpp"

namespace adriatic::comm {

namespace {

[[nodiscard]] i16 sat16(i32 v) {
  if (v > 32767) return 32767;
  if (v < -32768) return -32768;
  return static_cast<i16>(v);
}

[[nodiscard]] std::vector<i32> conjugate(std::span<const i32> packed) {
  std::vector<i32> out(packed.size());
  for (usize i = 0; i < packed.size(); ++i)
    out[i] = accel::pack_cplx(accel::unpack_re(packed[i]),
                              static_cast<i16>(-accel::unpack_im(packed[i])));
  return out;
}

/// IDFT via the conjugation identity: idft(x) = conj(fft(conj(x))), given
/// that fft_q15 already folds in the 1/N scaling.
[[nodiscard]] std::vector<i32> ifft_q15(std::span<const i32> packed) {
  return conjugate(accel::fft_q15(conjugate(packed)));
}

void check_params(const OfdmParams& p) {
  if (!is_pow2(p.n_subcarriers) || p.n_subcarriers < 2)
    throw std::invalid_argument("OFDM: n_subcarriers must be a power of two");
  if (p.cyclic_prefix >= p.n_subcarriers)
    throw std::invalid_argument("OFDM: cyclic prefix >= symbol length");
}

}  // namespace

std::vector<i32> qpsk_map(std::span<const u8> bits, const OfdmParams& p) {
  check_params(p);
  std::vector<i32> freq(p.n_subcarriers);
  for (usize k = 0; k < p.n_subcarriers; ++k) {
    const u8 b0 = 2 * k < bits.size() ? bits[2 * k] & 1 : 0;
    const u8 b1 = 2 * k + 1 < bits.size() ? bits[2 * k + 1] & 1 : 0;
    // Gray-coded QPSK: bit0 -> I sign, bit1 -> Q sign.
    const i16 re = b0 ? static_cast<i16>(-p.amplitude) : p.amplitude;
    const i16 im = b1 ? static_cast<i16>(-p.amplitude) : p.amplitude;
    freq[k] = accel::pack_cplx(re, im);
  }
  return freq;
}

std::vector<u8> qpsk_demap(std::span<const i32> symbols, const OfdmParams& p) {
  check_params(p);
  std::vector<u8> bits;
  bits.reserve(symbols.size() * 2);
  for (const i32 s : symbols) {
    bits.push_back(accel::unpack_re(s) < 0 ? 1 : 0);
    bits.push_back(accel::unpack_im(s) < 0 ? 1 : 0);
  }
  return bits;
}

std::vector<i32> ofdm_modulate(std::span<const i32> freq,
                               const OfdmParams& p) {
  check_params(p);
  if (freq.size() != p.n_subcarriers)
    throw std::invalid_argument("ofdm_modulate: wrong symbol size");
  const auto time = ifft_q15(freq);
  std::vector<i32> out;
  out.reserve(p.cyclic_prefix + time.size());
  // Cyclic prefix: the tail of the symbol, repeated in front.
  out.insert(out.end(), time.end() - static_cast<std::ptrdiff_t>(p.cyclic_prefix),
             time.end());
  out.insert(out.end(), time.begin(), time.end());
  return out;
}

std::vector<i32> ofdm_demodulate(std::span<const i32> time,
                                 const OfdmParams& p) {
  check_params(p);
  if (time.size() != p.n_subcarriers + p.cyclic_prefix)
    throw std::invalid_argument("ofdm_demodulate: wrong sample count");
  return accel::fft_q15(time.subspan(p.cyclic_prefix));
}

double AwgnChannel::gaussian() {
  // Box-Muller with a cached spare.
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  do {
    u1 = rng_.next_double();
  } while (u1 <= 1e-12);
  const double u2 = rng_.next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_ = mag * std::sin(2.0 * std::numbers::pi * u2);
  have_spare_ = true;
  return mag * std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<i32> AwgnChannel::transmit(std::span<const i32> samples) {
  std::vector<i32> out(samples.size());
  for (usize i = 0; i < samples.size(); ++i) {
    const i32 re = accel::unpack_re(samples[i]) +
                   static_cast<i32>(std::lround(gaussian() * sigma_));
    const i32 im = accel::unpack_im(samples[i]) +
                   static_cast<i32>(std::lround(gaussian() * sigma_));
    out[i] = accel::pack_cplx(sat16(re), sat16(im));
  }
  return out;
}

std::vector<u8> ofdm_link(std::span<const u8> bits, const OfdmParams& p,
                          AwgnChannel& channel) {
  check_params(p);
  const usize bits_per_symbol = 2 * p.n_subcarriers;
  std::vector<u8> received;
  received.reserve(bits.size());
  for (usize base = 0; base < bits.size(); base += bits_per_symbol) {
    const usize n = std::min(bits_per_symbol, bits.size() - base);
    const auto freq = qpsk_map(bits.subspan(base, n), p);
    const auto tx = ofdm_modulate(freq, p);
    const auto rx = channel.transmit(tx);
    const auto demod = ofdm_demodulate(rx, p);
    const auto out_bits = qpsk_demap(demod, p);
    for (usize i = 0; i < n; ++i) received.push_back(out_bits[i]);
  }
  return received;
}

}  // namespace adriatic::comm
