// OFDM modem over the Q15 FFT kernel: QPSK subcarrier mapping, IFFT with
// cyclic prefix on transmit, FFT demodulation and hard demapping on receive,
// plus an integer AWGN model — the 802.11a-flavoured physical layer that
// completes the WLAN receive chain the examples build.
#pragma once

#include <span>
#include <vector>

#include "util/random.hpp"
#include "util/types.hpp"

namespace adriatic::comm {

struct OfdmParams {
  usize n_subcarriers = 64;   ///< FFT size (power of two).
  usize cyclic_prefix = 16;   ///< CP samples per symbol.
  i16 amplitude = 8192;       ///< QPSK constellation amplitude (Q15 domain).
};

/// Maps bits (2 per subcarrier, Gray-coded QPSK) onto one OFDM symbol's
/// frequency-domain representation: packed Q15 complex words, LSB-first
/// bit order. Missing bits are zero.
[[nodiscard]] std::vector<i32> qpsk_map(std::span<const u8> bits,
                                        const OfdmParams& p);

/// Hard-decision demap back to bits (2 per subcarrier).
[[nodiscard]] std::vector<u8> qpsk_demap(std::span<const i32> symbols,
                                         const OfdmParams& p);

/// Frequency-domain symbol -> time-domain samples with cyclic prefix
/// (n_subcarriers + cyclic_prefix packed complex words).
[[nodiscard]] std::vector<i32> ofdm_modulate(std::span<const i32> freq,
                                             const OfdmParams& p);

/// Time-domain samples (with CP) -> frequency-domain symbol.
[[nodiscard]] std::vector<i32> ofdm_demodulate(std::span<const i32> time,
                                               const OfdmParams& p);

/// Adds zero-mean Gaussian noise (std deviation `sigma` in Q15 units) to
/// both components of every packed complex sample.
class AwgnChannel {
 public:
  AwgnChannel(double sigma, u64 seed = 1) : sigma_(sigma), rng_(seed) {}
  [[nodiscard]] std::vector<i32> transmit(std::span<const i32> samples);

 private:
  [[nodiscard]] double gaussian();
  double sigma_;
  Xoshiro256 rng_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// End-to-end helper: bits -> OFDM symbols -> AWGN -> bits. Returns the
/// received bits (same count as input).
[[nodiscard]] std::vector<u8> ofdm_link(std::span<const u8> bits,
                                        const OfdmParams& p,
                                        AwgnChannel& channel);

}  // namespace adriatic::comm
