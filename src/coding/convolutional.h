// Rate-1/2, constraint-length-7 convolutional encoder with the industry
// generators (133, 171) octal -- the code used by 802.11a/g/n and by the
// paper's WARPLab implementation ("1/2-rate convolutional coding (similar
// to recent 802.11 standards)", Section 4).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.h"

namespace geosphere::coding {

class ConvolutionalEncoder {
 public:
  static constexpr int kConstraintLength = 7;
  static constexpr unsigned kG0 = 0b1011011;  ///< 133 octal.
  static constexpr unsigned kG1 = 0b1111001;  ///< 171 octal.
  static constexpr int kStates = 64;
  static constexpr int kTailBits = kConstraintLength - 1;

  /// The coded pair one step emits for the 7-bit window (x[n] << 6) |
  /// state: bit 0 is the G0 output, bit 1 the G1 output. The 128-entry
  /// table behind it is the encoder's only parity computation.
  static unsigned output_pair(unsigned window);

  /// Encodes `info` followed by 6 zero tail bits (trellis termination).
  /// Output length = 2 * (info.size() + 6).
  BitVector encode(const BitVector& info) const;

  /// Coded length produced for `info_bits` information bits.
  static std::size_t coded_length(std::size_t info_bits) {
    return 2 * (info_bits + kTailBits);
  }
};

namespace detail {

constexpr unsigned parity7(unsigned x) {
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return x & 1u;
}

constexpr std::array<std::uint8_t, 128> make_output_pairs() {
  std::array<std::uint8_t, 128> out{};
  for (unsigned w = 0; w < 128; ++w)
    out[w] = static_cast<std::uint8_t>(parity7(w & ConvolutionalEncoder::kG0) |
                                       (parity7(w & ConvolutionalEncoder::kG1) << 1));
  return out;
}

inline constexpr auto kOutputPairs = make_output_pairs();

}  // namespace detail

inline unsigned ConvolutionalEncoder::output_pair(unsigned window) {
  return detail::kOutputPairs[window & 0x7Fu];
}

}  // namespace geosphere::coding
