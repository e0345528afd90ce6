#include "coding/convolutional.h"

namespace geosphere::coding {

BitVector ConvolutionalEncoder::encode(const BitVector& info) const {
  BitVector out;
  out.reserve(coded_length(info.size()));
  unsigned state = 0;  // Bits 5..0 hold x[n-1]..x[n-6].
  const auto push = [&](unsigned input_bit) {
    const unsigned window = (input_bit << 6) | state;  // Bit 6 = x[n].
    const unsigned pair = output_pair(window);
    out.push_back(static_cast<std::uint8_t>(pair & 1u));
    out.push_back(static_cast<std::uint8_t>(pair >> 1));
    state = (window >> 1) & 0x3Fu;
  };
  for (const auto b : info) push(b & 1u);
  for (int t = 0; t < kTailBits; ++t) push(0);
  return out;
}

}  // namespace geosphere::coding
