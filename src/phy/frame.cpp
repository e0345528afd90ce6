#include "phy/frame.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "coding/scrambler.h"

namespace geosphere::phy {

namespace {

CodecWorkspace& thread_workspace() {
  static thread_local CodecWorkspace ws;
  return ws;
}

}  // namespace

FrameCodec::FrameCodec(const FrameConfig& config)
    : config_(config), constellation_(&Constellation::qam(config.qam_order)) {
  const unsigned q = constellation_->bits_per_symbol();
  const std::size_t per_symbol = config_.coded_bits_per_ofdm_symbol(*constellation_);
  const std::size_t payload_bits = config_.payload_bits();
  const std::size_t source_bits =
      config_.coded ? coding::ConvolutionalEncoder::coded_length(payload_bits) : payload_bits;

  scramble_ = coding::Scrambler().apply(BitVector(payload_bits, 0));

  // Source bit of every transmitted stream bit. The puncturer names the
  // kept bits: depuncturing the stream positions 0, 1, 2, ... puts each
  // one on the mother-code bit it carries (stolen bits read 0.5).
  std::vector<std::uint32_t> stream_source;
  if (config_.coded) {
    const coding::Puncturer puncturer(config_.code_rate);
    std::vector<double> positions(puncturer.punctured_length(source_bits));
    std::iota(positions.begin(), positions.end(), 0.0);
    const std::vector<double> placed = puncturer.depuncture(positions, source_bits);
    stream_source.resize(positions.size());
    for (std::size_t j = 0; j < source_bits; ++j) {
      if (placed[j] != 0.5)
        stream_source[static_cast<std::size_t>(placed[j])] = static_cast<std::uint32_t>(j);
    }
  } else {
    stream_source.resize(source_bits);
    std::iota(stream_source.begin(), stream_source.end(), 0u);
  }
  stream_bits_ = stream_source.size();
  ofdm_symbols_ = (stream_bits_ + per_symbol - 1) / per_symbol;

  // Stream bit k of OFDM symbol sym goes to slot sym * per_symbol +
  // forward()[k]; the zero-padded tail of the last symbol carries no
  // source bit.
  const coding::BlockInterleaver interleaver(per_symbol, q);
  const std::size_t slots = ofdm_symbols_ * per_symbol;
  grid_.assign(slots, static_cast<std::uint32_t>(source_bits));
  source_slot_.assign(source_bits, static_cast<std::uint32_t>(slots));
  for (std::size_t r = 0; r < stream_bits_; ++r) {
    const std::size_t slot = r - r % per_symbol + interleaver.forward()[r % per_symbol];
    grid_[slot] = stream_source[r];
    source_slot_[stream_source[r]] = static_cast<std::uint32_t>(slot);
  }

  const unsigned order = constellation_->order();
  BitVector bits(q);
  index_of_bits_.resize(order);
  bit_levels_.resize(static_cast<std::size_t>(order) * q);
  for (unsigned v = 0; v < order; ++v) {
    for (unsigned b = 0; b < q; ++b) bits[b] = static_cast<std::uint8_t>((v >> (q - 1 - b)) & 1u);
    index_of_bits_[v] = constellation_->index_from_bits(bits.data());
    constellation_->bits_from_index(v, bits.data());
    for (unsigned b = 0; b < q; ++b)
      bit_levels_[static_cast<std::size_t>(v) * q + b] =
          static_cast<std::int16_t>(bits[b] ? coding::simd::kQuantOne : 0);
  }
}

EncodedFrame FrameCodec::encode(const BitVector& payload) const {
  const std::size_t payload_bits = config_.payload_bits();
  if (payload.size() != payload_bits)
    throw std::invalid_argument("FrameCodec::encode: payload size mismatch");

  // Scramble and convolve in one pass; the cell past the source bits is
  // the zero every padding slot reads.
  const std::size_t source_bits = source_slot_.size();
  BitVector source(source_bits + 1, 0);
  if (config_.coded) {
    unsigned state = 0;  // Bits 5..0 hold x[n-1]..x[n-6].
    for (std::size_t i = 0; i < payload_bits + coding::ConvolutionalEncoder::kTailBits; ++i) {
      const unsigned u = i < payload_bits ? (payload[i] ^ scramble_[i]) & 1u : 0u;
      const unsigned window = (u << 6) | state;
      const unsigned pair = coding::ConvolutionalEncoder::output_pair(window);
      source[2 * i] = static_cast<std::uint8_t>(pair & 1u);
      source[2 * i + 1] = static_cast<std::uint8_t>(pair >> 1);
      state = window >> 1;
    }
  } else {
    for (std::size_t i = 0; i < payload_bits; ++i)
      source[i] = static_cast<std::uint8_t>((payload[i] ^ scramble_[i]) & 1u);
  }

  EncodedFrame frame;
  frame.payload = payload;
  frame.ofdm_symbols = ofdm_symbols_;
  frame.punctured_bits = stream_bits_;
  const unsigned q = constellation_->bits_per_symbol();
  frame.symbol_indices.resize(ofdm_symbols_ * config_.data_subcarriers);
  const std::uint32_t* slot = grid_.data();
  for (unsigned& index : frame.symbol_indices) {
    unsigned v = 0;
    for (unsigned b = 0; b < q; ++b) v = (v << 1) | source[*slot++];
    index = index_of_bits_[v];
  }
  return frame;
}

void FrameCodec::check_frame(std::size_t values, std::size_t values_per_symbol,
                             std::size_t ofdm_symbols, const char* what) const {
  if (values != ofdm_symbols * values_per_symbol)
    throw std::invalid_argument(std::string("FrameCodec::") + what + ": count mismatch");
  if (ofdm_symbols < ofdm_symbols_)
    throw std::invalid_argument(std::string("FrameCodec::") + what +
                                ": fewer OFDM symbols than the frame carries");
}

void FrameCodec::descramble(BitVector& bits) const {
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] ^= scramble_[i];
}

BitVector FrameCodec::decode(const std::vector<unsigned>& symbol_indices,
                             std::size_t ofdm_symbols) const {
  BitVector out;
  decode(symbol_indices, ofdm_symbols, thread_workspace(), out);
  return out;
}

BitVector FrameCodec::decode_soft(const std::vector<double>& bit_confidences,
                                  std::size_t ofdm_symbols) const {
  BitVector out;
  decode_soft(bit_confidences, ofdm_symbols, thread_workspace(), out);
  return out;
}

void FrameCodec::decode(const std::vector<unsigned>& symbol_indices,
                        std::size_t ofdm_symbols, CodecWorkspace& ws,
                        BitVector& out) const {
  check_frame(symbol_indices.size(), config_.data_subcarriers, ofdm_symbols, "decode");

  // Every detected bit as a trellis level (0 / 254) per slot, then the
  // erasure cell (127) that stolen bits read.
  const unsigned q = constellation_->bits_per_symbol();
  const std::size_t slots = grid_.size();
  ws.levels.resize(slots + 1);
  for (std::size_t i = 0; i < slots / q; ++i) {
    const unsigned index = symbol_indices[i];
    if (index >= constellation_->order())
      throw std::invalid_argument("FrameCodec::decode: symbol index out of range");
    std::copy_n(&bit_levels_[static_cast<std::size_t>(index) * q], q, &ws.levels[i * q]);
  }
  ws.levels[slots] = coding::simd::kQuantErasure;

  const std::size_t source_bits = source_slot_.size();
  if (!config_.coded) {
    out.resize(source_bits);
    for (std::size_t i = 0; i < source_bits; ++i)
      out[i] = ws.levels[source_slot_[i]] != 0 ? 1u : 0u;
  } else {
    // These levels are exactly what quantizing the 0/1 confidences and
    // 0.5 erasures gives, so the int16 decoder matches the double one bit
    // for bit here (ViterbiImpl).
    ws.trellis.resize(source_bits);
    for (std::size_t j = 0; j < source_bits; ++j) ws.trellis[j] = ws.levels[source_slot_[j]];
    quantized_viterbi_.decode_quantized(ws.trellis.data(), source_bits, ws.quantized, out);
  }
  descramble(out);
}

void FrameCodec::decode_soft(const std::vector<double>& bit_confidences,
                             std::size_t ofdm_symbols, CodecWorkspace& ws,
                             BitVector& out) const {
  check_frame(bit_confidences.size(),
              config_.coded_bits_per_ofdm_symbol(*constellation_), ofdm_symbols,
              "decode_soft");

  const double* conf = bit_confidences.data();
  const std::uint32_t erasure = static_cast<std::uint32_t>(grid_.size());
  const std::size_t source_bits = source_slot_.size();
  if (!config_.coded) {
    // Uncoded: hard threshold (an erasure-like 0.5 falls to 0).
    out.resize(source_bits);
    for (std::size_t i = 0; i < source_bits; ++i)
      out[i] = conf[source_slot_[i]] > 0.5 ? 1u : 0u;
  } else if (config_.viterbi == ViterbiImpl::kQuantized) {
    ws.trellis.resize(source_bits);
    for (std::size_t j = 0; j < source_bits; ++j) {
      const std::uint32_t slot = source_slot_[j];
      ws.trellis[j] = slot == erasure ? static_cast<std::int16_t>(coding::simd::kQuantErasure)
                                      : coding::QuantizedViterbi::quantize(conf[slot]);
    }
    quantized_viterbi_.decode_quantized(ws.trellis.data(), source_bits, ws.quantized, out);
  } else {
    ws.depunctured.resize(source_bits);
    for (std::size_t j = 0; j < source_bits; ++j) {
      const std::uint32_t slot = source_slot_[j];
      ws.depunctured[j] = slot == erasure ? 0.5 : conf[slot];
    }
    viterbi_.decode_soft(ws.depunctured.data(), source_bits, ws.viterbi, out);
  }
  descramble(out);
}

}  // namespace geosphere::phy
