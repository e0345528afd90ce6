// Per-client PHY framing: the full 802.11-style transmit chain
//   payload bits -> scramble -> convolutional encode -> puncture ->
//   pad to OFDM symbols -> per-symbol interleave -> QAM map
// and its inverse. In the uplink multi-user system every client runs an
// independent chain (one spatial stream each); the AP detects jointly and
// decodes each client separately.
//
// Table-driven. The constructor runs the reference components once
// (coding::Scrambler, Puncturer, BlockInterleaver and the Constellation's
// bit maps) and keeps only what they compute for this configuration:
//   * the scrambler sequence over the payload;
//   * the grid table: for every transmitted (OFDM symbol, subcarrier,
//     bit) slot, the mother-code bit it carries, or padding;
//   * the inverse table: for every mother-code bit, its slot, or an
//     erasure where the puncturer stole it;
//   * the constellation's Q-bit -> index and index -> trellis-level maps.
// A frame then costs one scramble + convolve pass on the encoder's
// 128-entry output table and one gather per symbol to encode; and one
// gather of trellis inputs (0/254 per detected bit, 127 per erasure --
// exactly what quantizing 0/1/0.5 gives), the ACS sweep and a
// descrambling XOR to hard-decode. The components run only here, as the
// tables' source, and in the tests, as the reference chain the tables are
// held to.
//
// The chain is configurable along two axes the sweep layer exposes:
//   * code: rate 1/2, 2/3 or 3/4 (punctured), or "none" -- an uncoded mode
//     that keeps the scrambler and interleaver but skips the encoder,
//     puncturer and Viterbi entirely (a raw-BER baseline).
//   * viterbi: for soft inputs, the double-precision reference decoder
//     (default, the arbiter for the repo's goldens) or the quantized int16
//     SIMD decoder (coding/quantized_viterbi.h). Hard inputs always decode
//     on the int16 decoder, which is exact for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/puncture.h"
#include "coding/quantized_viterbi.h"
#include "coding/spec.h"
#include "coding/viterbi.h"
#include "common/types.h"
#include "constellation/constellation.h"

namespace geosphere::phy {

/// Which Viterbi implementation the soft receive chain runs. Both decode
/// the same trellis with the same tie rule; on soft inputs kQuantized
/// trades <= 1/2-LSB branch-cost rounding for the int16 SIMD kernels. Hard
/// inputs ({0, 1/2, 1} confidences after depuncturing) quantize without
/// rounding, so FrameCodec::decode runs the int16 kernels under either
/// setting and gets the double decoder's bits exactly.
enum class ViterbiImpl { kDouble, kQuantized };

struct FrameConfig {
  unsigned qam_order = 16;
  /// false = uncoded ("code:none"): no encoder/puncturer/Viterbi,
  /// code_rate is ignored and the effective rate is 1.
  bool coded = true;
  coding::CodeRate code_rate = coding::CodeRate::kHalf;
  ViterbiImpl viterbi = ViterbiImpl::kDouble;
  std::size_t payload_bytes = 1000;
  std::size_t data_subcarriers = 48;

  std::size_t payload_bits() const { return payload_bytes * 8; }
  /// Coded bits per OFDM symbol for this modulation.
  std::size_t coded_bits_per_ofdm_symbol(const Constellation& c) const {
    return data_subcarriers * c.bits_per_symbol();
  }
  /// Effective information bits per transmitted coded bit (1 when uncoded).
  double code_rate_value() const {
    return coded ? coding::code_rate_value(code_rate) : 1.0;
  }
  /// Applies a parsed code spec to the (coded, code_rate) pair.
  void set_code(const coding::CodeSpec& code) {
    coded = code.coded();
    if (coded) code_rate = code.rate();
  }
};

/// One client's encoded frame: the symbol grid it transmits.
struct EncodedFrame {
  BitVector payload;                     ///< The information bits.
  std::vector<unsigned> symbol_indices;  ///< ofdm_symbols * data_subcarriers entries,
                                         ///< subcarrier-major within each OFDM symbol.
  std::size_t ofdm_symbols = 0;
  std::size_t punctured_bits = 0;  ///< Valid coded bits before padding.

  unsigned symbol_at(std::size_t ofdm_symbol, std::size_t subcarrier,
                     std::size_t data_subcarriers) const {
    return symbol_indices[ofdm_symbol * data_subcarriers + subcarrier];
  }
};

/// Reusable receive-chain scratch: the detected bits as trellis levels per
/// slot, the gathered trellis input (int16 levels, or doubles for the
/// double soft decoder) and the decoder workspaces. Grown on first use,
/// then steady-state decodes of same-shape frames allocate nothing. One
/// per thread; shareable across codecs.
struct CodecWorkspace {
  std::vector<std::int16_t> levels;
  std::vector<std::int16_t> trellis;
  std::vector<double> depunctured;
  coding::ViterbiWorkspace viterbi;
  coding::QuantizedViterbiWorkspace quantized;
};

/// Runs one client's transmit chain over `payload` (frame-level scrambler
/// seeded per frame by the caller for reproducibility).
class FrameCodec {
 public:
  explicit FrameCodec(const FrameConfig& config);

  EncodedFrame encode(const BitVector& payload) const;

  /// Hard-decision receive chain: detected symbol indices -> payload bits,
  /// on the int16 Viterbi whatever config().viterbi says (exact for hard
  /// inputs, see ViterbiImpl). `ofdm_symbols` may exceed
  /// ofdm_symbols_per_frame() (the extra symbols are padding); fewer, a
  /// symbol count other than ofdm_symbols * data_subcarriers, or an index
  /// outside the constellation throw std::invalid_argument.
  BitVector decode(const std::vector<unsigned>& symbol_indices,
                   std::size_t ofdm_symbols) const;

  /// Soft-decision receive chain: per-coded-bit confidences (probability
  /// that the bit is 1, in transmitted/interleaved order, Q consecutive
  /// values per subcarrier) -> payload bits via the Viterbi decoder that
  /// config().viterbi selects. Same symbol-count rules as decode().
  BitVector decode_soft(const std::vector<double>& bit_confidences,
                        std::size_t ofdm_symbols) const;

  /// Allocation-free variants (the hot path for the coded pipeline): all
  /// scratch lives in `ws`, the payload bits land in `out`. Identical
  /// results to the vector-returning overloads, which wrap these with a
  /// thread-local workspace.
  void decode(const std::vector<unsigned>& symbol_indices, std::size_t ofdm_symbols,
              CodecWorkspace& ws, BitVector& out) const;
  void decode_soft(const std::vector<double>& bit_confidences, std::size_t ofdm_symbols,
                   CodecWorkspace& ws, BitVector& out) const;

  const FrameConfig& config() const { return config_; }
  const Constellation& constellation() const { return *constellation_; }

  /// OFDM symbols needed to carry the configured payload.
  std::size_t ofdm_symbols_per_frame() const { return ofdm_symbols_; }

 private:
  /// Shape checks shared by decode and decode_soft.
  void check_frame(std::size_t values, std::size_t values_per_symbol,
                   std::size_t ofdm_symbols, const char* what) const;
  /// XORs the scrambler sequence into the decoded payload bits.
  void descramble(BitVector& bits) const;

  FrameConfig config_;
  const Constellation* constellation_;
  coding::ViterbiDecoder viterbi_;
  coding::QuantizedViterbi quantized_viterbi_;
  std::size_t ofdm_symbols_ = 0;
  std::size_t stream_bits_ = 0;  ///< Transmitted bits per frame, before padding.
  /// Scrambler sequence, one bit per payload bit.
  BitVector scramble_;
  /// Source bit (mother-code bit; payload bit when uncoded) of every
  /// transmitted slot (sym * per_symbol + sc * Q + b); padding slots hold
  /// source_slot_.size(), the index of a zero cell past the source bits.
  std::vector<std::uint32_t> grid_;
  /// Slot of every source bit; stolen (punctured) bits hold grid_.size(),
  /// the index of an erasure cell past the slots.
  std::vector<std::uint32_t> source_slot_;
  /// Symbol index of every Q-bit pattern (bit 0 of the slot order in the
  /// pattern's MSB).
  std::vector<unsigned> index_of_bits_;
  /// Q trellis levels (0 or kQuantOne) of every symbol index.
  std::vector<std::int16_t> bit_levels_;
};

}  // namespace geosphere::phy
