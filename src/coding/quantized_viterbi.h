// Quantized soft-decision Viterbi decoder: the SIMD hot path behind the
// coded pipeline. Confidences in [0, 1] are quantized once to int16 levels
// (0.5 erasures land exactly on the midpoint 127), then a runtime-dispatched
// add-compare-select kernel (scalar / SSE2 / AVX2, all bit-identical; the
// SIMD tiers hold the 64 state metrics in registers across the whole
// sweep -- see coding/simd/viterbi_kernel.h) runs the 64-state trellis,
// and the packed decision words feed the same traceback as the
// double-precision ViterbiDecoder.
//
// Relationship to ViterbiDecoder: identical API shape, identical decision
// and traceback layout, and the surviving path is the same as the double
// decoder's up to branch-cost quantization (the 8192 "almost infinity"
// start offset is provably exact; the only behavioral difference is the
// +-1/2-LSB rounding of each branch cost, and only soft inputs round).
// Hard inputs -- 0/1 confidences plus depunctured 0.5 erasures -- quantize
// to exactly 254x themselves, so on them both decoders return the same
// bits, ties included. Frame codecs therefore decode every hard stream
// here, handing the levels 0/254/127 straight to decode_quantized();
// FrameConfig::viterbi picks between this decoder and the double
// reference (the default) for soft streams only.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "coding/simd/viterbi_kernel.h"
#include "coding/viterbi.h"

namespace geosphere::coding {

/// Reusable scratch for QuantizedViterbi: quantized symbols, the 64 state
/// metrics and the packed decision words. Grown on first use, then
/// allocation-free. One per thread.
struct QuantizedViterbiWorkspace {
  std::vector<std::int16_t> quantized;
  std::array<std::int16_t, ConvolutionalEncoder::kStates> metric;
  std::vector<std::uint64_t> decisions;
};

class QuantizedViterbi {
 public:
  /// Quantization of one confidence value: clamp(round(c * 254), 0, 254),
  /// rounding halves away from zero (std::lround's rule, without the libm
  /// call). 0.5 maps to the exact midpoint 127, keeping erasures neutral;
  /// NaN maps to 0.
  static std::int16_t quantize(double confidence) {
    const double x = confidence * static_cast<double>(simd::kQuantOne);
    // Below the first rounding boundary (negatives, -0 and NaN included)
    // the level is 0; from the last one up (+inf included) it is 254.
    if (!(x >= 0.5)) return 0;
    if (x >= simd::kQuantOne - 0.5) return simd::kQuantOne;
    // x + 0.5 (in [1, 254)) rounds only when it crosses into the next
    // binade 2^m; then the exact and the rounded sum both lie in
    // [2^m, 2^m + 1/2], so truncation gives floor(x + 1/2) either way.
    return static_cast<std::int16_t>(x + 0.5);
  }

  /// Soft-input decode, same contract as ViterbiDecoder::decode_soft:
  /// per-bit confidence of being 1 in [0, 1], 0.5 = erasure, even length,
  /// tail-terminated. Allocation-free given a warm workspace.
  void decode_soft(const double* confidence, std::size_t size,
                   QuantizedViterbiWorkspace& ws, BitVector& out) const;

  /// The same decode on already-quantized levels in [0, kQuantOne] (what
  /// decode_soft runs after quantize()). `quantized` may alias
  /// ws.quantized.
  void decode_quantized(const std::int16_t* quantized, std::size_t size,
                        QuantizedViterbiWorkspace& ws, BitVector& out) const;

  /// Convenience wrapper over a thread-local workspace (tests, one-offs).
  BitVector decode_soft(const std::vector<double>& confidence) const;
};

}  // namespace geosphere::coding
