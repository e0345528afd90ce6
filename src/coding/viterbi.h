// Viterbi decoder for the (133,171) rate-1/2 convolutional code, with
// hard-decision and soft/erasure-aware inputs (the latter is what the
// depuncturer feeds).
//
// Two implementations share this header's traceback contract:
//   * ViterbiDecoder -- the double-precision reference below. Branch costs
//     are |confidence - coded_bit| sums; exact, allocation-free via
//     ViterbiWorkspace, and the arbiter for the repo's link-level goldens.
//   * QuantizedViterbi (quantized_viterbi.h) -- the int16 SIMD hot path,
//     which reuses viterbi_traceback() on the same packed decision words.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "coding/convolutional.h"

namespace geosphere::coding {

/// Reusable scratch for ViterbiDecoder: every buffer the decoder needs,
/// grown on first use and reused verbatim afterwards so steady-state
/// decodes perform no allocations. One workspace per thread; a workspace
/// may be shared across decoders and payload sizes.
struct ViterbiWorkspace {
  std::vector<double> metric;
  std::vector<double> next_metric;
  std::vector<double> confidence;       // hard-decision staging buffer
  std::vector<std::uint64_t> decisions;
};

/// Walks the packed decision words back from the terminated state 0 and
/// writes the `steps - kTailBits` information bits into `out` (resized),
/// each at its own index -- natural order, no staging buffer. Bit `n` of
/// decisions[t] is the dropped low bit (s & 1) of the winning predecessor
/// s of state n at step t -- the layout both the double and the quantized
/// ACS produce.
void viterbi_traceback(const std::uint64_t* decisions, std::size_t steps, BitVector& out);

class ViterbiDecoder {
 public:
  ViterbiDecoder();

  /// Hard-decision decode of `coded` (2*(k+6) bits from a tail-terminated
  /// encoder); returns the k information bits.
  BitVector decode(const BitVector& coded) const;

  /// Soft-input decode. Each entry is the confidence that the coded bit is
  /// 1, in [0, 1]; 0.5 marks an erasure (punctured position). Length must
  /// be even.
  BitVector decode_soft(const std::vector<double>& confidence) const;

  /// Allocation-free variants: identical results, all scratch lives in the
  /// workspace and `out` is reused. The vector-returning overloads above
  /// are thin wrappers over these with a thread-local workspace.
  void decode(const BitVector& coded, ViterbiWorkspace& ws, BitVector& out) const;
  void decode_soft(const double* confidence, std::size_t size, ViterbiWorkspace& ws,
                   BitVector& out) const;

 private:
  struct Transition {
    int next_state;
    std::uint8_t out0;
    std::uint8_t out1;
  };
  // transitions_[state][input_bit]
  std::vector<std::array<Transition, 2>> transitions_;
};

}  // namespace geosphere::coding
