// Quantized int16 add-compare-select kernel for the (133,171) rate-1/2
// Viterbi decoder -- the coding-layer sibling of the tree-search kernel
// table (src/detect/sphere/simd/kernel.h).
//
// Quantization scheme. A soft input is a per-coded-bit confidence that the
// bit is 1, in [0, 1], with 0.5 marking a depunctured erasure. Confidences
// quantize to v = clamp(round(c * 254), 0, 254), so 1.0 -> 254, 0.0 -> 0
// and an erasure lands exactly on 127 (the midpoint -- both polarities cost
// the same, keeping the erasure neutral like the double decoder's |0.5 - b|).
// The branch cost of emitting coded bit b against v is |v - 254*b|, i.e.
// the double decoder's |c - b| scaled by 254; one trellis step adds at most
// kMaxBranchCost = 508. Rounding (at most 1/2 LSB per confidence) touches
// soft inputs only: hard 0/1 confidences and 0.5 erasures land exactly on
// 0, 254 and 127, every cost is then exactly 254x the double decoder's,
// and with the exact offset and renormalization below and the shared tie
// rule the kernel reproduces the double decoder's decisions verbatim.
//
// Butterfly structure. With the repo's trellis convention (window =
// (u<<6)|s, next = window>>1), next-state n = (u<<5)|p has exactly the
// predecessors s = 2p and s = 2p+1. Both generators contain the input bit
// (bit 6) and the dropped bit (bit 0), so the four branches of a butterfly
// share ONE cost e = |v0 - pol0[p]| + |v1 - pol1[p]| (the s=2p, u=0 branch
// against the step's quantized pair) and its complement 508 - e:
//
//      target p    (u=0):  min(metric[2p] + e,        metric[2p+1] + 508-e)
//      target 32+p (u=1):  min(metric[2p] + 508-e,    metric[2p+1] + e)
//
// The ACS pass is therefore a flat SoA sweep over p = 0..31: even/odd
// metric deinterleave, one abs-cost per butterfly, two add-compare-select
// lanes, survivors of targets p and 32+p -- the next step's predecessor
// metrics. The SIMD tiers keep all 64 of them in registers (4 AVX2 / 8
// SSE2) across the whole sweep and touch memory only for each step's two
// quantized inputs and its decision word; the scalar reference ping-pongs
// two 64-entry banks.
//
// Overflow-free by construction. State 0 starts at 0 and every other state
// at kInitOffset = 8192 (a penalty standing in for the double decoder's
// +inf; any state reaches any other in 6 steps at <= 6*508 = 3048 < 8192,
// so a fake-start path can never beat a true path and the offset is exact
// -- see quantized_viterbi.cpp). Metrics renormalize by their exact
// horizontal minimum every kRenormInterval = 32 steps; the worst-case
// running metric is 8192 + 32*508 = 24448 < 32767, so plain wrapping int16
// adds never overflow and every tier's arithmetic is exact integer math --
// bit-identical across scalar/SSE2/AVX2 by construction, locked by
// tests/quantized_viterbi_test.cpp.
//
// Decision words use ViterbiDecoder's exact layout (bit n = dropped bit of
// the surviving predecessor of state n, ties keep the even predecessor),
// so both decoders share one traceback (coding::viterbi_traceback).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "coding/convolutional.h"

namespace geosphere::coding::simd {

/// Quantized confidence of a certain 1 (confidence 1.0).
inline constexpr int kQuantOne = 254;
/// Quantized erasure (confidence 0.5): the exact midpoint of [0, 254].
inline constexpr int kQuantErasure = 127;
/// Worst-case cost of one trellis step (both coded bits fully wrong).
inline constexpr int kMaxBranchCost = 2 * kQuantOne;
/// Initial metric of every state but 0 (the tail-terminated encoder start).
inline constexpr std::int16_t kInitOffset = 8192;
/// Steps between exact-minimum renormalizations (fixed schedule: part of
/// the cross-tier bit-identity contract).
inline constexpr std::size_t kRenormInterval = 32;

namespace detail {

constexpr std::array<std::int16_t, 32> make_polarity(unsigned generator) {
  std::array<std::int16_t, 32> out{};
  for (unsigned p = 0; p < 32; ++p) {
    unsigned x = (2u * p) & generator;  // The (s = 2p, u = 0) branch window.
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    out[p] = (x & 1u) ? static_cast<std::int16_t>(kQuantOne) : std::int16_t{0};
  }
  return out;
}

}  // namespace detail

/// Per-butterfly branch polarities: the quantized coded pair the
/// (s = 2p, u = 0) branch emits. The other three branches of butterfly p
/// follow by complement (see the header comment).
inline constexpr auto kPolarity0 = detail::make_polarity(ConvolutionalEncoder::kG0);
inline constexpr auto kPolarity1 = detail::make_polarity(ConvolutionalEncoder::kG1);

struct ViterbiKernel {
  /// Tier name: "scalar", "sse2" or "avx2" (the GEOSPHERE_KERNEL spellings).
  const char* name;

  /// The full ACS recursion over `steps` trellis steps.
  ///   quantized   2*steps int16 confidences in [0, kQuantOne]
  ///   metric      64 int16 initial state metrics on entry (0 / kInitOffset
  ///               from the caller); the final metrics on exit
  ///   decisions   one packed word per step, ViterbiDecoder's layout
  void (*acs)(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::uint64_t* decisions);
};

}  // namespace geosphere::coding::simd
