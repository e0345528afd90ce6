// SSE2 tier of the quantized Viterbi ACS kernel: 8 butterflies per 128-bit
// register. SSE2 is part of the x86-64 baseline, so this TU needs no
// special compiler flags -- it is simply absent from non-x86 builds.
//
// The 64 state metrics live in eight registers for the whole sweep (the
// compiler may spill a few of them: x86-64 has 16 xmm registers). All
// arithmetic is exact int16 (no saturation is ever reached -- see the
// overflow bound in viterbi_kernel.h), so the adds, the strict-< compare
// and the min produce bit-identical survivors and decision bits to the
// scalar reference. The even/odd metric deinterleave uses mask+pack and
// shift+pack.
#include "coding/simd/viterbi_kernel.h"

#if defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define GEOSPHERE_SSE2_VITERBI_ENABLED 1
#include <emmintrin.h>
#endif

namespace geosphere::coding::simd {
namespace detail {

#ifdef GEOSPHERE_SSE2_VITERBI_ENABLED

namespace {

/// One ACS pass over the 8 butterflies p0 .. p0+7, whose predecessor states
/// 2*p0 .. 2*p0+15 are in (a, b): survivors of targets p0 .. p0+7 land in
/// `lo`, of targets 32+p0 .. 32+p0+7 in `hi`. Returns the decision bits
/// placed in the step's word.
inline std::uint64_t butterflies(__m128i a, __m128i b, __m128i v0, __m128i v1,
                                 const std::int16_t* pol0, const std::int16_t* pol1,
                                 unsigned p0, __m128i& lo, __m128i& hi) {
  const __m128i lo16 = _mm_set1_epi32(0x0000FFFF);
  // Even (m0) and odd (m1) predecessor metrics; _mm_packs_epi32 saturation
  // is inert because metrics stay in [0, 24448].
  const __m128i m0 = _mm_packs_epi32(_mm_and_si128(a, lo16), _mm_and_si128(b, lo16));
  const __m128i m1 = _mm_packs_epi32(_mm_srai_epi32(a, 16), _mm_srai_epi32(b, 16));

  const __m128i zero = _mm_setzero_si128();
  const __m128i d0 =
      _mm_sub_epi16(v0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(pol0 + p0)));
  const __m128i d1 =
      _mm_sub_epi16(v1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(pol1 + p0)));
  const __m128i e = _mm_add_epi16(_mm_max_epi16(d0, _mm_sub_epi16(zero, d0)),
                                  _mm_max_epi16(d1, _mm_sub_epi16(zero, d1)));
  const __m128i f = _mm_sub_epi16(_mm_set1_epi16(static_cast<short>(kMaxBranchCost)), e);

  const __m128i lo_even = _mm_add_epi16(m0, e);
  const __m128i lo_odd = _mm_add_epi16(m1, f);
  const __m128i hi_even = _mm_add_epi16(m0, f);
  const __m128i hi_odd = _mm_add_epi16(m1, e);
  lo = _mm_min_epi16(lo_even, lo_odd);
  hi = _mm_min_epi16(hi_even, hi_odd);
  // Strict < keeps the even predecessor on ties, exactly like the scalar
  // reference; min() agrees on the surviving value either way.
  const unsigned bits = static_cast<unsigned>(_mm_movemask_epi8(
      _mm_packs_epi16(_mm_cmplt_epi16(lo_odd, lo_even), _mm_cmplt_epi16(hi_odd, hi_even))));
  return (static_cast<std::uint64_t>(bits & 0xFFu) << p0) |
         (static_cast<std::uint64_t>(bits >> 8) << (32 + p0));
}

void acs_sse2(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::uint64_t* decisions) {
  const auto load = [](const std::int16_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  const std::int16_t* pol0 = kPolarity0.data();
  const std::int16_t* pol1 = kPolarity1.data();
  // The 64 state metrics, 8 per register (s0 = states 0-7, ..., s7 =
  // states 56-63), held across the whole sweep.
  __m128i s0 = load(metric), s1 = load(metric + 8), s2 = load(metric + 16),
          s3 = load(metric + 24), s4 = load(metric + 32), s5 = load(metric + 40),
          s6 = load(metric + 48), s7 = load(metric + 56);
  for (std::size_t t = 0; t < steps; ++t) {
    const __m128i v0 = _mm_set1_epi16(quantized[2 * t]);
    const __m128i v1 = _mm_set1_epi16(quantized[2 * t + 1]);
    // Butterflies 8g .. 8g+7 read states 16g .. 16g+15 (s[2g], s[2g+1])
    // and write targets 8g .. 8g+7 (s[g]) and 32+8g .. (s[4+g]).
    __m128i n0, n1, n2, n3, n4, n5, n6, n7;
    decisions[t] = butterflies(s0, s1, v0, v1, pol0, pol1, 0, n0, n4) |
                   butterflies(s2, s3, v0, v1, pol0, pol1, 8, n1, n5) |
                   butterflies(s4, s5, v0, v1, pol0, pol1, 16, n2, n6) |
                   butterflies(s6, s7, v0, v1, pol0, pol1, 24, n3, n7);
    s0 = n0;
    s1 = n1;
    s2 = n2;
    s3 = n3;
    s4 = n4;
    s5 = n5;
    s6 = n6;
    s7 = n7;
    if ((t + 1) % kRenormInterval == 0) {
      // Exact-minimum renormalization, identical integer math to scalar.
      __m128i h = _mm_min_epi16(_mm_min_epi16(_mm_min_epi16(s0, s1), _mm_min_epi16(s2, s3)),
                                _mm_min_epi16(_mm_min_epi16(s4, s5), _mm_min_epi16(s6, s7)));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 8));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 4));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 2));
      const __m128i low = _mm_set1_epi16(static_cast<short>(_mm_cvtsi128_si32(h)));
      s0 = _mm_sub_epi16(s0, low);
      s1 = _mm_sub_epi16(s1, low);
      s2 = _mm_sub_epi16(s2, low);
      s3 = _mm_sub_epi16(s3, low);
      s4 = _mm_sub_epi16(s4, low);
      s5 = _mm_sub_epi16(s5, low);
      s6 = _mm_sub_epi16(s6, low);
      s7 = _mm_sub_epi16(s7, low);
    }
  }
  const auto store = [](std::int16_t* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  };
  store(metric, s0);
  store(metric + 8, s1);
  store(metric + 16, s2);
  store(metric + 24, s3);
  store(metric + 32, s4);
  store(metric + 40, s5);
  store(metric + 48, s6);
  store(metric + 56, s7);
}

const ViterbiKernel kSse2{"sse2", acs_sse2};

}  // namespace

const ViterbiKernel* sse2_viterbi_kernel_or_null() { return &kSse2; }

#else

const ViterbiKernel* sse2_viterbi_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::coding::simd
