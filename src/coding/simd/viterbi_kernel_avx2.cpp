// AVX2 tier of the quantized Viterbi ACS kernel: 16 butterflies per 256-bit
// register, so one iteration covers half the trellis. This TU alone is
// compiled with -mavx2 (when the compiler supports it; see CMakeLists.txt,
// which also defines GEOSPHERE_HAVE_AVX2_VITERBI for it); the kernel
// registry only hands the kernel out after a runtime cpuid check, so a
// portable binary never executes AVX2 instructions on a host without them.
//
// The 64 state metrics live in four registers for the whole sweep: a step
// reads them, writes four new ones and touches memory only for its two
// quantized inputs and its decision word. _mm256_packs_* operate within
// 128-bit lanes, so the even/odd metric deinterleave is followed by a
// permute4x64 that restores natural butterfly order; the decision-mask
// pack skips the permute and instead places its four in-lane byte groups
// into the word individually. All arithmetic is exact int16 (see the
// overflow bound in viterbi_kernel.h): bit-identical to the scalar
// reference.
#include "coding/simd/viterbi_kernel.h"

#if defined(GEOSPHERE_HAVE_AVX2_VITERBI) && defined(__AVX2__)
#define GEOSPHERE_AVX2_VITERBI_ENABLED 1
#include <immintrin.h>
#endif

namespace geosphere::coding::simd {
namespace detail {

#ifdef GEOSPHERE_AVX2_VITERBI_ENABLED

namespace {

/// One ACS pass over the 16 butterflies whose predecessor states are in
/// (a, b) = states 2*p0 .. 2*p0+31: survivors of targets p0 .. p0+15 land in
/// `lo`, of targets 32+p0 .. 32+p0+15 in `hi`. Returns the packed decision
/// mask (see place_decisions).
inline unsigned butterflies(__m256i a, __m256i b, __m256i v0, __m256i v1, __m256i pol0,
                            __m256i pol1, __m256i& lo, __m256i& hi) {
  const __m256i lo16 = _mm256_set1_epi32(0x0000FFFF);
  // Even/odd predecessor metrics, permuted back to natural butterfly order
  // after the in-lane pack.
  const __m256i m0 = _mm256_permute4x64_epi64(
      _mm256_packs_epi32(_mm256_and_si256(a, lo16), _mm256_and_si256(b, lo16)),
      _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i m1 = _mm256_permute4x64_epi64(
      _mm256_packs_epi32(_mm256_srai_epi32(a, 16), _mm256_srai_epi32(b, 16)),
      _MM_SHUFFLE(3, 1, 2, 0));

  const __m256i e = _mm256_add_epi16(_mm256_abs_epi16(_mm256_sub_epi16(v0, pol0)),
                                     _mm256_abs_epi16(_mm256_sub_epi16(v1, pol1)));
  const __m256i f =
      _mm256_sub_epi16(_mm256_set1_epi16(static_cast<short>(kMaxBranchCost)), e);

  const __m256i lo_even = _mm256_add_epi16(m0, e);
  const __m256i lo_odd = _mm256_add_epi16(m1, f);
  const __m256i hi_even = _mm256_add_epi16(m0, f);
  const __m256i hi_odd = _mm256_add_epi16(m1, e);
  lo = _mm256_min_epi16(lo_even, lo_odd);
  hi = _mm256_min_epi16(hi_even, hi_odd);
  // Strict < keeps the even predecessor on ties (scalar's tie rule).
  return static_cast<unsigned>(_mm256_movemask_epi8(_mm256_packs_epi16(
      _mm256_cmpgt_epi16(lo_even, lo_odd), _mm256_cmpgt_epi16(hi_even, hi_odd))));
}

/// packs_epi16 interleaves per lane: the mask's byte groups are [lo 0-7,
/// hi 0-7 | lo 8-15, hi 8-15] relative to p0. Place each group directly.
inline std::uint64_t place_decisions(unsigned bits, unsigned p0) {
  return (static_cast<std::uint64_t>(bits & 0xFFu) << p0) |
         (static_cast<std::uint64_t>((bits >> 8) & 0xFFu) << (32 + p0)) |
         (static_cast<std::uint64_t>((bits >> 16) & 0xFFu) << (p0 + 8)) |
         (static_cast<std::uint64_t>(bits >> 24) << (32 + p0 + 8));
}

void acs_avx2(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::uint64_t* decisions) {
  const auto load = [](const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  const __m256i pol0_lo = load(kPolarity0.data()), pol0_hi = load(kPolarity0.data() + 16);
  const __m256i pol1_lo = load(kPolarity1.data()), pol1_hi = load(kPolarity1.data() + 16);
  // The 64 state metrics, 16 per register, stay in registers for the whole
  // sweep: states 0-15, 16-31, 32-47, 48-63.
  __m256i s0 = load(metric), s1 = load(metric + 16), s2 = load(metric + 32),
          s3 = load(metric + 48);
  for (std::size_t t = 0; t < steps; ++t) {
    const __m256i v0 = _mm256_set1_epi16(quantized[2 * t]);
    const __m256i v1 = _mm256_set1_epi16(quantized[2 * t + 1]);
    // Butterflies 0-15 read states 0-31 and write targets 0-15 / 32-47;
    // butterflies 16-31 read states 32-63 and write 16-31 / 48-63.
    __m256i lo0, hi0, lo1, hi1;
    const unsigned bits0 = butterflies(s0, s1, v0, v1, pol0_lo, pol1_lo, lo0, hi0);
    const unsigned bits1 = butterflies(s2, s3, v0, v1, pol0_hi, pol1_hi, lo1, hi1);
    decisions[t] = place_decisions(bits0, 0) | place_decisions(bits1, 16);
    s0 = lo0;
    s1 = lo1;
    s2 = hi0;
    s3 = hi1;
    if ((t + 1) % kRenormInterval == 0) {
      // Exact-minimum renormalization, identical integer math to scalar.
      const __m256i m = _mm256_min_epi16(_mm256_min_epi16(s0, s1), _mm256_min_epi16(s2, s3));
      __m128i h = _mm_min_epi16(_mm256_castsi256_si128(m), _mm256_extracti128_si256(m, 1));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 8));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 4));
      h = _mm_min_epi16(h, _mm_srli_si128(h, 2));
      const __m256i low = _mm256_broadcastw_epi16(h);
      s0 = _mm256_sub_epi16(s0, low);
      s1 = _mm256_sub_epi16(s1, low);
      s2 = _mm256_sub_epi16(s2, low);
      s3 = _mm256_sub_epi16(s3, low);
    }
  }
  const auto store = [](std::int16_t* p, __m256i v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  };
  store(metric, s0);
  store(metric + 16, s1);
  store(metric + 32, s2);
  store(metric + 48, s3);
}

const ViterbiKernel kAvx2{"avx2", acs_avx2};

}  // namespace

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return &kAvx2; }

#else

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::coding::simd
