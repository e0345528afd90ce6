// AVX2 tier of the quantized Viterbi ACS kernel: 16 butterflies per 256-bit
// register, so one iteration covers half the trellis. This TU alone is
// compiled with -mavx2 (when the compiler supports it; see CMakeLists.txt,
// which also defines GEOSPHERE_HAVE_AVX2_VITERBI for it); the kernel
// registry only hands the kernel out after a runtime cpuid check, so a
// portable binary never executes AVX2 instructions on a host without them.
//
// _mm256_packs_* operate within 128-bit lanes, so the even/odd metric
// deinterleave is followed by a permute4x64 that restores natural butterfly
// order; the decision-mask pack skips the permute and instead places its
// four in-lane byte groups into the word individually. All arithmetic is
// exact int16 (see the overflow bound in viterbi_kernel.h): bit-identical
// to the scalar reference.
#include "coding/simd/viterbi_kernel.h"

#if defined(GEOSPHERE_HAVE_AVX2_VITERBI) && defined(__AVX2__)
#define GEOSPHERE_AVX2_VITERBI_ENABLED 1
#include <immintrin.h>
#endif

#ifdef GEOSPHERE_AVX2_VITERBI_ENABLED
#include <algorithm>
#include <cstring>
#endif

namespace geosphere::coding::simd {
namespace detail {

#ifdef GEOSPHERE_AVX2_VITERBI_ENABLED

namespace {

void acs_avx2(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
              std::int16_t* scratch, std::uint64_t* decisions) {
  const __m256i max_branch = _mm256_set1_epi16(static_cast<short>(kMaxBranchCost));
  const __m256i lo16 = _mm256_set1_epi32(0x0000FFFF);

  std::int16_t* cur = metric;
  std::int16_t* nxt = scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    const __m256i v0 = _mm256_set1_epi16(quantized[2 * t]);
    const __m256i v1 = _mm256_set1_epi16(quantized[2 * t + 1]);
    std::uint64_t word = 0;
    for (std::size_t p0 = 0; p0 < 32; p0 += 16) {
      // States 2*p0 .. 2*p0+31 -> even/odd metrics of butterflies
      // p0 .. p0+15, permuted back to natural order after the in-lane pack.
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + 2 * p0));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + 2 * p0 + 16));
      const __m256i m0 = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_and_si256(a, lo16), _mm256_and_si256(b, lo16)),
          _MM_SHUFFLE(3, 1, 2, 0));
      const __m256i m1 = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(_mm256_srai_epi32(a, 16), _mm256_srai_epi32(b, 16)),
          _MM_SHUFFLE(3, 1, 2, 0));

      const __m256i pol0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kPolarity0.data() + p0));
      const __m256i pol1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kPolarity1.data() + p0));
      const __m256i e = _mm256_add_epi16(_mm256_abs_epi16(_mm256_sub_epi16(v0, pol0)),
                                         _mm256_abs_epi16(_mm256_sub_epi16(v1, pol1)));
      const __m256i f = _mm256_sub_epi16(max_branch, e);

      const __m256i lo_even = _mm256_add_epi16(m0, e);
      const __m256i lo_odd = _mm256_add_epi16(m1, f);
      const __m256i hi_even = _mm256_add_epi16(m0, f);
      const __m256i hi_odd = _mm256_add_epi16(m1, e);
      // Strict < keeps the even predecessor on ties (scalar's tie rule).
      const __m256i lo_mask = _mm256_cmpgt_epi16(lo_even, lo_odd);
      const __m256i hi_mask = _mm256_cmpgt_epi16(hi_even, hi_odd);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(nxt + p0),
                          _mm256_min_epi16(lo_even, lo_odd));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(nxt + 32 + p0),
                          _mm256_min_epi16(hi_even, hi_odd));

      // packs_epi16 interleaves per lane: byte groups are [lo 0-7, hi 0-7 |
      // lo 8-15, hi 8-15] relative to p0. Place each group directly.
      const unsigned bits = static_cast<unsigned>(
          _mm256_movemask_epi8(_mm256_packs_epi16(lo_mask, hi_mask)));
      word |= (static_cast<std::uint64_t>(bits & 0xFFu) << p0) |
              (static_cast<std::uint64_t>((bits >> 8) & 0xFFu) << (32 + p0)) |
              (static_cast<std::uint64_t>((bits >> 16) & 0xFFu) << (p0 + 8)) |
              (static_cast<std::uint64_t>(bits >> 24) << (32 + p0 + 8));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
    if ((t + 1) % kRenormInterval == 0) {
      // Exact-minimum renormalization, identical integer math to scalar.
      const std::int16_t low = *std::min_element(cur, cur + 64);
      const __m256i low_v = _mm256_set1_epi16(low);
      for (std::size_t s = 0; s < 64; s += 16) {
        const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + s));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + s),
                            _mm256_sub_epi16(m, low_v));
      }
    }
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(std::int16_t));
}

const ViterbiKernel kAvx2{"avx2", acs_avx2};

}  // namespace

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return &kAvx2; }

#else

const ViterbiKernel* avx2_viterbi_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::coding::simd
