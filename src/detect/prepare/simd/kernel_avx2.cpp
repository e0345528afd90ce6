// AVX2 kernel tier: four matrix lanes per 256-bit register. This TU alone
// is compiled with -mavx2 (when the compiler supports it; see
// CMakeLists.txt, which also defines GEOSPHERE_HAVE_AVX2_KERNEL for it) --
// the rest of the library stays at the portable baseline, and the kernel
// registry only hands out this kernel after a runtime cpuid check.
//
// No FMA anywhere, even though AVX2 hosts have it: fused multiply-adds skip
// the intermediate rounding and would break bit-identity with the scalar
// reference. Mixed-activity lane quads drop to the per-lane scalar
// formulas, as do the sub-width tails (this TU is compiled with
// -ffp-contract=off).
#include "detect/prepare/simd/kernel.h"

#if defined(GEOSPHERE_HAVE_AVX2_KERNEL) && defined(__AVX2__)
#define GEOSPHERE_PREPARE_AVX2_ENABLED 1
#include <immintrin.h>
#endif

namespace geosphere::prepare::simd {
namespace detail {

#ifdef GEOSPHERE_PREPARE_AVX2_ENABLED

namespace {

// Scalar single-lane fallbacks, shared by the mixed-mask paths and the
// sub-width tails; exactly the formulas of the scalar reference tier.
void reflector_apply_lane(const double* v_re, const double* v_im, double vns,
                          double* m_re, double* m_im, std::size_t len,
                          std::size_t lanes, std::size_t l) {
  if (!(vns > 0.0)) return;
  double proj_re = 0.0;
  double proj_im = 0.0;
  for (std::size_t t = 0; t < len; ++t) {
    const std::size_t idx = t * lanes + l;
    const double cvr = v_re[idx];
    const double cvi = -v_im[idx];
    const double mr = m_re[idx];
    const double mi = m_im[idx];
    proj_re += cvr * mr - cvi * mi;
    proj_im += cvr * mi + cvi * mr;
  }
  const double s = 2.0 / vns;
  const double sc_re = proj_re * s;
  const double sc_im = proj_im * s;
  for (std::size_t t = 0; t < len; ++t) {
    const std::size_t idx = t * lanes + l;
    const double vr = v_re[idx];
    const double vi = v_im[idx];
    m_re[idx] -= sc_re * vr - sc_im * vi;
    m_im[idx] -= sc_re * vi + sc_im * vr;
  }
}

void phase_scale_lane(double pr, double pi, double* m_re, double* m_im,
                      std::size_t len, std::size_t stride, std::size_t lanes,
                      std::size_t l) {
  for (std::size_t t = 0; t < len; ++t) {
    const std::size_t idx = t * stride * lanes + l;
    const double mr = m_re[idx];
    const double mi = m_im[idx];
    m_re[idx] = mr * pr - mi * pi;
    m_im[idx] = mr * pi + mi * pr;
  }
}

void row_update_lane(double fr, double fi, const double* src_re, const double* src_im,
                     double* dst_re, double* dst_im, std::size_t len,
                     std::size_t lanes, std::size_t l) {
  for (std::size_t t = 0; t < len; ++t) {
    const std::size_t idx = t * lanes + l;
    const double sr = src_re[idx];
    const double si = src_im[idx];
    dst_re[idx] -= fr * sr - fi * si;
    dst_im[idx] -= fr * si + fi * sr;
  }
}

void reflector_apply_avx2(const double* v_re, const double* v_im,
                          const double* v_norm_sq, double* m_re, double* m_im,
                          std::size_t len, std::size_t lanes) {
  const __m256d signflip = _mm256_set1_pd(-0.0);
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    bool all_active = true;
    for (std::size_t q = 0; q < 4; ++q) all_active = all_active && v_norm_sq[l + q] > 0.0;
    if (!all_active) {
      for (std::size_t q = 0; q < 4; ++q)
        reflector_apply_lane(v_re, v_im, v_norm_sq[l + q], m_re, m_im, len, lanes, l + q);
      continue;
    }
    __m256d proj_re = _mm256_setzero_pd();
    __m256d proj_im = _mm256_setzero_pd();
    for (std::size_t t = 0; t < len; ++t) {
      const std::size_t idx = t * lanes + l;
      const __m256d cvr = _mm256_loadu_pd(v_re + idx);
      const __m256d cvi = _mm256_xor_pd(_mm256_loadu_pd(v_im + idx), signflip);
      const __m256d mr = _mm256_loadu_pd(m_re + idx);
      const __m256d mi = _mm256_loadu_pd(m_im + idx);
      proj_re = _mm256_add_pd(proj_re,
                              _mm256_sub_pd(_mm256_mul_pd(cvr, mr), _mm256_mul_pd(cvi, mi)));
      proj_im = _mm256_add_pd(proj_im,
                              _mm256_add_pd(_mm256_mul_pd(cvr, mi), _mm256_mul_pd(cvi, mr)));
    }
    const __m256d s = _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_loadu_pd(v_norm_sq + l));
    const __m256d sc_re = _mm256_mul_pd(proj_re, s);
    const __m256d sc_im = _mm256_mul_pd(proj_im, s);
    for (std::size_t t = 0; t < len; ++t) {
      const std::size_t idx = t * lanes + l;
      const __m256d vr = _mm256_loadu_pd(v_re + idx);
      const __m256d vi = _mm256_loadu_pd(v_im + idx);
      const __m256d t_re = _mm256_sub_pd(_mm256_mul_pd(sc_re, vr), _mm256_mul_pd(sc_im, vi));
      const __m256d t_im = _mm256_add_pd(_mm256_mul_pd(sc_re, vi), _mm256_mul_pd(sc_im, vr));
      _mm256_storeu_pd(m_re + idx, _mm256_sub_pd(_mm256_loadu_pd(m_re + idx), t_re));
      _mm256_storeu_pd(m_im + idx, _mm256_sub_pd(_mm256_loadu_pd(m_im + idx), t_im));
    }
  }
  for (; l < lanes; ++l)
    reflector_apply_lane(v_re, v_im, v_norm_sq[l], m_re, m_im, len, lanes, l);
}

void phase_scale_avx2(const double* p_re, const double* p_im, const double* mag,
                      double* m_re, double* m_im, std::size_t len,
                      std::size_t stride, std::size_t lanes) {
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    bool all_active = true;
    for (std::size_t q = 0; q < 4; ++q) all_active = all_active && mag[l + q] > 0.0;
    if (!all_active) {
      for (std::size_t q = 0; q < 4; ++q)
        if (mag[l + q] > 0.0)
          phase_scale_lane(p_re[l + q], p_im[l + q], m_re, m_im, len, stride, lanes, l + q);
      continue;
    }
    const __m256d pr = _mm256_loadu_pd(p_re + l);
    const __m256d pi = _mm256_loadu_pd(p_im + l);
    for (std::size_t t = 0; t < len; ++t) {
      const std::size_t idx = t * stride * lanes + l;
      const __m256d mr = _mm256_loadu_pd(m_re + idx);
      const __m256d mi = _mm256_loadu_pd(m_im + idx);
      _mm256_storeu_pd(m_re + idx, _mm256_sub_pd(_mm256_mul_pd(mr, pr), _mm256_mul_pd(mi, pi)));
      _mm256_storeu_pd(m_im + idx, _mm256_add_pd(_mm256_mul_pd(mr, pi), _mm256_mul_pd(mi, pr)));
    }
  }
  for (; l < lanes; ++l)
    if (mag[l] > 0.0) phase_scale_lane(p_re[l], p_im[l], m_re, m_im, len, stride, lanes, l);
}

void matmul_avx2(const double* a_re, const double* a_im, const double* b_re,
                 const double* b_im, double* out_re, double* out_im,
                 std::size_t m, std::size_t k, std::size_t n, std::size_t lanes) {
  for (std::size_t idx = 0; idx < m * n * lanes; ++idx) {
    out_re[idx] = 0.0;
    out_im[idx] = 0.0;
  }
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d ar = _mm256_loadu_pd(a_re + (i * k + kk) * lanes + l);
        const __m256d ai = _mm256_loadu_pd(a_im + (i * k + kk) * lanes + l);
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t bi = (kk * n + j) * lanes + l;
          const std::size_t oi = (i * n + j) * lanes + l;
          const __m256d br = _mm256_loadu_pd(b_re + bi);
          const __m256d bim = _mm256_loadu_pd(b_im + bi);
          const __m256d t_re = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bim));
          const __m256d t_im = _mm256_add_pd(_mm256_mul_pd(ar, bim), _mm256_mul_pd(ai, br));
          _mm256_storeu_pd(out_re + oi, _mm256_add_pd(_mm256_loadu_pd(out_re + oi), t_re));
          _mm256_storeu_pd(out_im + oi, _mm256_add_pd(_mm256_loadu_pd(out_im + oi), t_im));
        }
      }
    }
  }
  for (; l < lanes; ++l) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double ar = a_re[(i * k + kk) * lanes + l];
        const double ai = a_im[(i * k + kk) * lanes + l];
        for (std::size_t j = 0; j < n; ++j) {
          const std::size_t bi = (kk * n + j) * lanes + l;
          const std::size_t oi = (i * n + j) * lanes + l;
          const double br = b_re[bi];
          const double bim = b_im[bi];
          out_re[oi] += ar * br - ai * bim;
          out_im[oi] += ar * bim + ai * br;
        }
      }
    }
  }
}

void row_update_avx2(const double* f_re, const double* f_im,
                     const double* src_re, const double* src_im,
                     double* dst_re, double* dst_im, std::size_t len,
                     std::size_t lanes) {
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    bool all_active = true;
    for (std::size_t q = 0; q < 4; ++q)
      all_active = all_active && !(f_re[l + q] == 0.0 && f_im[l + q] == 0.0);
    if (!all_active) {
      for (std::size_t q = 0; q < 4; ++q)
        if (!(f_re[l + q] == 0.0 && f_im[l + q] == 0.0))
          row_update_lane(f_re[l + q], f_im[l + q], src_re, src_im, dst_re, dst_im, len,
                          lanes, l + q);
      continue;
    }
    const __m256d fr = _mm256_loadu_pd(f_re + l);
    const __m256d fi = _mm256_loadu_pd(f_im + l);
    for (std::size_t t = 0; t < len; ++t) {
      const std::size_t idx = t * lanes + l;
      const __m256d sr = _mm256_loadu_pd(src_re + idx);
      const __m256d si = _mm256_loadu_pd(src_im + idx);
      const __m256d t_re = _mm256_sub_pd(_mm256_mul_pd(fr, sr), _mm256_mul_pd(fi, si));
      const __m256d t_im = _mm256_add_pd(_mm256_mul_pd(fr, si), _mm256_mul_pd(fi, sr));
      _mm256_storeu_pd(dst_re + idx, _mm256_sub_pd(_mm256_loadu_pd(dst_re + idx), t_re));
      _mm256_storeu_pd(dst_im + idx, _mm256_sub_pd(_mm256_loadu_pd(dst_im + idx), t_im));
    }
  }
  for (; l < lanes; ++l)
    if (!(f_re[l] == 0.0 && f_im[l] == 0.0))
      row_update_lane(f_re[l], f_im[l], src_re, src_im, dst_re, dst_im, len, lanes, l);
}

}  // namespace

const Kernel* avx2_kernel_or_null() {
  static constexpr Kernel k{"avx2", 4, reflector_apply_avx2, phase_scale_avx2,
                            matmul_avx2, row_update_avx2};
  return &k;
}

#else  // !GEOSPHERE_PREPARE_AVX2_ENABLED

const Kernel* avx2_kernel_or_null() { return nullptr; }

#endif

}  // namespace detail
}  // namespace geosphere::prepare::simd
