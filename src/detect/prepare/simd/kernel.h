// SIMD kernel table for the batched channel-preparation layer: the packed
// operations that carry Householder QR, Gram construction and Gauss-Jordan
// inversion across a structure-of-arrays batch of equally shaped channel
// matrices (one matrix per lane -- the SUBCARRIER dimension of a frame).
//
// Unlike the depth-first tree searches, whose received vectors race
// through data-dependent control flow,
// factorization has fixed-length, data-independent control flow: every lane
// performs the same reflector applications, row updates and products, so
// packing matrices as lanes is the classic batched-small-QR win. The only
// per-lane divergence (skipped zero reflectors, zero elimination factors,
// lanes that went singular) is expressed as per-lane masks whose inactive
// lanes KEEP THEIR ORIGINAL BITS -- a blend, never an arithmetic
// neutralization (multiplying by zero would flip -0.0 to +0.0).
//
// Bit-identity contract: every operation is specified as an exact IEEE-754
// sequence -- one rounding per arithmetic op, no FMA contraction, operands
// in the documented order, matching the scalar reference implementations in
// src/linalg/qr.cpp and src/linalg/solve.cpp on their finite-operand
// std::complex fast path -- and every tier implements exactly that
// sequence. Lanes never interact arithmetically, so all tiers produce
// bit-identical results; odd lane-count tails run the same scalar formulas.
// All kernel translation units are compiled with -ffp-contract=off.
// Non-packable scalar work (std::abs of a complex, complex division,
// sqrt-free pivot selection, row swaps) stays in the shared tier-
// independent driver code (batch_qr.cpp / batch_linear.cpp), which is
// trivially bit-identical across tiers.
//
// Lane layout: the drivers store each matrix batch as separate re/im double
// arrays with the lane index fastest -- element group g of lane l lives at
// [g * lanes + l]. Ops address groups; the driver chooses the group stride.
#pragma once

#include <cstddef>

namespace geosphere::prepare::simd {

/// Upper bound on lanes per packed call; drivers chunk a frame's
/// subcarriers by the active kernel's width, never exceeding this.
inline constexpr std::size_t kMaxLanes = 8;

struct Kernel {
  /// Tier name: "scalar", "sse2", or "avx2" (also the GEOSPHERE_KERNEL
  /// spellings).
  const char* name;
  /// Matrices one vector register covers (1, 2, or 4 lanes).
  std::size_t width;

  /// Householder reflector application (qr.cpp apply_reflector_to_column)
  /// to one packed column slice of `len` contiguous groups. Per lane l with
  /// v_norm_sq[l] > 0.0 (others keep their bits):
  ///   proj    = sum_t conj(v[t]) * m[t]      (t ascending; per term
  ///             t_re = v_re*m_re - (-v_im)*m_im,
  ///             t_im = v_re*m_im + (-v_im)*m_re, then componentwise +=)
  ///   scale   = proj * (2.0 / v_norm_sq)     (one divide, then one multiply
  ///             per component)
  ///   m[t]   -= scale * v[t]                 (naive complex multiply with
  ///             scale as first operand, then componentwise -=)
  void (*reflector_apply)(const double* v_re, const double* v_im,
                          const double* v_norm_sq, double* m_re, double* m_im,
                          std::size_t len, std::size_t lanes);

  /// Masked in-place complex scale of a strided slice: per lane l with
  /// mag[l] > 0.0 (others keep their bits), for t in [0, len):
  ///   m[t*stride] *= p[l]
  /// computed as the naive product with m as FIRST operand
  /// (re' = m_re*p_re - m_im*p_im, im' = m_re*p_im + m_im*p_re) -- the
  /// exact sequence of std::complex operator*= in qr.cpp's diagonal
  /// normalization and solve.cpp's pivot row scaling.
  void (*phase_scale)(const double* p_re, const double* p_im, const double* mag,
                      double* m_re, double* m_im, std::size_t len,
                      std::size_t stride, std::size_t lanes);

  /// Packed matrix product out = a * b over row-major SoA operands
  /// (a: m x k, b: k x n, out: m x n; element (i,j) is group i*cols + j).
  /// Replicates CMatrix multiply_into exactly: out is zeroed, then for each
  /// lane every out(i,j) accumulates over kk ASCENDING:
  ///   out(i,j) += a(i,kk) * b(kk,j)
  /// with the naive complex product (a as first operand) added
  /// componentwise -- bit-identical to operator* on finite data.
  void (*matmul)(const double* a_re, const double* a_im, const double* b_re,
                 const double* b_im, double* out_re, double* out_im,
                 std::size_t m, std::size_t k, std::size_t n, std::size_t lanes);

  /// Gauss-Jordan row elimination step over `len` contiguous groups: per
  /// lane l with f[l] != 0 (+0.0/-0.0 both count as zero, matching
  /// solve.cpp's `if (f == cf64{}) continue`; inert lanes pass f = 0 and
  /// keep their bits), for t in [0, len):
  ///   dst[t] -= f[l] * src[t]
  /// naive complex product with f as first operand, componentwise -=.
  void (*row_update)(const double* f_re, const double* f_im,
                     const double* src_re, const double* src_im,
                     double* dst_re, double* dst_im, std::size_t len,
                     std::size_t lanes);
};

}  // namespace geosphere::prepare::simd
