// Portable scalar reference for the quantized Viterbi ACS kernel: the
// bit-exactness anchor the SSE2/AVX2 tiers are held to. Everything is
// integer arithmetic on a fixed renormalization schedule, so "bit-exact"
// needs no floating-point pinning here -- the SIMD tiers only have to
// perform the same adds, compares and the same tie rule.
#include "coding/simd/viterbi_kernel.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace geosphere::coding::simd {

namespace {

void acs_scalar(const std::int16_t* quantized, std::size_t steps, std::int16_t* metric,
                std::uint64_t* decisions) {
  std::array<std::int16_t, 64> other;
  std::int16_t* cur = metric;
  std::int16_t* nxt = other.data();
  for (std::size_t t = 0; t < steps; ++t) {
    const int v0 = quantized[2 * t];
    const int v1 = quantized[2 * t + 1];
    std::uint64_t word = 0;
    for (std::size_t p = 0; p < 32; ++p) {
      const int d0 = v0 - kPolarity0[p];
      const int d1 = v1 - kPolarity1[p];
      const int e = (d0 < 0 ? -d0 : d0) + (d1 < 0 ? -d1 : d1);
      const int f = kMaxBranchCost - e;
      const int m0 = cur[2 * p];
      const int m1 = cur[2 * p + 1];
      // Ties keep the even predecessor (dropped bit 0) -- the double
      // decoder's strict-< update order.
      const int lo_even = m0 + e, lo_odd = m1 + f;
      const int hi_even = m0 + f, hi_odd = m1 + e;
      const bool lo_take_odd = lo_odd < lo_even;
      const bool hi_take_odd = hi_odd < hi_even;
      nxt[p] = static_cast<std::int16_t>(lo_take_odd ? lo_odd : lo_even);
      nxt[32 + p] = static_cast<std::int16_t>(hi_take_odd ? hi_odd : hi_even);
      word |= (static_cast<std::uint64_t>(lo_take_odd) << p) |
              (static_cast<std::uint64_t>(hi_take_odd) << (32 + p));
    }
    decisions[t] = word;
    std::swap(cur, nxt);
    if ((t + 1) % kRenormInterval == 0) {
      const std::int16_t low = *std::min_element(cur, cur + 64);
      for (std::size_t s = 0; s < 64; ++s)
        cur[s] = static_cast<std::int16_t>(cur[s] - low);
    }
  }
  if (cur != metric) std::memcpy(metric, cur, 64 * sizeof(std::int16_t));
}

}  // namespace

const ViterbiKernel& scalar_viterbi_kernel() {
  static constexpr ViterbiKernel k{"scalar", acs_scalar};
  return k;
}

}  // namespace geosphere::coding::simd
