#include "coding/simd/dispatch.h"

#include "common/kernel_registry.h"

namespace geosphere::coding::simd {

namespace detail {
const ViterbiKernel* sse2_viterbi_kernel_or_null();
const ViterbiKernel* avx2_viterbi_kernel_or_null();
}  // namespace detail

namespace {
KernelRegistry<ViterbiKernel>& registry() {
  static KernelRegistry<ViterbiKernel> r(scalar_viterbi_kernel(),
                                         detail::sse2_viterbi_kernel_or_null(),
                                         detail::avx2_viterbi_kernel_or_null());
  return r;
}
}  // namespace

const std::vector<const ViterbiKernel*>& compiled_viterbi_kernels() {
  return registry().compiled();
}
const std::vector<const ViterbiKernel*>& supported_viterbi_kernels() {
  return registry().supported();
}
const ViterbiKernel& active_viterbi_kernel() { return registry().active(); }
void set_viterbi_kernel_override(const char* name) {
  registry().set_override("set_viterbi_kernel_override", name);
}

}  // namespace geosphere::coding::simd
