#include "detect/sphere/simd/dispatch.h"

#include "common/kernel_registry.h"

namespace geosphere::sphere::simd {

namespace detail {
const Kernel* sse2_kernel_or_null();
const Kernel* avx2_kernel_or_null();
}  // namespace detail

namespace {
KernelRegistry<Kernel>& registry() {
  static KernelRegistry<Kernel> r(scalar_kernel(), detail::sse2_kernel_or_null(),
                                  detail::avx2_kernel_or_null());
  return r;
}
}  // namespace

const std::vector<const Kernel*>& compiled_kernels() { return registry().compiled(); }
const std::vector<const Kernel*>& supported_kernels() { return registry().supported(); }
const Kernel& active_kernel() { return registry().active(); }
void set_kernel_override(const char* name) {
  registry().set_override("set_kernel_override", name);
}

}  // namespace geosphere::sphere::simd
