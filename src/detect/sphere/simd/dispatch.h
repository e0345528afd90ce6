// Runtime kernel dispatch: which SIMD tier drives the tree-search
// detectors' packed arithmetic (the batched rotation, root-center divides
// and lane-grouped centers) in this process. Selection order and the
// GEOSPHERE_KERNEL contract are the shared KernelRegistry's
// (src/common/kernel_registry.h).
#pragma once

#include <vector>

#include "detect/sphere/simd/kernel.h"

namespace geosphere::sphere::simd {

/// The always-available portable reference kernel (width 1).
const Kernel& scalar_kernel();

/// Every kernel compiled into this binary, scalar first, widest last.
const std::vector<const Kernel*>& compiled_kernels();

/// The compiled kernels the host CPU can execute, scalar first, widest
/// last. This is the menu GEOSPHERE_KERNEL and set_kernel_override select
/// from.
const std::vector<const Kernel*>& supported_kernels();

/// The kernel in use right now (override > env > auto). Throws
/// std::invalid_argument if GEOSPHERE_KERNEL names an unknown or
/// unsupported kernel.
const Kernel& active_kernel();

/// Force a tier by name ("scalar"/"sse2"/"avx2"), or pass nullptr to
/// restore the default env/auto selection. Throws std::invalid_argument for
/// names not in supported_kernels(). A test/bench hook, not thread-safe
/// against concurrent detection.
void set_kernel_override(const char* name);

}  // namespace geosphere::sphere::simd
