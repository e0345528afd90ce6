// Runtime kernel dispatch shared by the three SIMD layers (tree-search
// rotation, batched channel preparation, quantized Viterbi): which tier of
// a layer's kernel table drives it in this process.
//
// Selection order:
//   1. A programmatic override (set_override, used by parity tests and the
//      benches).
//   2. The GEOSPHERE_KERNEL environment variable: "scalar", "sse2", "avx2",
//      or "auto" (unknown / unsupported names throw on first use -- a typo
//      must not silently fall back to a different tier). One variable pins
//      every layer, so GEOSPHERE_KERNEL=scalar pins the whole pipeline for
//      golden comparisons.
//   3. Auto: the widest kernel that is both compiled into the binary and
//      supported by the host CPU (cpuid-checked for AVX2).
//
// A layer's kernel TUs each define their tier or a nullptr stub, so the
// set of compiled kernels is decided at compile time (the "kernel
// factory") and no dispatch code needs ISA-specific flags. The scalar
// reference kernel is always compiled and always supported; it is the only
// tier on non-x86 builds.
#pragma once

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace geosphere {

/// True when the host CPU executes AVX2 (the one cpuid check; SSE2 is part
/// of the x86-64 baseline, so a compiled SSE2 tier always runs).
inline bool cpu_has_avx2() {
#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// The tiers of one kernel table K (any struct with a `const char* name`),
/// scalar first, widest last.
template <class K>
class KernelRegistry {
 public:
  /// `sse2` / `avx2` are null when the tier is not compiled in. The env
  /// choice is read here, once; a bad name is reported by active().
  KernelRegistry(const K& scalar, const K* sse2, const K* avx2) : compiled_{&scalar} {
    if (sse2 != nullptr) compiled_.push_back(sse2);
    if (avx2 != nullptr) compiled_.push_back(avx2);
    for (const K* k : compiled_)
      if (std::string(k->name) != "avx2" || cpu_has_avx2()) supported_.push_back(k);

    const char* env = std::getenv("GEOSPHERE_KERNEL");
    const std::string name = (env != nullptr) ? env : "auto";
    default_ = (name == "auto" || name.empty()) ? supported_.back() : find(name);
    if (default_ == nullptr) default_error_ = error("GEOSPHERE_KERNEL", name);
  }

  /// Every kernel compiled into this binary.
  const std::vector<const K*>& compiled() const { return compiled_; }

  /// The compiled kernels the host CPU can execute: the menu
  /// GEOSPHERE_KERNEL and set_override select from.
  const std::vector<const K*>& supported() const { return supported_; }

  /// The kernel in use right now (override > env > auto). Throws
  /// std::invalid_argument if GEOSPHERE_KERNEL names an unknown or
  /// unsupported kernel.
  const K& active() const {
    if (override_ != nullptr) return *override_;
    if (default_ == nullptr) throw std::invalid_argument(default_error_);
    return *default_;
  }

  /// Forces a tier by name, or restores the env/auto choice for nullptr.
  /// Throws std::invalid_argument (naming `who`) for names not in
  /// supported(). Not thread-safe against concurrent use of the layer -- a
  /// test/bench hook, not a production switch.
  void set_override(const char* who, const char* name) {
    if (name == nullptr) {
      override_ = nullptr;
      return;
    }
    const K* k = find(name);
    if (k == nullptr) throw std::invalid_argument(error(who, name));
    override_ = k;
  }

 private:
  const K* find(const std::string& name) const {
    for (const K* k : supported_)
      if (name == k->name) return k;
    return nullptr;
  }

  std::string error(const std::string& who, const std::string& name) const {
    std::string msg = who + ": unknown or unsupported kernel '" + name + "' (valid here: auto";
    for (const K* k : supported_) msg += std::string(", ") + k->name;
    return msg + ")";
  }

  std::vector<const K*> compiled_;
  std::vector<const K*> supported_;
  const K* default_ = nullptr;
  std::string default_error_;
  const K* override_ = nullptr;
};

}  // namespace geosphere
