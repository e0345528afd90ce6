// Tests for the kernel registry shared by the three SIMD layers
// (src/common/kernel_registry.h):
//  * through each layer's public entry points (tree-search, batched
//    prepare, quantized Viterbi): the default is the GEOSPHERE_KERNEL
//    choice or, for auto/empty, the widest supported tier; an unknown name
//    throws and lists the valid tiers; an override beats the env choice and
//    nullptr restores it; supported is a subset of compiled, scalar first,
//  * through a registry over stand-in kernels, the env contract itself:
//    "", "auto", a tier name, and an unknown name reported at first use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coding/simd/dispatch.h"
#include "common/kernel_registry.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/sphere/simd/dispatch.h"

namespace geosphere {
namespace {

template <class K>
std::vector<std::string> names_of(const std::vector<const K*>& kernels) {
  std::vector<std::string> out;
  for (const K* k : kernels) out.emplace_back(k->name);
  return out;
}

/// One SIMD layer's public registry entry points, by tier name.
struct Layer {
  const char* name;
  std::vector<std::string> (*compiled)();
  std::vector<std::string> (*supported)();
  std::string (*active)();
  void (*set_override)(const char*);
};

const Layer kLayers[] = {
    {"sphere", [] { return names_of(sphere::simd::compiled_kernels()); },
     [] { return names_of(sphere::simd::supported_kernels()); },
     [] { return std::string(sphere::simd::active_kernel().name); },
     sphere::simd::set_kernel_override},
    {"prepare", [] { return names_of(prepare::simd::compiled_kernels()); },
     [] { return names_of(prepare::simd::supported_kernels()); },
     [] { return std::string(prepare::simd::active_kernel().name); },
     prepare::simd::set_kernel_override},
    {"viterbi", [] { return names_of(coding::simd::compiled_viterbi_kernels()); },
     [] { return names_of(coding::simd::supported_viterbi_kernels()); },
     [] { return std::string(coding::simd::active_viterbi_kernel().name); },
     coding::simd::set_viterbi_kernel_override},
};

void PrintTo(const Layer& layer, std::ostream* os) { *os << layer.name; }

/// The tier the env/auto rule picks from `supported`.
std::string expected_default(const std::vector<std::string>& supported) {
  const char* env = std::getenv("GEOSPHERE_KERNEL");
  if (env == nullptr || std::string(env).empty() || std::string(env) == "auto")
    return supported.back();
  return env;
}

class LayerRegistry : public ::testing::TestWithParam<Layer> {
 protected:
  void TearDown() override { GetParam().set_override(nullptr); }
};

TEST_P(LayerRegistry, SupportedIsSubsetOfCompiledScalarFirst) {
  const Layer& layer = GetParam();
  const auto compiled = layer.compiled();
  const auto supported = layer.supported();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(compiled.front(), "scalar");
  EXPECT_EQ(supported.front(), "scalar");
  // Same relative order: supported is compiled with unsupported tiers
  // dropped.
  auto it = compiled.begin();
  for (const std::string& name : supported) {
    it = std::find(it, compiled.end(), name);
    EXPECT_NE(it, compiled.end()) << name;
  }
}

TEST_P(LayerRegistry, DefaultIsEnvChoiceOrWidestSupported) {
  const Layer& layer = GetParam();
  EXPECT_EQ(layer.active(), expected_default(layer.supported()));
}

TEST_P(LayerRegistry, UnknownNameThrowsListingValidTiers) {
  const Layer& layer = GetParam();
  const std::string before = layer.active();
  try {
    layer.set_override("avx512");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'avx512'"), std::string::npos) << msg;
    std::string valid = "valid here: auto";
    for (const std::string& name : layer.supported()) valid += ", " + name;
    EXPECT_NE(msg.find(valid + ")"), std::string::npos) << msg;
  }
  EXPECT_EQ(layer.active(), before);  // A rejected name changes nothing.
}

TEST_P(LayerRegistry, OverrideBeatsEnvAndNullptrRestoresIt) {
  const Layer& layer = GetParam();
  const std::string fallback = expected_default(layer.supported());
  for (const std::string& name : layer.supported()) {
    layer.set_override(name.c_str());
    EXPECT_EQ(layer.active(), name);
    layer.set_override(nullptr);
    EXPECT_EQ(layer.active(), fallback);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerRegistry, ::testing::ValuesIn(kLayers),
                         [](const ::testing::TestParamInfo<Layer>& info) {
                           return std::string(info.param.name);
                         });

// ----------------------------------------------- env contract, stand-ins --

struct FakeKernel {
  const char* name;
};

const FakeKernel kScalar{"scalar"}, kSse2{"sse2"}, kAvx2{"avx2"};

/// Sets GEOSPHERE_KERNEL for one scope, restoring the previous value.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    if (const char* old = std::getenv("GEOSPHERE_KERNEL")) old_ = old;
    ::setenv("GEOSPHERE_KERNEL", value, 1);
  }
  ~EnvGuard() {
    if (old_) {
      ::setenv("GEOSPHERE_KERNEL", old_->c_str(), 1);
    } else {
      ::unsetenv("GEOSPHERE_KERNEL");
    }
  }

 private:
  std::optional<std::string> old_;
};

TEST(KernelRegistry, AutoOrEmptyEnvSelectsWidestSupported) {
  const std::string widest = cpu_has_avx2() ? "avx2" : "sse2";
  for (const char* env : {"", "auto"}) {
    EnvGuard guard(env);
    const KernelRegistry<FakeKernel> reg(kScalar, &kSse2, &kAvx2);
    EXPECT_EQ(reg.compiled().size(), 3u);
    EXPECT_EQ(reg.active().name, widest) << "env='" << env << "'";
  }
}

TEST(KernelRegistry, EnvNamesATierAndOverrideBeatsIt) {
  EnvGuard guard("scalar");
  KernelRegistry<FakeKernel> reg(kScalar, &kSse2, &kAvx2);
  EXPECT_STREQ(reg.active().name, "scalar");
  reg.set_override("set_override", "sse2");
  EXPECT_STREQ(reg.active().name, "sse2");
  reg.set_override("set_override", nullptr);
  EXPECT_STREQ(reg.active().name, "scalar");
}

TEST(KernelRegistry, UnknownEnvNameThrowsAtFirstUse) {
  EnvGuard guard("avx512");
  KernelRegistry<FakeKernel> reg(kScalar, &kSse2, nullptr);
  EXPECT_EQ(reg.supported().size(), 2u);  // The menu still answers.
  try {
    (void)reg.active();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "GEOSPHERE_KERNEL: unknown or unsupported kernel 'avx512' "
                 "(valid here: auto, scalar, sse2)");
  }
  // An override still works, and is the only way to a kernel here.
  reg.set_override("set_override", "scalar");
  EXPECT_STREQ(reg.active().name, "scalar");
}

TEST(KernelRegistry, ScalarOnlyBuildHasOneTier) {
  EnvGuard guard("auto");
  const KernelRegistry<FakeKernel> reg(kScalar, nullptr, nullptr);
  ASSERT_EQ(reg.compiled().size(), 1u);
  ASSERT_EQ(reg.supported().size(), 1u);
  EXPECT_STREQ(reg.active().name, "scalar");
}

}  // namespace
}  // namespace geosphere
