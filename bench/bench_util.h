// Shared helpers for the table/figure benchmark harness.
//
// Conventions:
//  * Each figure/table bench binary regenerates one table or figure from
//    the paper's evaluation and prints it as a sim::TablePrinter table,
//    one row per (configuration, detector) point; the printed table *is*
//    the figure's data series.
//  * All experiments execute on one shared sim::Engine (thread-pooled,
//    deterministic: results are bit-identical for any --threads value).
//  * Every binary accepts --frames=N, --threads=N, --seed=N and
//    --channel=SPEC (each also as "--flag VALUE"), with environment
//    fallbacks GEOSPHERE_BENCH_FRAMES / _THREADS / _SEED / _CHANNEL, and
//    rejects any other argument it does not define itself. Larger frame
//    counts tighten the Monte-Carlo estimates; --channel reruns a bench on
//    any registered channel (ChannelSpec form, e.g. kronecker:0.7 or
//    trace:FILE) without recompiling.
//  * The hand-timed engineering benches (detector_latency, serving_latency,
//    soft_llr_quality, coded_throughput) write JSON baselines with one
//    shared "host" block (write_host_json) and time through time_group;
//    tools/check_bench.py checks every such file.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "channel/spec.h"
#include "coding/simd/dispatch.h"
#include "common/rng.h"
#include "detect/sphere/simd/dispatch.h"
#include "sim/engine.h"

namespace geosphere::bench {

/// The shared CLI surface of every bench binary. Zero / empty means "use
/// the per-binary default" (frames, seed, channel) or "hardware
/// concurrency" (threads).
struct CommonArgs {
  std::size_t frames = 0;
  std::size_t threads = 0;
  std::uint64_t seed = 0;
  std::string channel;
};

inline CommonArgs& common() {
  static CommonArgs args;
  return args;
}

/// Removes every `--name=VALUE` and `--name VALUE` from argv (the last one
/// wins) and stores VALUE in `out`. Returns whether the flag was given.
/// Accepting both forms matters: a silently ignored form would leave the
/// default in effect.
inline bool take_flag(int& argc, char** argv, const std::string& name, std::string& out) {
  bool seen = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == name) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n", name.c_str());
        std::exit(1);
      }
      out = argv[++i];
      seen = true;
    } else if (token.rfind(name + "=", 0) == 0) {
      out = token.substr(name.size() + 1);
      seen = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return seen;
}

/// Reads GEOSPHERE_BENCH_{FRAMES,THREADS,SEED,CHANNEL}, then takes
/// --frames, --threads, --seed and --channel out of argv (flags win over
/// environment). A binary with flags of its own takes them first (see
/// take_flag) and names them in `local_usage`. Any argument still left
/// exits non-zero with an error naming the supported flags: an unknown or
/// misspelled flag must not silently run the default workload. Call first
/// in main().
inline void init_common(int& argc, char** argv, const std::string& local_usage = "") {
  CommonArgs& args = common();
  // Strict integer parse: the whole token must be digits (strtoull alone
  // would wrap "-1" to 2^64-1 and stop at the 'e' of "1e5"). Silently
  // mangled values produce garbage Monte-Carlo statistics, so bad input
  // aborts loudly instead. 0 is accepted and keeps the "unset" meaning
  // (per-binary default / all cores).
  const auto parse_u64 = [](const char* where, const std::string& token) -> std::uint64_t {
    const bool all_digits =
        !token.empty() && token.find_first_not_of("0123456789") == std::string::npos;
    errno = 0;
    const unsigned long long v = all_digits ? std::strtoull(token.c_str(), nullptr, 10) : 0;
    if (!all_digits || errno == ERANGE) {
      std::fprintf(stderr, "error: %s expects a non-negative integer, got \"%s\"\n",
                   where, token.c_str());
      std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
  };
  const auto env_u64 = [&](const char* name, auto& out) {
    if (const char* v = std::getenv(name))
      out = static_cast<std::remove_reference_t<decltype(out)>>(parse_u64(name, v));
  };
  env_u64("GEOSPHERE_BENCH_FRAMES", args.frames);
  env_u64("GEOSPHERE_BENCH_THREADS", args.threads);
  env_u64("GEOSPHERE_BENCH_SEED", args.seed);
  if (const char* v = std::getenv("GEOSPHERE_BENCH_CHANNEL")) args.channel = v;

  const auto flag_u64 = [&](const char* name, auto& out) {
    std::string text;
    if (take_flag(argc, argv, name, text))
      out = static_cast<std::remove_reference_t<decltype(out)>>(parse_u64(name, text));
  };
  flag_u64("--frames", args.frames);
  flag_u64("--threads", args.threads);
  flag_u64("--seed", args.seed);
  if (take_flag(argc, argv, "--channel", args.channel) && args.channel.empty()) {
    // An explicitly empty value must not silently mean "default channel"
    // (e.g. the stray space in "--channel= kronecker:0.7").
    std::fprintf(stderr, "error: --channel expects a channel spec, got \"\"\n");
    std::exit(1);
  }
  if (argc > 1) {
    std::fprintf(stderr,
                 "error: unknown flag %s (supported: %s%s--frames=N --threads=N --seed=N "
                 "--channel=SPEC)\n",
                 argv[1], local_usage.c_str(), local_usage.empty() ? "" : " ");
    std::exit(1);
  }
  if (!args.channel.empty()) {
    // Validate up front: a typo must abort before minutes of Monte-Carlo.
    try {
      (void)channel::ChannelSpec::parse(args.channel);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: --channel: %s\n", e.what());
      std::exit(1);
    }
  }
  if (args.threads > 1024) {
    std::fprintf(stderr, "error: --threads must be in [0, 1024] (0 = all cores)\n");
    std::exit(1);
  }
}

/// The binary's shared experiment engine, sized by --threads (default:
/// hardware concurrency). Built on first use, after init_common().
inline sim::Engine& engine() {
  static sim::Engine e(common().threads);
  return e;
}

/// Frames per Monte-Carlo point: --frames / env override, else fallback.
inline std::size_t frames_or(std::size_t fallback) {
  return common().frames > 0 ? common().frames : fallback;
}

/// Master seed: --seed / env override, else the binary's default.
inline std::uint64_t seed_or(std::uint64_t fallback) {
  return common().seed > 0 ? common().seed : fallback;
}

/// Channel spec text: --channel / env override, else the binary's default
/// (a ChannelSpec registry form).
inline std::string channel_or(const std::string& fallback) {
  return common().channel.empty() ? fallback : common().channel;
}

/// The override-able channel workload of a bench binary: creates the
/// channel named by --channel / GEOSPHERE_BENCH_CHANNEL, else `fallback`,
/// through the shared engine's channel cache (one instance per distinct
/// spec x dims for the binary's lifetime).
inline const channel::ChannelModel& make_channel(const std::string& fallback,
                                                 std::size_t clients,
                                                 std::size_t antennas) {
  return engine().channel(channel::ChannelSpec::parse(channel_or(fallback)), clients,
                          antennas);
}

/// Benches that sweep clients x antennas configurations call this after
/// init_common(): a fixed-dims override (trace:FILE pins its own shape)
/// would silently collapse every swept configuration onto one channel
/// while the tables keep printing the requested dimensions.
inline void reject_fixed_dims_channel(const char* binary) {
  if (common().channel.empty()) return;
  if (channel::ChannelSpec::parse(common().channel).fixed_dims()) {
    std::fprintf(stderr,
                 "error: %s sweeps clients x antennas, but --channel %s fixes its own "
                 "dimensions (replay traces via geosphere_cli sweep instead)\n",
                 binary, common().channel.c_str());
    std::exit(1);
  }
}

/// Seed for sub-experiment `index` of a binary that runs several seeded
/// experiments: position `index` of the splitmix64 stream of the master
/// seed (--seed override, else `fallback`). Keeps every point's workload
/// distinct while a single --seed rotates them all.
inline std::uint64_t point_seed(std::uint64_t fallback, std::uint64_t index) {
  return Rng::derive_seed(seed_or(fallback), index);
}

// ------------------------------------------------------------ timing --

/// One timeable metric: a callable plus its calibrated iteration count and
/// the statistics of its recorded passes.
struct Timed {
  using Clock = std::chrono::steady_clock;
  static constexpr int kPasses = 5;

  std::function<void()> fn;
  std::size_t iters = 1;
  double ns = 0.0;         ///< Median-of-kPasses per-op estimate.
  double rel_noise = 0.0;  ///< Inter-quartile half-spread relative to the median.
  double samples[kPasses] = {};

  double time_once() const {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  }
};

/// Measures a group of related metrics with interleaved repetitions: each
/// metric's iteration count is first calibrated (doubling until the timed
/// region exceeds `budget_ms`), then -- after one discarded warmup round --
/// the group is timed over five round-robin passes and each metric keeps
/// the median. The interleaving matters on shared or frequency-scaled
/// hosts: a clock-speed drift between two back-to-back measurements would
/// otherwise corrupt every ratio derived from them (e.g. batch speedup =
/// ns/solve over ns/solve_b48); round-robin passes see the same machine
/// state to first order. The median (rather than the minimum of the old
/// min-of-3 scheme) is robust against scheduler interference in both
/// directions, and the surviving inter-quartile spread is reported as a
/// per-metric noise estimate so ratio columns can flag differences the
/// timer cannot resolve.
inline void time_group(double budget_ms, std::vector<Timed>& group) {
  for (Timed& t : group) {
    t.fn();  // Warm-up (first-touch allocations land outside the timing).
    t.iters = 1;
    while (t.time_once() < budget_ms * 1e6 && t.iters < (std::size_t{1} << 30))
      t.iters *= 2;
  }
  for (Timed& t : group) t.time_once();  // Discarded warmup round.
  for (int rep = 0; rep < Timed::kPasses; ++rep)
    for (Timed& t : group) t.samples[rep] = t.time_once();
  for (Timed& t : group) {
    std::sort(std::begin(t.samples), std::end(t.samples));
    const double median = t.samples[Timed::kPasses / 2];
    t.ns = median / static_cast<double>(t.iters);
    t.rel_noise = median > 0.0 ? (t.samples[3] - t.samples[1]) / (2.0 * median) : 0.0;
  }
}

// -------------------------------------------------------- JSON output --

/// Minimal JSON string escaping (quotes, backslashes, control chars) so a
/// --channel spec like trace:runs\x.geotrace cannot corrupt the output.
inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char ch : in) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

/// Compiler identification baked in at build time, so a committed baseline
/// records what produced it.
inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#elif defined(_MSC_VER)
  return "msvc " + std::to_string(_MSC_VER);
#else
  return "unknown";
#endif
}

/// The optimization flags this binary was built with (stamped by CMake; the
/// fallback covers ad-hoc compiles outside the build system).
inline std::string build_flags() {
#ifdef GEOSPHERE_BENCH_FLAGS
  return GEOSPHERE_BENCH_FLAGS;
#else
  return "unknown";
#endif
}

inline bool native_build() {
#ifdef GEOSPHERE_BENCH_NATIVE
  return GEOSPHERE_BENCH_NATIVE != 0;
#else
  return false;
#endif
}

/// Writes the `"host": {...},` line of a bench JSON: committed baselines
/// from different machines or build configurations are only comparable
/// when they say what produced them (compiler, flags, GEOSPHERE_NATIVE,
/// core count) and which tree-search and Viterbi kernel tiers ran.
inline void write_host_json(std::FILE* f) {
  const auto& kern = sphere::simd::active_kernel();
  std::fprintf(f,
               "  \"host\": {\"compiler\": \"%s\", \"flags\": \"%s\", "
               "\"geosphere_native\": %s, \"hardware_concurrency\": %u, "
               "\"simd_tier\": \"%s\", \"simd_width\": %zu, \"viterbi_tier\": \"%s\"},\n",
               json_escape(compiler_id()).c_str(), json_escape(build_flags()).c_str(),
               native_build() ? "true" : "false", std::thread::hardware_concurrency(),
               kern.name, kern.width, coding::simd::active_viterbi_kernel().name);
}

}  // namespace geosphere::bench
