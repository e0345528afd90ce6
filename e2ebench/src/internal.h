// Pieces shared by the link and serve workload runners.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "detect/detector.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench::detail {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Block r of a run draws its frames from this seed.
inline std::uint64_t block_seed(std::uint64_t seed, std::size_t r) {
  return geosphere::Rng::derive_seed(seed, 1, r);
}

/// Every set-up warms up on the same input, whatever the run's seed, so that
/// setup_s measures the code and not one seed's frame.
inline constexpr std::uint64_t kWarmupSeed = 0;

/// setup_s is the median of this many set-ups. The run's own set-up comes
/// first and is the only cold one (it also pays one-time process
/// initialisation; it is reported on its own as setup.cold_s). The others
/// are spread evenly over the fixed blocks, outside the timed wall, so the
/// median sees the host as the whole run does rather than one moment of it.
inline constexpr std::size_t kSetups = 21;

/// How many of the spread set-ups follow fixed block r of `blocks`; they
/// add up to kSetups - 1 over the fixed set.
inline std::size_t setups_after_block(std::size_t r, std::size_t blocks) {
  constexpr std::size_t kSpread = kSetups - 1;
  return (r + 1) * kSpread / blocks - r * kSpread / blocks;
}

double median(std::vector<double> values);

/// Number of fixed blocks in a run: `config.seconds` worth at `blocks_per_s`
/// (the reference host's rate), at least one. Untraced and traced runs of a
/// seed cover the same fixed set.
std::size_t fixed_blocks(const RunConfig& config, double blocks_per_s);

/// A frame (link) or TTI (serve) span's self time may be at most this share
/// of its duration: the stage spans below it must account for the rest.
inline constexpr double kGlueTolerance = 0.05;

/// Spans written to the span file are capped at this many frames or TTIs;
/// the metrics are computed from all of them.
inline constexpr std::uint32_t kMaxWrittenUnits = 200;

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  bool serve = false;
  StageTotals totals;
  std::vector<double> unit_ns;  ///< Root span (frame or TTI) durations.
  double frames = 0.0;          ///< MU-MIMO frames the traced replica ran.
  double ttis = 0.0;            ///< Serve only.
  geosphere::DetectionStats detection;
  double detection_calls = 0.0;
  double info_bits = 0.0;  ///< Payload bits decoded.
  double cold_setup_s = 0.0;  ///< The run's first set-up.
  double traced_wall_s = 0.0;
  double plain_wall_s = 0.0;              ///< The replica with tracing off.
  double untraced_wall_per_unit_s = 0.0;  ///< Library entry point, same blocks.
  std::size_t workers = 1;
  // Serve only.
  double probe_frames = 0.0;
  double backlog_end = 0.0;
  double frame_p50_us = 0.0;
  double frame_p99_us = 0.0;
  double frame_max_us = 0.0;
};

std::vector<Metric> per_layer_metrics(const LayerInputs& in);

/// Fails the run when the root spans' self time exceeds kGlueTolerance, and
/// notes the per-stage breakdown (total and self per unit, share of the
/// root span) for the log.
void check_and_note_breakdown(const LayerInputs& in, Stage root, RunResult& result);

/// Notes a traced run's quality figures: the entry point's over every fixed
/// block, under the names of the end-to-end metrics (they equal the untraced
/// run's for the same seed and seconds), and the traced replica's over the
/// blocks it replayed.
void note_quality(double goodput_mbps, double fer, double replica_goodput_mbps,
                  double replica_fer, RunResult& result);

/// Writes the spans of the first kMaxWrittenUnits units replayed to
/// `<out_dir>/spans-<workload>.tsv` and notes the path (no-op without an
/// out_dir). A write failure is a warning, not a failed run.
void write_span_file(const std::string& workload, const RunConfig& config,
                     const std::vector<Span>& spans, RunResult& result);

std::string format_double(double v);

/// A 4x4 Rayleigh uplink run through sim::Engine::run_link on one worker.
struct LinkWorkload {
  const char* name;
  const char* detector;  ///< DetectorSpec text; its native decision mode is used.
  unsigned qam;
  double snr_db;
  std::size_t payload_bytes;
  std::size_t block_frames;  ///< Frames per block.
  /// Blocks per second of --seconds that the run's fixed block set holds
  /// (sized from the reference host's rate, so the set takes most of a run).
  double blocks_per_s;
  /// A traced run replays every trace_stride-th fixed block.
  std::size_t trace_stride;
};

RunResult run_link_workload(const LinkWorkload& w, const RunConfig& config);

/// A multi-cell serve::Server::run workload, fresh queues per block.
struct ServeWorkload {
  const char* name;
  const char* spec;  ///< ServeSpec text.
  std::size_t workers;
  std::size_t block_ttis;
  double blocks_per_s;
  std::size_t trace_stride;
};

RunResult run_serve_workload(const ServeWorkload& w, const RunConfig& config);

}  // namespace e2ebench::detail
