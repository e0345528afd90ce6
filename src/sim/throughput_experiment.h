// Throughput experiments (paper Figs. 11-13): ideal-rate-adapted net
// throughput per detector over a channel ensemble, executed on the
// parallel deterministic engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/channel_model.h"
#include "detect/spec.h"
#include "link/link_simulator.h"
#include "link/rate_adapt.h"
#include "sim/engine.h"

namespace geosphere::sim {

struct ThroughputConfig {
  std::size_t frames = 120;
  std::size_t payload_bytes = 500;
  double snr_jitter_db = 5.0;  ///< The paper's +/-5 dB SNR selection window.
  std::vector<unsigned> candidate_qams = {4, 16, 64};
  /// Code rate (CodeSpec::parse form: "none", "1/2", "2/3", "3/4").
  std::string code = "1/2";
  /// Viterbi implementation for coded soft runs (double reference or the
  /// quantized SIMD kernels); hard runs decode exactly on the int16 kernels
  /// under either setting.
  phy::ViterbiImpl viterbi = phy::ViterbiImpl::kDouble;
  std::uint64_t seed = 1;
};

struct ThroughputPoint {
  std::string detector;
  std::size_t clients = 0;
  std::size_t antennas = 0;
  double snr_db = 0.0;
  unsigned best_qam = 0;
  std::string code = "1/2";
  double throughput_mbps = 0.0;
  double goodput_mbps = 0.0;  ///< Measured: CRC-clean payload bits / airtime.
  double fer = 0.0;
};

/// Best-rate throughput of one detector on one channel/SNR point. Channel
/// and noise draws are seed-identical across detectors at the same point,
/// and bit-identical for any engine thread count. `label` is the display
/// name recorded in the point; the spec's decision mode (hard or soft)
/// selects the detection path.
ThroughputPoint measure_throughput(Engine& engine, const channel::ChannelModel& channel,
                                   const std::string& label, const DetectorSpec& spec,
                                   double snr_db, const ThroughputConfig& config);

}  // namespace geosphere::sim
