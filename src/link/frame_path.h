// The one frame path shared by the link simulator and the serve layer:
//
//   draw_frame    -- the transmit side and the channel, in one fixed RNG
//                    draw order: link, optional SNR jitter, per-stream
//                    payload encodes, symbol-major noise;
//   detect_frame  -- channel apply, ONE prepare_batch over the frame's nsc
//                    subcarrier channels, then per subcarrier
//                    select_prepared + one batched solve of all the
//                    frame's OFDM symbols, scattered into per-stream hard
//                    symbol indices or bit confidences;
//   decode_frame  -- every stream through one CodedPipeline: Viterbi, bit
//                    errors and the CRC delivery decision.
//
// LinkSimulator::simulate_frame is these three calls plus its LinkStats
// fold; serve::Server runs them as its schedule, detect and deliver
// phases. Both deliver a stream exactly when StreamDecodeResult::crc_ok.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/channel_model.h"
#include "common/rng.h"
#include "common/types.h"
#include "detect/detector.h"
#include "link/coded_pipeline.h"
#include "phy/frame.h"

namespace geosphere::link {

/// One drawn frame: everything on the transmit side of the air interface.
struct DrawnFrame {
  channel::Link link;  ///< One channel matrix per data subcarrier.
  double n0 = 0.0;     ///< Noise variance at the frame's (jittered) SNR.
  std::vector<phy::EncodedFrame> tx;  ///< One encoded payload per stream.
  /// Pre-drawn symbol-major noise, noise[(sym * nsc + sc) * antennas + i];
  /// empty when n0 <= 0 (add_awgn semantics: no draws).
  std::vector<cf64> noise;
};

/// Draws one frame over `channel` (channel.num_tx() streams) for `codec`'s
/// frame format at snr_db, jittered uniformly by +/- snr_jitter_db when it
/// is positive (a zero jitter draws nothing).
DrawnFrame draw_frame(const channel::ChannelModel& channel, const phy::FrameCodec& codec,
                      double snr_db, double snr_jitter_db, Rng& rng);

/// The receiver's per-stream decisions, in transmitted order; only the
/// buffer of `mode` is filled.
struct FrameDecisions {
  DecisionMode mode = DecisionMode::kHard;
  /// Hard: detected symbol indices, rx[k][sym * nsc + sc].
  std::vector<std::vector<unsigned>> rx;
  /// Soft: bit confidences, rx_conf[k][(sym * nsc + sc) * q + b].
  std::vector<std::vector<double>> rx_conf;
};

/// Detection workspaces, reused across frames (one per thread).
struct DetectScratch {
  CVector x;
  CVector y;
  linalg::CMatrix y_batch;
  BatchResult batch;
  SoftBatchResult soft_batch;
  std::vector<double> conf;
};

/// Detects every received vector of `frame` with `detector` in `mode` and
/// writes the decisions to `out`. Adds to `stats` one prepare_batch_call,
/// one preprocess_call per subcarrier (the logical factorization count)
/// and the solves' exact per-vector counters; returns the number of
/// received vectors detected (nsc * ofdm_symbols). Throws
/// std::invalid_argument when the detector's constellation is not the
/// codec's, or when mode is kSoft and the detector has no soft() interface.
std::size_t detect_frame(const DrawnFrame& frame, const phy::FrameCodec& codec,
                         Detector& detector, DecisionMode mode, FrameDecisions& out,
                         DetectionStats& stats, DetectScratch& scratch);

/// Decodes every stream of `decisions` through `pipeline` and scores it
/// against frame.tx; results is resized to the stream count.
void decode_frame(CodedPipeline& pipeline, const phy::FrameCodec& codec,
                  const DrawnFrame& frame, const FrameDecisions& decisions,
                  std::vector<StreamDecodeResult>& results);

}  // namespace geosphere::link
