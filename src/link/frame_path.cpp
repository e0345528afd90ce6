#include "link/frame_path.h"

#include <stdexcept>

#include "channel/noise.h"

namespace geosphere::link {

DrawnFrame draw_frame(const channel::ChannelModel& channel, const phy::FrameCodec& codec,
                      double snr_db, double snr_jitter_db, Rng& rng) {
  const std::size_t nsc = codec.config().data_subcarriers;
  DrawnFrame frame;
  frame.link = channel.draw_link(rng, nsc);
  if (snr_jitter_db > 0.0) snr_db += rng.uniform(-snr_jitter_db, snr_jitter_db);
  frame.n0 = channel::noise_variance_for_snr_db(snr_db);

  frame.tx.resize(channel.num_tx());
  for (phy::EncodedFrame& tx : frame.tx)
    tx = codec.encode(rng.bits(codec.config().payload_bits()));

  // Detection runs subcarrier-major, but the noise is drawn symbol-major:
  // the RNG stream (and so every recorded result) stays that of the
  // historical per-vector loop.
  if (frame.n0 > 0.0) {
    frame.noise.resize(codec.ofdm_symbols_per_frame() * nsc * channel.num_rx());
    for (cf64& v : frame.noise) v = rng.cgaussian(frame.n0);
  }
  return frame;
}

std::size_t detect_frame(const DrawnFrame& frame, const phy::FrameCodec& codec,
                         Detector& detector, DecisionMode mode, FrameDecisions& out,
                         DetectionStats& stats, DetectScratch& scratch) {
  if (detector.constellation().order() != codec.config().qam_order)
    throw std::invalid_argument("detect_frame: detector/frame constellation mismatch");
  SoftDetector* soft = nullptr;
  if (mode == DecisionMode::kSoft) {
    soft = detector.soft();
    if (soft == nullptr)
      throw std::invalid_argument("detect_frame: detector \"" + detector.name() +
                                  "\" cannot produce soft decisions");
  }

  const std::size_t nc = frame.tx.size();
  const std::size_t nsc = frame.link.num_subcarriers();
  const std::size_t ofdm_symbols = codec.ofdm_symbols_per_frame();
  const unsigned q = detector.constellation().bits_per_symbol();

  // Every entry is overwritten below, so resizing is enough.
  out.mode = mode;
  if (soft != nullptr) {
    out.rx_conf.resize(nc);
    for (auto& conf : out.rx_conf) conf.resize(ofdm_symbols * nsc * q);
  } else {
    out.rx.resize(nc);
    for (auto& rx : out.rx) rx.resize(ofdm_symbols * nsc);
  }

  // One batched preparation covers the frame's nsc channel matrices (the
  // packed SIMD drivers under src/detect/prepare/ factorize them as lanes);
  // select_prepared(sc) activates each slot exactly as a per-subcarrier
  // prepare() would, bit for bit.
  detector.prepare_batch(frame.link.subcarriers, frame.n0);
  ++stats.prepare_batch_calls;

  std::size_t detected = 0;
  scratch.x.resize(nc);
  for (std::size_t sc = 0; sc < nsc; ++sc) {
    const linalg::CMatrix& h = frame.link.subcarriers[sc];
    const std::size_t na = h.rows();
    detector.select_prepared(sc);
    ++stats.preprocess_calls;

    // All of the subcarrier's received vectors become the columns of one
    // batch, each computed as the per-vector path did (same multiply_into,
    // same pre-drawn noise); the batched solve is bit-identical to a loop
    // of per-vector solves by contract.
    scratch.y.resize(na);
    scratch.y_batch.assign_shape(na, ofdm_symbols);
    for (std::size_t sym = 0; sym < ofdm_symbols; ++sym) {
      for (std::size_t k = 0; k < nc; ++k)
        scratch.x[k] = detector.constellation().point(frame.tx[k].symbol_at(sym, sc, nsc));
      multiply_into(h, scratch.x, scratch.y);
      if (frame.n0 > 0.0) {
        const cf64* w = &frame.noise[(sym * nsc + sc) * na];
        for (std::size_t i = 0; i < na; ++i) scratch.y[i] += w[i];
      }
      for (std::size_t i = 0; i < na; ++i) scratch.y_batch(i, sym) = scratch.y[i];
    }

    if (soft != nullptr) {
      soft->solve_soft_batch(scratch.y_batch, scratch.soft_batch);
      stats += scratch.soft_batch.stats;
      detected += scratch.soft_batch.count;
      llrs_to_confidence(scratch.soft_batch.llrs, scratch.conf);
      for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          for (unsigned b = 0; b < q; ++b)
            out.rx_conf[k][(sym * nsc + sc) * q + b] = scratch.conf[(sym * nc + k) * q + b];
    } else {
      detector.solve_batch(scratch.y_batch, scratch.batch);
      stats += scratch.batch.stats;
      detected += scratch.batch.count;
      for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
        for (std::size_t k = 0; k < nc; ++k)
          out.rx[k][sym * nsc + sc] = scratch.batch.indices[sym * nc + k];
    }
  }
  return detected;
}

void decode_frame(CodedPipeline& pipeline, const phy::FrameCodec& codec,
                  const DrawnFrame& frame, const FrameDecisions& decisions,
                  std::vector<StreamDecodeResult>& results) {
  const std::size_t ofdm_symbols = codec.ofdm_symbols_per_frame();
  if (decisions.mode == DecisionMode::kSoft)
    pipeline.decode_frame_soft(codec, decisions.rx_conf, ofdm_symbols, frame.tx, results);
  else
    pipeline.decode_frame_hard(codec, decisions.rx, ofdm_symbols, frame.tx, results);
}

}  // namespace geosphere::link
