#include "link/coded_pipeline.h"

#include <stdexcept>

#include "coding/crc32.h"

namespace geosphere::link {

StreamDecodeResult CodedPipeline::score(const BitVector& decoded,
                                        const BitVector& payload) const {
  if (decoded.size() != payload.size())
    throw std::invalid_argument("CodedPipeline: decoded/payload size mismatch");
  StreamDecodeResult r;
  r.payload_bits = decoded.size();
  for (std::size_t b = 0; b < decoded.size(); ++b)
    r.bit_errors += (decoded[b] != payload[b]) ? 1u : 0u;
  // The CRC check must behave like a real FCS, so a (vanishingly unlikely)
  // colliding error pattern counts as delivered, exactly as it would over
  // the air. Identical bits give identical CRCs, so an error-free stream
  // needs neither CRC -- that skip is exact, not a genie compare.
  r.crc_ok = r.bit_errors == 0 ||
             coding::crc32_bits(decoded) == coding::crc32_bits(payload);
  return r;
}

void CodedPipeline::decode_frame_soft(const phy::FrameCodec& codec,
                                      const std::vector<std::vector<double>>& rx_conf,
                                      std::size_t ofdm_symbols,
                                      const std::vector<phy::EncodedFrame>& tx,
                                      std::vector<StreamDecodeResult>& results) {
  if (rx_conf.size() != tx.size())
    throw std::invalid_argument("CodedPipeline: stream count mismatch");
  results.resize(tx.size());
  for (std::size_t k = 0; k < tx.size(); ++k) {
    codec.decode_soft(rx_conf[k], ofdm_symbols, ws_, decoded_);
    results[k] = score(decoded_, tx[k].payload);
  }
}

void CodedPipeline::decode_frame_hard(const phy::FrameCodec& codec,
                                      const std::vector<std::vector<unsigned>>& rx,
                                      std::size_t ofdm_symbols,
                                      const std::vector<phy::EncodedFrame>& tx,
                                      std::vector<StreamDecodeResult>& results) {
  if (rx.size() != tx.size())
    throw std::invalid_argument("CodedPipeline: stream count mismatch");
  results.resize(tx.size());
  for (std::size_t k = 0; k < tx.size(); ++k) {
    codec.decode(rx[k], ofdm_symbols, ws_, decoded_);
    results[k] = score(decoded_, tx[k].payload);
  }
}

}  // namespace geosphere::link
