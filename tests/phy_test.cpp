#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "coding/convolutional.h"
#include "coding/interleaver.h"
#include "coding/scrambler.h"
#include "coding/simd/dispatch.h"
#include "coding/spec.h"
#include "common/rng.h"
#include "phy/fft.h"
#include "phy/frame.h"
#include "phy/ofdm.h"

namespace geosphere::phy {
namespace {

// ---- FFT --------------------------------------------------------------------

CVector naive_dft(const CVector& x) {
  const std::size_t n = x.size();
  CVector out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cf64 acc{};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) / static_cast<double>(n);
      acc += x[t] * cf64{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

class FftProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftProperty, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector ref = naive_dft(x);
  const CVector got = fft_copy(x);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LT(std::abs(got[i] - ref[i]), 1e-9 * static_cast<double>(n));
}

TEST_P(FftProperty, InverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n + 100);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector back = ifft_copy(fft_copy(x));
  for (std::size_t i = 0; i < n; ++i) EXPECT_LT(std::abs(back[i] - x[i]), 1e-10);
}

TEST_P(FftProperty, Parseval) {
  const std::size_t n = GetParam();
  Rng rng(n + 200);
  CVector x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVector freq = fft_copy(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : freq) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-7 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftProperty, ::testing::Values(1u, 2u, 8u, 64u, 256u));

TEST(Fft, RejectsNonPowerOfTwo) {
  CVector x(48);
  EXPECT_THROW(fft(x), std::invalid_argument);
}

// ---- OFDM --------------------------------------------------------------------

TEST(Ofdm, Ieee80211aLayout) {
  const auto p = OfdmParams::ieee80211a();
  EXPECT_EQ(p.num_data_subcarriers(), 48u);
  EXPECT_EQ(p.pilot_bins.size(), 4u);
  EXPECT_EQ(p.samples_per_symbol(), 80u);
  EXPECT_NEAR(p.symbol_duration_s(), 4e-6, 1e-12);
  // DC bin unused.
  for (const auto bin : p.data_bins) EXPECT_NE(bin, 0u);
}

TEST(Ofdm, ModulateDemodulateRoundTrip) {
  OfdmModem modem;
  Rng rng(1);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();
  const CVector samples = modem.modulate(data);
  EXPECT_EQ(samples.size(), 80u);
  const CVector back = modem.demodulate(samples);
  for (std::size_t i = 0; i < 48; ++i) EXPECT_LT(std::abs(back[i] - data[i]), 1e-10);
}

TEST(Ofdm, CyclicPrefixIsTailCopy) {
  OfdmModem modem;
  Rng rng(2);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();
  const CVector samples = modem.modulate(data);
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(samples[i], samples[64 + i]);  // CP = last 16 of the body.
}

TEST(Ofdm, CyclicPrefixAbsorbsMultipath) {
  // A two-tap channel within the CP: per-subcarrier equalization recovers
  // the data exactly -- the property that justifies per-subcarrier MIMO
  // detection in the link simulator.
  OfdmModem modem;
  Rng rng(3);
  CVector data(48);
  for (auto& v : data) v = rng.cgaussian();

  // Two OFDM symbols back-to-back so the echo of symbol 1 lands in symbol
  // 2's prefix region.
  const CVector s1 = modem.modulate(data);
  const CVector s2 = modem.modulate(data);
  CVector stream;
  stream.insert(stream.end(), s1.begin(), s1.end());
  stream.insert(stream.end(), s2.begin(), s2.end());

  const cf64 tap0{0.8, 0.1};
  const cf64 tap1{-0.3, 0.4};
  const std::size_t delay = 5;
  CVector received(stream.size(), cf64{});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    received[i] += tap0 * stream[i];
    if (i >= delay) received[i] += tap1 * stream[i - delay];
  }

  // Demodulate the second symbol and equalize per subcarrier with the
  // channel's known frequency response.
  const CVector rx(received.begin() + 80, received.begin() + 160);
  const CVector demod = modem.demodulate(rx);
  const auto& p = modem.params();
  for (std::size_t i = 0; i < 48; ++i) {
    const double angle = -2.0 * kPi * static_cast<double>(p.data_bins[i] * delay) / 64.0;
    const cf64 hf = tap0 + tap1 * cf64{std::cos(angle), std::sin(angle)};
    EXPECT_LT(std::abs(demod[i] / hf - data[i]), 1e-9);
  }
}

TEST(Ofdm, RejectsWrongSizes) {
  OfdmModem modem;
  EXPECT_THROW(modem.modulate(CVector(47)), std::invalid_argument);
  EXPECT_THROW(modem.demodulate(CVector(79)), std::invalid_argument);
}

// ---- Frame codec ---------------------------------------------------------------

class FrameRoundTrip : public ::testing::TestWithParam<std::tuple<unsigned, coding::CodeRate>> {
};

TEST_P(FrameRoundTrip, CleanChannelRecoversPayload) {
  const auto [qam, rate] = GetParam();
  FrameConfig cfg;
  cfg.qam_order = qam;
  cfg.code_rate = rate;
  cfg.payload_bytes = 300;
  FrameCodec codec(cfg);
  Rng rng(qam);
  const BitVector payload = rng.bits(cfg.payload_bits());
  const EncodedFrame frame = codec.encode(payload);

  EXPECT_EQ(frame.ofdm_symbols, codec.ofdm_symbols_per_frame());
  EXPECT_EQ(frame.symbol_indices.size(), frame.ofdm_symbols * cfg.data_subcarriers);

  const BitVector decoded = codec.decode(frame.symbol_indices, frame.ofdm_symbols);
  EXPECT_EQ(decoded, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FrameRoundTrip,
    ::testing::Combine(::testing::Values(4u, 16u, 64u, 256u),
                       ::testing::Values(coding::CodeRate::kHalf,
                                         coding::CodeRate::kTwoThirds,
                                         coding::CodeRate::kThreeQuarters)));

TEST(FrameCodec, CorrectsSymbolErrors) {
  FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 200;
  FrameCodec codec(cfg);
  Rng rng(5);
  const BitVector payload = rng.bits(cfg.payload_bits());
  EncodedFrame frame = codec.encode(payload);

  // Corrupt a few well-separated symbols: the interleaved convolutional
  // code must absorb them.
  for (std::size_t i = 0; i < frame.symbol_indices.size(); i += 300)
    frame.symbol_indices[i] ^= 1u;
  EXPECT_EQ(codec.decode(frame.symbol_indices, frame.ofdm_symbols), payload);
}

TEST(FrameCodec, SymbolCountScalesWithModulation) {
  FrameConfig cfg4;
  cfg4.qam_order = 4;
  cfg4.payload_bytes = 300;
  FrameConfig cfg64 = cfg4;
  cfg64.qam_order = 64;
  EXPECT_GT(FrameCodec(cfg4).ofdm_symbols_per_frame(),
            2 * FrameCodec(cfg64).ofdm_symbols_per_frame());
}

TEST(FrameCodec, HigherRatePuncturingShortensFrames) {
  FrameConfig half;
  half.qam_order = 16;
  half.payload_bytes = 400;
  FrameConfig three_quarters = half;
  three_quarters.code_rate = coding::CodeRate::kThreeQuarters;
  EXPECT_GT(FrameCodec(half).ofdm_symbols_per_frame(),
            FrameCodec(three_quarters).ofdm_symbols_per_frame());
}

/// Soft confidences (transmitted order, Q per subcarrier) of a frame's
/// symbols: exact 0/1 for the hard symbol indices, or noisy ones.
std::vector<double> symbol_confidences(const FrameCodec& codec,
                                       const std::vector<unsigned>& symbols,
                                       double noise_sigma, Rng& rng) {
  const unsigned q = codec.constellation().bits_per_symbol();
  std::vector<double> conf(symbols.size() * q);
  BitVector bits(q);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    codec.constellation().bits_from_index(symbols[i], bits.data());
    for (unsigned b = 0; b < q; ++b) {
      const double v = (bits[b] ? 1.0 : 0.0) + noise_sigma * rng.gaussian();
      conf[i * q + b] = std::min(1.0, std::max(0.0, v));
    }
  }
  return conf;
}

/// The soft receive chain rebuilt from its parts around a given decoder:
/// deinterleave, drop padding, depuncture, decode, descramble (uncoded:
/// threshold and descramble).
template <typename Decoder>
BitVector reference_soft_decode(const FrameConfig& cfg, const std::vector<double>& conf,
                                std::size_t ofdm_symbols, const Decoder& decoder) {
  const unsigned q = Constellation::qam(cfg.qam_order).bits_per_symbol();
  const std::size_t per_symbol = cfg.data_subcarriers * q;
  const coding::BlockInterleaver interleaver(per_symbol, q);
  const coding::Puncturer puncturer(cfg.code_rate);
  std::vector<double> stream(ofdm_symbols * per_symbol);
  for (std::size_t sym = 0; sym < ofdm_symbols; ++sym)
    interleaver.deinterleave_soft(conf.data() + sym * per_symbol,
                                  stream.data() + sym * per_symbol);
  if (!cfg.coded) {
    BitVector bits(cfg.payload_bits());
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = stream[i] > 0.5 ? 1u : 0u;
    return coding::Scrambler().apply(bits);
  }
  const std::size_t coded_bits = coding::ConvolutionalEncoder::coded_length(cfg.payload_bits());
  stream.resize(puncturer.punctured_length(coded_bits));
  return coding::Scrambler().apply(decoder.decode_soft(puncturer.depuncture(stream, coded_bits)));
}

/// The transmit chain rebuilt from its parts: scramble, encode, puncture,
/// zero-pad to whole OFDM symbols, interleave each symbol, map.
EncodedFrame reference_encode(const FrameConfig& cfg, const BitVector& payload) {
  const Constellation& constellation = Constellation::qam(cfg.qam_order);
  const unsigned q = constellation.bits_per_symbol();
  const std::size_t per_symbol = cfg.data_subcarriers * q;
  const BitVector scrambled = coding::Scrambler().apply(payload);
  BitVector stream = cfg.coded ? coding::Puncturer(cfg.code_rate)
                                     .puncture(coding::ConvolutionalEncoder().encode(scrambled))
                               : scrambled;
  EncodedFrame frame;
  frame.payload = payload;
  frame.punctured_bits = stream.size();
  frame.ofdm_symbols = (stream.size() + per_symbol - 1) / per_symbol;
  stream.resize(frame.ofdm_symbols * per_symbol, 0);
  const coding::BlockInterleaver interleaver(per_symbol, q);
  for (std::size_t sym = 0; sym < frame.ofdm_symbols; ++sym) {
    const BitVector block(stream.begin() + static_cast<std::ptrdiff_t>(sym * per_symbol),
                          stream.begin() + static_cast<std::ptrdiff_t>((sym + 1) * per_symbol));
    const BitVector interleaved = interleaver.interleave(block);
    for (std::size_t sc = 0; sc < cfg.data_subcarriers; ++sc)
      frame.symbol_indices.push_back(constellation.index_from_bits(&interleaved[sc * q]));
  }
  return frame;
}

/// Restores default Viterbi kernel selection even if a test fails
/// mid-override.
struct ViterbiKernelGuard {
  ~ViterbiKernelGuard() { coding::simd::set_viterbi_kernel_override(nullptr); }
};

TEST(FrameCodec, TablesMatchTheReferenceChain) {
  // The codec's grid/inverse/scrambler/constellation tables must reproduce
  // the component chain exactly: encode symbol for symbol, and every
  // decoder (hard on the int16 kernel, soft on either Viterbi) bit for bit
  // on corrupted symbols and noisy confidences, under every kernel tier.
  ViterbiKernelGuard guard;
  const coding::ViterbiDecoder dbl_viterbi;
  const coding::QuantizedViterbi quant_viterbi;
  Rng rng(2024);
  std::size_t padded_frames = 0, failed_hard = 0;
  for (const unsigned qam : {4u, 16u, 64u, 256u}) {
    for (const char* code : {"none", "1/2", "2/3", "3/4"}) {
      for (const std::size_t bytes : {1u, 13u, 100u, 500u}) {
        FrameConfig dbl;
        dbl.qam_order = qam;
        dbl.set_code(coding::CodeSpec::parse(code));
        dbl.payload_bytes = bytes;
        FrameConfig quant = dbl;
        quant.viterbi = ViterbiImpl::kQuantized;
        const FrameCodec dbl_codec(dbl), quant_codec(quant);
        const std::string where = std::string("QAM ") + std::to_string(qam) + ", code " +
                                  code + ", " + std::to_string(bytes) + " B";

        const BitVector payload = rng.bits(dbl.payload_bits());
        const EncodedFrame frame = dbl_codec.encode(payload);
        const EncodedFrame expected = reference_encode(dbl, payload);
        EXPECT_EQ(frame.symbol_indices, expected.symbol_indices) << where;
        EXPECT_EQ(frame.ofdm_symbols, expected.ofdm_symbols) << where;
        EXPECT_EQ(frame.punctured_bits, expected.punctured_bits) << where;
        EXPECT_EQ(frame.payload, payload) << where;
        EXPECT_EQ(frame.ofdm_symbols, dbl_codec.ofdm_symbols_per_frame()) << where;
        if (frame.punctured_bits % dbl.coded_bits_per_ofdm_symbol(dbl_codec.constellation()))
          ++padded_frames;

        std::vector<unsigned> symbols = frame.symbol_indices;
        for (unsigned& s : symbols)
          if (rng.uniform() < 0.08) s = static_cast<unsigned>(rng.uniform_int(static_cast<int>(qam)));
        const std::size_t n = frame.ofdm_symbols;
        const auto hard_conf = symbol_confidences(dbl_codec, symbols, 0.0, rng);
        const auto soft_conf = symbol_confidences(dbl_codec, frame.symbol_indices, 0.45, rng);
        const BitVector hard_ref = reference_soft_decode(dbl, hard_conf, n, dbl_viterbi);
        const BitVector dbl_ref = reference_soft_decode(dbl, soft_conf, n, dbl_viterbi);
        const BitVector quant_ref = reference_soft_decode(quant, soft_conf, n, quant_viterbi);
        if (hard_ref != payload) ++failed_hard;
        for (const auto* kernel : coding::simd::supported_viterbi_kernels()) {
          coding::simd::set_viterbi_kernel_override(kernel->name);
          EXPECT_EQ(dbl_codec.decode(symbols, n), hard_ref) << where << ", " << kernel->name;
          EXPECT_EQ(quant_codec.decode(symbols, n), hard_ref) << where << ", " << kernel->name;
          EXPECT_EQ(dbl_codec.decode_soft(soft_conf, n), dbl_ref) << where << ", " << kernel->name;
          EXPECT_EQ(quant_codec.decode_soft(soft_conf, n), quant_ref)
              << where << ", " << kernel->name;
        }
        coding::simd::set_viterbi_kernel_override(nullptr);
      }
    }
  }
  EXPECT_GT(padded_frames, 0u) << "no configuration left its last OFDM symbol part-padded";
  EXPECT_GT(failed_hard, 0u) << "no frame exercised an uncorrectable error pattern";
}

TEST(FrameCodec, ExtraSymbolsArePaddingFewerSymbolsThrow) {
  // Symbols past ofdm_symbols_per_frame() carry only padding and are
  // ignored; a frame shorter than the codec's, or an index outside the
  // constellation, is rejected instead of decoding garbage.
  FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 40;
  const FrameCodec codec(cfg);
  Rng rng(12);
  const BitVector payload = rng.bits(cfg.payload_bits());
  const EncodedFrame frame = codec.encode(payload);
  const std::size_t n = frame.ofdm_symbols;
  const std::size_t nsc = cfg.data_subcarriers;
  const unsigned q = codec.constellation().bits_per_symbol();

  std::vector<unsigned> longer = frame.symbol_indices;
  longer.resize(longer.size() + nsc, 5u);
  EXPECT_EQ(codec.decode(longer, n + 1), payload);
  std::vector<double> conf = symbol_confidences(codec, longer, 0.0, rng);
  EXPECT_EQ(codec.decode_soft(conf, n + 1), payload);

  const std::vector<unsigned> shorter(frame.symbol_indices.begin(),
                                      frame.symbol_indices.end() - static_cast<std::ptrdiff_t>(nsc));
  EXPECT_THROW(codec.decode(shorter, n - 1), std::invalid_argument);
  EXPECT_THROW(codec.decode_soft(std::vector<double>((n - 1) * nsc * q, 0.5), n - 1),
               std::invalid_argument);
  std::vector<unsigned> bad = frame.symbol_indices;
  bad[3] = 16;
  EXPECT_THROW(codec.decode(bad, n), std::invalid_argument);
}

TEST(FrameCodec, HardDecodeIsExactOnEitherViterbiSetting) {
  // Hard decode runs the int16 Viterbi whatever FrameConfig::viterbi says,
  // because on hard inputs it is exact: a kDouble and a kQuantized codec
  // return the same bits, and those equal the double decoder's soft decode
  // of the same decisions as 0/1 confidences -- also on frames the code
  // cannot correct.
  Rng rng(31);
  std::size_t failed_frames = 0;
  for (const auto rate : {coding::CodeRate::kHalf, coding::CodeRate::kTwoThirds,
                          coding::CodeRate::kThreeQuarters}) {
    for (const unsigned qam : {4u, 64u}) {
      FrameConfig dbl;
      dbl.qam_order = qam;
      dbl.code_rate = rate;
      dbl.payload_bytes = 120;
      FrameConfig quant = dbl;
      quant.viterbi = ViterbiImpl::kQuantized;
      const FrameCodec dbl_codec(dbl), quant_codec(quant);
      for (const double symbol_error_rate : {0.0, 0.05, 0.2, 0.5}) {
        const BitVector payload = rng.bits(dbl.payload_bits());
        EncodedFrame frame = dbl_codec.encode(payload);
        for (unsigned& s : frame.symbol_indices)
          if (rng.uniform() < symbol_error_rate) s = static_cast<unsigned>(rng.uniform_int(static_cast<int>(qam)));

        const BitVector hard = dbl_codec.decode(frame.symbol_indices, frame.ofdm_symbols);
        EXPECT_EQ(quant_codec.decode(frame.symbol_indices, frame.ofdm_symbols), hard);
        const auto conf = symbol_confidences(dbl_codec, frame.symbol_indices, 0.0, rng);
        EXPECT_EQ(dbl_codec.decode_soft(conf, frame.ofdm_symbols), hard);
        if (hard != payload) ++failed_frames;
      }
    }
  }
  EXPECT_GT(failed_frames, 0u) << "no frame exercised an uncorrectable error pattern";
}

TEST(FrameCodec, SoftDecodeUsesTheConfiguredViterbi) {
  // Soft inputs are where the two decoders may differ (+-1/2-LSB branch-
  // cost rounding), so decode_soft must keep honoring FrameConfig::viterbi:
  // each codec matches the chain rebuilt around its own decoder, and some
  // noisy frame tells the two apart.
  FrameConfig dbl;
  dbl.qam_order = 16;
  dbl.payload_bytes = 100;
  FrameConfig quant = dbl;
  quant.viterbi = ViterbiImpl::kQuantized;
  const FrameCodec dbl_codec(dbl), quant_codec(quant);
  const coding::ViterbiDecoder dbl_viterbi;
  const coding::QuantizedViterbi quant_viterbi;
  Rng rng(8);
  std::size_t differing_frames = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const EncodedFrame frame = dbl_codec.encode(rng.bits(dbl.payload_bits()));
    const auto conf = symbol_confidences(dbl_codec, frame.symbol_indices, 0.6, rng);
    const BitVector from_dbl = dbl_codec.decode_soft(conf, frame.ofdm_symbols);
    const BitVector from_quant = quant_codec.decode_soft(conf, frame.ofdm_symbols);
    EXPECT_EQ(from_dbl, reference_soft_decode(dbl, conf, frame.ofdm_symbols, dbl_viterbi));
    EXPECT_EQ(from_quant,
              reference_soft_decode(quant, conf, frame.ofdm_symbols, quant_viterbi));
    if (from_dbl != from_quant) ++differing_frames;
  }
  EXPECT_GT(differing_frames, 0u) << "noise too low to tell the decoders apart";
}

TEST(FrameCodec, RejectsBadInputs) {
  FrameConfig cfg;
  FrameCodec codec(cfg);
  EXPECT_THROW(codec.encode(BitVector(7)), std::invalid_argument);
  EXPECT_THROW(codec.decode(std::vector<unsigned>(5), 1), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::phy
