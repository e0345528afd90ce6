#include <gtest/gtest.h>

#include <algorithm>

#include "coding/convolutional.h"
#include "coding/crc32.h"
#include "coding/interleaver.h"
#include "coding/puncture.h"
#include "coding/scrambler.h"
#include "coding/viterbi.h"
#include "common/rng.h"

namespace geosphere::coding {
namespace {

TEST(Convolutional, KnownLengthAndDeterminism) {
  ConvolutionalEncoder enc;
  Rng rng(1);
  const BitVector info = rng.bits(100);
  const BitVector a = enc.encode(info);
  const BitVector b = enc.encode(info);
  EXPECT_EQ(a.size(), 2u * (100 + 6));
  EXPECT_EQ(a, b);
}

TEST(Convolutional, AllZeroInputGivesAllZeroOutput) {
  ConvolutionalEncoder enc;
  const BitVector zeros(50, 0);
  const BitVector coded = enc.encode(zeros);
  for (const auto b : coded) EXPECT_EQ(b, 0);
}

TEST(Convolutional, Linearity) {
  // Convolutional codes are linear: enc(a) xor enc(b) == enc(a xor b).
  ConvolutionalEncoder enc;
  Rng rng(2);
  const BitVector a = rng.bits(64);
  const BitVector b = rng.bits(64);
  BitVector axb(64);
  for (int i = 0; i < 64; ++i) axb[static_cast<std::size_t>(i)] =
      a[static_cast<std::size_t>(i)] ^ b[static_cast<std::size_t>(i)];
  const BitVector ca = enc.encode(a);
  const BitVector cb = enc.encode(b);
  const BitVector cab = enc.encode(axb);
  for (std::size_t i = 0; i < ca.size(); ++i) EXPECT_EQ(ca[i] ^ cb[i], cab[i]);
}

class ViterbiRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ViterbiRoundTrip, CleanChannelDecodesExactly) {
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  Rng rng(GetParam());
  const BitVector info = rng.bits(GetParam());
  EXPECT_EQ(dec.decode(enc.encode(info)), info);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ViterbiRoundTrip,
                         ::testing::Values(1u, 2u, 7u, 48u, 100u, 1000u));

TEST(Viterbi, CorrectsScatteredBitErrors) {
  // The free distance of (133,171) is 10: up to 4 well-separated channel
  // bit errors are always correctable.
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const BitVector info = rng.bits(200);
    BitVector coded = enc.encode(info);
    for (int e = 0; e < 4; ++e) {
      const std::size_t pos = static_cast<std::size_t>(rng.uniform_int(100)) + 100u * e;
      coded[pos] ^= 1u;
    }
    EXPECT_EQ(dec.decode(coded), info) << "trial " << trial;
  }
}

TEST(Viterbi, SoftErasuresDecode) {
  // Half-confidence erasures at punctured positions must not break decoding.
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  Rng rng(4);
  const BitVector info = rng.bits(120);
  const BitVector coded = enc.encode(info);
  std::vector<double> conf(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i)
    conf[i] = (i % 6 == 5) ? 0.5 : (coded[i] ? 1.0 : 0.0);  // 1-in-6 erased.
  EXPECT_EQ(dec.decode_soft(conf), info);
}

TEST(Viterbi, RejectsOddLength) {
  ViterbiDecoder dec;
  EXPECT_THROW(dec.decode_soft(std::vector<double>(33, 0.0)), std::invalid_argument);
  EXPECT_THROW(dec.decode_soft(std::vector<double>(4, 0.0)), std::invalid_argument);
}

TEST(Viterbi, ErrorBurstBeyondCapacityStillReturnsRightLength) {
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  Rng rng(5);
  const BitVector info = rng.bits(100);
  BitVector coded = enc.encode(info);
  for (std::size_t i = 10; i < 40; ++i) coded[i] ^= 1u;  // Unrecoverable burst.
  const BitVector out = dec.decode(coded);
  EXPECT_EQ(out.size(), info.size());
}

// ---- Puncturing --------------------------------------------------------------

class PunctureRoundTrip : public ::testing::TestWithParam<CodeRate> {};

TEST_P(PunctureRoundTrip, CleanDecodeThroughPuncturing) {
  const CodeRate rate = GetParam();
  ConvolutionalEncoder enc;
  ViterbiDecoder dec;
  Puncturer punct(rate);
  Rng rng(6);
  const BitVector info = rng.bits(300);
  const BitVector coded = enc.encode(info);
  const BitVector sent = punct.puncture(coded);

  std::vector<double> conf(sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) conf[i] = sent[i] ? 1.0 : 0.0;
  const auto depunct = punct.depuncture(conf, coded.size());
  EXPECT_EQ(dec.decode_soft(depunct), info);
}

INSTANTIATE_TEST_SUITE_P(Rates, PunctureRoundTrip,
                         ::testing::Values(CodeRate::kHalf, CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters));

TEST(Puncture, LengthsMatchRates) {
  Puncturer half(CodeRate::kHalf);
  Puncturer two_thirds(CodeRate::kTwoThirds);
  Puncturer three_quarters(CodeRate::kThreeQuarters);
  EXPECT_EQ(half.punctured_length(1200), 1200u);
  EXPECT_EQ(two_thirds.punctured_length(1200), 900u);    // 3 of every 4.
  EXPECT_EQ(three_quarters.punctured_length(1200), 800u);  // 4 of every 6.
  EXPECT_NEAR(code_rate_value(CodeRate::kTwoThirds), 2.0 / 3.0, 1e-12);
  EXPECT_STREQ(code_rate_label(CodeRate::kThreeQuarters), "3/4");
}

TEST(Puncture, DepunctureRejectsBadLength) {
  Puncturer p(CodeRate::kTwoThirds);
  EXPECT_THROW(p.depuncture(std::vector<double>(10, 0.0), 100), std::invalid_argument);
}

// ---- Interleaver --------------------------------------------------------------

class InterleaverProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterleaverProperty, RoundTripAndBijection) {
  const std::size_t nbpsc = GetParam();
  BlockInterleaver il(48 * nbpsc, nbpsc);
  Rng rng(7);
  const BitVector block = rng.bits(48 * nbpsc);
  EXPECT_EQ(il.deinterleave(il.interleave(block)), block);
  EXPECT_EQ(il.interleave(il.deinterleave(block)), block);
}

TEST_P(InterleaverProperty, AdjacentBitsSpreadAcrossSubcarriers) {
  // The whole point of the interleaver: adjacent coded bits must map to
  // different subcarriers.
  const std::size_t nbpsc = GetParam();
  BlockInterleaver il(48 * nbpsc, nbpsc);
  const auto& fwd = il.forward();
  for (std::size_t k = 0; k + 1 < fwd.size(); ++k) {
    const std::size_t sc_a = fwd[k] / nbpsc;
    const std::size_t sc_b = fwd[k + 1] / nbpsc;
    EXPECT_NE(sc_a, sc_b) << "adjacent coded bits on one subcarrier, k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(BitsPerSubcarrier, InterleaverProperty,
                         ::testing::Values(2u, 4u, 6u, 8u));

TEST(Interleaver, SoftDeinterleaveMatchesHard) {
  BlockInterleaver il(96, 2);
  Rng rng(8);
  const BitVector block = rng.bits(96);
  const BitVector inter = il.interleave(block);
  std::vector<double> soft(inter.size());
  for (std::size_t i = 0; i < inter.size(); ++i) soft[i] = inter[i];
  const auto soft_out = il.deinterleave_soft(soft);
  for (std::size_t i = 0; i < block.size(); ++i)
    EXPECT_DOUBLE_EQ(soft_out[i], static_cast<double>(block[i]));
}

TEST(Interleaver, RejectsBadSizes) {
  EXPECT_THROW(BlockInterleaver(50, 2), std::invalid_argument);   // Not mult of 16.
  EXPECT_THROW(BlockInterleaver(0, 2), std::invalid_argument);
  BlockInterleaver il(96, 2);
  EXPECT_THROW(il.interleave(BitVector(95)), std::invalid_argument);
}

// ---- Scrambler ----------------------------------------------------------------

TEST(Scrambler, SelfInverse) {
  Scrambler s(0x5D);
  Rng rng(9);
  const BitVector bits = rng.bits(500);
  EXPECT_EQ(s.apply(s.apply(bits)), bits);
}

TEST(Scrambler, WhitensLongRuns) {
  Scrambler s(0x5D);
  const BitVector zeros(1000, 0);
  const BitVector out = s.apply(zeros);
  const auto ones = static_cast<std::size_t>(std::count(out.begin(), out.end(), 1));
  EXPECT_GT(ones, 350u);
  EXPECT_LT(ones, 650u);
}

TEST(Scrambler, PeriodIs127) {
  // Maximal-length 7-bit LFSR: the scrambling sequence repeats every 127.
  Scrambler s(0x01);
  const BitVector zeros(254, 0);
  const BitVector seq = s.apply(zeros);
  for (std::size_t i = 0; i < 127; ++i) EXPECT_EQ(seq[i], seq[i + 127]);
  // And is not constant.
  EXPECT_NE(std::count(seq.begin(), seq.begin() + 127, 1), 0);
}

TEST(Scrambler, RejectsZeroSeed) { EXPECT_THROW(Scrambler(0), std::invalid_argument); }

// ---- CRC32 -------------------------------------------------------------------

TEST(Crc32, KnownCheckValue) {
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, EmptyBuffer) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  Rng rng(10);
  const BitVector bits = rng.bits(800);
  const std::uint32_t ref = crc32_bits(bits);
  for (int t = 0; t < 50; ++t) {
    BitVector corrupted = bits;
    corrupted[static_cast<std::size_t>(rng.uniform_int(800))] ^= 1u;
    EXPECT_NE(crc32_bits(corrupted), ref);
  }
}

TEST(Crc32, BitsMatchCrcOfPackedBytes) {
  // crc32_bits packs on the fly; it must equal crc32 over the explicitly
  // packed buffer (LSB first, partial last byte zero-padded) at every
  // length, whole bytes or not.
  Rng rng(11);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 803u, 4000u}) {
    const BitVector bits = rng.bits(n);
    std::vector<std::uint8_t> bytes((n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i)
      bytes[i / 8] = static_cast<std::uint8_t>(bytes[i / 8] | (bits[i] << (i % 8)));
    EXPECT_EQ(crc32_bits(bits), crc32(bytes.data(), bytes.size())) << n << " bits";
  }
}

}  // namespace
}  // namespace geosphere::coding
