#include <gtest/gtest.h>

#include "channel/rayleigh.h"
#include "channel/testbed_ensemble.h"
#include "coding/crc32.h"
#include "coding/spec.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "link/coded_pipeline.h"
#include "link/link_simulator.h"
#include "link/rate_adapt.h"
#include "link/snr_search.h"
#include "link/throughput.h"
#include "link/user_selection.h"

namespace geosphere::link {
namespace {

LinkScenario small_scenario(unsigned qam, double snr_db) {
  LinkScenario s;
  s.frame.qam_order = qam;
  s.frame.payload_bytes = 100;  // Keep the tests fast.
  s.snr_db = snr_db;
  return s;
}

TEST(Throughput, PhyRateMatches80211Numbers) {
  // Single stream, 64-QAM rate 3/4 = the classic 54 Mbps 802.11a rate.
  EXPECT_NEAR(phy_rate_mbps(1, 64, coding::CodeRate::kThreeQuarters), 54.0, 1e-9);
  // 16-QAM rate 1/2 = 24 Mbps; scales linearly in streams.
  EXPECT_NEAR(phy_rate_mbps(4, 16, coding::CodeRate::kHalf), 4 * 24.0, 1e-9);
}

TEST(Throughput, NetThroughputScalesWithFer) {
  const std::vector<double> fer{0.5, 0.0};
  const double got = net_throughput_mbps(2, 4, coding::CodeRate::kHalf, fer);
  const double per_client = phy_rate_mbps(1, 4, coding::CodeRate::kHalf);
  EXPECT_NEAR(got, per_client * 1.5, 1e-9);
  EXPECT_THROW(net_throughput_mbps(3, 4, coding::CodeRate::kHalf, fer),
               std::invalid_argument);
}

TEST(CodedPipeline, CrcCollisionStillCountsAsDelivered) {
  // Delivery is the CRC decision, like a real FCS: an error pattern that is
  // a multiple of the CRC-32 generator leaves the CRC unchanged, so the
  // frame counts as delivered although its bits are wrong. Skipping the
  // CRCs on error-free streams must not turn this into a payload compare.
  phy::FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 60;
  cfg.set_code(coding::CodeSpec::parse("none"));  // Decodes the sent bits verbatim.
  const phy::FrameCodec codec(cfg);
  Rng rng(77);
  const BitVector payload = rng.bits(cfg.payload_bits());

  // x^32 + x^26 + ... + 1 (0x104C11DB7). The reflected CRC reads bit i of
  // the stream as the coefficient of x^(N-1-i), so coefficient d sits at
  // base + 32 - d.
  constexpr std::uint64_t kGenerator = 0x104C11DB7ull;
  const std::size_t base = 100;
  BitVector corrupted = payload;
  for (unsigned d = 0; d <= 32; ++d)
    if ((kGenerator >> d) & 1u) corrupted[base + 32 - d] ^= 1u;
  ASSERT_NE(corrupted, payload);
  ASSERT_EQ(coding::crc32_bits(corrupted), coding::crc32_bits(payload));

  const std::vector<phy::EncodedFrame> tx{codec.encode(payload)};
  const std::vector<std::vector<unsigned>> rx{codec.encode(corrupted).symbol_indices};
  std::vector<StreamDecodeResult> results;
  CodedPipeline pipeline;
  pipeline.decode_frame_hard(codec, rx, codec.ofdm_symbols_per_frame(), tx, results);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].bit_errors, 15u);  // The generator's weight.
  EXPECT_TRUE(results[0].bit_errors > 0 && results[0].crc_ok);

  // And a clean stream and a non-colliding error keep their usual outcome.
  pipeline.decode_frame_hard(codec, {tx[0].symbol_indices}, codec.ofdm_symbols_per_frame(),
                             tx, results);
  EXPECT_EQ(results[0].bit_errors, 0u);
  EXPECT_TRUE(results[0].crc_ok);
  corrupted = payload;
  corrupted[base] ^= 1u;
  pipeline.decode_frame_hard(codec, {codec.encode(corrupted).symbol_indices},
                             codec.ofdm_symbols_per_frame(), tx, results);
  EXPECT_EQ(results[0].bit_errors, 1u);
  EXPECT_FALSE(results[0].crc_ok);
}

TEST(LinkSimulator, HighSnrIsErrorFree) {
  channel::RayleighChannel ch(4, 2);
  LinkSimulator sim(ch, small_scenario(16, 45.0));
  const Constellation& c = Constellation::qam(16);
  const auto det = DetectorSpec::parse("geosphere").create(c);
  const LinkStats stats = sim.run(*det, DecisionMode::kHard, 10, /*seed=*/1);
  EXPECT_EQ(stats.frames, 10u);
  EXPECT_DOUBLE_EQ(stats.fer(), 0.0);
  EXPECT_EQ(stats.bit_errors, 0u);
  EXPECT_GT(stats.detection_calls, 0u);
}

TEST(LinkSimulator, FerMonotoneInSnr) {
  channel::RayleighChannel ch(4, 4);
  const Constellation& c = Constellation::qam(16);
  const auto det = DetectorSpec::parse("geosphere").create(c);

  double prev_fer = 1.1;
  for (const double snr : {6.0, 14.0, 30.0}) {
    LinkSimulator sim(ch, small_scenario(16, snr));
    const double fer = sim.run(*det, DecisionMode::kHard, 40, /*seed=*/2).fer();
    EXPECT_LE(fer, prev_fer + 0.1) << "FER not (statistically) decreasing at " << snr;
    prev_fer = fer;
  }
  EXPECT_LT(prev_fer, 0.2);
}

TEST(LinkSimulator, GeosphereBeatsZfOnIllConditionedEnsemble) {
  // The paper's headline effect, end to end through coding and OFDM.
  channel::TestbedConfig tc;
  tc.ap_antennas = 4;
  tc.clients = 4;
  channel::TestbedEnsemble ch(tc);
  const Constellation& c = Constellation::qam(16);
  const auto geo = DetectorSpec::parse("geosphere").create(c);
  const auto zf = DetectorSpec::parse("zf").create(c);

  LinkSimulator sim(ch, small_scenario(16, 20.0));
  // Identical draws for the two detectors: same seed, per-frame seeding.
  const double fer_geo = sim.run(*geo, DecisionMode::kHard, 60, /*seed=*/3).fer();
  const double fer_zf = sim.run(*zf, DecisionMode::kHard, 60, /*seed=*/3).fer();
  EXPECT_LT(fer_geo, fer_zf);
}

TEST(LinkSimulator, ComplexityMetricsPopulated) {
  channel::RayleighChannel ch(4, 2);
  const Constellation& c = Constellation::qam(16);
  const auto geo = DetectorSpec::parse("geosphere").create(c);
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  const LinkStats stats = sim.run(*geo, DecisionMode::kHard, 5, /*seed=*/4);
  EXPECT_GT(stats.avg_ped_per_subcarrier(), 0.0);
  EXPECT_GT(stats.avg_visited_nodes_per_subcarrier(), 0.0);
  // Lower bound: at least one slice per level per call.
  EXPECT_GE(stats.avg_ped_per_subcarrier(), 2.0);
}

TEST(LinkSimulator, DetectorConstellationMismatchThrows) {
  channel::RayleighChannel ch(2, 2);
  const auto det = DetectorSpec::parse("zf").create(Constellation::qam(64));
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  EXPECT_THROW(sim.run(*det, DecisionMode::kHard, 1, /*seed=*/5), std::invalid_argument);
}

TEST(LinkSimulator, SoftModeNeedsSoftCapableDetector) {
  // The unified mode-dispatched path must reject DecisionMode::kSoft for a
  // detector with no soft() interface, loudly and before any detection.
  channel::RayleighChannel ch(2, 2);
  const auto hard = DetectorSpec::parse("zf").create(Constellation::qam(16));
  LinkSimulator sim(ch, small_scenario(16, 20.0));
  EXPECT_THROW(sim.run(*hard, DecisionMode::kSoft, 1, /*seed=*/5), std::invalid_argument);

  const auto soft = DetectorSpec::parse("soft-geosphere").create(Constellation::qam(16));
  EXPECT_NE(soft->soft(), nullptr);
  const LinkStats stats = sim.run(*soft, DecisionMode::kSoft, 2, /*seed=*/5);
  EXPECT_EQ(stats.frames, 2u);
}

TEST(RateAdapt, PicksLowOrderAtLowSnrHighOrderAtHighSnr) {
  channel::RayleighChannel ch(4, 2);
  LinkScenario base = small_scenario(16, 0.0);

  base.snr_db = 2.0;
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  const RateChoice low = best_rate(ch, base, geo, 25, 7, {4, 16, 64});
  base.snr_db = 38.0;
  const RateChoice high = best_rate(ch, base, geo, 25, 7, {4, 16, 64});
  EXPECT_LT(low.qam_order, high.qam_order);
  EXPECT_EQ(high.qam_order, 64u);
  EXPECT_GT(high.throughput_mbps, low.throughput_mbps);
}

TEST(SnrSearch, FindsTargetFerOperatingPoint) {
  channel::RayleighChannel ch(4, 2);
  LinkScenario base = small_scenario(16, 0.0);
  SnrSearchConfig cfg;
  cfg.probe_frames = 30;
  cfg.iterations = 7;
  const double snr = find_snr_for_fer(ch, base, DetectorSpec::parse("geosphere"), cfg, 11);
  EXPECT_GT(snr, 2.0);
  EXPECT_LT(snr, 40.0);

  // Verify the FER at the found point is in a sane band around the target.
  base.snr_db = snr;
  LinkSimulator sim(ch, base);
  const auto det = DetectorSpec::parse("geosphere").create(Constellation::qam(16));
  const double fer = sim.run(*det, DecisionMode::kHard, 120, /*seed=*/12).fer();
  EXPECT_GT(fer, 0.01);
  EXPECT_LT(fer, 0.45);
}

TEST(UserSelection, SnrRange) {
  const std::vector<double> snrs{12.0, 18.0, 21.0, 25.0, 31.0};
  const auto sel = select_in_snr_range(snrs, 20.0, 5.0);
  EXPECT_EQ(sel, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(select_in_snr_range(snrs, 50.0, 2.0).empty());
}

TEST(UserSelection, RandomSubsetProperties) {
  Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    const auto sel = select_random(10, 4, rng);
    EXPECT_EQ(sel.size(), 4u);
    for (std::size_t i = 1; i < sel.size(); ++i) EXPECT_LT(sel[i - 1], sel[i]);
    for (const auto v : sel) EXPECT_LT(v, 10u);
  }
  EXPECT_THROW(select_random(3, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::link
