// Tests for the streaming serving layer (src/serve): the latency
// histogram's bucket/merge/percentile algebra, the per-cell scheduler's
// deterministic policies (backlog-only candidates, antenna truncation,
// longest-unserved round robin with index tie-break, single-candidate
// rate shortcut), and the Server determinism contract -- every
// deterministic counter bit-identical for 1 vs 4 worker threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "phy/frame.h"
#include "serve/latency.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/spec.h"

namespace geosphere::serve {
namespace {

TEST(LatencyRecorder, EmptyRecorder) {
  const LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.min_ns(), 0u);
  EXPECT_EQ(rec.max_ns(), 0u);
  EXPECT_EQ(rec.percentile_ns(0.5), 0.0);
  EXPECT_EQ(rec.percentile_ns(1.0), 0.0);
}

TEST(LatencyRecorder, BucketsAreMonotoneAndBounded) {
  EXPECT_EQ(LatencyRecorder::bucket_of(0), 0u);
  EXPECT_EQ(LatencyRecorder::bucket_of(LatencyRecorder::kMinNs), 0u);
  std::size_t prev = 0;
  for (std::uint64_t ns = 1; ns < (std::uint64_t{1} << 40); ns *= 3) {
    const std::size_t b = LatencyRecorder::bucket_of(ns);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, LatencyRecorder::kBuckets);
    prev = b;
  }
  // Far beyond the last bucket floor: clamps instead of overflowing.
  EXPECT_EQ(LatencyRecorder::bucket_of(~std::uint64_t{0}), LatencyRecorder::kBuckets - 1);
}

TEST(LatencyRecorder, PercentileQuantizationIsTight) {
  // Quarter-octave buckets promise <= ~9% relative error at the reported
  // geometric midpoint.
  LatencyRecorder rec;
  for (int i = 0; i < 100; ++i) rec.record(25000);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_EQ(rec.max_ns(), 25000u);
  EXPECT_NEAR(rec.percentile_ns(0.5), 25000.0, 25000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.99), 25000.0, 25000.0 * 0.09);
}

TEST(LatencyRecorder, PercentileWalksTheDistribution) {
  LatencyRecorder rec;
  for (int i = 0; i < 90; ++i) rec.record(1000);
  for (int i = 0; i < 10; ++i) rec.record(1000000);
  EXPECT_NEAR(rec.percentile_ns(0.5), 1000.0, 1000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.9), 1000.0, 1000.0 * 0.09);
  EXPECT_NEAR(rec.percentile_ns(0.95), 1000000.0, 1000000.0 * 0.09);
  EXPECT_EQ(rec.max_ns(), 1000000u);
}

TEST(LatencyRecorder, MergeMatchesCombinedRecording) {
  LatencyRecorder a;
  LatencyRecorder b;
  LatencyRecorder combined;
  for (std::uint64_t ns = 100; ns < 100000; ns = ns * 2 + 7) {
    a.record(ns);
    combined.record(ns);
  }
  for (std::uint64_t ns = 50; ns < 500000; ns = ns * 3 + 1) {
    b.record(ns);
    combined.record(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min_ns(), combined.min_ns());
  EXPECT_EQ(a.max_ns(), combined.max_ns());
  for (const double p : {0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(a.percentile_ns(p), combined.percentile_ns(p));
}

/// Heavy-tailed latencies (log-uniform over ~five decades), recorded into
/// `parts` recorders round-robin and into `combined`.
void record_log_uniform(Rng& rng, std::size_t n, std::vector<LatencyRecorder>& parts,
                        LatencyRecorder& combined) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto ns = static_cast<std::uint64_t>(std::exp(4.0 + 12.0 * rng.uniform()));
    parts[i % parts.size()].record(ns);
    combined.record(ns);
  }
}

const double kProbes[] = {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0};

TEST(LatencyRecorder, PercentilesAreMonotoneAndWithinMinMax) {
  // The regression this guards: a bucket midpoint above the largest value
  // in its bucket made p99 exceed max. Small counts put the top ranks in a
  // sparsely filled bucket, so sweep sizes from 1 up.
  for (const std::size_t n : {1u, 2u, 3u, 7u, 50u, 1000u}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng rng(seed * 1000 + n);
      std::vector<LatencyRecorder> parts(1);
      LatencyRecorder rec;
      record_log_uniform(rng, n, parts, rec);
      double prev = 0.0;
      for (const double p : kProbes) {
        const double v = rec.percentile_ns(p);
        EXPECT_GE(v, prev) << "n=" << n << " seed=" << seed << " p=" << p;
        EXPECT_GE(v, static_cast<double>(rec.min_ns())) << "n=" << n << " p=" << p;
        EXPECT_LE(v, static_cast<double>(rec.max_ns())) << "n=" << n << " p=" << p;
        prev = v;
      }
    }
  }
}

TEST(LatencyRecorder, MergedPercentilesEqualCombinedRecording) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<LatencyRecorder> parts(4);
    LatencyRecorder combined;
    record_log_uniform(rng, 37 * seed, parts, combined);
    LatencyRecorder merged;
    for (const LatencyRecorder& part : parts) merged.merge(part);
    EXPECT_EQ(merged.count(), combined.count());
    EXPECT_EQ(merged.min_ns(), combined.min_ns());
    EXPECT_EQ(merged.max_ns(), combined.max_ns());
    for (const double p : kProbes)
      EXPECT_EQ(merged.percentile_ns(p), combined.percentile_ns(p)) << "seed=" << seed;
  }
}

TEST(CellScheduler, NeverExceedsAntennasAndOnlySchedulesBackloggedUsers) {
  // Saturated cell, more users than antennas: every TTI transmits exactly
  // `antennas` distinct valid users.
  const CellSpec spec = CellSpec::parse("users=10,antennas=3,load=1.0,spread=0");
  CellScheduler sched(spec, /*master_seed=*/3, /*cell_index=*/0);
  for (std::uint64_t tti = 0; tti < 12; ++tti) {
    const CellSchedule s = sched.schedule_tti(tti);
    EXPECT_EQ(s.users.size(), 3u);
    for (std::size_t i = 0; i < s.users.size(); ++i) {
      EXPECT_LT(s.users[i], 10u);
      if (i > 0) {
        EXPECT_LT(s.users[i - 1], s.users[i]);  // Ascending, unique.
      }
    }
  }
}

TEST(CellScheduler, IdleWithoutBacklog) {
  // A (deterministically) arrival-free cell never schedules anyone:
  // zero-demand users stay off the air and the TTI reports idle.
  const CellSpec spec = CellSpec::parse("users=16,load=0.000001");
  CellScheduler sched(spec, 3, 0);
  for (std::uint64_t tti = 0; tti < 50; ++tti) {
    const CellSchedule s = sched.schedule_tti(tti);
    EXPECT_TRUE(s.users.empty());
    EXPECT_EQ(s.qam, 0u);
  }
  EXPECT_EQ(sched.backlog(), 0u);
  EXPECT_EQ(sched.arrivals(), 0u);
}

TEST(CellScheduler, RoundRobinWithIndexTieBreak) {
  // Equal SNRs and permanent backlog: longest-unserved-first with the
  // user-index tie-break is a pure rotation in index order.
  const CellSpec spec = CellSpec::parse("users=6,antennas=2,load=1.0,spread=0,qams=16");
  CellScheduler sched(spec, 11, 0);
  const std::vector<std::vector<std::size_t>> expect = {
      {0, 1}, {2, 3}, {4, 5}, {0, 1}, {2, 3}, {4, 5}};
  for (std::uint64_t tti = 0; tti < expect.size(); ++tti)
    EXPECT_EQ(sched.schedule_tti(tti).users, expect[tti]) << "tti " << tti;
}

TEST(CellScheduler, SingleCandidateQamListSkipsTheProbe) {
  const CellSpec spec = CellSpec::parse("users=4,antennas=2,load=1.0,qams=64");
  CellScheduler sched(spec, 5, 0);
  for (std::uint64_t tti = 0; tti < 4; ++tti)
    EXPECT_EQ(sched.schedule_tti(tti).qam, 64u);
}

TEST(CellScheduler, ScheduleIsSeedDeterministic) {
  const CellSpec spec =
      CellSpec::parse("users=8,antennas=4,load=0.6,payload=40,qams=4|16");
  CellScheduler a(spec, 21, 2);
  CellScheduler b(spec, 21, 2);
  for (std::uint64_t tti = 0; tti < 8; ++tti) {
    const CellSchedule sa = a.schedule_tti(tti);
    const CellSchedule sb = b.schedule_tti(tti);
    EXPECT_EQ(sa.users, sb.users);
    EXPECT_EQ(sa.qam, sb.qam);
    EXPECT_EQ(sa.snr_db, sb.snr_db);
  }
}

TEST(CellScheduler, DeliveredFramesLeaveTheQueueFailedOnesStay) {
  const CellSpec spec = CellSpec::parse("users=2,antennas=2,load=1.0,qams=4");
  CellScheduler sched(spec, 9, 0);
  const CellSchedule s = sched.schedule_tti(0);
  ASSERT_EQ(s.users.size(), 2u);
  const std::uint64_t before = sched.backlog();
  sched.complete(s.users[0], /*delivered=*/true);
  sched.complete(s.users[1], /*delivered=*/false);
  EXPECT_EQ(sched.backlog(), before - 1);
  EXPECT_THROW(sched.complete(99, true), std::invalid_argument);
}

/// Expects every deterministic field of two reports to be bit-identical.
void expect_same_deterministic(const ServeResult& a, const ServeResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    const CellCounters& x = a.cells[c].counters;
    const CellCounters& y = b.cells[c].counters;
    EXPECT_EQ(x.ttis, y.ttis);
    EXPECT_EQ(x.arrivals, y.arrivals);
    EXPECT_EQ(x.scheduled_frames, y.scheduled_frames);
    EXPECT_EQ(x.scheduled_users, y.scheduled_users);
    EXPECT_EQ(x.user_frames_ok, y.user_frames_ok);
    EXPECT_EQ(x.user_frames_error, y.user_frames_error);
    EXPECT_EQ(x.bit_errors, y.bit_errors);
    EXPECT_EQ(x.payload_bits, y.payload_bits);
    EXPECT_EQ(x.delivered_bits, y.delivered_bits);
    EXPECT_EQ(x.backlog_end, y.backlog_end);
    EXPECT_EQ(x.schedule_hash, y.schedule_hash);
    EXPECT_EQ(x.detection_calls, y.detection_calls);
    EXPECT_EQ(x.detection.ped_computations, y.detection.ped_computations);
    EXPECT_EQ(x.detection.visited_nodes, y.detection.visited_nodes);
    EXPECT_EQ(x.detection.slicer_ops, y.detection.slicer_ops);
    EXPECT_EQ(x.detection.preprocess_calls, y.detection.preprocess_calls);
    EXPECT_EQ(x.detection.batch_calls, y.detection.batch_calls);
    ASSERT_EQ(a.cells[c].schedule_log.size(), b.cells[c].schedule_log.size());
    for (std::size_t i = 0; i < a.cells[c].schedule_log.size(); ++i) {
      EXPECT_EQ(a.cells[c].schedule_log[i].tti, b.cells[c].schedule_log[i].tti);
      EXPECT_EQ(a.cells[c].schedule_log[i].users, b.cells[c].schedule_log[i].users);
      EXPECT_EQ(a.cells[c].schedule_log[i].qam, b.cells[c].schedule_log[i].qam);
    }
  }
}

TEST(Server, DeterministicCountersIdenticalAcrossThreadCounts) {
  // The issue's core contract: goodput / error / schedule counters are
  // bit-identical at any thread count; only latency is host-dependent.
  const ServeSpec spec = ServeSpec::parse(
      "users=6,antennas=2,load=0.7,payload=40,qams=4|16,snr=18;"
      "users=4,antennas=2,load=0.5,payload=30,detector=zf,qams=16,snr=24");
  Server one(spec, 1);
  Server four(spec, 4);
  ASSERT_EQ(one.threads(), 1u);
  ASSERT_EQ(four.threads(), 4u);
  const ServeResult a = one.run(/*ttis=*/8, /*seed=*/17);
  const ServeResult b = four.run(/*ttis=*/8, /*seed=*/17);
  expect_same_deterministic(a, b);

  // Same server re-run: state resets, so the result repeats exactly.
  const ServeResult c = four.run(8, 17);
  expect_same_deterministic(a, c);
}

TEST(Server, CountsAndLatencyBookkeepingAreConsistent) {
  const ServeSpec spec =
      ServeSpec::parse("users=5,antennas=2,load=0.8,payload=40,qams=16,snr=30,spread=0");
  Server server(spec, 2);
  const ServeResult r = server.run(/*ttis=*/6, /*seed=*/3);
  ASSERT_EQ(r.cells.size(), 1u);
  const CellCounters& cc = r.cells[0].counters;
  EXPECT_EQ(cc.ttis, 6u);
  EXPECT_EQ(cc.user_frames_ok + cc.user_frames_error, cc.scheduled_users);
  EXPECT_EQ(cc.scheduled_frames, r.cells[0].schedule_log.size());
  // One latency sample per transmitted MU-MIMO frame; totals merge cells.
  EXPECT_EQ(r.cells[0].latency.count(), cc.scheduled_frames);
  EXPECT_EQ(r.latency.count(), cc.scheduled_frames);
  // Queue conservation: everything that arrived was either delivered
  // (left the queue) or is still backlogged.
  EXPECT_EQ(cc.arrivals, cc.user_frames_ok + cc.backlog_end);
  // At 30 dB with 2 streams the cell delivers: goodput is positive.
  EXPECT_GT(cc.delivered_bits, 0u);
  EXPECT_GT(cc.goodput_mbps(), 0.0);
  EXPECT_GE(cc.fer(), 0.0);
  EXPECT_LE(cc.fer(), 1.0);

  // Detection accounting, as on the link path: one prepare_batch per
  // frame, one select (preprocess_call) per subcarrier, one detection per
  // received vector.
  phy::FrameConfig cfg;
  cfg.qam_order = 16;
  cfg.payload_bytes = 40;
  const phy::FrameCodec codec(cfg);
  const std::uint64_t nsc = cfg.data_subcarriers;
  const std::uint64_t syms = codec.ofdm_symbols_per_frame();
  EXPECT_EQ(cc.detection.prepare_batch_calls, cc.scheduled_frames);
  EXPECT_EQ(cc.detection.preprocess_calls, cc.scheduled_frames * nsc);
  EXPECT_EQ(cc.detection_calls, cc.scheduled_frames * nsc * syms);
  // A frame the CRC rejects has at least one bit error, so an error-free
  // run delivers every frame.
  EXPECT_LE(cc.user_frames_error, cc.bit_errors);
  if (cc.bit_errors == 0) {
    EXPECT_EQ(cc.user_frames_error, 0u);
    EXPECT_EQ(cc.delivered_bits, cc.payload_bits);
  }
}

TEST(Server, DeterministicCountersMatchRecordedValues) {
  // Every CellCounters field of a 3-cell run, pinned: a rate-probing
  // multi-QAM geosphere cell, a linear mmse cell and a soft single-tree-
  // search cell, all at SNRs where some frames fail. Any change to the
  // draw order, the detection path or the delivery rule shows up here.
  const ServeSpec spec = ServeSpec::parse(
      "users=6,antennas=3,load=0.7,payload=40,qams=4|16|64,snr=16;"
      "users=5,antennas=2,load=0.6,payload=30,detector=mmse,qams=16,snr=13;"
      "users=4,antennas=2,load=0.8,payload=30,detector=soft-geosphere-sts,qams=16,snr=11");
  struct Expected {
    std::uint64_t ttis, arrivals, scheduled_frames, scheduled_users, user_frames_ok,
        user_frames_error, bit_errors, payload_bits, delivered_bits, backlog_end;
    std::uint64_t schedule_hash, detection_calls;
    DetectionStats detection;
  };
  const Expected expected[] = {
      {8, 36, 8, 16, 14, 2, 63, 5120, 4480, 22,
       0x877c9e7d0e06d925ull, 1152,
       {4628, 3021, 5742, 3935, 2821, 6450, 384, 8, 384, 1152, 0}},
      {8, 24, 8, 13, 10, 3, 194, 3120, 2400, 14,
       0xd5ececc81a98eae5ull, 1152,
       {0, 0, 0, 0, 1872, 0, 384, 8, 384, 0, 0}},
      {8, 26, 8, 9, 7, 2, 59, 2160, 1680, 19,
       0xbe601d770dfe2fc6ull, 1152,
       {15656, 10391, 15220, 2116, 2552, 22097, 384, 8, 384, 1152, 4838}},
  };
  for (const std::size_t threads : {1u, 3u}) {
    Server server(spec, threads);
    const ServeResult r = server.run(/*ttis=*/8, /*seed=*/23);
    ASSERT_EQ(r.cells.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " cell " + std::to_string(c));
      const CellCounters& x = r.cells[c].counters;
      const Expected& e = expected[c];
      EXPECT_EQ(x.ttis, e.ttis);
      EXPECT_EQ(x.arrivals, e.arrivals);
      EXPECT_EQ(x.scheduled_frames, e.scheduled_frames);
      EXPECT_EQ(x.scheduled_users, e.scheduled_users);
      EXPECT_EQ(x.user_frames_ok, e.user_frames_ok);
      EXPECT_EQ(x.user_frames_error, e.user_frames_error);
      EXPECT_EQ(x.bit_errors, e.bit_errors);
      EXPECT_EQ(x.payload_bits, e.payload_bits);
      EXPECT_EQ(x.delivered_bits, e.delivered_bits);
      EXPECT_EQ(x.backlog_end, e.backlog_end);
      EXPECT_EQ(x.schedule_hash, e.schedule_hash);
      EXPECT_EQ(x.detection_calls, e.detection_calls);
      EXPECT_EQ(x.detection.ped_computations, e.detection.ped_computations);
      EXPECT_EQ(x.detection.visited_nodes, e.detection.visited_nodes);
      EXPECT_EQ(x.detection.lb_lookups, e.detection.lb_lookups);
      EXPECT_EQ(x.detection.lb_prunes, e.detection.lb_prunes);
      EXPECT_EQ(x.detection.slicer_ops, e.detection.slicer_ops);
      EXPECT_EQ(x.detection.queue_ops, e.detection.queue_ops);
      EXPECT_EQ(x.detection.preprocess_calls, e.detection.preprocess_calls);
      EXPECT_EQ(x.detection.prepare_batch_calls, e.detection.prepare_batch_calls);
      EXPECT_EQ(x.detection.batch_calls, e.detection.batch_calls);
      EXPECT_EQ(x.detection.tree_searches, e.detection.tree_searches);
      EXPECT_EQ(x.detection.counter_updates, e.detection.counter_updates);
    }
  }
}

TEST(Server, SoftDetectorCellRunsAndIsDeterministic) {
  const ServeSpec spec = ServeSpec::parse(
      "users=3,antennas=2,load=0.8,payload=30,detector=soft-geosphere,qams=4,snr=12");
  Server one(spec, 1);
  Server two(spec, 2);
  const ServeResult a = one.run(/*ttis=*/4, /*seed=*/5);
  const ServeResult b = two.run(/*ttis=*/4, /*seed=*/5);
  expect_same_deterministic(a, b);
  EXPECT_GT(a.cells[0].counters.scheduled_frames, 0u);
}

TEST(Server, RejectsEmptySpec) {
  EXPECT_THROW(Server(ServeSpec{}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::serve
