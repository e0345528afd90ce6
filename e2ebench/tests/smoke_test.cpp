// Tiny runs of every workload in both modes, and the replica-match check
// rejecting each perturbed counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/spec.h"
#include "sim/engine.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using namespace geosphere;

RunConfig tiny(bool trace) {
  RunConfig c;
  c.seed = 3;
  c.seconds = 1e-3;
  c.trace = trace;
  c.block = 2;
  return c;
}

std::vector<std::string> names(const std::vector<Metric>& metrics) {
  std::vector<std::string> out;
  for (const Metric& m : metrics) out.push_back(m.name);
  return out;
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmoke, UntracedRunIsCorrectAndReportsEveryEndToEndMetric) {
  const RunResult r = run_workload(GetParam(), tiny(false));
  for (const std::string& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GE(r.attempted, 1u);
  EXPECT_EQ(names(r.metrics), end_to_end_metric_names());
  // A two-frame run may well decode every frame, so fer can be 0 here.
  for (const Metric& m : r.metrics) {
    if (m.name == "fer") {
      EXPECT_GE(m.value, 0.0);
      EXPECT_LE(m.value, 1.0);
    } else {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

TEST_P(WorkloadSmoke, TracedReplicaMatchesAndReportsEveryPerLayerMetric) {
  const RunResult r = run_workload(GetParam(), tiny(true));
  for (const std::string& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(names(r.metrics), per_layer_metric_names());
  bool saw_breakdown = false;
  for (const auto& [key, value] : r.notes) saw_breakdown |= key.rfind("breakdown", 0) == 0;
  EXPECT_TRUE(saw_breakdown);
}

TEST_P(WorkloadSmoke, TracedRunNotesTheUntracedQualityMetrics) {
  const RunResult untraced = run_workload(GetParam(), tiny(false));
  const RunResult traced = run_workload(GetParam(), tiny(true));
  for (const Metric& m : untraced.metrics) {
    if (m.name != "goodput_mbps" && m.name != "fer") continue;
    bool found = false;
    for (const auto& [key, value] : traced.notes) {
      if (key != m.name) continue;
      found = true;
      EXPECT_EQ(std::stod(value), m.value) << m.name;
    }
    EXPECT_TRUE(found) << m.name;
  }
}

TEST_P(WorkloadSmoke, SameSeedGivesIdenticalQualityMetrics) {
  const RunResult a = run_workload(GetParam(), tiny(false));
  const RunResult b = run_workload(GetParam(), tiny(false));
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (a.metrics[i].name == "goodput_mbps" || a.metrics[i].name == "fer") {
      EXPECT_EQ(a.metrics[i].value, b.metrics[i].value) << a.metrics[i].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSmoke, ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(ReplicaCheck, RejectsEveryPerturbedLinkCounter) {
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 100;
  scenario.snr_db = 12.0;
  const link::LinkSimulator sim(channel::ChannelSpec::parse("rayleigh"), 4, 4, scenario);
  sim::Engine engine(1);
  const link::LinkStats base =
      engine.run_link(sim, DetectorSpec::parse("geosphere"), 2, 11);
  EXPECT_TRUE(compare_link_stats(base, base).empty());

  using Field = std::size_t link::LinkStats::*;
  for (const Field f : {&link::LinkStats::frames, &link::LinkStats::bit_errors,
                        &link::LinkStats::payload_bits, &link::LinkStats::crc_frames_ok,
                        &link::LinkStats::crc_frames_error,
                        &link::LinkStats::delivered_payload_bits,
                        &link::LinkStats::ofdm_symbol_slots, &link::LinkStats::detection_calls}) {
    link::LinkStats bad = base;
    bad.*f += 1;
    EXPECT_EQ(compare_link_stats(base, bad).size(), 1u);
  }
  using DField = std::uint64_t DetectionStats::*;
  for (const DField f : {&DetectionStats::ped_computations, &DetectionStats::visited_nodes,
                         &DetectionStats::tree_searches, &DetectionStats::preprocess_calls,
                         &DetectionStats::prepare_batch_calls, &DetectionStats::batch_calls,
                         &DetectionStats::lb_lookups, &DetectionStats::lb_prunes,
                         &DetectionStats::slicer_ops, &DetectionStats::queue_ops,
                         &DetectionStats::counter_updates}) {
    link::LinkStats bad = base;
    bad.detection.*f += 1;
    EXPECT_EQ(compare_link_stats(base, bad).size(), 1u);
  }
  link::LinkStats bad = base;
  bad.client_frame_errors[2] += 1;
  EXPECT_EQ(compare_link_stats(base, bad).size(), 1u);
}

TEST(ReplicaCheck, RejectsEveryPerturbedServeCounter) {
  serve::Server server(serve::ServeSpec::parse("users=8,load=0.6,qams=4|16"), 2);
  const serve::ServeResult r = server.run(3, 5);
  const serve::CellCounters& base = r.cells[0].counters;
  EXPECT_TRUE(compare_cell_counters(base, base, 0).empty());

  using Field = std::uint64_t serve::CellCounters::*;
  for (const Field f : {&serve::CellCounters::ttis, &serve::CellCounters::arrivals,
                        &serve::CellCounters::scheduled_frames,
                        &serve::CellCounters::scheduled_users,
                        &serve::CellCounters::user_frames_ok,
                        &serve::CellCounters::user_frames_error,
                        &serve::CellCounters::bit_errors, &serve::CellCounters::payload_bits,
                        &serve::CellCounters::delivered_bits, &serve::CellCounters::backlog_end,
                        &serve::CellCounters::schedule_hash,
                        &serve::CellCounters::detection_calls}) {
    serve::CellCounters bad = base;
    bad.*f += 1;
    const std::vector<std::string> m = compare_cell_counters(base, bad, 0);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ(m[0].rfind("cell 0 ", 0), 0u) << m[0];
  }
  serve::CellCounters bad = base;
  bad.detection.ped_computations += 1;
  EXPECT_EQ(compare_cell_counters(base, bad, 0).size(), 1u);
}

}  // namespace
}  // namespace e2ebench
