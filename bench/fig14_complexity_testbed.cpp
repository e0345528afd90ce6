// Figure 14: average partial-Euclidean-distance calculations per
// subcarrier for ETH-SD vs Geosphere, on the same testbed workloads as the
// Fig. 11 throughput experiments.
//
// Paper claims reproduced here: Geosphere is consistently cheaper than
// ETH-SD, the savings grow with SNR (denser constellations), reaching
// ~63% at 25 dB; at high SNR Geosphere's cost is comparable to linear
// detection (footnote 5).
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.h"
#include "sim/complexity_experiment.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

struct Config {
  std::size_t clients;
  std::size_t antennas;
};
const std::vector<Config> kConfigs{{2, 2}, {2, 4}, {3, 4}, {4, 4}};
const std::vector<double> kSnrs{15.0, 20.0, 25.0};
// Modulation the rate adaptation of Fig. 11 typically settles on per SNR
// (kept fixed here so the complexity workload is deterministic).
const std::map<double, unsigned> kQamAtSnr{{15.0, 16u}, {20.0, 16u}, {25.0, 64u}};

struct Row {
  Config config;
  double snr;
  unsigned qam;
  sim::ComplexityPoint eth;
  sim::ComplexityPoint geo;
};

const std::vector<Row>& results() {
  static const auto rows = [] {
    std::vector<Row> out;
    const std::size_t frames = geosphere::bench::frames_or(40);
    for (const auto& cfg : kConfigs) {
      const channel::ChannelModel& ensemble =
          bench::make_channel("indoor", cfg.clients, cfg.antennas);
      for (const double snr : kSnrs) {
        link::LinkScenario scenario;
        scenario.frame.qam_order = kQamAtSnr.at(snr);
        scenario.frame.payload_bytes = 500;
        scenario.snr_db = snr;
        scenario.snr_jitter_db = 5.0;
        const auto points = sim::measure_complexity(
            bench::engine(), ensemble, scenario,
            {{"ETH-SD", DetectorSpec::parse("eth-sd")},
             {"Geosphere", DetectorSpec::parse("geosphere")}},
            frames,
            bench::point_seed(1, static_cast<std::uint64_t>(cfg.clients * 100 + snr)));
        out.push_back({cfg, snr, scenario.frame.qam_order, points[0], points[1]});
      }
    }
    return out;
  }();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Paper Fig. 14: PED calculations per subcarrier, ETH-SD vs Geosphere ===\n"
               "Same workloads as Fig. 11 (indoor ensemble, coded frames).\n\n";

  // Footnote 5 reference: ZF costs n_a * n_c complex multiplications per
  // subcarrier once the filter is formed.
  sim::TablePrinter table({"config", "SNR (dB)", "QAM", "ETH-SD PED/sc",
                           "Geosphere PED/sc", "savings", "ZF cmul/sc"});
  for (const auto& row : results())
    table.add_row(
        {std::to_string(row.config.clients) + "x" + std::to_string(row.config.antennas),
         sim::TablePrinter::fmt(row.snr, 0), std::to_string(row.qam),
         sim::TablePrinter::fmt(row.eth.avg_ped_per_subcarrier, 1),
         sim::TablePrinter::fmt(row.geo.avg_ped_per_subcarrier, 1),
         sim::TablePrinter::fmt(
             100.0 * (1.0 - row.geo.avg_ped_per_subcarrier / row.eth.avg_ped_per_subcarrier),
             0) + "%",
         std::to_string(row.config.clients * row.config.antennas)});
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
