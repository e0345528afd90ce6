// Ablation (paper Section 5.3.2 discussion): geometric pruning's
// contribution grows as the target error rate drops. At ~10% FER pruning
// saves 13-27% over zigzag-only enumeration; at ~1% FER (higher SNR,
// tighter spheres) the paper reports the gain reaching 47%.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "link/snr_search.h"
#include "sim/complexity_experiment.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

struct Row {
  unsigned qam;
  double target_fer;
  double snr_db;
  double zigzag_only_ped;
  double full_ped;
  double pruning_gain_pct;
};

const std::vector<Row>& results() {
  static const auto rows = [] {
    std::vector<Row> out;
    const std::size_t frames = geosphere::bench::frames_or(40);
    const channel::ChannelModel& rayleigh = bench::make_channel("rayleigh", 4, 4);
    for (const unsigned qam : {64u, 256u}) {
      for (const double target : {0.10, 0.01}) {
        link::LinkScenario scenario;
        scenario.frame.qam_order = qam;
        scenario.frame.payload_bytes = 250;

        link::SnrSearchConfig search;
        search.target_fer = target;
        search.lo_db = qam == 64 ? 10.0 : 16.0;
        search.probe_frames = target < 0.05 ? 60 : 30;
        const double snr = bench::engine().find_snr_for_fer(
            rayleigh, scenario, DetectorSpec::parse("geosphere"), search,
            bench::point_seed(1, qam));
        scenario.snr_db = snr;

        const auto points = sim::measure_complexity(
            bench::engine(), rayleigh, scenario,
            {{"Geosphere-2DZZ", DetectorSpec::parse("geosphere-2dzz")},
             {"Geosphere", DetectorSpec::parse("geosphere")}},
            frames,
            bench::point_seed(1, qam + static_cast<std::uint64_t>(100 * target)));
        const double gain = 100.0 * (1.0 - points[1].avg_ped_per_subcarrier /
                                               points[0].avg_ped_per_subcarrier);
        out.push_back({qam, target, snr, points[0].avg_ped_per_subcarrier,
                       points[1].avg_ped_per_subcarrier, gain});
      }
    }
    return out;
  }();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Ablation: geometric pruning gain vs target FER (4x4, channel "
            << geosphere::bench::channel_or("rayleigh") << ") ===\n"
               "Paper: pruning gains grow from 13-27% at 10% FER to ~47% at 1% FER.\n\n";

  sim::TablePrinter table({"QAM", "target FER", "SNR (dB)", "2DZZ-only PED/sc",
                           "full PED/sc", "pruning gain"});
  for (const auto& row : results())
    table.add_row({std::to_string(row.qam), sim::TablePrinter::fmt(row.target_fer),
                   sim::TablePrinter::fmt(row.snr_db, 1),
                   sim::TablePrinter::fmt(row.zigzag_only_ped, 1),
                   sim::TablePrinter::fmt(row.full_ped, 1),
                   sim::TablePrinter::fmt(row.pruning_gain_pct, 0) + "%"});
  std::cout << '\n';
  table.print(std::cout);
  return 0;
}
