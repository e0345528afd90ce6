// Ablation (design-choice from DESIGN.md): column-norm-sorted QR
// preprocessing. The paper's decoders process channel columns as-is; the
// classic V-BLAST-style ordering detects the strongest stream first. This
// bench quantifies what ordering buys on top of Geosphere's enumeration
// and pruning, on well- and poorly-conditioned workloads.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "detect/spec.h"
#include "sim/complexity_experiment.h"
#include "sim/table.h"

namespace {

using namespace geosphere;

struct Row {
  std::string channel_name;
  unsigned qam;
  sim::ComplexityPoint unsorted;
  sim::ComplexityPoint sorted;
};

const std::vector<Row>& results() {
  static const auto rows = [] {
    std::vector<Row> out;
    const std::size_t frames = geosphere::bench::frames_or(30);
    // Default: the well-conditioned vs poorly-conditioned pair; a
    // --channel override runs the ablation on that single channel.
    std::vector<std::pair<std::string, std::string>> channels{{"Rayleigh", "rayleigh"},
                                                              {"Indoor", "indoor"}};
    if (!bench::common().channel.empty())
      channels = {{bench::common().channel, bench::common().channel}};

    for (const unsigned qam : {16u, 64u}) {
      for (const auto& [name, spec_text] : channels) {
        const channel::ChannelModel* ch = &bench::engine().channel(
            channel::ChannelSpec::parse(spec_text), 4, 4);
        link::LinkScenario scenario;
        scenario.frame.qam_order = qam;
        scenario.frame.payload_bytes = 250;
        scenario.snr_db = 20.0;
        const auto points = sim::measure_complexity(
            bench::engine(), *ch, scenario,
            {{"Geosphere", DetectorSpec::parse("geosphere")},
             {"Geosphere+SQRD", DetectorSpec::parse("geosphere-sqrd")}},
            frames, bench::point_seed(1, qam));
        out.push_back({name, qam, points[0], points[1]});
      }
    }
    return out;
  }();
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  geosphere::bench::init_common(argc, argv);
  std::cout << "=== Ablation: column-norm-sorted QR preprocessing (4x4 @ 20 dB) ===\n\n";

  sim::TablePrinter table({"channel", "QAM", "PED/sc (as-is)", "PED/sc (sorted)",
                           "nodes/sc (as-is)", "nodes/sc (sorted)"});
  for (const auto& row : results())
    table.add_row({row.channel_name, std::to_string(row.qam),
                   sim::TablePrinter::fmt(row.unsorted.avg_ped_per_subcarrier, 1),
                   sim::TablePrinter::fmt(row.sorted.avg_ped_per_subcarrier, 1),
                   sim::TablePrinter::fmt(row.unsorted.avg_visited_nodes, 1),
                   sim::TablePrinter::fmt(row.sorted.avg_visited_nodes, 1)});
  std::cout << '\n';
  table.print(std::cout);
  std::cout << "\nOrdering shrinks the searched tree (fewer visited nodes), on top\n"
               "of which Geosphere's enumeration/pruning savings still apply.\n";
  return 0;
}
